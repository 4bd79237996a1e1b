//! The repository benchmark: three seeded workloads (`cold`, `search`,
//! `serve`) over the Singe compiler, simulator and compile-farm service.
//!
//! ```text
//! perfbench --workload <cold|search|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod check;
mod cold;
mod gen;
mod layers;
mod search;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// End-to-end metrics, printed by every workload (README.md says what each
/// means per workload).
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mpts_per_s", "Mpts/s.exact"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("pass_s", "s"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics. A layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 47] = [
    ("chemkin.parser.ms", "ms"),
    ("chemkin.parser.mb_per_s", "MB/s"),
    ("core.kernels.ms", "ms"),
    ("core.kernels.dfg_ops", "count.exact"),
    ("core.compiler.ms", "ms"),
    ("core.compiler.validate.ms", "ms"),
    ("core.compiler.mapping.ms", "ms"),
    ("core.compiler.schedule.ms", "ms"),
    ("core.compiler.schedule-verify.ms", "ms"),
    ("core.compiler.barrier-alloc.ms", "ms"),
    ("core.compiler.emit.ms", "ms"),
    ("core.compiler.verify.ms", "ms"),
    ("core.compiler.baseline.ms", "ms"),
    ("core.compiler.instrs", "count.exact"),
    ("core.compiler.barriers", "count.exact"),
    ("core.compiler.spilled_vars", "count.exact"),
    ("gpu_sim.flatten.ms", "ms"),
    ("gpu_sim.flatten.ops", "count.exact"),
    ("gpu_sim.lower.ms", "ms"),
    ("gpu_sim.lower.uops", "count.exact"),
    ("gpu_sim.cta.ms", "ms"),
    ("gpu_sim.cta.sim_cycles", "cycles.exact"),
    ("gpu_sim.model.ms", "ms"),
    ("gpu_sim.model.cycle_ratio", "ratio.exact"),
    ("core.search.ms", "ms"),
    ("core.search.row_s", "s"),
    ("core.search.model_evals", "count.exact"),
    ("core.search.compiled_frac", "frac.exact"),
    ("core.search.simulations", "count.exact"),
    ("core.search.sim_frac", "frac.exact"),
    ("serve.artifact.load_ms", "ms"),
    ("serve.artifact.warm_hits", "count"),
    ("serve.artifact.cold_compiles", "count"),
    ("serve.sched.ms", "ms"),
    ("serve.sched.wait_ms", "ms"),
    ("serve.sched.rejected", "count"),
    ("serve.sched.backlog_max", "count"),
    ("serve.session.ms", "ms"),
    ("serve.session.inflight_joins", "count"),
    ("serve.session.probe_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("load.late_ms", "ms"),
    ("check.reference.ms", "ms"),
    ("check.max_rel_err", "ratio"),
    ("check.failed_frac", "frac"),
    ("request.uncovered_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Traced end-to-end median, for the tracing overhead by difference.
const TRACE_P50: (&str, &str) = ("trace.p50_ms", "ms");

/// Set-up runs at least `SETUPS` times and for at least `SETUP_MIN_S` in
/// all; `setup_s` is the median.
const SETUPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: BTreeMap<String, f64>,
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn put_e2e(&mut self, k: &str, v: f64) {
        self.e2e.insert(k.to_string(), v);
    }

    pub fn put_layer(&mut self, k: &str, v: f64) {
        self.layers.insert(k.to_string(), v);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = val.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["cold", "search", "serve"].contains(&a.workload.as_str()) {
        return Err(format!("unknown workload '{}'", a.workload));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// Time one set-up.
fn timed<T>(times: &mut Vec<f64>, setup: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = setup();
    times.push(t.elapsed().as_secs_f64());
    out
}

/// Repeat the set-up after the measured phase until it has run at least
/// [`SETUPS`] times for at least [`SETUP_MIN_S`] in all. The median then
/// spans repetitions before and after the measured phase, and a cheap
/// set-up is timed often enough to be steady.
fn more_setups<T>(times: &mut Vec<f64>, mut setup: impl FnMut(usize) -> T) {
    while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        let rep = times.len();
        drop(timed(times, || setup(rep)));
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine and build record printed with every result.
fn machine_json(a: &Args) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |k: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(k))
            .and_then(|l| l.split_once(':'))
            .map_or(String::new(), |(_, v)| v.trim().to_string())
    };
    let flags = field("flags");
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"avx2\": {}, \"avx512f\": {}, \"avx512dq\": {}, \
         \"features\": {{\"vexp\": {}}}, \"commit\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}}}",
        nproc(),
        field("model name").replace('"', "'"),
        has("avx2"),
        has("avx512f"),
        has("avx512dq"),
        cfg!(feature = "vexp"),
        commit,
        a.workload,
        a.seed,
        a.seconds,
        a.trace
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Working space under the current directory, removed at the end of the run.
fn work_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new("perfbench")
        .join(".work")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn json_metric(out: &mut String, name: &str, v: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let v = if v.is_finite() { v } else { 0.0 };
    out.push_str(&format!(
        "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
    ));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(serve::CHILD) {
        std::process::exit(serve::child_main(&argv[1..]));
    }
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <cold|search|serve> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let machine = machine_json(&a);
    println!("machine {machine}");
    let work = match work_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: work dir: {e}");
            std::process::exit(1);
        }
    };
    let mut tr = trace::Tracer::new(a.trace, Instant::now());
    let mut setups = Vec::new();
    let outcome = match a.workload.as_str() {
        "cold" => {
            let inputs = timed(&mut setups, || cold::setup(a.seed, a.seconds));
            let o = cold::run(&inputs, &mut tr);
            drop(inputs);
            more_setups(&mut setups, |_| cold::setup(a.seed, a.seconds));
            Ok(o)
        }
        "search" => timed(&mut setups, || search::setup(a.seed, a.seconds)).map(|passes| {
            let o = search::run(&passes, &mut tr);
            drop(passes);
            more_setups(&mut setups, |_| search::setup(a.seed, a.seconds));
            o
        }),
        _ => timed(&mut setups, || serve::setup(a.seed, &work, 0)).map(|setup| {
            let o = serve::run(setup, a.seconds, &mut tr);
            more_setups(&mut setups, |rep| serve::setup(a.seed, &work, rep));
            o
        }),
    };
    let _ = std::fs::remove_dir_all(&work);
    let mut o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up: {e}", a.workload);
            std::process::exit(1);
        }
    };
    o.put_e2e("setup_s", stats::median(&setups));
    o.put_e2e("peak_rss_mb", peak_rss_mb());
    o.put_layer(
        "check.failed_frac",
        o.failed as f64 / o.attempted.max(1) as f64,
    );

    let mut correct = o.failed == 0 && o.attempted > 0;
    let mut metrics = String::from("{");
    if a.trace {
        let spans = tr.spans().len() as f64;
        let per_req = spans / o.attempted.max(1) as f64;
        o.put_layer("trace.overhead_ms", trace::span_cost_ns() * per_req / 1e6);
        for (name, unit) in PER_LAYER {
            json_metric(
                &mut metrics,
                name,
                o.layers.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
        json_metric(&mut metrics, TRACE_P50.0, o.e2e["p50_ms"], TRACE_P50.1);
        eprintln!("perfbench: {} spans, {per_req:.1} per request", spans);
        let dir = Path::new("perfbench").join(".work").join("traces");
        let path = dir.join(format!("{}-{}.json", a.workload, a.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::write(&path, trace::chrome_json(tr.spans(), &machine)));
        match written {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: trace not written: {e}"),
        }
    } else {
        for (name, unit) in END_TO_END {
            let v = o.e2e.get(name).copied();
            if !v.is_some_and(|v| v.is_finite() && v > 0.0) {
                eprintln!("perfbench: metric {name} missing or not positive: {v:?}");
                correct = false;
            }
            json_metric(&mut metrics, name, v.unwrap_or(0.0), unit);
        }
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.attempted, o.failed
    );
}
