//! Regenerates every table and figure of the paper as text (and JSON).
//!
//! Usage: `report [figure] [--jobs N]` where figure is one of
//! `mechanisms fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 gflops
//! ablate-barriers spills verify profile all` (default `all`). Results
//! also land in `target/report.json`. `verify` runs the independent
//! schedule verifier over every kernel × mechanism × architecture ×
//! compiler combination and exits non-zero on any violation. `profile`
//! runs the per-warp cycle-attribution profiler over every kernel ×
//! variant × architecture, prints the paper-style stall breakdown,
//! writes `target/profile.json`, and exports a Chrome trace to
//! `target/profile_trace.json`; it is deliberately NOT part of `all` so
//! `BENCH_report.json` wall-clock stays comparable across runs. `model`
//! compares the static analytical performance model against the simulator
//! for every kernel × variant × architecture, writes `target/model.json`,
//! and exits non-zero if the accuracy gate (Spearman ≥ 0.8, ratio within
//! 2x) fails; like `profile` it runs solo, never under `all`.
//! `engine-bench` times the segment-compiled engine against the legacy
//! interpreter on one warp-specialized DME viscosity CTA and records
//! lanes/second into the `engine` line of `BENCH_report.json` (preserved
//! across `report all` rewrites); it too runs solo. `serve-bench`
//! measures the compile-farm service layer — cold vs warm (post-restart)
//! compile latency, sustained compiles/second across a fleet of synth
//! mechanisms, cache hit rate, and in-flight dedup — and records the
//! `serve` line of `BENCH_report.json` (also carried across rewrites);
//! `--kernel`/`--arch` select the primary combination (typed ids: an
//! unknown name lists the valid ones). `pipeline` sweeps the software
//! pipeline depth K=1..4 for the warp-specialized DME viscosity kernel on
//! the Hopper-class architecture, records the per-CTA cycle trajectory as
//! the `pipeline` line of `BENCH_report.json` (also carried across
//! rewrites), and exits non-zero unless some K>1 beats the single-buffered
//! schedule — the simulator is deterministic, so this is an exact gate.
//!
//! Figures are computed on a worker pool (`--jobs`, `SINGE_JOBS`, default
//! = available parallelism) but every figure renders into its own buffer
//! and the buffers are printed in input order, so stdout and
//! `target/report.json` are byte-identical at any worker count. Wall-clock
//! per figure goes to **stderr**, and `report all` additionally writes a
//! `BENCH_report.json` at the repo root to track the perf trajectory.

use std::fmt::Write as _;
use std::time::Instant;

use chemkin::synth;
use chemkin::Mechanism;
use gpu_sim::arch::GpuArch;
use singe::config::CompileOptions;
use singe_bench::*;

const FIGURES: &[&str] = &[
    "mechanisms", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "gflops", "ablate-barriers", "spills", "verify",
    "profile", "model", "engine-bench", "serve-bench", "pipeline",
    "search", "all",
];

/// Wall-clock of the serial `report all` before the fast-path/memoization/
/// pool overhaul, measured on the CI machine. `BENCH_report.json` records
/// the current run against it; override with `SINGE_BASELINE_SECONDS` when
/// re-baselining on different hardware.
const PRE_PR_SEQUENTIAL_SECONDS: f64 = 4.297;

/// One figure's rendered output: stdout text, JSON rows, and the number of
/// verification failures (non-zero only for `verify`).
struct FigOutput {
    text: String,
    rows: Vec<Row>,
    failures: usize,
}

fn main() {
    let mut which: Option<String> = None;
    let mut jobs: Option<usize> = None;
    // `serve-bench` selectors; typed parses so a typo prints the valid
    // ids instead of silently benchmarking the wrong thing.
    let mut sb_kernel = KernelId::Viscosity;
    let mut sb_arch = ArchId::Kepler;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" {
            let v = args.next().unwrap_or_default();
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs expects a positive integer, got '{v}'");
                    std::process::exit(2);
                }
            }
        } else if a == "--kernel" {
            match args.next().unwrap_or_default().parse::<KernelId>() {
                Ok(k) => sb_kernel = k,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        } else if a == "--arch" {
            match args.next().unwrap_or_default().parse::<ArchId>() {
                Ok(a) => sb_arch = a,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            }
        } else if which.is_none() {
            which = Some(a);
        } else {
            eprintln!("unexpected argument '{a}'");
            std::process::exit(2);
        }
    }
    let which = which.unwrap_or_else(|| "all".into());
    if !FIGURES.contains(&which.as_str()) {
        eprintln!("unknown figure '{which}'; expected one of: {}", FIGURES.join(" "));
        std::process::exit(2);
    }
    let jobs = jobs.unwrap_or_else(singe::pool::default_jobs);

    let dme = synth::dme();
    let heptane = synth::heptane();
    let archs = [GpuArch::fermi_c2070(), GpuArch::kepler_k20c(), GpuArch::hopper()];

    // `profile` runs solo (never under `all`): its probe launches would
    // shift the wall-clock figures `BENCH_report.json` tracks.
    if which == "profile" {
        let failures = profile_report(&dme, &archs);
        if failures > 0 {
            eprintln!("\ncycle attribution: {failures} failure(s)");
            std::process::exit(1);
        }
        return;
    }

    // `model` also runs solo: it shares `profile`'s probe launches and
    // would likewise shift the `BENCH_report.json` wall-clock figures.
    if which == "model" {
        if !model_report(&dme, &archs) {
            eprintln!("\nmodel accuracy gate FAILED");
            std::process::exit(1);
        }
        return;
    }

    // `engine-bench` also runs solo: it is a throughput probe of the
    // execution engine itself, not a paper figure, and must not shift the
    // figure wall-clocks `BENCH_report.json` tracks.
    if which == "engine-bench" {
        engine_bench_report(&dme, &archs);
        return;
    }

    // `serve-bench` also runs solo: it measures the compile-farm service
    // layer, not a paper figure.
    if which == "serve-bench" {
        serve_bench_report(sb_kernel, sb_arch, jobs);
        return;
    }

    // `pipeline` also runs solo: its profiled depth-sweep launches would
    // shift the figure wall-clocks `BENCH_report.json` tracks.
    if which == "pipeline" {
        if !pipeline_report(&dme) {
            eprintln!("\npipeline depth sweep: no K>1 win over the single-buffered schedule");
            std::process::exit(1);
        }
        return;
    }

    // `search` also runs solo: the model-driven schedule search compiles
    // hundreds of candidates and would shift the figure wall-clocks
    // `BENCH_report.json` tracks.
    if which == "search" {
        if !search_report(&dme, &archs, jobs) {
            eprintln!("\nschedule search: gate FAILED (win/simulation-budget/verification)");
            std::process::exit(1);
        }
        return;
    }

    // Every figure as a (name, render) pair; rendering is pure with respect
    // to stdout so figures can run on the pool in any order.
    type FigFn<'a> = Box<dyn Fn() -> FigOutput + Sync + 'a>;
    let mut figs: Vec<(&'static str, FigFn<'_>)> = Vec::new();
    let selected = |name: &str| which == name || which == "all";
    if selected("mechanisms") {
        figs.push(("mechanisms", Box::new(|| figure3(&[&dme, &heptane]))));
    }
    if selected("fig9") {
        figs.push(("fig9", Box::new(|| fig9(&dme, &archs[1], jobs))));
    }
    if selected("fig10") {
        figs.push(("fig10", Box::new(|| fig10(&[&dme, &heptane], &archs[1]))));
    }
    for (fig, kind, mech) in [
        ("fig11", Kind::Viscosity, &dme),
        ("fig12", Kind::Viscosity, &heptane),
        ("fig13", Kind::Diffusion, &dme),
        ("fig14", Kind::Diffusion, &heptane),
        ("fig15", Kind::Chemistry, &dme),
        ("fig16", Kind::Chemistry, &heptane),
    ] {
        if selected(fig) {
            let archs = &archs;
            figs.push((fig, Box::new(move || throughput_figure(fig, kind, mech, archs, jobs))));
        }
    }
    if selected("gflops") {
        figs.push(("gflops", Box::new(|| gflops_analysis(&dme, &archs))));
    }
    if selected("ablate-barriers") {
        figs.push(("ablate-barriers", Box::new(|| ablate_barriers(&dme, &archs))));
    }
    if selected("spills") {
        figs.push(("spills", Box::new(|| spills(&heptane, &archs))));
    }
    if selected("verify") {
        figs.push(("verify", Box::new(|| verify_all(&[&dme, &heptane], &archs, jobs))));
    }

    let t_all = Instant::now();
    let results: Vec<(FigOutput, f64)> = singe::pool::run_ordered(jobs, figs.len(), |i| {
        let t0 = Instant::now();
        let out = figs[i].1();
        (out, t0.elapsed().as_secs_f64())
    });
    let total_seconds = t_all.elapsed().as_secs_f64();

    // Commit output in input order: stdout is deterministic at any --jobs.
    let mut rows: Vec<Row> = Vec::new();
    let mut failures = 0usize;
    let mut timings: Vec<(&'static str, f64, usize)> = Vec::new();
    for ((name, _), (out, seconds)) in figs.iter().zip(&results) {
        print!("{}", out.text);
        failures += out.failures;
        timings.push((name, *seconds, out.rows.len()));
        rows.extend(out.rows.iter().cloned());
    }

    if !rows.is_empty() {
        let json = rows_to_json(&rows);
        std::fs::create_dir_all("target").ok();
        std::fs::write("target/report.json", json).expect("write report.json");
        eprintln!("\n[wrote {} rows to target/report.json]", rows.len());
    }

    // Wall-clock summary on stderr (stdout stays byte-comparable).
    eprintln!("\n[timing: jobs={jobs}]");
    for (name, seconds, n_rows) in &timings {
        eprintln!("[  {name:<16} {seconds:8.3}s  {n_rows:>3} rows]");
    }
    eprintln!("[  {:<16} {total_seconds:8.3}s]", "total");

    // SINGE_BENCH_JSON=0 keeps wall-clock bookkeeping out of runs whose
    // outputs are compared byte-for-byte (the determinism test).
    if which == "all" && std::env::var("SINGE_BENCH_JSON").as_deref() != Ok("0") {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
        let prior = std::fs::read_to_string(path).ok();
        let bench = bench_report_json(jobs, total_seconds, &timings, prior.as_deref());
        match std::fs::write(path, bench) {
            Ok(()) => eprintln!("[wrote {path}]"),
            Err(e) => eprintln!("[could not write {path}: {e}]"),
        }
    }

    if failures > 0 {
        eprintln!("\nschedule verification: {failures} failure(s)");
        std::process::exit(1);
    }
}

/// Render `BENCH_report.json`: current wall-clock vs the recorded pre-PR
/// sequential baseline, plus a `runs` history keyed by worker count.
///
/// Each `runs` entry is one line of JSON. `prior` is the previous file's
/// contents (if any): its entries for *other* job counts are kept, so one
/// `report all --jobs 1` followed by `--jobs 8` leaves both timings on
/// record (the CI smoke job regresses against the slowest committed run).
fn bench_report_json(
    jobs: usize,
    total_seconds: f64,
    timings: &[(&'static str, f64, usize)],
    prior: Option<&str>,
) -> String {
    let baseline = std::env::var("SINGE_BASELINE_SECONDS")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v > 0.0)
        .unwrap_or(PRE_PR_SEQUENTIAL_SECONDS);
    // Carry forward prior runs with a different `jobs` value (line-based:
    // every runs entry this function ever wrote is a single line starting
    // with `{"jobs": N,`).
    let mut runs: Vec<(usize, String)> = Vec::new();
    for line in prior.unwrap_or("").lines() {
        let entry = line.trim().trim_end_matches(',');
        if let Some(rest) = entry.strip_prefix("{\"jobs\": ") {
            if let Some(j) = rest.split(',').next().and_then(|v| v.parse::<usize>().ok()) {
                if j != jobs && entry.ends_with('}') {
                    runs.push((j, entry.to_string()));
                }
            }
        }
    }
    runs.push((
        jobs,
        format!(
            "{{\"jobs\": {jobs}, \"total_seconds\": {total_seconds:.3}, \
             \"speedup_vs_pre_pr\": {:.2}}}",
            baseline / total_seconds
        ),
    ));
    runs.sort_by_key(|(j, _)| *j);

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"total_seconds\": {total_seconds:.3},");
    let _ = writeln!(out, "  \"pre_pr_sequential_seconds\": {baseline:.3},");
    let _ = writeln!(out, "  \"speedup_vs_pre_pr\": {:.2},", baseline / total_seconds);
    // Carry the solo-benchmark entries forward: like every `runs` entry,
    // each is a single line this binary wrote (`"engine": {...}` from
    // `report engine-bench`, `"serve": {...}` from `report serve-bench`,
    // `"pipeline": {...}` from `report pipeline`, `"search": {...}` from
    // `report search`).
    if let Some(prior) = prior {
        for key in ["\"engine\": {", "\"serve\": {", "\"pipeline\": {", "\"search\": {"] {
            for line in prior.lines() {
                let entry = line.trim().trim_end_matches(',');
                if entry.starts_with(key) && entry.ends_with('}') {
                    let _ = writeln!(out, "  {entry},");
                    break;
                }
            }
        }
    }
    out.push_str("  \"runs\": [\n");
    for (i, (_, entry)) in runs.iter().enumerate() {
        let _ = write!(out, "    {entry}");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"figures\": [\n");
    for (i, (name, seconds, n_rows)) in timings.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"figure\": \"{name}\", \"seconds\": {seconds:.3}, \"rows\": {n_rows}}}"
        );
        out.push_str(if i + 1 < timings.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// `engine-bench`: wall-clock sweep of the segment-compiled engine vs the
/// legacy per-instruction interpreter across both DME transport kernels ×
/// every architecture × warp-specialized/baseline. Best-of-N timing (the
/// minimum absorbs scheduler noise on shared CI machines); throughput is
/// reported as executed *lanes* per second (warp instructions × 32). Each
/// row also carries the kernel's exp profile: how many exp uops the
/// lowered program executes, what fraction the optimizer folded into SoA
/// batches, the exp-chain rewrite ledger, and an *estimated* share of
/// engine wall-clock spent in exp (exp lanes × a calibrated per-lane exp
/// cost ÷ measured seconds — an estimate, not a measurement, since exp is
/// not timed in situ). The result lands on stdout and, unless
/// `SINGE_BENCH_JSON=0`, as the single-line `engine` key of
/// `BENCH_report.json` (primary fields = the DME-viscosity/WS/Hopper row,
/// keeping the key's schema backward compatible; the sweep rides in
/// `rows`), which `report all` preserves when it rewrites the file — so
/// the engine's throughput trajectory is tracked alongside the figure
/// wall-clocks.
fn engine_bench_report(mech: &Mechanism, archs: &[GpuArch]) {
    use chemkin::state::{GridDims, GridState};
    use gpu_sim::interp::{run_cta, run_cta_profiled};
    use gpu_sim::{flatten_cached, WARP_SIZE};
    use singe::kernels::launch_arrays;

    let time_best = |n: usize, f: &dyn Fn()| {
        for _ in 0..3 {
            f();
        }
        let mut best = f64::INFINITY;
        for _ in 0..n {
            let t = Instant::now();
            f();
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    };

    // Calibrate the per-lane cost of the process's exp path (libm or the
    // vectorized vmath kernel, whichever dispatch selected) on a buffer of
    // in-range arguments comparable to Arrhenius/transport exponents.
    let exp_ns_per_lane = {
        let xs: Vec<f64> = (0..4096).map(|i| (i as f64) * 0.0043 - 8.0).collect();
        let out = std::cell::RefCell::new(vec![0.0; xs.len()]);
        let best = time_best(20, &|| {
            let mut o = out.borrow_mut();
            // black_box: the buffer is never read afterwards, and without
            // an opaque use the optimizer deletes the entire computation.
            gpu_sim::vmath::exp_slice(std::hint::black_box(&xs), &mut o);
            std::hint::black_box(&mut o[0]);
        });
        best / xs.len() as f64 * 1e9
    };
    let vexp = gpu_sim::vmath::vexp_active();

    struct SweepRow {
        kernel: &'static str,
        arch: String,
        variant: &'static str,
        lanes_per_sec: f64,
        eng: f64,
        interp: f64,
        exp_uops: u64,
        exp_batched: u64,
        exp_share: f64,
        stats: gpu_sim::EngineStats,
    }
    let mut rows: Vec<SweepRow> = Vec::new();
    // The primary combo (committed trajectory row) runs with more reps.
    let primary_arch = archs.len() - 1;
    for kind in [Kind::Viscosity, Kind::Diffusion] {
        for (ai, arch) in archs.iter().enumerate() {
            for variant in [Variant::WarpSpecialized, Variant::Baseline] {
                let primary =
                    kind == Kind::Viscosity && ai == primary_arch && variant == Variant::WarpSpecialized;
                let built = build(kind, mech, arch, variant);
                let prog = flatten_cached(&built.kernel);
                let points = built.kernel.points_per_cta;
                let grid =
                    GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, built.n_species, 1234);
                let arrays = launch_arrays(&built.kernel.global_arrays, &grid).expect("known arrays");
                let lanes: u64 = (0..prog.n_warps()).map(|w| prog.stream_len(w) as u64).sum::<u64>()
                    * WARP_SIZE as u64;
                let eng = time_best(if primary { 30 } else { 10 }, &|| {
                    run_cta(&built.kernel, &prog, &arrays, points, 0, false, arch)
                        .expect("engine CTA");
                });
                let interp = time_best(if primary { 10 } else { 3 }, &|| {
                    run_cta_profiled(&built.kernel, &prog, &arrays, points, 0, false, arch, None)
                        .expect("interp CTA");
                });
                let stats = gpu_sim::flatcache::engine_stats(&built.kernel, &prog);
                let exp_lanes = stats.exp_ops * WARP_SIZE as u64;
                rows.push(SweepRow {
                    kernel: kind.name(),
                    arch: arch.name.split_whitespace().last().unwrap_or(arch.name).to_string(),
                    variant: variant.name(),
                    lanes_per_sec: lanes as f64 / eng,
                    eng,
                    interp,
                    exp_uops: stats.exp_ops,
                    exp_batched: stats.exp_batched,
                    exp_share: (exp_lanes as f64 * exp_ns_per_lane * 1e-9 / eng).min(1.0),
                    stats,
                });
            }
        }
    }

    println!(
        "== engine throughput sweep ({} kernels, engine vs interp, vexp {}) ==",
        mech.name,
        if vexp { "on" } else { "off" }
    );
    println!(
        "{:<10} {:<10} {:<18} {:>9} {:>10} {:>8} {:>6} {:>9}",
        "kernel", "arch", "variant", "ms/CTA", "Mlanes/s", "speedup", "exp%", "batched%"
    );
    for r in &rows {
        let batched_pct = if r.exp_uops > 0 {
            r.exp_batched as f64 / r.exp_uops as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{:<10} {:<10} {:<18} {:>9.3} {:>10.1} {:>7.2}x {:>5.0}% {:>8.0}%",
            r.kernel,
            r.arch,
            r.variant,
            r.eng * 1e3,
            r.lanes_per_sec / 1e6,
            r.interp / r.eng,
            r.exp_share * 100.0,
            batched_pct
        );
    }
    // The primary row: viscosity/WS on the last (Hopper) arch.
    let p = rows
        .iter()
        .rposition(|r| {
            r.kernel == Kind::Viscosity.name() && r.variant == Variant::WarpSpecialized.name()
        })
        .expect("primary row present");
    let prim = &rows[p];
    println!(
        "rewrites (viscosity ws): cse {} | exp*exp applied {} rejected {} infeasible {}",
        prim.stats.exp_cse,
        prim.stats.exp_mul_applied,
        prim.stats.exp_mul_rejected,
        prim.stats.exp_mul_infeasible
    );

    if std::env::var("SINGE_BENCH_JSON").as_deref() == Ok("0") {
        return;
    }
    let row_json = |r: &SweepRow| {
        format!(
            "{{\"kernel\": \"{}\", \"arch\": \"{}\", \"variant\": \"{}\", \
             \"lanes_per_sec\": {:.0}, \"engine_seconds\": {:.6}, \
             \"speedup_vs_interp\": {:.2}, \"exp_uops\": {}, \"exp_batched\": {}, \
             \"exp_share_est\": {:.3}}}",
            r.kernel,
            r.arch,
            r.variant,
            r.lanes_per_sec,
            r.eng,
            r.interp / r.eng,
            r.exp_uops,
            r.exp_batched,
            r.exp_share,
        )
    };
    let sweep = rows.iter().map(|r| row_json(r)).collect::<Vec<_>>().join(", ");
    let (lanes_per_sec, eng, interp) = (prim.lanes_per_sec, prim.eng, prim.interp);
    let speedup = interp / eng;
    let batched_fraction = if prim.exp_uops > 0 {
        prim.exp_batched as f64 / prim.exp_uops as f64
    } else {
        0.0
    };
    let entry = format!(
        "\"engine\": {{\"kernel\": \"dme-viscosity-ws\", \"arch\": \"{}\", \
         \"lanes_per_sec\": {lanes_per_sec:.0}, \"engine_seconds\": {eng:.6}, \
         \"interp_seconds\": {interp:.6}, \"speedup_vs_interp\": {speedup:.2}, \
         \"vexp\": {vexp}, \"exp_uops\": {}, \"exp_batched\": {}, \
         \"exp_batched_fraction\": {batched_fraction:.3}, \"exp_share_est\": {:.3}, \
         \"exp_cse\": {}, \"exp_mul_applied\": {}, \"exp_mul_rejected\": {}, \
         \"rows\": [{sweep}]}}",
        prim.arch, prim.exp_uops, prim.exp_batched, prim.exp_share,
        prim.stats.exp_cse, prim.stats.exp_mul_applied, prim.stats.exp_mul_rejected,
    );
    upsert_solo_entry("engine", &entry);
}

/// Insert or replace a solo benchmark's single-line entry (`"engine":
/// {...}` / `"serve": {...}`) in `BENCH_report.json`: replace the
/// existing line, or place a new one right after `speedup_vs_pre_pr`
/// (where `bench_report_json` keeps it on rewrite). Creates a minimal
/// document if the file doesn't exist yet.
fn upsert_solo_entry(key: &str, entry: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_report.json");
    let prefix = format!("\"{key}\": {{");
    let doc = match std::fs::read_to_string(path) {
        Ok(prior) => {
            let mut out = String::new();
            let mut placed = false;
            for line in prior.lines() {
                let k = line.trim_start();
                if k.starts_with(&prefix) {
                    if !placed {
                        let _ = writeln!(out, "  {entry},");
                        placed = true;
                    }
                    continue;
                }
                out.push_str(line);
                out.push('\n');
                if !placed && k.starts_with("\"speedup_vs_pre_pr\":") {
                    let _ = writeln!(out, "  {entry},");
                    placed = true;
                }
            }
            if !placed {
                eprintln!("[unrecognized {path} layout; file left unchanged]");
                return;
            }
            out
        }
        Err(_) => format!("{{\n  {entry}\n}}\n"),
    };
    match std::fs::write(path, &doc) {
        Ok(()) => eprintln!("[wrote {key} entry to {path}]"),
        Err(e) => eprintln!("[could not write {path}: {e}]"),
    }
}

/// `pipeline`: sweep the software pipeline depth K=1..4 for the
/// warp-specialized DME viscosity kernel on the Hopper-class architecture
/// (the only built-in arch whose barrier file fits a K-deep schedule for
/// the DME kernels) and record the per-CTA cycle trajectory as the
/// single-line `pipeline` key of `BENCH_report.json` (preserved across
/// `report all` rewrites, like `engine` and `serve`). Every depth runs
/// the full simulated CTA under the cycle profiler at the serve-layer
/// default configuration, so cycles and barrier-wait are deterministic —
/// the returned gate (some K>1 strictly beats K=1 on per-CTA cycles) is
/// exact, not statistical.
fn pipeline_report(dme: &Mechanism) -> bool {
    use chemkin::state::{GridDims, GridState};
    use gpu_sim::launch::{launch_with_config, LaunchConfig, LaunchInputs, LaunchMode};
    use singe::kernels::launch_arrays;
    use singe::Variant;

    let arch = GpuArch::hopper();
    let base_opts = ws_options(Kind::Viscosity, dme.n_transported(), &arch);
    println!(
        "== pipeline depth sweep (dme viscosity ws, {}, {} warps, {} iters) ==",
        arch.name, base_opts.warps, base_opts.point_iters
    );
    println!(
        "{:<4} {:>5} {:>10} {:>8} {:>12} {:>12}",
        "K", "depth", "cycles", "delta", "barrier-wait", "issue-slots"
    );
    struct DepthRow {
        k_requested: usize,
        depth: usize,
        cycles: u64,
        barrier_wait: u64,
        issue_slots: u64,
        shared_slots: usize,
        barriers: usize,
    }
    let mut rows: Vec<DepthRow> = Vec::new();
    for k in 1..=4usize {
        let mut opts = base_opts.clone();
        opts.pipeline_depth = k;
        let built =
            build_with_options(Kind::Viscosity, dme, &arch, Variant::WarpSpecialized, &opts)
                .expect("viscosity compiles at every requested depth");
        let stats = built.stats.as_ref().expect("ws build carries stats");
        let points = built.kernel.points_per_cta;
        let grid = GridState::random(GridDims { nx: points, ny: 1, nz: 1 }, built.n_species, 1234);
        let arrays = launch_arrays(&built.kernel.global_arrays, &grid).expect("known arrays");
        let out = launch_with_config(
            &built.kernel,
            &arch,
            &LaunchInputs { arrays },
            points,
            LaunchConfig { mode: LaunchMode::Full, profile: true, trace_events: false, jobs: 0 },
        )
        .expect("profiled CTA launch");
        let prof = out.profile.expect("profile requested");
        let row = DepthRow {
            k_requested: k,
            depth: stats.pipeline_depth,
            cycles: prof.total_cycles,
            barrier_wait: prof.totals().barrier_wait_total(),
            issue_slots: out.report.counts.issue_slots,
            shared_slots: stats.shared_slots,
            barriers: built.kernel.barriers_used,
        };
        let delta = row.cycles as i64 - rows.first().map_or(row.cycles, |r| r.cycles) as i64;
        println!(
            "{:<4} {:>5} {:>10} {:>+8} {:>12} {:>12}",
            row.k_requested, row.depth, row.cycles, delta, row.barrier_wait, row.issue_slots
        );
        rows.push(row);
    }
    let k1 = &rows[0];
    let best = rows.iter().min_by_key(|r| r.cycles).expect("sweep non-empty");
    let win = best.depth > 1 && best.cycles < k1.cycles;
    println!(
        "best: K={} at {} cycles ({:+} vs single-buffered)",
        best.depth,
        best.cycles,
        best.cycles as i64 - k1.cycles as i64
    );

    if std::env::var("SINGE_BENCH_JSON").as_deref() == Ok("0") {
        return win;
    }
    let sweep = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"k_requested\": {}, \"depth\": {}, \"cta_cycles\": {}, \
                 \"barrier_wait_cycles\": {}, \"issue_slots\": {}, \
                 \"shared_slots\": {}, \"kernel_barriers\": {}}}",
                r.k_requested, r.depth, r.cycles, r.barrier_wait, r.issue_slots,
                r.shared_slots, r.barriers
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let entry = format!(
        "\"pipeline\": {{\"kernel\": \"dme-viscosity-ws\", \"arch\": \"{}\", \
         \"warps\": {}, \"point_iters\": {}, \"k1_cycles\": {}, \"best_depth\": {}, \
         \"best_cycles\": {}, \"delta_cycles\": {}, \"win\": {win}, \"rows\": [{sweep}]}}",
        arch.name,
        base_opts.warps,
        base_opts.point_iters,
        k1.cycles,
        best.depth,
        best.cycles,
        best.cycles as i64 - k1.cycles as i64,
    );
    upsert_solo_entry("pipeline", &entry);
    win
}

/// `search`: run the model-driven schedule search ([`singe::search`])
/// against the committed candidate grids for DME viscosity + diffusion ×
/// Fermi/Kepler/Hopper and record model-evals vs simulations vs
/// best-found cycles as the single-line `search` key of
/// `BENCH_report.json` (preserved across `report all` rewrites, like
/// `pipeline`). Per row the *grid* baseline is the exhaustive sweep over
/// the extended ∪ pipelined grids ([`singe::search::grid_options`], every
/// compiled candidate simulated); the search scores its candidates with
/// the static model and simulates only the top-K. The returned gate
/// requires, on every row: search winner ≤ grid winner on simulated
/// probe cycles (strictly better on at least one row), simulations ≤ 25%
/// of the candidates the search model-scored, and the winning schedule
/// passing the independent verifier at `Strict`. Probe launches are
/// deterministic (`TimingOnly`, fixed grid seed), so the recorded
/// numbers are exact and byte-stable — CI diffs them against the
/// committed entry.
fn search_report(dme: &Mechanism, archs: &[GpuArch], jobs: usize) -> bool {
    use chemkin::state::{GridDims, GridState};
    use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
    use singe::kernels::launch_arrays;
    use singe::search::{depth_menu, grid_options, search_kernel, SearchBudget, SearchSpace};
    use singe::verify::verify_kernel;

    const PROBE_POINTS: usize = 4096;
    let budget = SearchBudget::builder().jobs(jobs).build();
    let n_species = dme.n_transported();
    println!(
        "== model-driven schedule search vs committed grids (dme, {} pts probe) ==",
        PROBE_POINTS
    );
    println!(
        "   budget: beam {} x {} rounds, <= {} model evals, top-{} simulated",
        budget.beam_width, budget.rounds, budget.max_model_evals, budget.sim_top_k
    );
    println!(
        "{:<10} {:<13} {:>5}/{:<5} {:>10} {:>5}/{:<5} {:>10} {:>8} {:>24}",
        "kernel", "arch", "grid", "sims", "grid-cyc", "evals", "sims", "search-cyc", "delta",
        "winner"
    );

    struct SearchRow {
        kernel: &'static str,
        arch: &'static str,
        grid_candidates: usize,
        grid_simulations: usize,
        grid_best_cycles: u64,
        grid_best_us: f64,
        model_evals: usize,
        simulations: usize,
        search_best_cycles: u64,
        search_best_us: f64,
        model_cycles: u64,
        best: CompileOptions,
        win: bool,
        strictly_better: bool,
        verified_strict: bool,
    }

    // Simulated probe cycles (normalized to the fixed PROBE_POINTS work
    // so schedules with different points-per-CTA compare on equal terms)
    // and probe seconds for one compiled kernel. Deterministic:
    // fixed-seed grid, TimingOnly probe.
    let probe = |kernel: &gpu_sim::isa::Kernel, arch: &GpuArch| -> (u64, f64) {
        let ppc = kernel.points_per_cta;
        let grid_points = PROBE_POINTS.div_ceil(ppc) * ppc;
        let g = GridState::random(GridDims { nx: grid_points, ny: 1, nz: 1 }, n_species, 1234);
        let arrays = launch_arrays(&kernel.global_arrays, &g).expect("known arrays");
        let out = launch(kernel, arch, &LaunchInputs { arrays }, grid_points, LaunchMode::TimingOnly)
            .expect("probe launch");
        let r = &out.report;
        let cycles_fixed_work =
            r.seconds * arch.sm_clock_hz() * PROBE_POINTS as f64 / grid_points as f64;
        (cycles_fixed_work.round() as u64, r.seconds)
    };

    let mut rows: Vec<SearchRow> = Vec::new();
    for kind in [Kind::Viscosity, Kind::Diffusion] {
        for arch in archs {
            let base = ws_options(kind, n_species, arch);
            let dfg = dfg_for(kind, dme, base.warps);
            let inputs = |k: &gpu_sim::isa::Kernel, pts: usize| {
                let g = GridState::random(GridDims { nx: pts, ny: 1, nz: 1 }, n_species, 1234);
                launch_arrays(&k.global_arrays, &g)
                    .expect("known arrays")
                    .iter()
                    .map(|s| s.to_vec())
                    .collect::<Vec<_>>()
            };

            // The committed-grid baseline: exhaustive sweep (every
            // compiled candidate simulated) over the unified grids.
            let mut grid_cands = grid_options(base.placement, &[1, 2, 4], &[1]);
            grid_cands.extend(grid_options(base.placement, &[1, 4], depth_menu(arch)));
            let sweep = SearchBudget::builder()
                .rounds(0)
                .max_model_evals(grid_cands.len())
                .sim_top_k(grid_cands.len())
                .jobs(jobs)
                .build();
            let space = SearchSpace::for_arch(arch);
            let grid =
                search_kernel(&dfg, arch, &space, &grid_cands, &sweep, PROBE_POINTS, &inputs)
                    .expect("some grid candidate compiles");
            let (grid_best_cycles, grid_best_secs) = probe(&grid.best.kernel, arch);

            // The search: model as cost, simulation as oracle.
            let search = search_kernel(
                &dfg,
                arch,
                &space,
                &space.seeds(&base),
                &budget,
                PROBE_POINTS,
                &inputs,
            )
            .expect("search finds a runnable schedule");
            let (search_best_cycles, search_best_secs) = probe(&search.best.kernel, arch);
            let model_cycles = gpu_sim::model::predict_cycles(&search.best.kernel, arch)
                .expect("model scores verified kernels");
            let verified_strict = verify_kernel(&search.best.kernel, arch).is_ok();

            let row = SearchRow {
                kernel: kind.name(),
                arch: arch.name,
                grid_candidates: grid.outcome.model_evals,
                grid_simulations: grid.outcome.simulations,
                grid_best_cycles,
                grid_best_us: grid_best_secs * 1e6,
                model_evals: search.outcome.model_evals,
                simulations: search.outcome.simulations,
                search_best_cycles,
                search_best_us: search_best_secs * 1e6,
                model_cycles,
                best: search.outcome.best_options.clone(),
                win: search_best_cycles <= grid_best_cycles,
                strictly_better: search_best_cycles < grid_best_cycles,
                verified_strict,
            };
            println!(
                "{:<10} {:<13} {:>5}/{:<5} {:>10} {:>5}/{:<5} {:>10} {:>8} {:>24}",
                row.kernel,
                row.arch,
                row.grid_candidates,
                row.grid_simulations,
                row.grid_best_cycles,
                row.model_evals,
                row.simulations,
                row.search_best_cycles,
                row.search_best_cycles as i64 - row.grid_best_cycles as i64,
                format!(
                    "{}w x{} K{} {:?}",
                    row.best.warps, row.best.point_iters, row.best.pipeline_depth,
                    row.best.placement
                ),
            );
            rows.push(row);
        }
    }

    let all_win = rows.iter().all(|r| r.win);
    let any_strict = rows.iter().any(|r| r.strictly_better);
    let budget_ok = rows.iter().all(|r| r.simulations * 4 <= r.model_evals);
    let all_verified = rows.iter().all(|r| r.verified_strict);
    let gate = all_win && any_strict && budget_ok && all_verified;
    println!(
        "gate: every row <= grid winner: {all_win}; strictly better somewhere: {any_strict}; \
         simulated <= 25% of scored: {budget_ok}; Strict-verified winners: {all_verified}"
    );

    if std::env::var("SINGE_BENCH_JSON").as_deref() == Ok("0") {
        return gate;
    }
    let sweep = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"kernel\": \"{}\", \"arch\": \"{}\", \"grid_candidates\": {}, \
                 \"grid_simulations\": {}, \"grid_best_cycles\": {}, \"grid_best_us\": {:.3}, \
                 \"model_evals\": {}, \"simulations\": {}, \"search_best_cycles\": {}, \
                 \"search_best_us\": {:.3}, \"model_cycles\": {}, \"best_warps\": {}, \
                 \"best_iters\": {}, \"best_depth\": {}, \"best_placement\": \"{:?}\", \
                 \"win\": {}, \"strictly_better\": {}, \"verified_strict\": {}}}",
                r.kernel, r.arch, r.grid_candidates, r.grid_simulations, r.grid_best_cycles,
                r.grid_best_us, r.model_evals, r.simulations, r.search_best_cycles,
                r.search_best_us, r.model_cycles, r.best.warps, r.best.point_iters,
                r.best.pipeline_depth, r.best.placement, r.win, r.strictly_better,
                r.verified_strict
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    let total_evals: usize = rows.iter().map(|r| r.model_evals).sum();
    let total_sims: usize = rows.iter().map(|r| r.simulations).sum();
    let entry = format!(
        "\"search\": {{\"strategy\": \"beam\", \"probe_points\": {PROBE_POINTS}, \
         \"beam_width\": {}, \"rounds\": {}, \"sim_top_k\": {}, \"max_model_evals\": {}, \
         \"model_evals\": {total_evals}, \"simulations\": {total_sims}, \
         \"sim_fraction\": {:.3}, \"all_rows_win\": {all_win}, \
         \"any_strictly_better\": {any_strict}, \"verified_strict\": {all_verified}, \
         \"win\": {gate}, \"rows\": [{sweep}]}}",
        budget.beam_width,
        budget.rounds,
        budget.sim_top_k,
        budget.max_model_evals,
        total_sims as f64 / total_evals.max(1) as f64,
    );
    upsert_solo_entry("search", &entry);
    gate
}

/// `serve-bench`: measure the compile-farm service layer end to end and
/// record the single-line `serve` key of `BENCH_report.json` (preserved
/// across `report all` rewrites, like `engine`). Three phases, each in a
/// fresh cache directory under `target/`:
///
/// 1. **Latency** — cold compile of the primary combination (the
///    artifact is deleted between reps) vs warm load through a *new*
///    session over the same cache (simulating a process restart);
///    best-of-N for both. Exits non-zero if warm isn't at least 2x
///    faster than cold (the committed trajectory expects far more).
/// 2. **Farm throughput** — a fleet of small synthetic mechanisms
///    compiled through the sharded scheduler, cold pass then
///    post-restart warm pass; sustained compiles/second and hit rate.
/// 3. **In-flight dedup** — N identical concurrent requests must
///    trigger exactly one compiler run (exit non-zero otherwise).
fn serve_bench_report(kernel: KernelId, arch: ArchId, jobs: usize) {
    use chemkin::synth::SynthConfig;
    use singe_serve::{ArtifactSource, CompileRequest, ServeSession};

    let root = std::path::PathBuf::from(format!("target/serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let variant = Variant::WarpSpecialized;
    let mk_req = |mech: &str| {
        CompileRequest::new(mech.parse().expect("valid mechanism id"), kernel, variant, arch)
    };
    let open = |dir: &std::path::Path| {
        ServeSession::builder(dir).jobs(jobs).builtins(false).open().expect("open serve session")
    };
    let primary = format!("dme-{}-ws", kernel.name());
    let arch_short = {
        let name = arch.arch().name;
        name.split_whitespace().last().unwrap_or(name).to_string()
    };

    // -- Phase 1: cold vs warm latency on the primary combination -------
    let lat_dir = root.join("latency");
    let reps = 7;
    let session = open(&lat_dir);
    session.register_synth(&synth::dme_config()).expect("register dme");
    let req = mk_req("dme");
    let t0 = Instant::now();
    let first = session.compile(&req).expect("cold compile");
    let cold_first = t0.elapsed().as_secs_f64();
    assert_eq!(first.source, ArtifactSource::ColdCompile, "fresh cache must compile cold");
    let artifact_path = session.cache_dir().join(first.key.file_name());
    let mut cold_best = cold_first;
    for _ in 1..reps {
        std::fs::remove_file(&artifact_path).expect("cold rep: remove artifact");
        let t0 = Instant::now();
        let h = session.compile(&req).expect("cold compile");
        assert_eq!(h.source, ArtifactSource::ColdCompile);
        cold_best = cold_best.min(t0.elapsed().as_secs_f64());
    }
    drop(session);
    let mut warm_best = f64::INFINITY;
    for _ in 0..reps {
        // A fresh session over the same cache dir = a process restart as
        // far as the artifact store is concerned.
        let session = open(&lat_dir);
        session.register_synth(&synth::dme_config()).expect("register dme");
        let t0 = Instant::now();
        let h = session.compile(&req).expect("warm compile");
        warm_best = warm_best.min(t0.elapsed().as_secs_f64());
        assert_eq!(h.source, ArtifactSource::WarmDisk, "artifact must survive the restart");
        assert_eq!(
            format!("{:?}", h.artifact.kernel),
            format!("{:?}", first.artifact.kernel),
            "warm artifact must be identical to the cold compile"
        );
    }
    let warm_speedup = cold_best / warm_best;

    // -- Phase 2: farm throughput over a fleet of small mechanisms ------
    let farm_dir = root.join("farm");
    let n_farm = 24usize;
    let cfgs: Vec<SynthConfig> = (0..n_farm)
        .map(|i| SynthConfig {
            name: format!("farm{i:02}"),
            n_species: 10 + (i % 6),
            n_reactions: 20 + 2 * (i % 5),
            n_qssa: i % 3,
            n_stiff: 2 + (i % 4),
            seed: 9000 + i as u64,
        })
        .collect();
    let farm_pass = |expect_warm: bool| -> (f64, f64) {
        let session = open(&farm_dir);
        for cfg in &cfgs {
            session.register_synth(cfg).expect("register farm mechanism");
        }
        let t0 = Instant::now();
        let tickets: Vec<_> = cfgs
            .iter()
            .map(|c| session.submit(&mk_req(&c.name).with_tenant(&c.name)).expect("submit"))
            .collect();
        for t in tickets {
            t.wait().expect("farm compile");
        }
        let seconds = t0.elapsed().as_secs_f64();
        let stats = session.stats();
        if expect_warm {
            assert_eq!(stats.warm_hits as usize, n_farm, "warm pass must be all disk hits");
        }
        (seconds, stats.hit_rate().unwrap_or(0.0))
    };
    let (farm_cold_s, _) = farm_pass(false);
    let (farm_warm_s, warm_hit_rate) = farm_pass(true);

    // -- Phase 3: in-flight dedup ---------------------------------------
    let dedup_dir = root.join("dedup");
    let n_dedup = 8usize;
    let session = ServeSession::builder(&dedup_dir)
        .jobs(jobs.max(4))
        .builtins(false)
        .open()
        .expect("open serve session");
    session
        .register_synth(&SynthConfig { name: "dedup".into(), seed: 0xded, ..synth::dme_config() })
        .expect("register dedup mechanism");
    let dreq = mk_req("dedup");
    let tickets: Vec<_> =
        (0..n_dedup).map(|_| session.submit(&dreq).expect("submit")).collect();
    for t in tickets {
        t.wait().expect("dedup compile");
    }
    let dstats = session.stats();
    drop(session);
    let _ = std::fs::remove_dir_all(&root);

    println!("== serve-bench (compile-farm service layer) ==");
    println!("primary: {primary} on {} (jobs={jobs})", arch.arch().name);
    println!("  cold first         {:>9.3} ms", cold_first * 1e3);
    println!("  cold best-of-{reps}     {:>9.3} ms", cold_best * 1e3);
    println!(
        "  warm best-of-{reps}     {:>9.3} ms   ({warm_speedup:.1}x vs cold, post-restart)",
        warm_best * 1e3
    );
    println!("farm: {n_farm} mechanisms through the sharded scheduler");
    println!(
        "  cold pass          {:>9.3} s    ({:.1} compiles/s)",
        farm_cold_s,
        n_farm as f64 / farm_cold_s
    );
    println!(
        "  warm pass          {:>9.3} s    ({:.1} compiles/s, hit rate {:.2})",
        farm_warm_s,
        n_farm as f64 / farm_warm_s,
        warm_hit_rate
    );
    println!(
        "dedup: {n_dedup} identical concurrent requests -> {} cold compile(s), \
         {} joined, {} warm",
        dstats.cold_compiles, dstats.inflight_joins, dstats.warm_hits
    );

    let mut failed = false;
    if dstats.cold_compiles != 1 {
        eprintln!(
            "serve-bench FAILED: expected exactly 1 cold compile under dedup, got {}",
            dstats.cold_compiles
        );
        failed = true;
    }
    if warm_speedup < 2.0 {
        eprintln!("serve-bench FAILED: warm speedup {warm_speedup:.2}x < 2x");
        failed = true;
    }

    if std::env::var("SINGE_BENCH_JSON").as_deref() != Ok("0") {
        let entry = format!(
            "\"serve\": {{\"kernel\": \"{primary}\", \"arch\": \"{arch_short}\", \
             \"cold_first_ms\": {:.3}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \
             \"warm_speedup\": {warm_speedup:.1}, \"farm_mechs\": {n_farm}, \
             \"cold_compiles_per_sec\": {:.1}, \"warm_compiles_per_sec\": {:.1}, \
             \"warm_hit_rate\": {warm_hit_rate:.2}, \"dedup_requests\": {n_dedup}, \
             \"dedup_cold_compiles\": {}}}",
            cold_first * 1e3,
            cold_best * 1e3,
            warm_best * 1e3,
            n_farm as f64 / farm_cold_s,
            n_farm as f64 / farm_warm_s,
            dstats.cold_compiles,
        );
        upsert_solo_entry("serve", &entry);
    }
    if failed {
        std::process::exit(1);
    }
}

/// Figure 3: mechanism characteristics table.
///
/// Zero JSON rows is correct here: this table describes the *input*
/// mechanisms (reaction/species counts of the benchmark suite), not a
/// measurement, and `target/report.json` carries measured figure points
/// only. The table itself lives on stdout.
fn figure3(mechs: &[&Mechanism]) -> FigOutput {
    let mut t = String::new();
    let _ = writeln!(t, "== Figure 3: chemical mechanisms ==");
    let _ = writeln!(t, "{:<10} {:>9} {:>8} {:>5} {:>6}", "Mechanism", "Reactions", "Species", "QSSA", "Stiff");
    for m in mechs {
        let c = m.characteristics();
        let _ = writeln!(
            t,
            "{:<10} {:>9} {:>8} {:>5} {:>6}",
            m.name, c.reactions, c.species, c.qssa, c.stiff
        );
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows: Vec::new(), failures: 0 }
}

/// Figure 9: naïve vs overlaid codegen over warps/CTA (DME viscosity,
/// Kepler, 64^3). The eight warp-count configurations are independent
/// compile+simulate pipelines, so they run on the pool; rendering commits
/// in warp-count order, keeping stdout byte-identical at any `jobs`.
fn fig9(dme: &Mechanism, arch: &GpuArch, jobs: usize) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Figure 9: warp-specialized code generation (DME viscosity, {}) ==", arch.name);
    let _ = writeln!(t, "{:>6} {:>18} {:>18} {:>8}", "warps", "naive Mpts/s", "singe Mpts/s", "ratio");
    let grid = 64 * 64 * 64;
    const WARPS: [usize; 8] = [2, 4, 6, 8, 10, 12, 14, 16];
    let reports = singe::pool::run_ordered(jobs, WARPS.len(), |i| {
        let warps = WARPS[i];
        let opts = CompileOptions::builder()
            .warps(warps)
            .point_iters(4)
            .placement(singe::config::Placement::Store)
            .build();
        let naive = build_with_options(Kind::Viscosity, dme, arch, Variant::Naive, &opts);
        let singe_v =
            build_with_options(Kind::Viscosity, dme, arch, Variant::WarpSpecialized, &opts);
        match (naive, singe_v) {
            (Ok(n), Ok(s)) => Some((timing_report(&n, arch, grid), timing_report(&s, arch, grid))),
            _ => None,
        }
    });
    for (warps, rep) in WARPS.iter().zip(reports) {
        let (n_r, s_r) = match rep {
            Some(pair) => pair,
            None => {
                let _ = writeln!(t, "{warps:>6}  (configuration did not compile)");
                continue;
            }
        };
        let _ = writeln!(
            t,
            "{:>6} {:>18.2} {:>18.2} {:>8.2}",
            warps,
            n_r.points_per_sec / 1e6,
            s_r.points_per_sec / 1e6,
            s_r.points_per_sec / n_r.points_per_sec
        );
        rows.push(row("fig9", Kind::Viscosity, "dme", arch, Variant::Naive, *warps, &n_r));
        rows.push(row("fig9", Kind::Viscosity, "dme", arch, Variant::WarpSpecialized, *warps, &s_r));
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// Figure 10: constant registers per thread on Kepler.
fn fig10(mechs: &[&Mechanism], arch: &GpuArch) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Figure 10: constant registers per thread ({}) ==", arch.name);
    let _ = writeln!(t, "{:<10} {:>10} {:>10} {:>10}", "Mechanism", "Viscosity", "Diffusion", "Chemistry");
    for m in mechs {
        let mut cells = Vec::new();
        for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
            let b = build(kind, m, arch, Variant::WarpSpecialized);
            let regs = b.stats.as_ref().map(|s| s.const_regs_per_thread).unwrap_or(0);
            cells.push(regs);
            // Figure 10 measures a compile-time quantity, so the Row's
            // timing fields are vacuous; `x` carries the figure's value
            // (constant registers per thread).
            rows.push(Row {
                figure: "fig10".into(),
                kernel: kind.name().into(),
                mechanism: m.name.clone(),
                arch: arch.name.into(),
                variant: Variant::WarpSpecialized.name().into(),
                x: regs,
                points_per_sec: 0.0,
                gflops: 0.0,
                bandwidth_gbs: 0.0,
                spilled_bytes: 0,
                limiter: "n/a (compile-time stat)".into(),
                seconds: 0.0,
            });
        }
        let _ = writeln!(t, "{:<10} {:>10} {:>10} {:>10}", m.name, cells[0], cells[1], cells[2]);
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// Figures 11-16: baseline vs warp-specialized throughput on both
/// architectures across the three grid sizes.
fn throughput_figure(
    fig: &str,
    kind: Kind,
    mech: &Mechanism,
    archs: &[GpuArch],
    jobs: usize,
) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== {}: {} performance, {} mechanism ==", fig, kind.name(), mech.name);
    // The arch×variant compilations dominate this figure; run them on the
    // pool up front (they land in the build memo), then render serially.
    singe::pool::run_ordered(jobs, archs.len() * 2, |i| {
        let variant = if i % 2 == 0 { Variant::Baseline } else { Variant::WarpSpecialized };
        build(kind, mech, &archs[i / 2], variant)
    });
    for arch in archs {
        let base = build(kind, mech, arch, Variant::Baseline);
        let ws = build(kind, mech, arch, Variant::WarpSpecialized);
        let _ = writeln!(t, "{}:", arch.name);
        let _ = writeln!(
            t,
            "  {:>6} {:>16} {:>16} {:>8}   (limiters: base={}, ws={})",
            "grid",
            "baseline Mpts/s",
            "ws Mpts/s",
            "speedup",
            timing_report(&base, arch, 32768).limiter,
            timing_report(&ws, arch, 32768).limiter,
        );
        for edge in GRIDS {
            let pts = edge * edge * edge;
            let rb = timing_report(&base, arch, pts);
            let rw = timing_report(&ws, arch, pts);
            let _ = writeln!(
                t,
                "  {:>4}^3 {:>16.3} {:>16.3} {:>7.2}x",
                edge,
                rb.points_per_sec / 1e6,
                rw.points_per_sec / 1e6,
                rw.points_per_sec / rb.points_per_sec
            );
            rows.push(row(fig, kind, &mech.name, arch, Variant::Baseline, edge, &rb));
            rows.push(row(fig, kind, &mech.name, arch, Variant::WarpSpecialized, edge, &rw));
        }
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// §6.1 GFLOPS analysis, including the constants-in-registers exponential
/// ablation (the paper measured ~750 GFLOPS with it on Kepler).
fn gflops_analysis(dme: &Mechanism, archs: &[GpuArch]) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Section 6.1: DME viscosity GFLOPS analysis ==");
    let _ = writeln!(t, "(paper: Fermi base/ws = 197.9/257.3, Kepler = 220.6/617.7, reg-exp ablation ~750)");
    let grid = 128 * 128 * 128;
    for arch in archs {
        let base = build(Kind::Viscosity, dme, arch, Variant::Baseline);
        let ws = build(Kind::Viscosity, dme, arch, Variant::WarpSpecialized);
        let rb = timing_report(&base, arch, grid);
        let rw = timing_report(&ws, arch, grid);
        // Ablation: exp-series constants kept in registers.
        let mut opts = ws_options(Kind::Viscosity, dme.n_transported(), arch);
        opts.exp_const_from_registers = true;
        let abl = build_with_options(Kind::Viscosity, dme, arch, Variant::WarpSpecialized, &opts)
            .expect("ablation compiles");
        let ra = timing_report(&abl, arch, grid);
        let _ = writeln!(
            t,
            "{:<22} baseline {:>7.1} GF | ws {:>7.1} GF | ws+reg-exp {:>7.1} GF (peak {:.0}, practical {:.0})",
            arch.name,
            rb.gflops,
            rw.gflops,
            ra.gflops,
            arch.peak_dp_gflops(),
            arch.practical_dp_gflops()
        );
        rows.push(row("s6.1", Kind::Viscosity, "dme", arch, Variant::Baseline, 128, &rb));
        rows.push(row("s6.1", Kind::Viscosity, "dme", arch, Variant::WarpSpecialized, 128, &rw));
        rows.push(row("s6.1-regexp", Kind::Viscosity, "dme", arch, Variant::WarpSpecialized, 128, &ra));
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// §6.2 ablation: unsafely removing the diffusion barriers (timing only).
fn ablate_barriers(dme: &Mechanism, archs: &[GpuArch]) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Section 6.2: diffusion barrier-overhead ablation (DME) ==");
    let _ = writeln!(t, "(paper: 212.8 -> ~250 GFLOPS on Fermi, 526.6 -> ~625 on Kepler)");
    let grid = 128 * 128 * 128;
    for arch in archs {
        let opts = ws_options(Kind::Diffusion, dme.n_transported(), arch);
        let with = build_with_options(Kind::Diffusion, dme, arch, Variant::WarpSpecialized, &opts)
            .expect("compiles");
        let mut opts2 = opts.clone();
        opts2.unsafe_remove_barriers = true;
        let without =
            build_with_options(Kind::Diffusion, dme, arch, Variant::WarpSpecialized, &opts2)
                .expect("compiles");
        let r1 = timing_report(&with, arch, grid);
        // The barrier-free kernel computes garbage; only its timing matters.
        let r2 = timing_report(&without, arch, grid);
        let _ = writeln!(
            t,
            "{:<22} with barriers {:>7.1} GF | without {:>7.1} GF ({:+.1}%)",
            arch.name,
            r1.gflops,
            r2.gflops,
            (r2.gflops / r1.gflops - 1.0) * 100.0
        );
        rows.push(row("s6.2", Kind::Diffusion, "dme", arch, Variant::WarpSpecialized, 0, &r1));
        rows.push(row("s6.2-nobar", Kind::Diffusion, "dme", arch, Variant::WarpSpecialized, 1, &r2));
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}

/// Independent schedule verification of every kernel the harness can
/// build, plus the §6.2 ablation rejection check.
///
/// Every combination also emits one summary row into
/// `target/report.json`: `x` carries the barrier ops checked,
/// `spilled_bytes` the race/violation count, and `limiter` the status
/// (`pass` / `FAIL` / `skipped` / `compile-error`) — so the verifier's
/// coverage is machine-readable instead of stdout-only. The timing fields
/// are vacuous (verification is a compile-time gate, not a measurement).
///
/// The mechanism×arch×kernel×variant combinations are independent
/// compile+verify pipelines, so they run on the pool; their text chunks
/// are committed in combination order, keeping stdout deterministic.
fn verify_all(mechs: &[&Mechanism], archs: &[GpuArch], jobs: usize) -> FigOutput {
    let mut t = String::new();
    let _ = writeln!(t, "== Schedule verification (kernel x mechanism x arch x compiler) ==");
    let mut failures = 0usize;
    let mut combos = Vec::new();
    for mech in mechs {
        for arch in archs {
            for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
                for variant in [Variant::Baseline, Variant::WarpSpecialized, Variant::Naive] {
                    combos.push((*mech, arch, kind, variant));
                }
            }
        }
    }
    let chunks: Vec<(String, usize, Row)> = singe::pool::run_ordered(jobs, combos.len(), |i| {
        let (mech, arch, kind, variant) = combos[i];
        let mut c = String::new();
        let mut fails = 0usize;
        let opts = ws_options(kind, mech.n_transported(), arch);
        let label = format!(
            "{:<10} {:<10} {:<12} {:<16}",
            mech.name,
            kind.name(),
            arch.name.split_whitespace().last().unwrap_or(arch.name),
            variant.name()
        );
        // (status, barrier ops checked, races/violations found)
        let (status, barriers, races) = match build_with_options(kind, mech, arch, variant, &opts)
        {
            Ok(built) => match singe::verify::verify_kernel(&built.kernel, arch) {
                Ok(r) => {
                    let _ = writeln!(
                        c,
                        "{label} ok ({} barrier ops, {} generations, {} shared accesses)",
                        r.barrier_ops, r.generations, r.shared_accesses
                    );
                    ("pass", r.barrier_ops, 0)
                }
                Err(violations) => {
                    let _ = writeln!(c, "{label} VIOLATIONS:");
                    for v in &violations {
                        let _ = writeln!(c, "    {v}");
                    }
                    fails += 1;
                    ("FAIL", 0, violations.len())
                }
            },
            Err(singe::CompileError::ResourceExhausted(m)) => {
                let _ = writeln!(c, "{label} skipped (does not fit: {m})");
                ("skipped", 0, 0)
            }
            Err(e) => {
                let _ = writeln!(c, "{label} FAILED to compile: {e}");
                fails += 1;
                ("compile-error", 0, 0)
            }
        };
        let row = Row {
            figure: "verify".into(),
            kernel: kind.name().into(),
            mechanism: mech.name.to_string(),
            arch: arch.name.into(),
            variant: variant.name().into(),
            x: barriers,
            points_per_sec: 0.0,
            gflops: 0.0,
            bandwidth_gbs: 0.0,
            spilled_bytes: races,
            limiter: status.into(),
            seconds: 0.0,
        };
        (c, fails, row)
    });
    let mut rows = Vec::new();
    for (chunk, fails, row) in chunks {
        t.push_str(&chunk);
        failures += fails;
        rows.push(row);
    }
    // The §6.2 unsafe barrier-removal ablation must be flagged under
    // VerifyLevel::Strict (Basic deliberately waives it for the timing
    // study).
    let mut opts = ws_options(Kind::Diffusion, mechs[0].n_transported(), &archs[0]);
    opts.unsafe_remove_barriers = true;
    opts.verify = singe::VerifyLevel::Strict;
    match build_with_options(Kind::Diffusion, mechs[0], &archs[0], Variant::WarpSpecialized, &opts)
    {
        Err(singe::CompileError::Verification(_)) => {
            let _ = writeln!(t, "s6.2 barrier-removal ablation: rejected by VerifyLevel::Strict (expected)");
        }
        Ok(_) => {
            let _ = writeln!(t, "s6.2 barrier-removal ablation: NOT flagged under Strict — verifier gap!");
            failures += 1;
        }
        Err(e) => {
            let _ = writeln!(t, "s6.2 barrier-removal ablation: unexpected error {e}");
            failures += 1;
        }
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures }
}

/// Stall-cycle attribution tables (`report profile`): every simulated
/// cycle of the one-CTA probe attributed to exactly one reason, for every
/// kernel × variant × architecture (paper-style baseline vs
/// warp-specialized vs naïve comparison). Validates the attribution-sum
/// invariant per warp, writes `target/profile.json`, and exports the
/// structured event stream of the diffusion kernels (the named-barrier
/// showcase) as a `chrome://tracing` / Perfetto JSON at
/// `target/profile_trace.json`. Returns the failure count.
fn profile_report(dme: &Mechanism, archs: &[GpuArch]) -> usize {
    let mut failures = 0usize;
    let mut rows: Vec<ProfileRow> = Vec::new();
    let mut traces: Vec<(String, Vec<gpu_sim::TraceEvent>)> = Vec::new();
    let trace_arch = archs[archs.len() - 1].name;
    println!("== Stall-cycle attribution ({} mechanism, one-CTA probe) ==", dme.name);
    println!(
        "{:<22} {:<10} {:<16} {:>5} {:>9} {:>7} {:>8} {:>7} {:>6} {:>6} {:>6}",
        "arch", "kernel", "variant", "warps", "cycles", "issue%", "barrier%", "icache%",
        "const%", "ovh%", "idle%"
    );
    for arch in archs {
        for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
            for variant in [Variant::Baseline, Variant::WarpSpecialized, Variant::Naive] {
                let opts = ws_options(kind, dme.n_transported(), arch);
                let built = match build_with_options(kind, dme, arch, variant, &opts) {
                    Ok(b) => b,
                    Err(e) => {
                        println!(
                            "{:<22} {:<10} {:<16} skipped ({e})",
                            arch.name,
                            kind.name(),
                            variant.name()
                        );
                        continue;
                    }
                };
                // Record the event stream only for diffusion on the last
                // (Kepler) arch — it exercises the named-barrier protocol
                // — so the trace file stays a few hundred KB.
                let want_trace = kind == Kind::Diffusion && arch.name == trace_arch;
                let prof = profile_built(&built, arch, want_trace);
                let r = profile_row(kind, &dme.name, arch, variant, &prof);
                if !r.attribution_ok {
                    println!(
                        "ATTRIBUTION MISMATCH: {} {} {} (per-warp reasons do not sum to total)",
                        r.arch, r.kernel, r.variant
                    );
                    failures += 1;
                }
                // Reasons are summed over warps; every warp's timeline is
                // `total_cycles` long, so the CTA denominator is their
                // product.
                let denom = (r.total_cycles.max(1) * r.warps.max(1) as u64) as f64 / 100.0;
                println!(
                    "{:<22} {:<10} {:<16} {:>5} {:>9} {:>6.1}% {:>7.1}% {:>6.1}% {:>5.1}% {:>5.1}% {:>5.1}%",
                    r.arch,
                    r.kernel,
                    r.variant,
                    r.warps,
                    r.total_cycles,
                    r.issue as f64 / denom,
                    r.barrier_wait as f64 / denom,
                    r.icache_miss as f64 / denom,
                    r.const_replay as f64 / denom,
                    r.overhead as f64 / denom,
                    r.idle as f64 / denom,
                );
                if want_trace {
                    traces.push((
                        format!("{}/{}", kind.name(), variant.name()),
                        prof.events.clone(),
                    ));
                }
                rows.push(r);
            }
        }
    }
    println!();
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/profile.json", profile_rows_to_json(&rows))
        .expect("write profile.json");
    let groups: Vec<(&str, &[gpu_sim::TraceEvent])> =
        traces.iter().map(|(n, e)| (n.as_str(), e.as_slice())).collect();
    std::fs::write("target/profile_trace.json", gpu_sim::chrome_trace_json(&groups))
        .expect("write profile_trace.json");
    eprintln!(
        "[wrote {} rows to target/profile.json, {} trace group(s) to target/profile_trace.json]",
        rows.len(),
        groups.len()
    );
    failures
}

/// Model accuracy table (`report model`): the static analytical
/// performance model's predicted seconds and CTA cycles next to the
/// simulator's measurements, for every kernel × variant × architecture.
/// Writes `target/model.json` (summary + rows) and returns whether the
/// accuracy gate passed: Spearman rank correlation between predicted and
/// simulated seconds ≥ [`MODEL_GATE_SPEARMAN`] and every ratio within
/// [`MODEL_GATE_RATIO`]x of 1.
fn model_report(dme: &Mechanism, archs: &[GpuArch]) -> bool {
    let grid = 64 * 64 * 64;
    let mut rows: Vec<ModelRow> = Vec::new();
    println!("== Model accuracy: analytical prediction vs simulation ({}, 64^3) ==", dme.name);
    println!(
        "{:<22} {:<10} {:<16} {:>5} {:>12} {:>12} {:>7} {:>10} {:>10}",
        "arch", "kernel", "variant", "warps", "pred s", "sim s", "ratio", "pred cyc", "prof cyc"
    );
    for arch in archs {
        for kind in [Kind::Viscosity, Kind::Diffusion, Kind::Chemistry] {
            for variant in [Variant::Baseline, Variant::WarpSpecialized, Variant::Naive] {
                let opts = ws_options(kind, dme.n_transported(), arch);
                let built = match build_with_options(kind, dme, arch, variant, &opts) {
                    Ok(b) => b,
                    Err(e) => {
                        println!(
                            "{:<22} {:<10} {:<16} skipped ({e})",
                            arch.name,
                            kind.name(),
                            variant.name()
                        );
                        continue;
                    }
                };
                let predicted = predict_built(&built, arch, grid);
                let simulated = timing_report(&built, arch, grid);
                let profiled = profile_built(&built, arch, false);
                let r = ModelRow {
                    kernel: kind.name().into(),
                    mechanism: dme.name.clone(),
                    arch: arch.name.into(),
                    variant: variant.name().into(),
                    warps: built.kernel.warps_per_cta,
                    grid_points: grid,
                    predicted_seconds: predicted.seconds(),
                    simulated_seconds: simulated.seconds,
                    ratio: predicted.seconds() / simulated.seconds,
                    predicted_cycles: predicted.profile.cta.total_cycles,
                    profiled_cycles: profiled.total_cycles,
                };
                println!(
                    "{:<22} {:<10} {:<16} {:>5} {:>12.4e} {:>12.4e} {:>7.3} {:>10} {:>10}",
                    r.arch,
                    r.kernel,
                    r.variant,
                    r.warps,
                    r.predicted_seconds,
                    r.simulated_seconds,
                    r.ratio,
                    r.predicted_cycles,
                    r.profiled_cycles,
                );
                rows.push(r);
            }
        }
    }
    let preds: Vec<f64> = rows.iter().map(|r| r.predicted_seconds).collect();
    let sims: Vec<f64> = rows.iter().map(|r| r.simulated_seconds).collect();
    let rho = spearman(&preds, &sims);
    println!("\nSpearman(predicted, simulated) over {} rows: {rho:.4}", rows.len());
    let json = model_report_json(&rows);
    let gate_ok = json.contains("\"gate_ok\": true");
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/model.json", &json).expect("write model.json");
    eprintln!("[wrote {} rows to target/model.json, gate_ok={gate_ok}]", rows.len());
    gate_ok
}

/// §6.3: chemistry spill and bandwidth analysis (heptane).
fn spills(heptane: &Mechanism, archs: &[GpuArch]) -> FigOutput {
    let mut t = String::new();
    let mut rows = Vec::new();
    let _ = writeln!(t, "== Section 6.3: heptane chemistry working-set analysis ==");
    let _ = writeln!(t, "(paper: baseline spills 8736/8500 B per thread; ws spills 276/44 B;");
    let _ = writeln!(t, " baseline is local-bandwidth bound at 85/100 GB/s, ws shared-latency bound)");
    let grid = 64 * 64 * 64;
    for arch in archs {
        let base = build(Kind::Chemistry, heptane, arch, Variant::Baseline);
        let ws = build(Kind::Chemistry, heptane, arch, Variant::WarpSpecialized);
        let rb = timing_report(&base, arch, grid);
        let rw = timing_report(&ws, arch, grid);
        let _ = writeln!(
            t,
            "{:<22} baseline: {:>6} B spilled, {:>6.1} GB/s, limiter {:<16} | ws: {:>4} B spilled, limiter {}",
            arch.name,
            rb.spilled_bytes_per_thread,
            rb.bandwidth_gbs,
            rb.limiter,
            rw.spilled_bytes_per_thread,
            rw.limiter
        );
        rows.push(row("s6.3", Kind::Chemistry, &heptane.name, arch, Variant::Baseline, 64, &rb));
        rows.push(row("s6.3", Kind::Chemistry, &heptane.name, arch, Variant::WarpSpecialized, 64, &rw));
    }
    let _ = writeln!(t);
    FigOutput { text: t, rows, failures: 0 }
}
