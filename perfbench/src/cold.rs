//! `cold`: one client in a closed loop. Every request takes a mechanism no
//! earlier request has seen through parse → DFG → compile → flatten →
//! lower → one-CTA launch → model, so every in-process memo misses.
//!
//! Requests come in stratified cycles: each cycle holds every combination
//! of size class × kernel × variant × architecture once (54 requests) in
//! a seeded order, with fresh mechanism coefficients per request. Latency
//! percentiles then rest on the same mix for every seed, and the first
//! cycle is the seed-determined set the exact counters are summed over.

use crate::check;
use crate::gen::{self, Size};
use crate::layers::{self, Exact};
use crate::stats;
use crate::trace::{Tracer, REQUEST};
use crate::Outcome;
use chemkin::synth::MechanismFiles;
use gpu_sim::flatcache::fingerprint;
use singe::Variant;
use singe_serve::{ArchId, KernelId};
use std::collections::HashSet;
use std::time::Instant;

pub struct Input {
    size: Size,
    kernel: KernelId,
    variant: Variant,
    arch: ArchId,
    name: String,
    files: MechanismFiles,
    grid_seed: u64,
}

pub const CYCLE: usize = 54;
/// About how long one cycle takes on the reference machine (README.md):
/// a run makes `--seconds / CYCLE_S` cycles, so its work is fixed by its
/// arguments and not by the speed of the code under test.
const CYCLE_S: f64 = 5.0;

/// Generate the mechanism text of every request of the run.
pub fn setup(seed: u64, seconds: f64) -> Vec<Input> {
    let cycles = ((seconds / CYCLE_S).round() as usize).max(1);
    let mut out = Vec::with_capacity(cycles * CYCLE);
    for c in 0..cycles {
        let mut combos = Vec::with_capacity(CYCLE);
        for size in Size::ALL {
            for kernel in gen::KERNELS {
                for variant in gen::VARIANTS {
                    for arch in gen::ARCHS {
                        combos.push((combos.len(), size, kernel, variant, arch));
                    }
                }
            }
        }
        gen::Rng::new(gen::mix(seed, c as u64)).shuffle(&mut combos);
        for (i, (shape, size, kernel, variant, arch)) in combos.into_iter().enumerate() {
            let idx = (c * CYCLE + i) as u64;
            let name = format!("cold{idx}");
            let cfg = gen::synth_config(size, name.clone(), shape, gen::mix(seed, (1 << 32) + idx));
            out.push(Input {
                size,
                kernel,
                variant,
                arch,
                name,
                files: gen::mechanism_text(&cfg),
                grid_seed: gen::mix(seed, (2 << 32) + idx),
            });
        }
    }
    out
}

pub fn run(inputs: &[Input], tr: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let mut latencies = Vec::new();
    let mut exact = Exact::default();
    let mut seen = HashSet::new();
    let mut check_ns = 0u128;
    let mut max_err = 0.0f64;
    let mut parsed_bytes = 0usize;
    for (c, cycle) in inputs.chunks(CYCLE).enumerate() {
        for (i, inp) in cycle.iter().enumerate() {
            let req = (c * CYCLE + i) as u64;
            o.attempted += 1;
            let t0 = Instant::now();
            let root = tr.begin(REQUEST, req);
            let res = request(inp, req, tr);
            tr.end(root);
            let latency = t0.elapsed().as_secs_f64();
            parsed_bytes += gen::text_bytes(&inp.files);
            let t1 = Instant::now();
            let ok = match res {
                Ok(done) => {
                    let err = check::max_rel_err(
                        &check::reference(inp.kernel, &done.mech, &done.grid),
                        &done.run.outputs[check::output_array(inp.kernel)],
                    );
                    max_err = max_err.max(err);
                    // A repeated fingerprint would mean a memo hit measured
                    // as a cold request.
                    let fresh = seen.insert(fingerprint(&done.compiled.kernel));
                    if c == 0 {
                        exact.add(&done.dfg, &done.compiled, &done.run);
                    }
                    if !fresh {
                        eprintln!("cold: request {req} reused a kernel fingerprint");
                    }
                    err <= check::TOLERANCE && fresh
                }
                Err(e) => {
                    eprintln!(
                        "cold: request {req} ({:?} {:?} {:?} {:?}): {e}",
                        inp.size, inp.kernel, inp.variant, inp.arch
                    );
                    false
                }
            };
            check_ns += t1.elapsed().as_nanos();
            if ok {
                latencies.push(latency * 1e3);
            } else {
                o.failed += 1;
            }
        }
    }
    let n = o.attempted as usize;
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    o.put_e2e("p50_ms", stats::median(&latencies));
    o.put_e2e("tail_ms", stats::percentile(&latencies, 0.9));
    o.put_e2e(
        "pass_s",
        busy_s * CYCLE as f64 / latencies.len().max(1) as f64,
    );
    o.put_e2e(
        "throughput_per_s",
        latencies.len() as f64 / busy_s.max(1e-9),
    );
    o.put_e2e("sim_mpts_per_s", stats::geomean(&exact.sim_mpts));
    exact.into_layers(&mut o.layers);
    layers::self_time_layers(tr, &mut o.layers);
    if let Some(&parse_ms) = o.layers.get("chemkin.parser.ms") {
        o.put_layer(
            "chemkin.parser.mb_per_s",
            parsed_bytes as f64 / n as f64 / 1e6 / (parse_ms / 1e3),
        );
    }
    o.put_layer("check.reference.ms", check_ns as f64 / 1e6 / n as f64);
    o.put_layer("check.max_rel_err", max_err);
    o
}

struct Done {
    mech: chemkin::Mechanism,
    grid: chemkin::GridState,
    dfg: singe::Dfg,
    compiled: singe::codegen::Compiled,
    run: layers::KernelRun,
}

fn request(inp: &Input, req: u64, tr: &mut Tracer) -> Result<Done, String> {
    let mech = tr
        .span("chemkin.parser", req, || gen::parse(&inp.name, &inp.files))
        .map_err(|e| format!("parse: {e}"))?;
    let arch = inp.arch.arch();
    let n = mech.n_transported();
    let (opts, warps) = gen::build_options(inp.kernel, inp.variant, n, &arch);
    let dfg = tr.span("core.kernels", req, || gen::dfg(inp.kernel, &mech, warps));
    let compiled = layers::compile(tr, req, &arch, opts, &dfg, inp.variant)?;
    let grid = gen::grid(compiled.kernel.points_per_cta, n, inp.grid_seed);
    let run = layers::simulate(tr, req, &compiled.kernel, &arch, &grid)?;
    Ok(Done {
        mech,
        grid,
        dfg,
        compiled,
        run,
    })
}
