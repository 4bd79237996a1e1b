//! `search`: `Compiler::search` with the default `SearchBudget` at 4096
//! probe points over a seeded DME-sized mechanism, for viscosity and
//! diffusion × Fermi/Kepler/Hopper. One pass is those six rows; each pass
//! uses a fresh mechanism so no memo carries over between passes. The
//! mechanism is parsed and its DFGs built in set-up: the parser does no
//! work in the measured phase.
//!
//! After a pass, and outside its timing, every winner is recompiled at
//! `VerifyLevel::Strict` and run once through flatten → lower → CTA →
//! model for its exact counters. Those per-layer timings are measured on
//! the winners, whose flatten, lowering and verification the search has
//! usually memoized already.

use crate::gen::{self, Size};
use crate::layers::{self, Exact};
use crate::stats;
use crate::trace::{Tracer, REQUEST};
use crate::Outcome;
use gpu_sim::arch::GpuArch;
use gpu_sim::flatcache::fingerprint;
use singe::{CompileOptions, Compiler, Dfg, SearchBudget, Variant, VerifyLevel};
use singe_serve::{default_options, KernelId};
use std::time::Instant;

pub const PROBE_POINTS: usize = 4096;
/// About how long one pass takes on the reference machine (README.md): a
/// run makes `--seconds / PASS_S` passes, so its work is fixed by its
/// arguments and not by the speed of the code under test.
const PASS_S: f64 = 12.0;
const KERNELS: [KernelId; 2] = [KernelId::Viscosity, KernelId::Diffusion];

struct Row {
    arch: GpuArch,
    base: CompileOptions,
    dfg: Dfg,
}

pub struct Pass {
    n_species: usize,
    grid_seed: u64,
    rows: Vec<Row>,
}

pub fn setup(seed: u64, seconds: f64) -> Result<Vec<Pass>, String> {
    (0..((seconds / PASS_S).round() as u64).max(1))
        .map(|p| {
            let name = format!("search{p}");
            let cfg = gen::synth_config(Size::Dme, name.clone(), 0, gen::mix(seed, (3 << 32) + p));
            let mech = gen::parse(&name, &gen::mechanism_text(&cfg)).map_err(|e| e.to_string())?;
            let n_species = mech.n_transported();
            let mut rows = Vec::new();
            for kernel in KERNELS {
                for arch_id in gen::ARCHS {
                    let arch = arch_id.arch();
                    let base = default_options(kernel, n_species, &arch);
                    let dfg = gen::dfg(kernel, &mech, base.warps);
                    rows.push(Row { arch, base, dfg });
                }
            }
            Ok(Pass {
                n_species,
                grid_seed: gen::mix(seed, (4 << 32) + p),
                rows,
            })
        })
        .collect()
}

pub fn run(passes: &[Pass], tr: &mut Tracer) -> Outcome {
    let mut o = Outcome::default();
    let mut rows_ms = Vec::new();
    let mut kind_ms = vec![Vec::new(); passes.first().map_or(0, |p| p.rows.len())];
    let mut pass_s = Vec::new();
    let mut slowest_ms = Vec::new();
    let (mut evals, mut compiled, mut sims, mut all_evals) = (0usize, 0usize, 0usize, 0usize);
    let mut exact = Exact::default();
    let mut check_ns = 0u128;
    for (p, pass) in passes.iter().enumerate() {
        let inputs_for = |k: &gpu_sim::isa::Kernel, pts: usize| {
            let g = gen::grid(pts, pass.n_species, pass.grid_seed);
            singe::kernels::launch_arrays(&k.global_arrays, &g)
                .expect("kernel arrays are grid fields")
                .iter()
                .map(|s| s.to_vec())
                .collect::<Vec<_>>()
        };
        let mut results = Vec::new();
        let pass_start = Instant::now();
        for (i, row) in pass.rows.iter().enumerate() {
            let req = (p * pass.rows.len() + i) as u64;
            let root = tr.begin(REQUEST, req);
            let t0 = Instant::now();
            let res = tr.span("core.search", req, || {
                Compiler::new(&row.arch).options(row.base.clone()).search(
                    &row.dfg,
                    &SearchBudget::default(),
                    PROBE_POINTS,
                    &inputs_for,
                )
            });
            let row_ms = t0.elapsed().as_secs_f64() * 1e3;
            tr.end(root);
            results.push((res, row_ms));
        }
        pass_s.push(pass_start.elapsed().as_secs_f64());
        slowest_ms.push(results.iter().map(|r| r.1).fold(0.0, f64::max));

        let t1 = Instant::now();
        for (i, ((res, row_ms), row)) in results.into_iter().zip(&pass.rows).enumerate() {
            let req = (p * pass.rows.len() + i) as u64;
            o.attempted += 1;
            let verdict = res.map_err(|e| format!("search: {e}")).and_then(|r| {
                all_evals += r.outcome.model_evals;
                if p == 0 {
                    evals += r.outcome.model_evals;
                    compiled += r
                        .outcome
                        .points
                        .iter()
                        .filter(|pt| pt.predicted_seconds.is_some())
                        .count();
                    sims += r.outcome.simulations;
                }
                let mut strict = r.outcome.best_options.clone();
                strict.verify = VerifyLevel::Strict;
                let c = layers::compile(
                    tr,
                    req,
                    &row.arch,
                    strict,
                    &row.dfg,
                    Variant::WarpSpecialized,
                )?;
                if fingerprint(&c.kernel) != fingerprint(&r.best.kernel) {
                    return Err("Strict recompile of the winner differs from the search's".into());
                }
                let g = gen::grid(c.kernel.points_per_cta, pass.n_species, pass.grid_seed);
                let run = layers::simulate(tr, req, &c.kernel, &row.arch, &g)?;
                if p == 0 {
                    exact.add(&row.dfg, &c, &run);
                }
                Ok(())
            });
            match verdict {
                Ok(()) => {
                    rows_ms.push(row_ms);
                    kind_ms[i].push(row_ms);
                }
                Err(e) => {
                    eprintln!("search: pass {p} row {i}: {e}");
                    o.failed += 1;
                }
            }
        }
        check_ns += t1.elapsed().as_nanos();
    }
    let rows = o.attempted as usize;
    // The median row: the median across the six row kinds of each kind's
    // median over passes, so noise cannot swap which kinds it lands on.
    let kinds: Vec<f64> = kind_ms
        .iter()
        .filter(|k| !k.is_empty())
        .map(|k| stats::median(k))
        .collect();
    o.put_e2e("p50_ms", stats::median(&kinds));
    o.put_e2e("tail_ms", stats::median(&slowest_ms));
    o.put_e2e("pass_s", stats::median(&pass_s));
    o.put_e2e(
        "throughput_per_s",
        all_evals as f64 / pass_s.iter().sum::<f64>().max(1e-9),
    );
    o.put_e2e("sim_mpts_per_s", stats::geomean(&exact.sim_mpts));
    o.put_layer("core.search.row_s", stats::mean(&rows_ms) / 1e3);
    o.put_layer("core.search.model_evals", evals as f64);
    o.put_layer(
        "core.search.compiled_frac",
        compiled as f64 / evals.max(1) as f64,
    );
    o.put_layer("core.search.simulations", sims as f64);
    o.put_layer("core.search.sim_frac", sims as f64 / evals.max(1) as f64);
    exact.into_layers(&mut o.layers);
    layers::self_time_layers(tr, &mut o.layers);
    o.put_layer(
        "check.reference.ms",
        check_ns as f64 / 1e6 / rows.max(1) as f64,
    );
    o
}
