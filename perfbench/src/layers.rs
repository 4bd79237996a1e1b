//! The benchmark's calls into each layer, each wrapped in a span named
//! after the layer, plus the exact work counters those calls return.

use crate::trace::Tracer;
use chemkin::state::GridState;
use gpu_sim::arch::GpuArch;
use gpu_sim::flatcache::{engine_stats, flatten_cached};
use gpu_sim::isa::Kernel;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use gpu_sim::timing::estimate;
use singe::codegen::Compiled;
use singe::{CompileOptions, Compiler, Dfg, Variant};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The fixed grid (64^3 points) at which simulated throughput is quoted.
pub const FIXED_GRID: usize = 64 * 64 * 64;

/// `core.compiler`: compile with per-stage timings, recorded as child spans
/// `core.compiler.<stage>`.
pub fn compile(
    tr: &mut Tracer,
    req: u64,
    arch: &GpuArch,
    opts: CompileOptions,
    dfg: &Dfg,
    variant: Variant,
) -> Result<Compiled, String> {
    let id = tr.begin("core.compiler", req);
    let start = Instant::now();
    let res = Compiler::new(arch)
        .options(opts)
        .compile_traced(dfg, variant);
    if let Ok((_, stages)) = &res {
        for s in stages {
            let from = start + Duration::from_micros(s.ts);
            let to = from + Duration::from_micros(s.dur);
            tr.record(&format!("core.compiler.{}", s.name), req, from, to);
        }
    }
    tr.end(id);
    res.map(|(c, _)| c).map_err(|e| format!("compile: {e}"))
}

/// What simulating one compiled kernel produced.
pub struct KernelRun {
    pub flat_ops: u64,
    pub uops: u64,
    /// Simulated cycles per resident CTA: `timing::estimate` wave cycles
    /// of the simulated CTA's event counts over the CTAs a wave holds.
    pub sim_cycles: f64,
    /// The model's cycles per resident CTA, same unit as `sim_cycles`.
    pub model_cycles: f64,
    /// Simulated Mpoints/s at [`FIXED_GRID`].
    pub sim_mpts: f64,
    pub outputs: Vec<Vec<f64>>,
}

/// `gpu_sim.flatten` → `gpu_sim.lower` → `gpu_sim.cta` (one CTA over
/// `grid`, which must hold `points_per_cta` points) → `gpu_sim.model`.
/// Lowering is timed through `engine_stats` on the memoized flatten, so
/// the launch and the model reuse it and the total work is unchanged.
pub fn simulate(
    tr: &mut Tracer,
    req: u64,
    k: &Kernel,
    arch: &GpuArch,
    grid: &GridState,
) -> Result<KernelRun, String> {
    let prog = tr.span("gpu_sim.flatten", req, || flatten_cached(k));
    let flat_ops = (0..prog.n_warps()).map(|w| prog.stream_len(w) as u64).sum();
    let uops = tr
        .span("gpu_sim.lower", req, || engine_stats(k, &prog))
        .uops;
    let ppc = k.points_per_cta;
    let arrays =
        singe::kernels::launch_arrays(&k.global_arrays, grid).map_err(|e| e.to_string())?;
    let out = tr
        .span("gpu_sim.cta", req, || {
            launch(k, arch, &LaunchInputs { arrays }, ppc, LaunchMode::Full)
        })
        .map_err(|e| format!("launch: {e}"))?;
    let model = tr
        .span("gpu_sim.model", req, || {
            gpu_sim::model::predict(k, arch).map(|p| estimate(k, arch, &p.counts, ppc))
        })
        .map_err(|e| format!("model: {e}"))?;
    let per_wave = out.report.occupancy.ctas_per_sm.max(1) as f64;
    let grid_points = FIXED_GRID.div_ceil(ppc) * ppc;
    Ok(KernelRun {
        flat_ops,
        uops,
        sim_cycles: out.report.wave_cycles / per_wave,
        model_cycles: model.wave_cycles / per_wave,
        sim_mpts: estimate(k, arch, &out.report.counts, grid_points).points_per_sec / 1e6,
        outputs: out.outputs,
    })
}

/// Exact work counters summed over a seed-determined set of kernels, in a
/// fixed order, so equal seeds give bit-identical values.
#[derive(Default)]
pub struct Exact {
    pub dfg_ops: u64,
    pub instrs: u64,
    pub barriers: u64,
    pub spilled_vars: u64,
    pub flat_ops: u64,
    pub uops: u64,
    pub sim_cycles: f64,
    pub cycle_ratios: Vec<f64>,
    pub sim_mpts: Vec<f64>,
}

impl Exact {
    pub fn add(&mut self, dfg: &Dfg, c: &Compiled, run: &KernelRun) {
        self.dfg_ops += dfg.ops.len() as u64;
        self.instrs += c.kernel.static_instructions() as u64;
        self.barriers += c.kernel.barriers_used as u64;
        self.spilled_vars += c.stats.spilled_vars as u64;
        self.flat_ops += run.flat_ops;
        self.uops += run.uops;
        self.sim_cycles += run.sim_cycles;
        self.cycle_ratios.push(run.model_cycles / run.sim_cycles);
        self.sim_mpts.push(run.sim_mpts);
    }

    pub fn into_layers(self, layers: &mut BTreeMap<String, f64>) {
        let mut put = |k: &str, v: f64| {
            layers.insert(k.to_string(), v);
        };
        put("core.kernels.dfg_ops", self.dfg_ops as f64);
        put("core.compiler.instrs", self.instrs as f64);
        put("core.compiler.barriers", self.barriers as f64);
        put("core.compiler.spilled_vars", self.spilled_vars as f64);
        put("gpu_sim.flatten.ops", self.flat_ops as f64);
        put("gpu_sim.lower.uops", self.uops as f64);
        put("gpu_sim.cta.sim_cycles", self.sim_cycles);
        put(
            "gpu_sim.model.cycle_ratio",
            crate::stats::geomean(&self.cycle_ratios),
        );
    }
}

/// Mean self time per call of every traced layer, in ms, and the mean part
/// of a request no layer span covers (`request.uncovered_ms`).
pub fn self_time_layers(tr: &Tracer, layers: &mut BTreeMap<String, f64>) {
    for (name, (ns, calls)) in crate::trace::self_times(tr.spans()) {
        let key = if name == crate::trace::REQUEST {
            "request.uncovered_ms".to_string()
        } else {
            format!("{name}.ms")
        };
        layers.insert(key, ns as f64 / 1e6 / calls.max(1) as f64);
    }
}
