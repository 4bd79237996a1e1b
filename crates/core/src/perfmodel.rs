//! Kernel-level analytical performance model (compiler-side wrapper).
//!
//! [`gpu_sim::model`] predicts a CTA's cycle attribution from static
//! features of the flattened program; this module lifts that to the
//! quantity autotuning actually ranks by — *predicted seconds for a
//! grid* — by feeding the model's predicted event counts through the
//! same [`gpu_sim::timing::estimate`] the simulator uses for measured
//! counts. Predicted and simulated seconds are therefore directly
//! comparable: they differ only where the model had to estimate
//! (constant-cache hits, coalescing) rather than count. The simulated
//! side of that comparison comes from the engine fast path
//! (`gpu_sim::engine`), whose bulk per-segment accounting reproduces
//! interpreter `EventCounts` bit-for-bit, so model-accuracy audits are
//! unaffected by which executor ran the probe.

use crate::{CompileError, CResult};
use gpu_sim::arch::GpuArch;
use gpu_sim::isa::Kernel;
use gpu_sim::model::{predict as model_predict, ModelProfile};
use gpu_sim::timing::SimReport;

/// A model prediction for one kernel on one architecture and grid: the
/// per-warp/per-group cycle attribution plus the timing extrapolation.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The static model's CTA-level prediction (cycles, counts, groups).
    pub profile: ModelProfile,
    /// Timing-model extrapolation of the predicted counts to the grid —
    /// `report.seconds` is the ranking metric for guided autotuning.
    pub report: SimReport,
}

impl ModelReport {
    /// Predicted wall-clock seconds for the grid (the autotune metric).
    pub fn seconds(&self) -> f64 {
        self.report.seconds
    }
}

/// Predict `kernel`'s performance on `arch` for a `grid_points`-point
/// launch without running the interpreter.
///
/// Errors with [`CompileError::Internal`] only on barrier-protocol
/// violations the interpreter would also reject — compiled and verified
/// kernels never hit them.
pub fn predict(kernel: &Kernel, arch: &GpuArch, grid_points: usize) -> CResult<ModelReport> {
    let profile = model_predict(kernel, arch).map_err(CompileError::Internal)?;
    let report = gpu_sim::timing::estimate(kernel, arch, &profile.counts, grid_points);
    Ok(ModelReport { profile, report })
}

/// Scoring hook for the schedule search ([`crate::search`]):
/// just the predicted seconds, `None` when the model rejects the kernel
/// (it never does for verified compiles). One compile + one call of this
/// is a full model evaluation — microseconds, no interpretation.
pub fn predict_seconds(kernel: &Kernel, arch: &GpuArch, grid_points: usize) -> Option<f64> {
    predict(kernel, arch, grid_points).ok().map(|m| m.seconds())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{Compiler, Variant};
    use crate::config::CompileOptions;
    use crate::kernels::viscosity::viscosity_dfg;
    use chemkin::reference::tables::ViscosityTables;
    use chemkin::synth;

    fn small_kernel(arch: &GpuArch) -> Kernel {
        let m = synth::via_text(&synth::SynthConfig {
            name: "pm".into(),
            n_species: 6,
            n_reactions: 8,
            n_qssa: 0,
            n_stiff: 0,
            seed: 11,
        });
        let dfg = viscosity_dfg(&ViscosityTables::build(&m), 3);
        Compiler::new(arch)
            .options(CompileOptions::with_warps(3))
            .compile(&dfg, Variant::WarpSpecialized)
            .expect("compiles")
            .kernel
    }

    #[test]
    fn predicted_seconds_are_positive_and_deterministic() {
        let arch = GpuArch::kepler_k20c();
        let k = small_kernel(&arch);
        let a = predict(&k, &arch, 4096).unwrap();
        let b = predict(&k, &arch, 4096).unwrap();
        assert!(a.seconds() > 0.0);
        assert_eq!(a.seconds().to_bits(), b.seconds().to_bits());
        a.profile.cta.check_attribution().unwrap();
    }

    #[test]
    fn predicted_issue_counts_match_simulated_exactly() {
        // Streams are static, so the issue-side counts must agree with
        // an interpreted probe bit-for-bit.
        let arch = GpuArch::fermi_c2070();
        let k = small_kernel(&arch);
        let m = predict(&k, &arch, k.points_per_cta).unwrap();
        let g = chemkin::state::GridState::random(
            chemkin::state::GridDims { nx: k.points_per_cta, ny: 1, nz: 1 },
            6,
            99,
        );
        let arrays: Vec<&[f64]> =
            crate::kernels::launch_arrays(&k.global_arrays, &g).expect("known arrays");
        let out = gpu_sim::launch(
            &k,
            &arch,
            &gpu_sim::LaunchInputs { arrays },
            k.points_per_cta,
            gpu_sim::LaunchMode::TimingOnly,
        )
        .expect("launches");
        let sim = &out.report.counts;
        let pred = &m.profile.counts;
        assert_eq!(pred.issue_slots, sim.issue_slots);
        assert_eq!(pred.dp_slots, sim.dp_slots);
        assert_eq!(pred.flops, sim.flops);
        assert_eq!(pred.warp_branches, sim.warp_branches);
        assert_eq!(pred.barrier_arrives, sim.barrier_arrives);
        assert_eq!(pred.barrier_syncs, sim.barrier_syncs);
        assert_eq!(pred.local_bytes, sim.local_bytes);
        assert_eq!(pred.icache_misses, sim.icache_misses);
        assert_eq!(pred.icache_fetches, sim.icache_fetches);
    }
}
