//! Differential test harness for the analytical performance model
//! (§4/§5/§6 features, no interpretation) against the simulator:
//!
//! * over the full extended candidate grid for the DME-sized viscosity
//!   and diffusion kernels on both architectures, the model's predicted
//!   seconds rank-correlate with simulated seconds at Spearman
//!   ρ ≥ [`SPEARMAN_GOLDEN`], and the exhaustive sweep's winner is always
//!   inside the model's top-K (the default `SearchBudget::sim_top_k`);
//! * the model-guided sweep simulates ≤ 25% of the grid yet lands
//!   within [`WINNER_TOLERANCE`] of the exhaustive winner's simulated
//!   time — on all three kernels (chemistry included) × both arches;
//! * the model's per-warp-group attribution agrees with the runtime
//!   profiler about which warp group is the bottleneck and which named
//!   barrier is hottest on the warp-specialized diffusion kernel.
//!
//! The thresholds are committed goldens: loosening them is a visible
//! diff, not a silent regression.

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::state::{GridDims, GridState};
use chemkin::synth;
use chemkin::Mechanism;
use gpu_sim::arch::GpuArch;
use singe::config::{CompileOptions, Placement};
use singe::dfg::Dfg;
use singe::kernels::{chemistry, diffusion, launch_arrays, viscosity};
use singe::search::{grid_options, search_kernel, SearchBudget, SearchPoint, SearchSpace};
use singe_bench::{build_with_options, predict_built, profile_built, spearman, Kind, Variant};

/// Golden: minimum Spearman rank correlation between predicted and
/// simulated seconds over the candidate grid.
const SPEARMAN_GOLDEN: f64 = 0.8;

/// Golden: guided winner's simulated seconds must be within this factor
/// of the exhaustive winner's.
const WINNER_TOLERANCE: f64 = 1.02;

/// Golden: fraction of the candidate grid guided search may simulate.
const SIMULATED_FRACTION: f64 = 0.25;

fn dme() -> Mechanism {
    synth::dme()
}

/// A mid-sized mechanism keeps the chemistry sweep fast in debug builds;
/// the kernel structure (QSSA/stiff warp groups) is the same as DME's.
fn chem_mech() -> Mechanism {
    synth::via_text(&synth::SynthConfig {
        name: "chemacc".into(),
        n_species: 12,
        n_reactions: 24,
        n_qssa: 3,
        n_stiff: 4,
        seed: 29,
    })
}

/// The dfg each sweep compiles every candidate against: parameterized at
/// the grid's minimum warp count so all 24 candidates are legal targets.
fn sweep_dfg(kind: Kind, mech: &Mechanism) -> Dfg {
    match kind {
        Kind::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(mech), 2),
        Kind::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(mech), 2),
        Kind::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(mech), 2),
    }
}

fn grid_for(kind: Kind) -> Vec<CompileOptions> {
    let placement = match kind {
        Kind::Viscosity => Placement::Store,
        Kind::Diffusion => Placement::Mixed(176),
        Kind::Chemistry => Placement::Buffer(176),
    };
    grid_options(placement, &[1, 2, 4], &[1])
}

fn inputs_closure(
    n_species: usize,
) -> impl Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync {
    move |k: &gpu_sim::isa::Kernel, pts: usize| {
        let g = GridState::random(GridDims { nx: pts, ny: 1, nz: 1 }, n_species, 7);
        launch_arrays(&k.global_arrays, &g)
            .expect("known arrays")
            .iter()
            .map(|s| s.to_vec())
            .collect()
    }
}

/// Identity of a sweep point for cross-result comparison.
fn key(p: &SearchPoint) -> (usize, u32) {
    (p.options.warps, p.options.point_iters)
}

/// Exhaustive + guided sweep for one kernel × mechanism × arch, with all
/// the satellite-1 assertions.
fn check_sweep(kind: Kind, mech: &Mechanism, arch: &GpuArch) {
    let label = format!("{} {} {}", kind.name(), mech.name, arch.name);
    let dfg = sweep_dfg(kind, mech);
    let cands = grid_for(kind);
    let inputs = inputs_closure(mech.n_transported());
    let top_k = SearchBudget::default().sim_top_k;
    let space = SearchSpace::for_arch(arch);
    let sweep = |sim_top_k: usize| {
        let n = cands.len();
        let budget =
            SearchBudget::builder().rounds(0).max_model_evals(n).sim_top_k(sim_top_k).build();
        search_kernel(&dfg, arch, &space, &cands, &budget, 256, &inputs).map(|r| r.outcome)
    };
    let exhaustive = sweep(cands.len()).expect("exhaustive sweep runs");

    // Differential: model ranking vs simulated truth over every candidate
    // that both compiled and ran.
    let mut preds = Vec::new();
    let mut sims = Vec::new();
    for p in &exhaustive.points {
        if let (Some(pr), Some(s)) = (p.predicted_seconds, p.simulated_seconds) {
            preds.push(pr);
            sims.push(s);
        }
    }
    assert!(
        preds.len() >= cands.len() / 2,
        "{label}: only {} of {} candidates produced both a prediction and a time",
        preds.len(),
        cands.len()
    );
    let rho = spearman(&preds, &sims);
    assert!(
        rho >= SPEARMAN_GOLDEN,
        "{label}: Spearman {rho:.4} below golden {SPEARMAN_GOLDEN}"
    );

    // The exhaustive winner must sit inside the model's top-K prediction.
    let best_sim = exhaustive
        .points
        .iter()
        .filter(|p| p.simulated_seconds.is_some())
        .min_by(|a, b| a.simulated_seconds.partial_cmp(&b.simulated_seconds).expect("finite"))
        .expect("some candidate ran");
    let mut by_pred: Vec<&SearchPoint> =
        exhaustive.points.iter().filter(|p| p.predicted_seconds.is_some()).collect();
    by_pred.sort_by(|a, b| {
        a.predicted_seconds.partial_cmp(&b.predicted_seconds).expect("finite")
    });
    let top: Vec<(usize, u32)> = by_pred.iter().take(top_k).map(|p| key(p)).collect();
    assert!(
        top.contains(&key(best_sim)),
        "{label}: exhaustive winner {:?} not in model top-{top_k} {top:?}",
        key(best_sim)
    );

    // Guided search: simulates at most 25% of the grid, lands within 2%.
    let guided = sweep(top_k).expect("guided sweep runs");
    let simulated = guided.points.iter().filter(|p| p.simulated_seconds.is_some()).count();
    assert!(
        (simulated as f64) <= SIMULATED_FRACTION * cands.len() as f64,
        "{label}: guided simulated {simulated} of {} candidates (> {SIMULATED_FRACTION:.0e})",
        cands.len()
    );
    let guided_best = guided.best_seconds;
    let exhaustive_best = best_sim.simulated_seconds.expect("winner ran");
    assert!(
        guided_best <= exhaustive_best * WINNER_TOLERANCE,
        "{label}: guided winner {guided_best:.4e}s misses exhaustive {exhaustive_best:.4e}s \
         by more than {WINNER_TOLERANCE}x"
    );
}

#[test]
fn viscosity_model_ranks_grid_on_fermi() {
    check_sweep(Kind::Viscosity, &dme(), &GpuArch::fermi_c2070());
}

#[test]
fn viscosity_model_ranks_grid_on_kepler() {
    check_sweep(Kind::Viscosity, &dme(), &GpuArch::kepler_k20c());
}

#[test]
fn diffusion_model_ranks_grid_on_fermi() {
    check_sweep(Kind::Diffusion, &dme(), &GpuArch::fermi_c2070());
}

#[test]
fn diffusion_model_ranks_grid_on_kepler() {
    check_sweep(Kind::Diffusion, &dme(), &GpuArch::kepler_k20c());
}

#[test]
fn chemistry_guided_matches_exhaustive_on_both_arches() {
    let m = chem_mech();
    check_sweep(Kind::Chemistry, &m, &GpuArch::fermi_c2070());
    check_sweep(Kind::Chemistry, &m, &GpuArch::kepler_k20c());
}

/// Satellite 4: on the warp-specialized diffusion kernel the model and
/// the runtime profiler must agree *qualitatively* — same bottleneck
/// warp group (by per-warp busy cycles) and same hottest named barrier —
/// on both architectures.
#[test]
fn model_and_profiler_agree_on_diffusion_bottleneck() {
    let m = dme();
    for arch in [GpuArch::fermi_c2070(), GpuArch::kepler_k20c()] {
        let opts = singe_bench::ws_options(Kind::Diffusion, m.n_transported(), &arch);
        let built =
            build_with_options(Kind::Diffusion, &m, &arch, Variant::WarpSpecialized, &opts)
                .expect("diffusion compiles");
        let model = predict_built(&built, &arch, built.kernel.points_per_cta);
        let profile = profile_built(&built, &arch, false);

        // Bottleneck group: rank the model's warp groups by the
        // *profiler's* measured per-warp busy cycles and check the model
        // picked the same argmax.
        let groups = &model.profile.groups;
        assert!(groups.len() >= 2, "{}: diffusion should specialize warps", arch.name);
        let profiled_busy: Vec<u64> = groups
            .iter()
            .map(|g| {
                g.warps.iter().map(|&w| profile.warps[w].busy()).sum::<u64>()
                    / g.warps.len().max(1) as u64
            })
            .collect();
        let profiled_argmax = (0..groups.len())
            .max_by_key(|&i| (profiled_busy[i], std::cmp::Reverse(i)))
            .expect("non-empty");
        assert_eq!(
            model.profile.bottleneck_group(),
            profiled_argmax,
            "{}: model bottleneck group disagrees with profiler (profiled busy {:?})",
            arch.name,
            profiled_busy
        );

        // Hottest barrier: the model's predicted per-barrier-id wait
        // attribution picks the same barrier the profiler measured.
        let (model_bar, model_wait) =
            model.profile.hottest_barrier().expect("ws diffusion waits on barriers");
        let measured = profile.totals().barrier_wait.clone();
        let measured_bar = measured
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(b, v)| (v, std::cmp::Reverse(b)))
            .map(|(b, _)| b)
            .expect("non-empty");
        assert!(measured[measured_bar] > 0, "{}: profiler saw no barrier waits", arch.name);
        assert_eq!(
            model_bar, measured_bar,
            "{}: model hottest barrier {model_bar} (wait {model_wait}) vs profiler {measured_bar}",
            arch.name
        );
    }
}
