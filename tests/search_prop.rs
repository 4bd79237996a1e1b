//! Schedule-search property battery ([`singe::search`]).
//!
//! Three property families, all on small synthetic mechanisms so the
//! full space stays enumerable:
//!
//! * **Exhaustive equivalence**: beam search with a full-width beam and
//!   a full simulation budget must land on exactly the exhaustive
//!   sweep's winner (bit-identical simulated seconds) over the same
//!   enumerated space — the beam is a pruning of the sweep, never a
//!   different optimum.
//! * **Determinism**: search results (winner, every predicted and
//!   simulated value, evaluation order) are bit-stable across `--jobs 1`
//!   vs `--jobs 8`, for the beam and for exhaustive and guided sweeps.
//! * **Safety**: every schedule the search returns — the winner and
//!   every oracle-simulated survivor — passes the independent PR 1
//!   verifier at `Strict`.

use chemkin::reference::tables::ViscosityTables;
use chemkin::state::{GridDims, GridState};
use chemkin::synth;
use gpu_sim::arch::GpuArch;
use singe::config::{CompileOptions, Placement};
use singe::kernels::launch_arrays;
use singe::kernels::viscosity::viscosity_dfg;
use singe::search::{search_kernel, SearchBudget, SearchResult, SearchSpace};
use singe::verify::verify_kernel;
use singe::VerifyLevel;

fn synth_mech(n_species: usize, seed: u64) -> chemkin::Mechanism {
    synth::via_text(&synth::SynthConfig {
        name: format!("sp{n_species}_{seed}"),
        n_species,
        n_reactions: n_species * 2,
        n_qssa: 0,
        n_stiff: 0,
        seed,
    })
}

fn inputs_for(n_species: usize) -> impl Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync {
    move |k: &gpu_sim::isa::Kernel, pts: usize| {
        let g = GridState::random(GridDims { nx: pts, ny: 1, nz: 1 }, n_species, 1234);
        launch_arrays(&k.global_arrays, &g)
            .expect("known arrays")
            .iter()
            .map(|s| s.to_vec())
            .collect()
    }
}

/// A small space whose exhaustive enumeration stays cheap: two warp
/// counts, two stream depths, one placement, the uniform-reads toggle.
fn small_space(arch: &GpuArch) -> SearchSpace {
    let mut space = SearchSpace::for_arch(arch);
    space.warps = vec![3, 4];
    space.point_iters = vec![1, 2];
    space.placements = vec![Placement::Store];
    space.pipeline_depths = vec![1, 2];
    space.w_flops = vec![1.0];
    space.w_regs = vec![0.5];
    space.w_locality = vec![0.25];
    space.toggle_uniform_shared_reads = true;
    space.toggle_exp_const = false;
    space
}

#[test]
fn full_width_beam_matches_the_exhaustive_sweep() {
    let mech = synth_mech(6, 41);
    let t = ViscosityTables::build(&mech);
    let dfg = viscosity_dfg(&t, 3);
    let arch = GpuArch::kepler_k20c();
    let space = small_space(&arch);
    // On-lattice base: off-lattice bases are legal (the search admits
    // them as extra seeds), but the equality property wants the beam's
    // reachable set to be exactly the enumerated space.
    let base = CompileOptions::builder().warps(3).point_iters(2).build();
    let inputs = inputs_for(6);

    // The exhaustive sweep over the whole enumerated space: every
    // candidate compiled and simulated.
    let all = space.enumerate(&base);
    assert!(all.len() >= 8 && all.len() <= 32, "space should be small, got {}", all.len());
    let n = all.len();
    let sweep = SearchBudget::builder().rounds(0).max_model_evals(n).sim_top_k(n).jobs(2).build();
    let sweep = search_kernel(&dfg, &arch, &space, &all, &sweep, 256, &inputs).expect("sweep runs");
    let sweep_best = sweep
        .outcome
        .points
        .iter()
        .filter_map(|p| p.simulated_seconds)
        .fold(f64::INFINITY, f64::min);

    // Full-width beam, full simulation budget: the beam prunes nothing,
    // so its oracle must see (at least) every candidate the sweep ran.
    let budget = SearchBudget::builder()
        .beam_width(n)
        .rounds(8)
        .sim_top_k(n)
        .max_model_evals(10 * n)
        .jobs(2)
        .build();
    let search = search_kernel(&dfg, &arch, &space, &space.seeds(&base), &budget, 256, &inputs)
        .expect("search runs");
    assert_eq!(
        search.outcome.best_seconds.to_bits(),
        sweep_best.to_bits(),
        "full-width beam winner {} != exhaustive winner {}",
        search.outcome.best_seconds,
        sweep_best
    );
    // And the beam reached the whole space.
    assert_eq!(search.outcome.model_evals, all.len());
}

/// Run the same search at jobs=1 and jobs=8 and require bit-identical
/// outcomes.
fn assert_bit_stable(
    dfg: &singe::Dfg,
    arch: &GpuArch,
    seeds: &[CompileOptions],
    budget: SearchBudget,
) -> SearchResult {
    let space = SearchSpace::for_arch(arch);
    let inputs = inputs_for(6);
    let run = |jobs: usize| {
        let mut budget = budget.clone();
        budget.jobs = jobs;
        search_kernel(dfg, arch, &space, seeds, &budget, 256, &inputs).expect("search runs")
    };
    let (a, b) = (run(1), run(8));

    assert_eq!(format!("{:?}", a.outcome.best_options), format!("{:?}", b.outcome.best_options));
    assert_eq!(a.outcome.best_seconds.to_bits(), b.outcome.best_seconds.to_bits());
    assert_eq!(a.outcome.model_evals, b.outcome.model_evals);
    assert_eq!(a.outcome.simulations, b.outcome.simulations);
    assert!(a.outcome.simulations <= budget.sim_top_k);
    assert_eq!(a.outcome.points.len(), b.outcome.points.len());
    for (pa, pb) in a.outcome.points.iter().zip(&b.outcome.points) {
        assert_eq!(format!("{:?}", pa.options), format!("{:?}", pb.options));
        assert_eq!(
            pa.predicted_seconds.map(f64::to_bits),
            pb.predicted_seconds.map(f64::to_bits)
        );
        assert_eq!(
            pa.simulated_seconds.map(f64::to_bits),
            pb.simulated_seconds.map(f64::to_bits)
        );
        assert_eq!(pa.failure, pb.failure);
        assert_eq!(pa.round, pb.round);
    }
    a
}

#[test]
fn search_is_bit_stable_across_worker_counts() {
    let mech = synth_mech(6, 42);
    let t = ViscosityTables::build(&mech);
    let dfg = viscosity_dfg(&t, 3);
    let arch = GpuArch::kepler_k20c();

    // The beam over the full space.
    let base = CompileOptions::with_warps(3);
    let budget =
        SearchBudget::builder().beam_width(4).rounds(2).sim_top_k(3).max_model_evals(72).build();
    assert_bit_stable(&dfg, &arch, &SearchSpace::for_arch(&arch).seeds(&base), budget);

    // Exhaustive and guided (top-3) sweeps of a fixed warp-count list.
    let cands: Vec<CompileOptions> =
        [2usize, 3, 4, 6, 8, 12].iter().map(|&w| CompileOptions::with_warps(w)).collect();
    let n = cands.len();
    for top_k in [n, 3] {
        let sweep = SearchBudget::builder().rounds(0).max_model_evals(n).sim_top_k(top_k).build();
        let r = assert_bit_stable(&dfg, &arch, &cands, sweep);
        // Every compiled candidate carries a prediction (warps=2 cannot
        // compile for this DFG).
        for p in &r.outcome.points {
            assert_eq!(p.predicted_seconds.is_some(), p.failure.is_none(), "{:?}", p.options.warps);
        }
    }
}

#[test]
fn every_returned_schedule_passes_strict_verification() {
    let mech = synth_mech(8, 43);
    let t = ViscosityTables::build(&mech);
    let dfg = viscosity_dfg(&t, 4);
    let inputs = inputs_for(8);
    for arch in [GpuArch::kepler_k20c(), GpuArch::hopper()] {
        let base = CompileOptions::with_warps(4);
        let budget = SearchBudget::builder()
            .beam_width(4)
            .rounds(2)
            .sim_top_k(4)
            .max_model_evals(64)
            .jobs(2)
            .build();
        let space = SearchSpace::for_arch(&arch);
        let search =
            search_kernel(&dfg, &arch, &space, &space.seeds(&base), &budget, 256, &inputs)
                .expect("search runs");
        // The winner passes the independent verifier...
        assert!(
            verify_kernel(&search.best.kernel, &arch).is_ok(),
            "winner fails Strict verification on {}",
            arch.name
        );
        // ...and so does every oracle-simulated survivor, recompiled
        // with Strict enforcement turned on in the compiler itself.
        let compiler = singe::Compiler::new(&arch);
        for p in search.outcome.points.iter().filter(|p| p.simulated_seconds.is_some()) {
            let mut opts = p.options.clone();
            opts.verify = VerifyLevel::Strict;
            let c = compiler
                .clone()
                .options(opts)
                .compile(&dfg, singe::Variant::WarpSpecialized)
                .expect("simulated survivor recompiles under Strict");
            assert!(verify_kernel(&c.kernel, &arch).is_ok());
        }
    }
}
