//! Model-driven schedule search: the one tuning driver.
//!
//! [`run_search`] scores candidates with the static performance model
//! ([`crate::perfmodel`], microseconds per evaluation) and uses the
//! simulator only as the final oracle:
//!
//! 1. score an explicit seed list, then, for `budget.rounds` rounds, the
//!    single-dimension neighbors ([`SearchSpace::neighbors`]) of the
//!    `beam_width` best-predicted candidates so far (compile + predict,
//!    no interpretation); a candidate that fails to compile records a
//!    [`SearchFailure::Compile`] and is never simulated;
//! 2. simulate only the `sim_top_k` best-predicted compiled candidates;
//!    the winner is the best **simulated** time among those.
//!
//! The paper's brute-force sweep (§4) and model-guided pruning are this
//! same call over a fixed candidate list (typically [`grid_options`]):
//! the candidates as seeds, `rounds(0)`, `max_model_evals` equal to the
//! list length, and `sim_top_k` equal to the list length (exhaustive) or
//! 5 (guided). The full-space beam search seeds from
//! [`SearchSpace::seeds`] instead and walks the whole [`CompileOptions`]
//! space — warps, `point_iters`, [`Placement`], `uniform_shared_reads`,
//! `exp_const_from_registers`, the mapping weights on a coarse lattice,
//! and the arch-clamped `pipeline_depth`.
//!
//! Neighbor generation respects architecture feasibility up front
//! ([`SearchSpace::canonical`]: warp budget, largest-fitting pipeline
//! depth, Buffer-placement read discipline), so structurally doomed or
//! duplicate candidates are pruned before they are ever scored.
//!
//! Determinism: candidate expansion is pure, batches are scored on the
//! ordered worker pool ([`crate::pool::run_ordered`]) and folded in
//! input order, and every ranking tie breaks toward the earlier-evaluated
//! candidate — results are bit-identical at any `budget.jobs`.

use crate::codegen::{compile_warp_specialized, Compiled};
use crate::config::{CompileOptions, Placement};
use crate::dfg::Dfg;
use crate::pool::run_ordered;
use crate::CResult;
use gpu_sim::arch::GpuArch;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use std::collections::HashSet;

/// How much work a schedule search may do.
///
/// `#[non_exhaustive]` so new knobs can ride along without breaking
/// downstream code; construct with [`SearchBudget::default`] or the
/// fluent [`SearchBudget::builder`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SearchBudget {
    /// Beam width: how many best-predicted candidates seed each round's
    /// neighbor expansion.
    pub beam_width: usize,
    /// Neighbor-expansion rounds after the seeds are scored (0 = a sweep
    /// of the seed list).
    pub rounds: usize,
    /// How many top-predicted candidates the simulation oracle runs.
    pub sim_top_k: usize,
    /// Hard cap on model scorings (each is one compile + one static
    /// prediction); seeding and expansion stop when the cap is reached.
    pub max_model_evals: usize,
    /// Worker threads [`search_kernel`] compiles and simulates on
    /// (default [`crate::pool::default_jobs`]); results are identical at
    /// any count. Serve's search uses its compile farm instead.
    pub jobs: usize,
}

impl Default for SearchBudget {
    fn default() -> SearchBudget {
        SearchBudget {
            beam_width: 8,
            rounds: 4,
            sim_top_k: 5,
            max_model_evals: 160,
            jobs: crate::pool::default_jobs(),
        }
    }
}

impl SearchBudget {
    /// Start a fluent builder over the defaults.
    pub fn builder() -> SearchBudgetBuilder {
        SearchBudgetBuilder::default()
    }
}

/// Fluent builder for [`SearchBudget`]; finish with
/// [`SearchBudgetBuilder::build`].
#[derive(Debug, Clone, Default)]
#[must_use = "a builder does nothing until .build() is called"]
pub struct SearchBudgetBuilder {
    budget: SearchBudget,
}

impl SearchBudgetBuilder {
    /// Beam width per round.
    pub fn beam_width(mut self, beam_width: usize) -> Self {
        self.budget.beam_width = beam_width;
        self
    }

    /// Neighbor-expansion rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.budget.rounds = rounds;
        self
    }

    /// Simulation-oracle cap.
    pub fn sim_top_k(mut self, sim_top_k: usize) -> Self {
        self.budget.sim_top_k = sim_top_k;
        self
    }

    /// Model-evaluation cap.
    pub fn max_model_evals(mut self, max_model_evals: usize) -> Self {
        self.budget.max_model_evals = max_model_evals;
        self
    }

    /// Worker-thread count.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.budget.jobs = jobs;
        self
    }

    /// Finish the builder.
    pub fn build(self) -> SearchBudget {
        self.budget
    }
}

/// The warp-count axis of [`grid_options`].
const GRID_WARPS: &[usize] = &[2, 3, 4, 6, 8, 10, 12, 16];

/// The coarse candidate grid the paper's autotuner sweeps (§4): "We used
/// a brute-force exhaustive autotuning script to drive Singe when tuning
/// our kernels. ... the search space was never more than a few hundred
/// points because warp-specialized decisions dealt with very
/// coarse-grained properties such as the number of target warps."
///
/// The cartesian product of eight warp counts x `iters` x `depths`,
/// holding the placement fixed. Depth only matters on streamed
/// schedules, so K > 1 candidates are generated only where `point_iters`
/// can absorb the depth (the compiler would clamp K to the stream depth
/// anyway, producing duplicates). [`SearchSpace::seeds`] is built from
/// the same function, so the enumeration order — which decides
/// first-best-wins ties — has one source of truth.
pub fn grid_options(placement: Placement, iters: &[u32], depths: &[usize]) -> Vec<CompileOptions> {
    let mut v = Vec::new();
    for &warps in GRID_WARPS {
        for &iters in iters {
            for &k in depths {
                if k as u32 > iters {
                    continue; // the compiler would clamp K to the stream depth
                }
                v.push(CompileOptions {
                    warps,
                    point_iters: iters,
                    placement,
                    pipeline_depth: k,
                    ..Default::default()
                });
            }
        }
    }
    v
}

/// The pipeline-depth menu an architecture's named-barrier file supports
/// (§5.2 K-stage multi-buffered schedules): wider where the file is
/// large, since every sync color costs K ids instead of one. Candidates
/// whose rotated-barrier demand still exceeds the file are legal probes —
/// they record a [`SearchFailure::Compile`] and lose.
pub fn depth_menu(arch: &GpuArch) -> &'static [usize] {
    if arch.named_barriers_per_sm >= 64 {
        &[1, 2, 4]
    } else {
        &[1, 2]
    }
}

/// The searchable schedule space: one menu per [`CompileOptions`]
/// dimension, plus the architecture limits candidate admission enforces.
/// Fields are public so tests (and callers with domain knowledge) can
/// shrink or widen menus; [`SearchSpace::for_arch`] builds the default.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Warp-count menu.
    pub warps: Vec<usize>,
    /// Streaming point-iteration menu.
    pub point_iters: Vec<u32>,
    /// Placement alternatives (the base placement is always admitted).
    pub placements: Vec<Placement>,
    /// Pipeline-depth menu (already arch-clamped by [`for_arch`]).
    ///
    /// [`for_arch`]: SearchSpace::for_arch
    pub pipeline_depths: Vec<usize>,
    /// Mapping-weight lattices (coarse by design: the mapper only reacts
    /// to order-of-magnitude changes).
    pub w_flops: Vec<f64>,
    /// Register-balance weight lattice.
    pub w_regs: Vec<f64>,
    /// Locality weight lattice.
    pub w_locality: Vec<f64>,
    /// Explore flipping `uniform_shared_reads`.
    pub toggle_uniform_shared_reads: bool,
    /// Explore flipping `exp_const_from_registers`.
    pub toggle_exp_const: bool,
    /// Hard warp budget (from the architecture's per-SM warp file).
    pub max_warps: usize,
}

impl SearchSpace {
    /// The default search space for an architecture: the grid menus plus
    /// the axes no grid enumerates (placement moves, mapping weights,
    /// the §3.2/§6.1 toggles, an extra warp count and stream depth).
    pub fn for_arch(arch: &GpuArch) -> SearchSpace {
        SearchSpace {
            warps: vec![2, 3, 4, 6, 8, 10, 12, 14, 16],
            point_iters: vec![1, 2, 4, 8],
            placements: vec![
                Placement::Store,
                Placement::Mixed(88),
                Placement::Mixed(176),
                Placement::Buffer(176),
            ],
            pipeline_depths: depth_menu(arch).to_vec(),
            w_flops: vec![0.5, 1.0, 2.0],
            w_regs: vec![0.0, 0.5, 1.0],
            w_locality: vec![0.0, 0.25, 1.0],
            toggle_uniform_shared_reads: true,
            toggle_exp_const: true,
            max_warps: arch.max_warps_per_sm,
        }
    }

    /// Admit a candidate: apply the feasibility clamps the compiler
    /// would apply anyway, so textually distinct options that compile to
    /// the same schedule collapse to one candidate, and reject what the
    /// architecture can never run (warp budget). Returns `None` for
    /// rejected candidates — they are pruned, not scored.
    pub fn canonical(&self, mut o: CompileOptions) -> Option<CompileOptions> {
        if o.warps == 0 || o.warps > self.max_warps || o.point_iters == 0 {
            return None;
        }
        // Largest-fitting pipeline depth: the codegen clamp, applied up
        // front (depth cannot exceed the stream or the arch menu).
        o.pipeline_depth = self
            .pipeline_depths
            .iter()
            .copied()
            .filter(|&d| d <= o.pipeline_depth.max(1) && d as u32 <= o.point_iters)
            .max()
            .unwrap_or(1);
        // Buffer placement forces producer-register reads (the compiler
        // disables uniform shared reads there); canonicalize so the
        // toggle cannot mint duplicate Buffer candidates.
        if matches!(o.placement, Placement::Buffer(_)) {
            o.uniform_shared_reads = false;
        }
        Some(o)
    }

    /// Dedup key for a canonical candidate (the full options Debug form:
    /// every searchable dimension is a field).
    pub fn key(o: &CompileOptions) -> String {
        format!("{o:?}")
    }

    /// The seed beam: `base` itself plus the unified grid
    /// ([`grid_options`]) over this space's warp/iteration/depth menus at
    /// the base placement, canonicalized and deduplicated.
    pub fn seeds(&self, base: &CompileOptions) -> Vec<CompileOptions> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut push = |o: CompileOptions, out: &mut Vec<CompileOptions>| {
            if seen.insert(Self::key(&o)) {
                out.push(o);
            }
        };
        if let Some(b) = self.canonical(base.clone()) {
            push(b, &mut out);
        }
        let grid = grid_options(base.placement, &self.point_iters, &self.pipeline_depths);
        for g in grid {
            // Grid entries use default warp counts; keep only menu warps.
            if !self.warps.contains(&g.warps) {
                continue;
            }
            if let Some(c) = self.canonical(g) {
                push(c, &mut out);
            }
        }
        out
    }

    /// Single-dimension neighbor moves from `o`: one step along each
    /// menu axis (toward both menu neighbors), every alternative
    /// placement, and the boolean toggles. All results are canonical;
    /// infeasible moves are pruned here, never scored.
    pub fn neighbors(&self, o: &CompileOptions) -> Vec<CompileOptions> {
        let mut raw: Vec<CompileOptions> = Vec::new();
        for w in menu_steps(&self.warps, o.warps, |&v| v as f64) {
            raw.push(CompileOptions { warps: w, ..o.clone() });
        }
        for it in menu_steps(&self.point_iters, o.point_iters, |&v| v as f64) {
            raw.push(CompileOptions { point_iters: it, ..o.clone() });
        }
        for d in menu_steps(&self.pipeline_depths, o.pipeline_depth, |&v| v as f64) {
            raw.push(CompileOptions { pipeline_depth: d, ..o.clone() });
        }
        for &p in &self.placements {
            if p != o.placement {
                raw.push(CompileOptions { placement: p, ..o.clone() });
            }
        }
        if self.toggle_uniform_shared_reads {
            raw.push(CompileOptions { uniform_shared_reads: !o.uniform_shared_reads, ..o.clone() });
        }
        if self.toggle_exp_const {
            raw.push(CompileOptions {
                exp_const_from_registers: !o.exp_const_from_registers,
                ..o.clone()
            });
        }
        for w in menu_steps(&self.w_flops, o.w_flops, |&v| v) {
            raw.push(CompileOptions { w_flops: w, ..o.clone() });
        }
        for w in menu_steps(&self.w_regs, o.w_regs, |&v| v) {
            raw.push(CompileOptions { w_regs: w, ..o.clone() });
        }
        for w in menu_steps(&self.w_locality, o.w_locality, |&v| v) {
            raw.push(CompileOptions { w_locality: w, ..o.clone() });
        }
        raw.into_iter().filter_map(|c| self.canonical(c)).collect()
    }

    /// Exhaustively enumerate the whole (canonical, deduplicated) space
    /// with non-menu fields taken from `base`. Meant for tests and small
    /// custom spaces — the default space is ~10^4 points.
    pub fn enumerate(&self, base: &CompileOptions) -> Vec<CompileOptions> {
        let bools = |t: bool, b: bool| if t { vec![false, true] } else { vec![b] };
        let usr_menu = bools(self.toggle_uniform_shared_reads, base.uniform_shared_reads);
        let exp_menu = bools(self.toggle_exp_const, base.exp_const_from_registers);
        let mut placements = self.placements.clone();
        if !placements.contains(&base.placement) {
            placements.insert(0, base.placement);
        }
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for &warps in &self.warps {
            for &point_iters in &self.point_iters {
                for &placement in &placements {
                    for &pipeline_depth in &self.pipeline_depths {
                        for &w_flops in &self.w_flops {
                            for &w_regs in &self.w_regs {
                                for &w_locality in &self.w_locality {
                                    for &uniform_shared_reads in &usr_menu {
                                        for &exp_const_from_registers in &exp_menu {
                                            let c = CompileOptions {
                                                warps,
                                                point_iters,
                                                placement,
                                                pipeline_depth,
                                                w_flops,
                                                w_regs,
                                                w_locality,
                                                uniform_shared_reads,
                                                exp_const_from_registers,
                                                ..base.clone()
                                            };
                                            if let Some(c) = self.canonical(c) {
                                                if seen.insert(Self::key(&c)) {
                                                    out.push(c);
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Both menu neighbors of `v` (plus the nearest menu value itself when
/// `v` is off-lattice, snapping it on). Ties toward the lower index.
fn menu_steps<T: Copy + PartialEq>(menu: &[T], v: T, as_f: impl Fn(&T) -> f64) -> Vec<T> {
    if menu.is_empty() {
        return Vec::new();
    }
    let vf = as_f(&v);
    let mut nearest = 0usize;
    let mut best = f64::INFINITY;
    for (i, m) in menu.iter().enumerate() {
        let d = (as_f(m) - vf).abs();
        if d < best {
            best = d;
            nearest = i;
        }
    }
    let mut out = Vec::new();
    if menu[nearest] != v {
        out.push(menu[nearest]);
    }
    if nearest > 0 {
        out.push(menu[nearest - 1]);
    }
    if nearest + 1 < menu.len() {
        out.push(menu[nearest + 1]);
    }
    out
}

/// A batch closure of [`run_search`]: candidates in, one result per
/// candidate out, in input order.
type BatchFn<'a> = dyn FnMut(&[CompileOptions]) -> Vec<Result<f64, String>> + 'a;

/// One model-scored candidate, in evaluation order.
struct Scored {
    options: CompileOptions,
    /// Model-predicted probe seconds (`Err` = did not compile).
    score: Result<f64, String>,
    /// Which expansion round produced it (0 = seed list).
    round: usize,
}

impl Scored {
    /// The prediction, when the candidate compiled and the model scored it.
    fn predicted(&self) -> Option<f64> {
        self.score.as_ref().ok().copied().filter(|s| s.is_finite())
    }
}

/// Score the deduplicated `seeds`, then for each round expand the
/// single-dimension neighbors of the `beam_width` best-predicted
/// candidates seen so far, skipping everything already scored, until the
/// round count or the model-evaluation cap is reached.
fn explore(
    space: &SearchSpace,
    seeds: &[CompileOptions],
    budget: &SearchBudget,
    score: &mut BatchFn<'_>,
) -> Vec<Scored> {
    let mut seen: HashSet<String> = HashSet::new();
    let batch: Vec<CompileOptions> = seeds
        .iter()
        .filter(|s| seen.insert(SearchSpace::key(s)))
        .take(budget.max_model_evals)
        .cloned()
        .collect();
    let scores = score(&batch);
    let mut points: Vec<Scored> = batch
        .into_iter()
        .zip(scores)
        .map(|(options, score)| Scored { options, score, round: 0 })
        .collect();

    for round in 1..=budget.rounds {
        let headroom = budget.max_model_evals.saturating_sub(points.len());
        if headroom == 0 {
            break;
        }
        // The beam: best-predicted candidates scored so far, ties toward
        // the earlier evaluation.
        let mut order: Vec<(f64, usize)> =
            points.iter().enumerate().filter_map(|(i, p)| Some((p.predicted()?, i))).collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut batch: Vec<CompileOptions> = Vec::new();
        'expand: for &(_, i) in order.iter().take(budget.beam_width) {
            for n in space.neighbors(&points[i].options) {
                if batch.len() >= headroom {
                    break 'expand;
                }
                if seen.insert(SearchSpace::key(&n)) {
                    batch.push(n);
                }
            }
        }
        if batch.is_empty() {
            break; // converged: the beam's whole neighborhood is scored
        }
        let scores = score(&batch);
        points.extend(
            batch.into_iter().zip(scores).map(|(options, score)| Scored { options, score, round }),
        );
    }
    points
}

/// Why a candidate produced no time. A config that does not fit is a
/// legal probe result; a kernel that compiled but failed to launch points
/// at a harness or compiler bug — the two must not be conflated.
#[derive(Debug, Clone, PartialEq)]
pub enum SearchFailure {
    /// The candidate did not compile (message from the compiler).
    Compile(String),
    /// The candidate compiled but the probe launch failed (message from
    /// the simulator).
    Launch(String),
}

impl std::fmt::Display for SearchFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchFailure::Compile(m) => write!(f, "did not compile: {m}"),
            SearchFailure::Launch(m) => write!(f, "compiled but failed to run: {m}"),
        }
    }
}

/// One candidate in a [`SearchOutcome`], in evaluation order.
#[derive(Debug, Clone)]
pub struct SearchPoint {
    /// The candidate, exactly as scored.
    pub options: CompileOptions,
    /// Model-predicted probe seconds (`None` = did not compile, or the
    /// model rejected the kernel).
    pub predicted_seconds: Option<f64>,
    /// Oracle-simulated probe seconds (`None` = pruned from simulation,
    /// or it failed — see `failure`).
    pub simulated_seconds: Option<f64>,
    /// Why the candidate has no time, when it failed.
    pub failure: Option<SearchFailure>,
    /// Expansion round that produced the candidate (0 = seed list).
    pub round: usize,
}

/// Per-round trajectory entry (for the `--search` example and reports).
#[derive(Debug, Clone, Copy)]
pub struct RoundStats {
    /// Round index (0 = seed list).
    pub round: usize,
    /// Candidates scored in this round.
    pub evaluated: usize,
    /// Best model prediction seen up to and including this round.
    pub best_predicted: Option<f64>,
    /// Best oracle simulation among candidates discovered by this round
    /// (`None` until the round that produced a simulated survivor).
    pub best_simulated: Option<f64>,
}

/// Everything a search run produced: the audit trail plus the winner.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Every scored candidate, in evaluation order, with oracle results
    /// attached to the simulated ones.
    pub points: Vec<SearchPoint>,
    /// Per-round trajectory.
    pub rounds: Vec<RoundStats>,
    /// Candidates scored by the model (compiles + predictions).
    pub model_evals: usize,
    /// Candidates simulated by the oracle.
    pub simulations: usize,
    /// The winning options (best simulated time).
    pub best_options: CompileOptions,
    /// The winner's model prediction.
    pub best_predicted_seconds: Option<f64>,
    /// The winner's simulated probe seconds.
    pub best_seconds: f64,
}

impl SearchOutcome {
    /// Fraction of model-scored candidates the oracle simulated.
    pub fn sim_fraction(&self) -> f64 {
        if self.model_evals == 0 {
            0.0
        } else {
            self.simulations as f64 / self.model_evals as f64
        }
    }
}

/// Run the search end to end with caller-supplied cost and oracle
/// closures, returning the full [`SearchOutcome`].
///
/// This is the engine behind [`search_kernel`] and the serve layer's
/// search: `score` maps a candidate batch to model-predicted seconds
/// (`Err` = did not compile; `+inf` = the model rejected a compiled
/// kernel), `simulate` maps the chosen survivors to measured probe
/// seconds (`Err` = launch failure). The oracle phase ranks every
/// compiled candidate by (prediction, evaluation order), simulates the
/// top `budget.sim_top_k`, logs how many compiled candidates were
/// dropped, and picks the best simulated time; ties go to the
/// earlier-evaluated candidate (input order, for a sweep).
pub fn run_search(
    space: &SearchSpace,
    seeds: &[CompileOptions],
    budget: &SearchBudget,
    score: &mut BatchFn<'_>,
    simulate: &mut BatchFn<'_>,
) -> CResult<SearchOutcome> {
    let explored = explore(space, seeds, budget, score);
    let model_evals = explored.len();

    // Oracle phase: rank by (predicted, eval order), simulate the top K.
    let mut ranked: Vec<(f64, usize)> = explored
        .iter()
        .enumerate()
        .filter_map(|(i, p)| Some((*p.score.as_ref().ok()?, i)))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let compiled = ranked.len();
    let chosen: Vec<usize> = ranked.into_iter().take(budget.sim_top_k).map(|(_, i)| i).collect();
    eprintln!(
        "[search: scored {model_evals} candidates ({compiled} compiled), simulating {}, \
         {} dropped from simulation]",
        chosen.len(),
        compiled - chosen.len()
    );
    let chosen_opts: Vec<CompileOptions> =
        chosen.iter().map(|&i| explored[i].options.clone()).collect();
    let sims = simulate(&chosen_opts);

    let mut points: Vec<SearchPoint> = explored
        .into_iter()
        .map(|p| SearchPoint {
            predicted_seconds: p.predicted(),
            failure: p.score.err().map(SearchFailure::Compile),
            options: p.options,
            simulated_seconds: None,
            round: p.round,
        })
        .collect();
    let mut best: Option<(f64, usize)> = None;
    for (&i, res) in chosen.iter().zip(sims) {
        match res {
            Ok(sec) => {
                points[i].simulated_seconds = Some(sec);
                // Ties go to the earlier evaluation, so a sweep picks the
                // serial loop's first-best winner.
                if best.is_none_or(|(b, bi)| sec < b || (sec == b && i < bi)) {
                    best = Some((sec, i));
                }
            }
            Err(e) => points[i].failure = Some(SearchFailure::Launch(e)),
        }
    }
    let (best_seconds, bi) = best.ok_or_else(|| {
        let why = points
            .iter()
            .find_map(|p| p.failure.as_ref())
            .map_or(String::new(), |f| format!(" (first failure: {f})"));
        crate::CompileError::ResourceExhausted(format!("no schedule-search candidate ran{why}"))
    })?;

    // Trajectory rollup: cumulative bests per round.
    let max_round = points.iter().map(|p| p.round).max().unwrap_or(0);
    let mut rounds = Vec::with_capacity(max_round + 1);
    let mut best_pred: Option<f64> = None;
    let mut best_sim: Option<f64> = None;
    for r in 0..=max_round {
        let mut evaluated = 0usize;
        for p in points.iter().filter(|p| p.round == r) {
            evaluated += 1;
            if let Some(ps) = p.predicted_seconds {
                if best_pred.is_none_or(|b| ps < b) {
                    best_pred = Some(ps);
                }
            }
            if let Some(ss) = p.simulated_seconds {
                if best_sim.is_none_or(|b| ss < b) {
                    best_sim = Some(ss);
                }
            }
        }
        rounds.push(RoundStats { round: r, evaluated, best_predicted: best_pred, best_simulated: best_sim });
    }

    Ok(SearchOutcome {
        simulations: chosen.len(),
        model_evals,
        best_options: points[bi].options.clone(),
        best_predicted_seconds: points[bi].predicted_seconds,
        best_seconds,
        points,
        rounds,
    })
}

/// A schedule-search result: the winning compile plus the audit trail.
#[derive(Debug)]
pub struct SearchResult {
    /// The winning compile (best simulated probe time).
    pub best: Compiled,
    /// The full search outcome (every scored point, rounds, counts).
    pub outcome: SearchOutcome,
}

/// Search schedules for `dfg` on `arch` from `seeds` (see [`run_search`]),
/// scoring each candidate by compiling it and predicting a
/// `probe_points`-point launch (rounded up to whole CTAs) with the static
/// model, and simulating the chosen survivors as `TimingOnly` probe
/// launches over `inputs_for`'s arrays. Compiles and probes run on
/// `budget.jobs` workers of the ordered pool, so the result is
/// bit-identical at any worker count.
///
/// [`crate::Compiler::search`] is this with [`SearchSpace::for_arch`]
/// and its seeds; a sweep passes the candidate list itself.
pub fn search_kernel(
    dfg: &Dfg,
    arch: &GpuArch,
    space: &SearchSpace,
    seeds: &[CompileOptions],
    budget: &SearchBudget,
    probe_points: usize,
    inputs_for: &(dyn Fn(&gpu_sim::isa::Kernel, usize) -> Vec<Vec<f64>> + Sync),
) -> CResult<SearchResult> {
    let probe_grid =
        |k: &gpu_sim::isa::Kernel| probe_points.div_ceil(k.points_per_cta) * k.points_per_cta;
    let mut score = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
        run_ordered(budget.jobs, cands.len(), |i| {
            let c = compile_warp_specialized(dfg, &cands[i], arch, None)
                .map_err(|e| e.to_string())?;
            Ok(crate::perfmodel::predict_seconds(&c.kernel, arch, probe_grid(&c.kernel))
                .unwrap_or(f64::INFINITY))
        })
    };
    let mut simulate = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
        run_ordered(budget.jobs, cands.len(), |i| {
            let c = compile_warp_specialized(dfg, &cands[i], arch, None)
                .map_err(|e| e.to_string())?;
            let grid = probe_grid(&c.kernel);
            let owned = inputs_for(&c.kernel, grid);
            let arrays: Vec<&[f64]> = owned.iter().map(|v| v.as_slice()).collect();
            launch(&c.kernel, arch, &LaunchInputs { arrays }, grid, LaunchMode::TimingOnly)
                .map(|out| out.report.seconds)
                .map_err(|e| e.to_string())
        })
    };
    let outcome = run_search(space, seeds, budget, &mut score, &mut simulate)?;
    // Re-compile the winner (compilation is deterministic) so callers get
    // a runnable artifact.
    let best = compile_warp_specialized(dfg, &outcome.best_options, arch, None)?;
    Ok(SearchResult { best, outcome })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::launch_arrays;
    use crate::kernels::viscosity::viscosity_dfg;
    use chemkin::reference::tables::ViscosityTables;
    use chemkin::state::{GridDims, GridState};
    use chemkin::synth;

    /// Exhaustively sweep `cands` over a small viscosity kernel: every
    /// candidate scored, every compiled one simulated. Probe inputs are
    /// truncated for kernels with `sabotage_warps` warps, so their launch
    /// fails.
    fn sweep(arch: &GpuArch, cands: &[CompileOptions], sabotage_warps: usize) -> SearchResult {
        let m = synth::via_text(&synth::SynthConfig {
            name: "sweep".into(),
            n_species: 6,
            n_reactions: 8,
            n_qssa: 0,
            n_stiff: 0,
            seed: 4,
        });
        let dfg = viscosity_dfg(&ViscosityTables::build(&m), 3);
        let n = cands.len();
        let budget = SearchBudget::builder().rounds(0).max_model_evals(n).sim_top_k(n).build();
        let space = SearchSpace::for_arch(arch);
        search_kernel(&dfg, arch, &space, cands, &budget, 256, &|k, pts| {
            let g = GridState::random(GridDims { nx: pts, ny: 1, nz: 1 }, 6, 1);
            let mut arrays: Vec<Vec<f64>> = launch_arrays(&k.global_arrays, &g)
                .expect("known arrays")
                .iter()
                .map(|s| s.to_vec())
                .collect();
            if k.warps_per_cta == sabotage_warps {
                for a in &mut arrays {
                    a.truncate(1);
                }
            }
            arrays
        })
        .expect("some candidate runs")
    }

    #[test]
    fn budget_defaults_reproduce_the_historical_caps() {
        let b = SearchBudget::default();
        assert_eq!(b.sim_top_k, 5);
        assert_eq!(b.jobs, crate::pool::default_jobs());
        let built = SearchBudget::builder().beam_width(3).rounds(1).jobs(2).build();
        assert_eq!(built.beam_width, 3);
        assert_eq!(built.rounds, 1);
        assert_eq!(built.jobs, 2);
        assert_eq!(built.sim_top_k, 5);
    }

    #[test]
    fn grid_options_and_depth_menu_size_the_candidate_grids() {
        // The paper's coarse grid: 8 warp counts x 2 stream depths...
        assert_eq!(grid_options(Placement::Store, &[1, 4], &[1]).len(), 16);
        // ...a finer streaming axis, which guided search (top-5)
        // simulates at most a quarter of...
        let extended = grid_options(Placement::Store, &[1, 2, 4], &[1]);
        assert_eq!(extended.len(), 24);
        assert!(SearchBudget::default().sim_top_k * 4 <= extended.len());
        // ...and the pipeline-depth axis, whose menu scales with the
        // barrier file: iters=1 admits only K=1, iters=4 the full menu.
        let hopper = GpuArch::hopper();
        let kepler = GpuArch::kepler_k20c();
        let h = grid_options(Placement::Store, &[1, 4], depth_menu(&hopper));
        let k = grid_options(Placement::Store, &[1, 4], depth_menu(&kepler));
        assert_eq!(h.len(), 8 * (1 + 3));
        assert_eq!(k.len(), 8 * (1 + 2));
        assert!(h.iter().any(|o| o.pipeline_depth == 4));
        assert!(k.iter().all(|o| o.pipeline_depth <= 2));
        // Depth never exceeds what the stream can absorb.
        for o in h.iter().chain(&k) {
            assert!(o.pipeline_depth as u32 <= o.point_iters.max(1));
        }
    }

    #[test]
    fn canonicalization_applies_the_compiler_clamps() {
        let arch = GpuArch::hopper();
        let space = SearchSpace::for_arch(&arch);
        // Depth is clamped to the stream depth...
        let o = CompileOptions::builder().point_iters(2).pipeline_depth(4).build();
        assert_eq!(space.canonical(o).unwrap().pipeline_depth, 2);
        // ...Buffer placement drops uniform shared reads...
        let o = CompileOptions::builder().placement(Placement::Buffer(176)).build();
        assert!(!space.canonical(o).unwrap().uniform_shared_reads);
        // ...and the warp budget rejects outright.
        let o = CompileOptions::with_warps(4096);
        assert!(space.canonical(o).is_none());
    }

    #[test]
    fn neighbors_are_canonical_and_single_step() {
        let arch = GpuArch::kepler_k20c();
        let space = SearchSpace::for_arch(&arch);
        let base = space.canonical(CompileOptions::default()).unwrap();
        let n = space.neighbors(&base);
        assert!(!n.is_empty());
        for c in &n {
            // Every neighbor survives its own canonicalization (fixpoint).
            let again = space.canonical(c.clone()).unwrap();
            assert_eq!(SearchSpace::key(&again), SearchSpace::key(c));
            // Kepler's menu never reaches depth 4.
            assert!(c.pipeline_depth <= 2);
        }
    }

    #[test]
    fn seed_beam_comes_from_the_unified_grid() {
        let arch = GpuArch::hopper();
        let space = SearchSpace::for_arch(&arch);
        let base = CompileOptions::default();
        let seeds = space.seeds(&base);
        // The extended grid (iters 1/2/4, depth 1) is a subset of the
        // seed beam at the same placement.
        for g in grid_options(base.placement, &[1, 2, 4], &[1]) {
            let g = space.canonical(g).unwrap();
            assert!(
                seeds.iter().any(|s| SearchSpace::key(s) == SearchSpace::key(&g)),
                "missing grid seed {g:?}"
            );
        }
        // No duplicates.
        let keys: HashSet<String> = seeds.iter().map(SearchSpace::key).collect();
        assert_eq!(keys.len(), seeds.len());
    }

    #[test]
    fn beam_respects_the_model_eval_cap() {
        let arch = GpuArch::hopper();
        let space = SearchSpace::for_arch(&arch);
        let budget = SearchBudget::builder().max_model_evals(17).build();
        let mut cost = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
            cands.iter().map(|_| Ok(1.0)).collect()
        };
        let seeds = space.seeds(&CompileOptions::default());
        let pts = explore(&space, &seeds, &budget, &mut cost);
        assert!(pts.len() <= 17, "{}", pts.len());
    }

    #[test]
    fn failed_candidates_record_distinct_reasons() {
        // Absurd warp count: cannot fit the SM, must record a Compile
        // failure (not a bare seconds=None).
        let cands = vec![CompileOptions::with_warps(3), CompileOptions::with_warps(4096)];
        let r = sweep(&GpuArch::kepler_k20c(), &cands, 0);
        let p = &r.outcome.points;
        assert!(p[0].simulated_seconds.is_some());
        assert!(p[0].failure.is_none());
        assert!(p[1].simulated_seconds.is_none());
        assert!(matches!(p[1].failure, Some(SearchFailure::Compile(_))));
    }

    #[test]
    fn compile_and_launch_failures_are_distinct() {
        // Candidate 0: valid. Candidate 1: a one-slot buffered placement
        // that cannot fit the kernel's simultaneously-live values ->
        // Compile failure. Candidate 2: compiles, but the harness hands it
        // truncated input arrays -> Launch failure.
        let cands = vec![
            CompileOptions::with_warps(3),
            CompileOptions::builder().warps(3).placement(Placement::Buffer(1)).build(),
            CompileOptions::with_warps(4),
        ];
        let r = sweep(&GpuArch::kepler_k20c(), &cands, 4);
        let p = &r.outcome.points;

        // The valid probe: a time, no failure.
        assert!(p[0].simulated_seconds.is_some());
        assert!(p[0].failure.is_none());
        // The unfittable placement: Compile, never Launch.
        assert!(p[1].simulated_seconds.is_none());
        assert!(matches!(p[1].failure, Some(SearchFailure::Compile(_))));
        // The sabotaged probe: Launch, never Compile.
        assert!(p[2].simulated_seconds.is_none());
        assert!(matches!(p[2].failure, Some(SearchFailure::Launch(_))));
        // The two failure kinds render distinctly.
        let c = p[1].failure.as_ref().unwrap().to_string();
        let l = p[2].failure.as_ref().unwrap().to_string();
        assert!(c.starts_with("did not compile:"), "{c}");
        assert!(l.starts_with("compiled but failed to run:"), "{l}");
        // And the winner is the valid probe, not a failed one.
        assert_eq!(r.outcome.best_options.warps, 3);
    }

    #[test]
    fn sweep_probes_the_pipeline_depth_axis() {
        let cands: Vec<CompileOptions> = [1, 2, 4]
            .iter()
            .map(|&k| CompileOptions::builder().warps(3).point_iters(4).pipeline_depth(k).build())
            .collect();
        let r = sweep(&GpuArch::hopper(), &cands, 0);
        // Every depth compiles and runs on Hopper; the winner is whichever
        // depth the timing model scores best — the axis is genuinely live.
        let p = &r.outcome.points;
        assert!(p.iter().all(|p| p.simulated_seconds.is_some()), "{p:?}");
    }
}
