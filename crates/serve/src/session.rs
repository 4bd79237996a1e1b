//! The session API: a persistent, concurrent front door to the compiler.
//!
//! A [`ServeSession`] owns:
//!
//! * a **mechanism registry** — named, content-fingerprinted mechanisms
//!   loaded once (from chemkin text sources or synth specs) and shared by
//!   every request that names them;
//! * the **persistent artifact cache** ([`crate::artifact::Store`]) — a
//!   compile survives the process;
//! * an **in-flight table** — identical concurrent requests coalesce onto
//!   one compile, all waiters sharing its result (success *or* failure);
//! * the **sharded scheduler** ([`crate::sched::Scheduler`]) — bounded
//!   queue, per-tenant fairness, backpressure.
//!
//! The request lifecycle for [`ServeSession::compile`]:
//!
//! ```text
//! request ── scheduler (fairness, backpressure)
//!          ── key = hash(mech fp, kernel, variant, arch, warps, options)
//!          ── in-flight table: claim or join
//!          ── disk: load artifact (corrupt ⇒ treat as miss, recompile)
//!          ── cold: dfg → compile → verify → persist
//! ```

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use chemkin::reference::tables::{ChemistrySpec, DiffusionTables, ViscosityTables};
use chemkin::synth::SynthConfig;
use chemkin::{GridDims, GridState, Mechanism};
use gpu_sim::arch::GpuArch;
use gpu_sim::counts::EventCounts;
use gpu_sim::launch::{launch, LaunchInputs, LaunchMode};
use gpu_sim::timing::{estimate, SimReport};
use singe::kernels::{chemistry, diffusion, launch_arrays, viscosity};
use singe::search::{SearchBudget, SearchOutcome};
use singe::{CompileOptions, Compiler, Placement, Variant, VerifyLevel};

use crate::artifact::{Artifact, ArtifactKey, ArtifactMeta, Store, VerifyVerdict};
use crate::error::{ServeError, ServeResult};
use crate::ids::{ArchId, KernelId, MechanismId};
use crate::metrics::{Counters, ServeStats};
use crate::sched::{Scheduler, Ticket};

/// Pick a warp count for the warp-specialized viscosity kernel: prefer a
/// divisor of the species count (Figure 9: "peaks for warp counts that
/// evenly divide the number of species"). This is the canonical home of
/// the heuristic; the bench harness delegates here.
pub fn viscosity_warps(n_species: usize) -> usize {
    for w in (4..=14).rev() {
        if n_species.is_multiple_of(w) {
            return w;
        }
    }
    8
}

/// Default warp-specialized options per kernel, sized to the mechanism
/// and architecture — the paper's per-kernel configurations (§6).
pub fn default_options(kernel: KernelId, n_species: usize, arch: &GpuArch) -> CompileOptions {
    // Hopper-class barrier files host K-stage pipelined schedules; depth 2
    // is the conservative default that measures ahead of single-buffering
    // on the viscosity kernel (deeper rings add shared-memory footprint
    // without further per-CTA wins; the compiler clamps depth wherever a
    // schedule or arch cannot host it).
    let pipe = if arch.named_barriers_per_sm >= 64 { 2 } else { 1 };
    match kernel {
        KernelId::Viscosity => CompileOptions::builder()
            .warps(viscosity_warps(n_species))
            .point_iters(4)
            .placement(Placement::Store)
            .pipeline_depth(pipe)
            .build(),
        KernelId::Diffusion => CompileOptions::builder()
            .warps(8)
            .point_iters(4)
            .placement(Placement::Mixed(176))
            .build(),
        KernelId::Chemistry => CompileOptions::builder()
            // 16-20 warps per SM at one CTA (§6.3).
            .warps(if arch.max_warps_per_sm >= 64 { 16 } else { 20 })
            .point_iters(2)
            .placement(Placement::Buffer(176))
            .w_locality(1.0)
            .build(),
    }
}

/// A typed compile request. Construct with [`CompileRequest::new`] (which
/// leaves options at the session's per-kernel defaults) and refine with
/// the `with_*` setters; the struct is `#[non_exhaustive]` so the request
/// surface can grow without breaking callers.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CompileRequest {
    /// Which registered mechanism to compile for.
    pub mechanism: MechanismId,
    /// Which kernel.
    pub kernel: KernelId,
    /// Compiler variant.
    pub variant: Variant,
    /// Target architecture.
    pub arch: ArchId,
    /// Explicit compile options; `None` uses [`default_options`] — and,
    /// for [`Variant::Baseline`], the historical baseline convention
    /// (compile at 8 warps against a dfg built for the warp-specialized
    /// warp count).
    pub options: Option<CompileOptions>,
    /// Warp count the dfg is built at; `None` derives it (the options'
    /// warp count, or the warp-specialized default for a default-options
    /// baseline).
    pub dfg_warps: Option<usize>,
    /// Scheduling tenant: requests from the same tenant are FIFO; tenants
    /// share the farm round-robin.
    pub tenant: String,
}

impl CompileRequest {
    /// A request with default options under the `"default"` tenant.
    pub fn new(
        mechanism: MechanismId,
        kernel: KernelId,
        variant: Variant,
        arch: ArchId,
    ) -> CompileRequest {
        CompileRequest {
            mechanism,
            kernel,
            variant,
            arch,
            options: None,
            dfg_warps: None,
            tenant: "default".to_string(),
        }
    }

    /// Set explicit compile options.
    #[must_use]
    pub fn with_options(mut self, options: CompileOptions) -> CompileRequest {
        self.options = Some(options);
        self
    }

    /// Build the dfg at an explicit warp count (the baseline convention
    /// keys this separately from the compile options' warp count).
    #[must_use]
    pub fn with_dfg_warps(mut self, dfg_warps: usize) -> CompileRequest {
        self.dfg_warps = Some(dfg_warps);
        self
    }

    /// Attribute the request to a scheduling tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: &str) -> CompileRequest {
        self.tenant = tenant.to_string();
        self
    }
}

/// Where a served artifact came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactSource {
    /// This request ran the compiler.
    ColdCompile,
    /// Loaded from the persistent cache.
    WarmDisk,
    /// Joined an identical compile already in flight.
    InflightJoin,
}

/// A served compile result: the artifact plus its provenance.
#[derive(Debug, Clone)]
pub struct ArtifactHandle {
    /// The artifact (shared: joiners and the owner hold the same data).
    pub artifact: Arc<Artifact>,
    /// How this particular request was satisfied.
    pub source: ArtifactSource,
    /// The content address it is cached under.
    pub key: ArtifactKey,
}

struct MechEntry {
    mech: Arc<Mechanism>,
    fingerprint: u64,
}

type InflightSlot = Arc<OnceLock<Result<(Arc<Artifact>, ArtifactSource), ServeError>>>;

struct SessionInner {
    store: Store,
    counters: Counters,
    registry: Mutex<BTreeMap<String, MechEntry>>,
    inflight: Mutex<HashMap<ArtifactKey, InflightSlot>>,
    probes: Mutex<HashMap<ArtifactKey, EventCounts>>,
}

/// Builder for [`ServeSession`] — every knob is optional.
#[must_use = "the builder does nothing until .open() is called"]
#[derive(Debug, Clone)]
pub struct ServeSessionBuilder {
    cache_dir: PathBuf,
    queue_depth: usize,
    jobs: usize,
    shards: usize,
    builtins: bool,
}

impl ServeSessionBuilder {
    fn new(cache_dir: &Path) -> ServeSessionBuilder {
        ServeSessionBuilder {
            cache_dir: cache_dir.to_path_buf(),
            queue_depth: 256,
            jobs: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            shards: 4,
            builtins: true,
        }
    }

    /// Artifact-cache directory (created if absent).
    pub fn cache_dir(mut self, dir: &Path) -> ServeSessionBuilder {
        self.cache_dir = dir.to_path_buf();
        self
    }

    /// Bound on queued (not yet running) jobs before submissions are
    /// rejected with [`ServeError::Overloaded`].
    pub fn queue_depth(mut self, depth: usize) -> ServeSessionBuilder {
        self.queue_depth = depth.max(1);
        self
    }

    /// Worker threads.
    pub fn jobs(mut self, jobs: usize) -> ServeSessionBuilder {
        self.jobs = jobs.max(1);
        self
    }

    /// Scheduler shards (per-tenant queues hash across these).
    pub fn shards(mut self, shards: usize) -> ServeSessionBuilder {
        self.shards = shards.max(1);
        self
    }

    /// Whether to pre-register the built-in `dme` and `heptane`
    /// mechanisms (on by default; tests that want an empty registry turn
    /// it off).
    pub fn builtins(mut self, builtins: bool) -> ServeSessionBuilder {
        self.builtins = builtins;
        self
    }

    /// Open the session.
    pub fn open(self) -> ServeResult<ServeSession> {
        let store = Store::open(&self.cache_dir).map_err(|e| ServeError::Io {
            path: self.cache_dir.display().to_string(),
            message: e.to_string(),
        })?;
        let inner = Arc::new(SessionInner {
            store,
            counters: Counters::default(),
            registry: Mutex::new(BTreeMap::new()),
            inflight: Mutex::new(HashMap::new()),
            probes: Mutex::new(HashMap::new()),
        });
        let session = ServeSession {
            inner,
            sched: Scheduler::new(self.shards, self.jobs, self.queue_depth),
        };
        if self.builtins {
            session.register_synth(&chemkin::synth::dme_config())?;
            session.register_synth(&chemkin::synth::heptane_config())?;
        }
        Ok(session)
    }
}

/// A compile-farm session. See the module docs for the architecture.
#[derive(Debug)]
pub struct ServeSession {
    inner: Arc<SessionInner>,
    sched: Scheduler,
}

impl std::fmt::Debug for SessionInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionInner").field("cache", &self.store.root()).finish()
    }
}

impl ServeSession {
    /// Open a session with default knobs, caching artifacts under `path`.
    pub fn open(path: &Path) -> ServeResult<ServeSession> {
        ServeSession::builder(path).open()
    }

    /// Start configuring a session caching artifacts under `path`.
    pub fn builder(path: &Path) -> ServeSessionBuilder {
        ServeSessionBuilder::new(path)
    }

    /// The artifact cache directory.
    pub fn cache_dir(&self) -> &Path {
        self.inner.store.root()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServeStats {
        self.inner.counters.snapshot()
    }

    /// Jobs currently queued in the scheduler.
    pub fn queued(&self) -> usize {
        self.sched.queued()
    }

    // -- registry ----------------------------------------------------------

    /// Register a mechanism under `id`. Registering identical content
    /// twice is a no-op; the same id with *different* content is
    /// [`ServeError::MechanismConflict`] (ids are immutable bindings —
    /// changed chemistry needs a new id, which also gives it a disjoint
    /// artifact keyspace).
    pub fn register_mechanism(&self, id: MechanismId, mech: Mechanism) -> ServeResult<()> {
        let fingerprint = mech_fingerprint(&mech);
        let mut reg = self.inner.registry.lock().unwrap();
        if let Some(existing) = reg.get(id.as_str()) {
            if existing.fingerprint == fingerprint {
                return Ok(());
            }
            return Err(ServeError::MechanismConflict { id: id.as_str().to_string() });
        }
        reg.insert(id.as_str().to_string(), MechEntry { mech: Arc::new(mech), fingerprint });
        Ok(())
    }

    /// Synthesize and register a mechanism from a synth spec (through the
    /// text round-trip, like the built-ins). The id is the spec's name.
    pub fn register_synth(&self, cfg: &SynthConfig) -> ServeResult<MechanismId> {
        let id: MechanismId = cfg.name.parse()?;
        self.register_mechanism(id.clone(), chemkin::synth::via_text(cfg))?;
        Ok(id)
    }

    /// The registered mechanism ids, sorted.
    pub fn mechanisms(&self) -> Vec<String> {
        self.inner.registry.lock().unwrap().keys().cloned().collect()
    }

    // -- requests ----------------------------------------------------------

    /// Compile (or fetch) synchronously: submit through the scheduler and
    /// wait. Fairness and backpressure apply — under load this can return
    /// [`ServeError::Overloaded`] without queueing.
    pub fn compile(&self, req: &CompileRequest) -> ServeResult<ArtifactHandle> {
        self.submit(req)?.wait()
    }

    /// Submit a compile and return a [`Ticket`] to wait on — the async
    /// form used by sweeps that queue many requests before collecting.
    pub fn submit(&self, req: &CompileRequest) -> ServeResult<Ticket<ArtifactHandle>> {
        let inner = Arc::clone(&self.inner);
        let req = req.clone();
        let tenant = req.tenant.clone();
        self.sched.submit(&tenant, move || compile_now(&inner, &req))
    }

    /// Run the deterministic probe launch for the request's kernel and
    /// return its event counts. Memoized per artifact key — repeated
    /// predictions re-use both the artifact and the probe.
    pub fn probe(&self, req: &CompileRequest) -> ServeResult<EventCounts> {
        let handle = self.compile(req)?;
        if let Some(hit) = self.inner.probes.lock().unwrap().get(&handle.key) {
            return Ok(hit.clone());
        }
        let kernel = &handle.artifact.kernel;
        let n_species = self.n_species_of(&req.mechanism)?;
        let probe = kernel.points_per_cta;
        let g = GridState::random(GridDims { nx: probe, ny: 1, nz: 1 }, n_species, 1234);
        let arrays = launch_arrays(&kernel.global_arrays, &g)
            .map_err(|e| ServeError::Launch(e.to_string()))?;
        let out = launch(kernel, &req.arch.arch(), &LaunchInputs { arrays }, probe, LaunchMode::Full)
            .map_err(|e| ServeError::Launch(e.to_string()))?;
        let counts = out.report.counts;
        self.inner.probes.lock().unwrap().insert(handle.key, counts.clone());
        Ok(counts)
    }

    /// Predict the request's kernel performance at `grid_points` points:
    /// probe one CTA (cached), extrapolate with the timing model.
    pub fn predict(&self, req: &CompileRequest, grid_points: usize) -> ServeResult<SimReport> {
        let handle = self.compile(req)?;
        let counts = self.probe(req)?;
        Ok(estimate(&handle.artifact.kernel, &req.arch.arch(), &counts, grid_points))
    }

    /// Model-driven schedule search ([`singe::search`]) under a
    /// [`SearchBudget`]: beam-search the full options space seeded at the
    /// request's options (or the per-kernel defaults), scoring every
    /// candidate with the static model over *cached* artifacts — compiles
    /// ride the scheduler and artifact store, so repeated searches and
    /// overlapping beams hit warm — and simulating only the top-K
    /// survivors through the memoized probe ([`ServeSession::predict`]),
    /// which reuses the artifact cache for the oracle too. Candidates that
    /// fail to compile record the compiler's message; service-level errors
    /// (overload, shutdown) abort the search. `budget.jobs` is unused: the
    /// farm sets the concurrency.
    ///
    /// Returns the winning options plus the full audit trail.
    pub fn search(
        &self,
        req: &CompileRequest,
        budget: &SearchBudget,
        grid_points: usize,
    ) -> ServeResult<(CompileOptions, SearchOutcome)> {
        let n_species = self.n_species_of(&req.mechanism)?;
        let arch = req.arch.arch();
        let base = match &req.options {
            Some(opts) => opts.clone(),
            None => default_options(req.kernel, n_species, &arch),
        };
        let space = singe::search::SearchSpace::for_arch(&arch);
        // Service-level failures inside the scoring closures surface
        // here after the search returns.
        let service_err: Mutex<Option<ServeError>> = Mutex::new(None);
        let mut score = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
            // Queue the whole batch first so the farm works it
            // concurrently, then collect and predict in input order.
            let tickets: Vec<_> = cands
                .iter()
                .map(|opts| self.submit(&req.clone().with_options(opts.clone())))
                .collect();
            tickets
                .into_iter()
                .map(|t| match t.and_then(|t| t.wait()) {
                    Ok(handle) => {
                        let ppc = handle.artifact.kernel.points_per_cta;
                        let grid = grid_points.div_ceil(ppc) * ppc;
                        Ok(singe::perfmodel::predict_seconds(&handle.artifact.kernel, &arch, grid)
                            .unwrap_or(f64::INFINITY))
                    }
                    Err(ServeError::Compile(e)) => Err(e.to_string()),
                    Err(e) => {
                        let msg = e.to_string();
                        service_err.lock().unwrap().get_or_insert(e);
                        Err(msg)
                    }
                })
                .collect()
        };
        let mut simulate = |cands: &[CompileOptions]| -> Vec<Result<f64, String>> {
            cands
                .iter()
                .map(|opts| {
                    let creq = req.clone().with_options(opts.clone());
                    self.predict(&creq, grid_points)
                        .map(|r| r.seconds)
                        .map_err(|e| e.to_string())
                })
                .collect()
        };
        let outcome = singe::search::run_search(
            &space,
            &space.seeds(&base),
            budget,
            &mut score,
            &mut simulate,
        )
        .map_err(|e| ServeError::Internal(format!("schedule search: {e}")))?;
        if let Some(e) = service_err.into_inner().unwrap() {
            return Err(e);
        }
        Ok((outcome.best_options.clone(), outcome))
    }

    fn n_species_of(&self, id: &MechanismId) -> ServeResult<usize> {
        let reg = self.inner.registry.lock().unwrap();
        match reg.get(id.as_str()) {
            Some(e) => Ok(e.mech.n_transported()),
            None => Err(ServeError::UnknownMechanism {
                requested: id.as_str().to_string(),
                known: reg.keys().cloned().collect(),
            }),
        }
    }
}

/// Content fingerprint of a mechanism (the same Debug-form hash the bench
/// memo uses — any field change reflows into the artifact keyspace).
fn mech_fingerprint(mech: &Mechanism) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    format!("{mech:?}").hash(&mut h);
    h.finish()
}

fn resolve_build(
    req: &CompileRequest,
    n_species: usize,
    arch: &GpuArch,
) -> (CompileOptions, usize) {
    match &req.options {
        Some(opts) => (opts.clone(), req.dfg_warps.unwrap_or(opts.warps)),
        None => {
            let ws = default_options(req.kernel, n_species, arch);
            match req.variant {
                // The historical baseline convention: dfg at the
                // warp-specialized warp count, compiled at 8 warps.
                Variant::Baseline => {
                    (CompileOptions::with_warps(8), req.dfg_warps.unwrap_or(ws.warps))
                }
                Variant::WarpSpecialized | Variant::Naive => {
                    let warps = req.dfg_warps.unwrap_or(ws.warps);
                    (ws, warps)
                }
            }
        }
    }
}

/// The synchronous core: key derivation, in-flight claim/join, disk
/// lookup, cold compile. Runs on a scheduler worker.
fn compile_now(inner: &SessionInner, req: &CompileRequest) -> ServeResult<ArtifactHandle> {
    let (mech, fingerprint) = {
        let reg = inner.registry.lock().unwrap();
        match reg.get(req.mechanism.as_str()) {
            Some(e) => (Arc::clone(&e.mech), e.fingerprint),
            None => {
                return Err(ServeError::UnknownMechanism {
                    requested: req.mechanism.as_str().to_string(),
                    known: reg.keys().cloned().collect(),
                })
            }
        }
    };
    let arch = req.arch.arch();
    let n_species = mech.n_transported();
    let (opts, dfg_warps) = resolve_build(req, n_species, &arch);
    let key = ArtifactKey::derive(
        fingerprint,
        req.kernel.name(),
        req.variant.name(),
        arch.name,
        dfg_warps,
        &format!("{opts:?}"),
    );

    // Claim or join the in-flight slot. `get_or_init` runs the work for
    // exactly one caller and blocks the rest until it resolves; the slot
    // is removed once resolved, so it dedups *concurrency*, not history —
    // later identical requests go to disk (and count as warm hits).
    let slot: InflightSlot = {
        let mut map = inner.inflight.lock().unwrap();
        Arc::clone(map.entry(key).or_default())
    };
    let mut owner = false;
    let result = slot
        .get_or_init(|| {
            owner = true;
            serve_one(inner, &mech, req, &arch, &opts, dfg_warps, &key)
                .map(|(a, src)| (Arc::new(a), src))
        })
        .clone();
    if owner {
        inner.inflight.lock().unwrap().remove(&key);
    } else {
        inner.counters.add(&inner.counters.inflight_joins, 1);
    }
    result.map(|(artifact, source)| ArtifactHandle {
        artifact,
        source: if owner { source } else { ArtifactSource::InflightJoin },
        key,
    })
}

/// Disk lookup then cold compile — the single-owner path.
fn serve_one(
    inner: &SessionInner,
    mech: &Mechanism,
    req: &CompileRequest,
    arch: &GpuArch,
    opts: &CompileOptions,
    dfg_warps: usize,
    key: &ArtifactKey,
) -> Result<(Artifact, ArtifactSource), ServeError> {
    let c = &inner.counters;
    let t0 = Instant::now();
    let mut corrupt = false;
    if let Some(artifact) = inner.store.load(key, &mut corrupt) {
        c.add(&c.warm_hits, 1);
        c.add(&c.warm_nanos, t0.elapsed().as_nanos() as u64);
        return Ok((artifact, ArtifactSource::WarmDisk));
    }
    if corrupt {
        c.add(&c.corrupt_reloads, 1);
    }

    let t0 = Instant::now();
    let dfg = match req.kernel {
        KernelId::Viscosity => viscosity::viscosity_dfg(&ViscosityTables::build(mech), dfg_warps),
        KernelId::Diffusion => diffusion::diffusion_dfg(&DiffusionTables::build(mech), dfg_warps),
        KernelId::Chemistry => chemistry::chemistry_dfg(&ChemistrySpec::build(mech), dfg_warps),
    };
    let compiled = Compiler::new(arch).options(opts.clone()).compile(&dfg, req.variant)?;
    // Record the verdict exactly when compile-time verification ran
    // (mirrors `verify::enforce`); re-running `verify_kernel` here is a
    // memo hit, not a second dynamic pass.
    let verification_ran = match opts.verify {
        VerifyLevel::Off => false,
        VerifyLevel::Basic => !opts.unsafe_remove_barriers,
        VerifyLevel::Strict => true,
    };
    let verdict = if verification_ran {
        match singe::verify::verify_kernel(&compiled.kernel, arch) {
            Ok(r) => VerifyVerdict {
                verified: true,
                warps: r.warps,
                barrier_ops: r.barrier_ops,
                shared_accesses: r.shared_accesses,
                barrier_ids: r.barrier_ids,
                generations: r.generations,
            },
            // compile() already enforced; a failure here would be an
            // enforce/verdict skew — record it as unverified rather than
            // failing a compile that succeeded.
            Err(_) => VerifyVerdict::default(),
        }
    } else {
        VerifyVerdict::default()
    };
    let compile_nanos = t0.elapsed().as_nanos() as u64;
    // Baseline builds keep the historical `None` stats so report code
    // doesn't mistake them for warp-specialization statistics.
    let stats = match req.variant {
        Variant::Baseline => None,
        Variant::WarpSpecialized | Variant::Naive => Some(compiled.stats),
    };
    let artifact = Artifact {
        kernel: compiled.kernel,
        stats,
        verdict,
        meta: ArtifactMeta {
            mechanism: req.mechanism.as_str().to_string(),
            kernel: req.kernel.name().to_string(),
            variant: req.variant.name().to_string(),
            arch: arch.name.to_string(),
            dfg_warps,
            options: format!("{opts:?}"),
            compile_nanos,
            lowering_version: gpu_sim::LOWERING_VERSION,
        },
    };
    c.add(&c.cold_compiles, 1);
    c.add(&c.cold_nanos, t0.elapsed().as_nanos() as u64);
    if inner.store.save(key, &artifact).is_err() {
        c.add(&c.save_errors, 1);
    }
    Ok((artifact, ArtifactSource::ColdCompile))
}
