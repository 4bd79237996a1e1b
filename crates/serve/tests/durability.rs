//! Durability and concurrency contracts of the serve layer, end to end
//! through the public API: artifacts must survive a process restart
//! byte-for-byte, corruption must degrade to a recompile (never an
//! error), and identical concurrent requests must compile exactly once.

use std::path::PathBuf;

use chemkin::synth::{self, SynthConfig};
use singe::Variant;
use singe_serve::{
    ArchId, ArtifactSource, CompileRequest, KernelId, ServeError, ServeSession,
};

/// Fresh cache directory under the crate's `target/`, unique per test.
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("singe-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &PathBuf) -> ServeSession {
    ServeSession::builder(dir).builtins(false).open().expect("open session")
}

fn dme_request(kernel: KernelId) -> CompileRequest {
    CompileRequest::new("dme".parse().unwrap(), kernel, Variant::WarpSpecialized, ArchId::Kepler)
}

/// A cold compile, a restart, and a warm load must agree on everything
/// observable: the kernel (bit-for-bit, `Debug` form includes every f64
/// constant), the compile stats, the verification verdict, and the event
/// counts a probe launch produces from the artifact.
#[test]
fn warm_artifact_is_byte_identical_across_restart() {
    let dir = cache_dir("restart");
    let req = dme_request(KernelId::Viscosity);

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let cold = session.compile(&req).expect("cold compile");
    assert_eq!(cold.source, ArtifactSource::ColdCompile);
    let cold_counts = session.probe(&req).expect("cold probe");
    drop(session);

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let warm = session.compile(&req).expect("warm compile");
    assert_eq!(warm.source, ArtifactSource::WarmDisk, "restart must hit the disk cache");
    assert_eq!(warm.key, cold.key);
    assert_eq!(
        format!("{:?}", warm.artifact.kernel),
        format!("{:?}", cold.artifact.kernel),
        "warm kernel differs from the cold compile"
    );
    assert_eq!(
        format!("{:?}", warm.artifact.stats),
        format!("{:?}", cold.artifact.stats),
        "warm compile stats differ from the cold compile"
    );
    assert_eq!(
        format!("{:?}", warm.artifact.verdict),
        format!("{:?}", cold.artifact.verdict),
        "warm verification verdict differs from the cold compile"
    );
    let warm_counts = session.probe(&req).expect("warm probe");
    assert_eq!(
        format!("{warm_counts:?}"),
        format!("{cold_counts:?}"),
        "probe launch through the warm artifact diverged"
    );

    let stats = session.stats();
    // compile + probe's internal compile: both warm, neither cold.
    assert!(stats.warm_hits >= 1, "restart session saw no warm hits");
    assert_eq!(stats.cold_compiles, 0, "restart session must never compile cold");
    std::fs::remove_dir_all(&dir).ok();
}

/// Truncating or bit-flipping the on-disk artifact must be indistinguishable
/// from a cache miss: the next compile runs cold, succeeds, and rewrites a
/// valid artifact.
#[test]
fn corrupt_artifact_falls_back_to_recompile() {
    let dir = cache_dir("corrupt");
    let req = dme_request(KernelId::Diffusion);

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let cold = session.compile(&req).unwrap();
    let path = session.cache_dir().join(cold.key.file_name());
    let bytes = std::fs::read(&path).expect("artifact on disk");
    drop(session);

    // Truncation (half the file gone, e.g. a crash mid-write).
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let h = session.compile(&req).expect("compile past truncated artifact");
    assert_eq!(h.source, ArtifactSource::ColdCompile, "truncated artifact must recompile");
    assert_eq!(session.stats().corrupt_reloads, 1);
    drop(session);

    // Bit flip in the middle of the payload (silent media corruption).
    let mut flipped = std::fs::read(&path).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let h = session.compile(&req).expect("compile past corrupted artifact");
    assert_eq!(h.source, ArtifactSource::ColdCompile, "corrupted artifact must recompile");
    assert_eq!(h.key, cold.key);
    assert_eq!(
        format!("{:?}", h.artifact.kernel),
        format!("{:?}", cold.artifact.kernel),
        "recompile after corruption produced a different kernel"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// N identical requests submitted concurrently must trigger exactly one
/// compiler run; the rest join the in-flight slot and observe the same
/// artifact.
#[test]
fn identical_inflight_requests_compile_once() {
    let dir = cache_dir("dedup");
    let session = ServeSession::builder(&dir).builtins(false).jobs(4).open().unwrap();
    session.register_synth(&synth::dme_config()).unwrap();
    let req = dme_request(KernelId::Viscosity);

    let n = 8;
    let tickets: Vec<_> = (0..n).map(|_| session.submit(&req).expect("submit")).collect();
    let handles: Vec<_> = tickets.into_iter().map(|t| t.wait().expect("compile")).collect();

    let stats = session.stats();
    assert_eq!(stats.cold_compiles, 1, "identical in-flight requests must compile once");
    assert_eq!(
        stats.cold_compiles + stats.inflight_joins + stats.warm_hits,
        n,
        "every request must be accounted for"
    );
    let first = format!("{:?}", handles[0].artifact.kernel);
    for h in &handles {
        assert_eq!(h.key, handles[0].key);
        assert_eq!(format!("{:?}", h.artifact.kernel), first);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Hopper artifacts — the K-stage pipelined schedules — must round-trip
/// the disk cache like any other kernel: cold compile, restart, warm load
/// byte-identical (including the replicated iconst banks and stage
/// barrier declarations); and a stale `LOWERING_VERSION` in the container
/// header must read as a cache miss (cold recompile), never a replay of
/// an artifact lowered by an older compiler.
#[test]
fn hopper_pipelined_artifact_roundtrips_and_rejects_stale_lowering() {
    let dir = cache_dir("hopper");
    let req = CompileRequest::new(
        "dme".parse().unwrap(),
        KernelId::Viscosity,
        Variant::WarpSpecialized,
        ArchId::Hopper,
    );

    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let cold = session.compile(&req).expect("cold compile");
    assert_eq!(cold.source, ArtifactSource::ColdCompile);
    let stats = cold.artifact.stats.as_ref().expect("ws artifact carries stats");
    assert_eq!(
        stats.pipeline_depth, 2,
        "Hopper viscosity defaults must produce a K=2 pipelined schedule"
    );
    let cold_counts = session.probe(&req).expect("cold probe");
    let path = session.cache_dir().join(cold.key.file_name());
    drop(session);

    // Restart: the pipelined artifact must come back warm and identical.
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let warm = session.compile(&req).expect("warm compile");
    assert_eq!(warm.source, ArtifactSource::WarmDisk, "restart must hit the disk cache");
    assert_eq!(warm.key, cold.key);
    assert_eq!(
        format!("{:?}", warm.artifact.kernel),
        format!("{:?}", cold.artifact.kernel),
        "warm pipelined kernel differs from the cold compile"
    );
    let warm_counts = session.probe(&req).expect("warm probe");
    assert_eq!(
        format!("{warm_counts:?}"),
        format!("{cold_counts:?}"),
        "probe launch through the warm pipelined artifact diverged"
    );
    assert_eq!(session.stats().cold_compiles, 0, "restart session must never compile cold");
    drop(session);

    // Stale lowering: bump the `LOWERING_VERSION` field in the container
    // header (offset 12: 8-byte magic + 4-byte wire-format version). The
    // payload checksum does not cover the header, so the file is otherwise
    // pristine — only the version skew can reject it.
    let mut bytes = std::fs::read(&path).expect("artifact on disk");
    let v = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
    bytes[12..16].copy_from_slice(&(v + 1).to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let fresh = session.compile(&req).expect("compile past the stale artifact");
    assert_eq!(fresh.source, ArtifactSource::ColdCompile, "stale lowering must recompile");
    assert_eq!(session.stats().corrupt_reloads, 1, "version skew must count as a fallback");
    assert_eq!(
        format!("{:?}", fresh.artifact.kernel),
        format!("{:?}", cold.artifact.kernel),
        "recompile after version skew produced a different kernel"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Unknown ids come back as typed errors that list what *would* have been
/// valid — the redesigned surface never panics or stringly-guesses.
#[test]
fn typed_errors_list_valid_ids() {
    let dir = cache_dir("ids");
    let session = open(&dir);
    session
        .register_synth(&SynthConfig { name: "tiny".into(), ..synth::dme_config() })
        .unwrap();

    let req = CompileRequest::new(
        "missing".parse().unwrap(),
        KernelId::Viscosity,
        Variant::WarpSpecialized,
        ArchId::Kepler,
    );
    match session.compile(&req) {
        Err(ServeError::UnknownMechanism { requested, known }) => {
            assert_eq!(requested, "missing");
            assert_eq!(known, vec!["tiny".to_string()]);
        }
        other => panic!("expected UnknownMechanism, got {other:?}"),
    }

    let err = "no-such-kernel".parse::<KernelId>().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("viscosity") && msg.contains("diffusion") && msg.contains("chemistry"),
        "kernel id error must list the valid ids: {msg}");
    let err = "vax".parse::<ArchId>().unwrap_err();
    assert!(err.to_string().contains("kepler"), "arch id error must list the valid ids");
    std::fs::remove_dir_all(&dir).ok();
}

/// Predict rides the cached artifacts: a predict after a compile must
/// not add a cold compile.
#[test]
fn predict_reuses_cached_artifacts() {
    let dir = cache_dir("predict");
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let req = dme_request(KernelId::Viscosity);

    session.compile(&req).unwrap();
    let after_compile = session.stats().cold_compiles;
    let report = session.predict(&req, 64 * 64 * 64).expect("predict");
    assert!(report.seconds > 0.0);
    assert_eq!(
        session.stats().cold_compiles,
        after_compile,
        "predict must reuse the cached artifact, not recompile"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The schedule search (beam over the full space, model as cost,
/// simulation as oracle) runs through the session's farm + artifact
/// cache: it returns a finite winner, simulates no more than the
/// budget's top-K, and a repeated identical search answers every
/// candidate compile from the cache instead of recompiling.
#[test]
fn schedule_search_runs_through_the_cache() {
    let dir = cache_dir("search");
    let session = open(&dir);
    session.register_synth(&synth::dme_config()).unwrap();
    let req = dme_request(KernelId::Viscosity);
    let budget = singe_serve::SearchBudget::builder()
        .beam_width(2)
        .rounds(1)
        .sim_top_k(2)
        .max_model_evals(10)
        .build();

    let (best, outcome) =
        session.search(&req, &budget, 64 * 64).expect("search runs");
    assert!(best.warps > 0);
    assert!(outcome.best_seconds.is_finite() && outcome.best_seconds > 0.0);
    assert!(outcome.model_evals <= 10, "eval cap violated: {}", outcome.model_evals);
    assert!(outcome.simulations <= 2, "simulated past top-K: {}", outcome.simulations);

    // An identical search over the warm cache must not compile anything
    // new — every candidate is answered from disk or memory.
    let cold_before = session.stats().cold_compiles;
    let (best2, outcome2) =
        session.search(&req, &budget, 64 * 64).expect("warm search runs");
    assert_eq!(session.stats().cold_compiles, cold_before, "warm search recompiled");
    assert_eq!(format!("{best:?}"), format!("{best2:?}"), "search is not deterministic");
    assert_eq!(outcome.best_seconds.to_bits(), outcome2.best_seconds.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}
