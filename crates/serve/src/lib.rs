//! # singe-serve: the compile-farm service layer
//!
//! Wraps the `singe` compiler as a **persistent, concurrent service**:
//! the compiler answers one `compile()` call; this crate answers a farm's
//! worth of them, across processes and across restarts.
//!
//! Three layers (see each module's docs for the full design):
//!
//! 1. **Session API** ([`session`]) — [`ServeSession::open`] owns a
//!    mechanism registry and a typed request surface:
//!    [`CompileRequest`] `->` [`ArtifactHandle`], plus `probe` /
//!    `predict` / `search` built on the same cached artifacts.
//! 2. **Persistent artifact cache** ([`artifact`]) — versioned,
//!    content-addressed compiled-kernel artifacts on disk. Corrupt or
//!    stale entries are recompiled, never surfaced as errors;
//!    `gpu_sim::LOWERING_VERSION` participates in both the key and the
//!    container header, so a cache can never replay a stale lowering.
//! 3. **Sharded job scheduler** ([`sched`]) — per-tenant FIFO fairness,
//!    work stealing, bounded queue with retry-after backpressure.
//!
//! Identical concurrent requests coalesce onto one compile (in-flight
//! dedup); every waiter shares the result.
//!
//! ```no_run
//! use singe_serve::{ArchId, CompileRequest, KernelId, ServeSession};
//! use singe::Variant;
//!
//! let session = ServeSession::open(std::path::Path::new(".singe-cache"))?;
//! let req = CompileRequest::new(
//!     "dme".parse()?,
//!     KernelId::Viscosity,
//!     Variant::WarpSpecialized,
//!     ArchId::Kepler,
//! );
//! let handle = session.compile(&req)?;          // cold the first time…
//! let again = session.compile(&req)?;           // …warm ever after
//! assert_eq!(handle.artifact.kernel.name, again.artifact.kernel.name);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod error;
pub mod ids;
pub mod metrics;
pub mod sched;
pub mod session;
pub mod wire;

pub use artifact::{Artifact, ArtifactKey, ArtifactMeta, VerifyVerdict};
pub use error::{ServeError, ServeResult};
pub use ids::{ArchId, KernelId, MechanismId, UnknownIdError};
pub use metrics::ServeStats;
pub use sched::{Scheduler, Ticket};
pub use session::{
    default_options, viscosity_warps, ArtifactHandle, ArtifactSource, CompileRequest,
    ServeSession, ServeSessionBuilder,
};
pub use singe::search::{SearchBudget, SearchOutcome};
