//! `singe` — a warp-specializing DSL compiler for combustion chemistry,
//! reproducing *Bauer, Treichler, Aiken: "Singe: Leveraging Warp
//! Specialization for High Performance on GPUs"* (PPoPP 2014) in Rust.
//!
//! The compiler consumes a parsed chemical mechanism (`chemkin` crate) and
//! emits kernels for the `gpu-sim` substrate in two flavors:
//!
//! * **baseline** — heavily optimized but purely data-parallel kernels
//!   (one thread per grid point, log-space math, constant-cache constants,
//!   register allocation with spilling), the paper's §6 comparison point;
//! * **warp-specialized** — computations partitioned into sub-computations
//!   assigned to different warps (§3), mapped and scheduled with the §4
//!   algorithms (greedy cost-based mapping, deadlock-free named-barrier
//!   placement per Theorem 1, barrier allocation onto the 16 hardware
//!   barriers), and emitted with the §5 techniques (code overlaying,
//!   per-warp constant arrays with padding, constant deduplication by
//!   striping across lanes with architecture-specific broadcasts, and
//!   warp indexing).
//!
//! Compilation stages (paper Figure 8):
//!
//! ```text
//! mechanism --frontends--> dataflow graph (ops + edges)      [kernels/*]
//!          --mapping-->    ops assigned to warps + placement  [mapping]
//!          --sync-->       schedules + synchronization points [sync]
//!          --barriers-->   named-barrier allocation           [barrier_alloc]
//!          --codegen-->    overlaid gpu-sim IR (+ CUDA text)  [codegen, cuda]
//! ```

// Indexed `for i in 0..n` loops over parallel arrays are the prevailing
// idiom in the numeric kernels here; iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

pub mod baseline;
pub mod barrier_alloc;
pub mod codegen;
pub mod compiler;
pub mod config;
pub mod cuda;
pub mod dfg;
pub mod expr;
pub mod kernels;
pub mod mapping;
pub mod naive;
pub mod perfmodel;
pub mod search;
pub mod sync;
pub mod verify;

/// Deterministic ordered worker pool (moved into `gpu-sim` so grid
/// launches can fan CTAs over it; re-exported here for existing users).
pub use gpu_sim::pool;

pub use compiler::{Compiler, Variant};
pub use config::{CompileOptions, CompileOptionsBuilder, Placement};
pub use perfmodel::ModelReport;
pub use search::{
    SearchBudget, SearchBudgetBuilder, SearchFailure, SearchOutcome, SearchResult, SearchSpace,
};
pub use verify::{VerifyFailure, VerifyLevel, VerifyReport, Violation, ViolationKind};
pub use dfg::{Dfg, OpId, Operation};
pub use expr::VarId;
pub use expr::{BinOp, Expr, RowRef, ScalarProgram, Stmt, TriOp, UnOp};

/// Compiler errors.
///
/// `#[non_exhaustive]`: downstream matches need a wildcard arm so new
/// failure classes can be added without a breaking change.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The kernel cannot fit (registers/shared/barriers) with the options.
    ResourceExhausted(String),
    /// Internal invariant violation.
    Internal(String),
    /// The emitted kernel failed independent schedule verification
    /// (deadlock, shared-memory race, or resource violation). The payload
    /// carries the full structured violation list and is exposed as this
    /// error's [`std::error::Error::source`].
    Verification(VerifyFailure),
    /// A kernel references a named input array the runtime does not know.
    UnknownArray(String),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::ResourceExhausted(m) => write!(f, "resource exhausted: {m}"),
            CompileError::Internal(m) => write!(f, "internal compiler error: {m}"),
            CompileError::Verification(v) => write!(f, "schedule verification failed: {v}"),
            CompileError::UnknownArray(m) => write!(f, "unknown array: {m}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Verification(v) => Some(v),
            _ => None,
        }
    }
}

/// Result alias.
pub type CResult<T> = Result<T, CompileError>;
