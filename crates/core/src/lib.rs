//! # skipflow-core
//!
//! SkipFlow (Kozak, Stancu, Vojnar, Wimmer — CGO 2025): a predicated
//! points-to analysis that
//!
//! 1. tracks **primitive constant values** interprocedurally through the
//!    lattice `Empty ⊑ {c} ⊑ Any`, and
//! 2. models the branching structure of the program with **predicate
//!    edges**: a flow only propagates values once the condition guarding it
//!    has a non-empty value state.
//!
//! Both features ride on a **predicated value propagation graph** (PVPG)
//! whose vertices ("flows") are connected by *use*, *predicate*, and
//! *observe* edges (paper §4). The baseline type-based points-to analysis of
//! GraalVM Native Image is the same engine with both features switched off —
//! see [`AnalysisConfig::baseline_pta`].
//!
//! ## The session API
//!
//! The public surface is built around a reusable [`AnalysisSession`]: a
//! typed builder assembles the configuration and entry points, and the
//! session owns the PVPG, solver state, and worklist *across* solves.
//! [`AnalysisSession::solve`] drives the fixpoint and yields an
//! [`AnalysisSnapshot`] — a cheap borrowed view carrying every query
//! (reachability, value states, liveness, call-graph edges, metrics).
//! [`AnalysisSession::add_roots`] registers new entry points and the next
//! `solve()` *resumes* the existing fixpoint instead of rebuilding it —
//! result-identical to a fresh run by monotonicity (see the resume notes at
//! the top of `engine.rs`). Invalid inputs surface as a structured
//! [`AnalysisError`] at build time instead of panics mid-solve.
//!
//! The [`CallGraphQuery`] trait is the common query interface across the
//! precision ladder: snapshots, owned results, and the CHA/RTA baselines of
//! the `skipflow-baselines` crate all implement it, so ladder comparisons
//! are written once (`skipflow.refines(&pta)`).
//!
//! One-shot callers can keep using the [`analyze`] convenience wrapper (a
//! build-solve-finish session in one call).
//!
//! ## Interruptible solves
//!
//! Long solves can be stopped at a clean checkpoint and resumed later:
//! budgets on the configuration ([`AnalysisConfig::with_step_budget`],
//! [`AnalysisConfig::with_wall_budget`],
//! [`AnalysisConfig::with_memory_budget`]) and a cooperative [`CancelToken`]
//! interrupt [`AnalysisSession::solve_interruptible`], which returns
//! [`SolveOutcome::Interrupted`] carrying a *partial* snapshot — a sound
//! under-approximation tagged [`Completeness::Partial`]. The next solve
//! resumes from the exact checkpoint, and the eventually completed fixpoint
//! is bit-identical to an uninterrupted run (the checkpoint
//! invariant).
//!
//! For serving, the session publishes answers, not the graph:
//! [`AnalysisSession::owned_snapshot`] extracts, in one pass, the compact
//! [`OwnedSnapshot`] — the reachable set, the instantiated types, the call
//! edges of enabled sites as a per-site CSR, the edge and PolyCalls counts,
//! [`SolveStats`] and [`Completeness`]. It is `Send + Sync`, answers every
//! [`CallGraphQuery`] count in O(1), and reports its
//! [`heap_bytes`](OwnedSnapshot::heap_bytes), so reader threads query it
//! while the session keeps solving and a server can account for it. The
//! PVPG stays inside the session: value states, liveness and `dot` are
//! read from [`AnalysisSnapshot`] / [`AnalysisResult`]. The
//! `skipflow-server` crate builds its epoch-based publication and
//! multi-session registry on exactly this primitive.
//!
//! ## Quick example
//!
//! ```
//! use skipflow_core::AnalysisSession;
//! use skipflow_ir::frontend::compile;
//!
//! let program = compile(
//!     "class Config { static method flag(): int { return 0; } }
//!      class App {
//!        static method used(): void { return; }
//!        static method dead(): void { return; }
//!        static method main(): void {
//!          if (Config.flag()) { App.dead(); } else { App.used(); }
//!        }
//!      }",
//! )?;
//! let app = program.type_by_name("App").unwrap();
//! let main = program.method_by_name(app, "main").unwrap();
//!
//! let mut session = AnalysisSession::builder(&program)
//!     .skipflow()
//!     .roots([main])
//!     .build()
//!     .expect("valid inputs");
//! let result = session.solve();
//!
//! // SkipFlow propagates the constant 0 out of Config.flag() and proves the
//! // then-branch dead: App.dead is never analyzed.
//! let dead = program.method_by_name(app, "dead").unwrap();
//! let used = program.method_by_name(app, "used").unwrap();
//! assert!(!result.is_reachable(dead));
//! assert!(result.is_reachable(used));
//! # Ok::<(), skipflow_ir::frontend::FrontendError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod build;
pub mod compare;
mod config;
pub mod dot;
mod engine;
mod error;
mod flow;
mod graph;
mod interrupt;
pub mod lattice;
pub mod metrics;
mod query;
mod report;
mod session;
pub mod shrink;

pub use compare::compare;
pub use config::{AnalysisConfig, SolverKind};
pub use error::AnalysisError;
pub use flow::{CallKind, CallSite, Flow, FlowId, FlowKind, SiteId, MAX_FLOW_COUNT};
pub use graph::{CheckCategory, IfRecord, MethodGraph, Pvpg};
pub use interrupt::{CancelToken, Completeness, InterruptReason, SolveOutcome};
pub use lattice::{TypeSet, ValueState};
pub use metrics::{compute_metrics, InterruptStats, InvalidationStats, Metrics, SchedulerStats};
pub use query::{CallGraphDelta, CallGraphQuery};
pub use report::{
    AnalysisResult, AnalysisSnapshot, CallEdge, CallSiteInfo, OwnedSnapshot, ReachableSet,
    SiteTargets, SolveStats,
};
pub use session::{analyze, AnalysisSession, MethodEdit, SessionBuilder};
