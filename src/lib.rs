//! # skipflow
//!
//! Facade crate for the SkipFlow reproduction (Kozak et al., CGO 2025):
//! a predicated points-to analysis that tracks primitive constant values and
//! gates value propagation with *predicate edges*, implemented over a
//! predicated value propagation graph (PVPG).
//!
//! This crate re-exports the public APIs of the workspace members:
//!
//! * [`ir`] — the SSA base language, class hierarchy, builders, and the
//!   Java-like source frontend;
//! * [`analysis`] — the PVPG, the combined primitive/type lattice, and the
//!   fixpoint engine (SkipFlow and the baseline PTA are configurations of the
//!   same engine);
//! * [`baselines`] — CHA and RTA call-graph construction for comparison;
//! * [`synth`] — the deterministic benchmark corpus used by the evaluation
//!   harness;
//! * [`server`] — analysis-as-a-service: a concurrent multi-session server
//!   that publishes one snapshot per epoch (`skipflow serve`).
//!
//! See the `examples/` directory for runnable scenarios.

pub use skipflow_baselines as baselines;
pub use skipflow_core as analysis;
pub use skipflow_ir as ir;
pub use skipflow_server as server;
pub use skipflow_synth as synth;
