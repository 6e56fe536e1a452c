//! The paper's evaluation metrics (§6 "Counter Metrics"): per benchmark and
//! configuration, the number of reachable methods, the branching
//! instructions that cannot be removed or simplified using the analysis
//! results (split into Type / Null / Prim checks), the virtual calls that
//! could not be devirtualized (PolyCalls), and the binary-size proxy.

use crate::graph::CheckCategory;
use crate::report::AnalysisSnapshot;
use skipflow_ir::Program;
use std::fmt;

/// Bytes charged per surviving instruction by the binary-size proxy.
pub const BYTES_PER_INSTRUCTION: usize = 16;
/// Fixed per-method overhead (metadata, frames) charged by the proxy.
pub const BYTES_PER_METHOD: usize = 48;

/// The metric set of one (benchmark × configuration) cell of Table 1.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Methods marked reachable by the analysis.
    pub reachable_methods: usize,
    /// `instanceof` branches where both successors stay live.
    pub type_checks: usize,
    /// Null-comparison branches where both successors stay live.
    pub null_checks: usize,
    /// Primitive-comparison branches where both successors stay live.
    pub prim_checks: usize,
    /// Virtual call sites with two or more resolved targets.
    pub poly_calls: usize,
    /// Instructions in reachable methods whose flows are enabled (dead
    /// branches excluded).
    pub live_instructions: usize,
    /// The binary-size proxy in bytes (see [`BYTES_PER_INSTRUCTION`]).
    pub binary_size_bytes: usize,
}

impl Metrics {
    /// Binary size in (fractional) megabytes.
    pub fn binary_size_mb(&self) -> f64 {
        self.binary_size_bytes as f64 / (1024.0 * 1024.0)
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "methods={} type={} null={} prim={} poly={} instrs={} size={}B",
            self.reachable_methods,
            self.type_checks,
            self.null_checks,
            self.prim_checks,
            self.poly_calls,
            self.live_instructions,
            self.binary_size_bytes
        )
    }
}

/// Scheduler statistics, embedded in [`crate::SolveStats`]. Every field
/// is always 0: the sequential solver runs one queue (the tiered queue)
/// from the first step, ranks re-enqueued flows by creation order and
/// keeps no order to repair. The fields stay because the end-to-end
/// benchmark still reports them as `core.scheduler.*`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Always 0: there is no topological order to repair
    /// (`core.scheduler.order_repairs`).
    pub order_repairs: u64,
    /// Always 0: no component is ever merged
    /// (`core.scheduler.scc_merges`).
    pub scc_merges: u64,
    /// Always 0: there is no second queue to flip to
    /// (`core.scheduler.flips`).
    pub flips: u64,
}

/// Interrupt and resume counters of a session, embedded in
/// [`crate::SolveStats`]. Cumulative over the current engine, like `steps`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InterruptStats {
    /// Solves that ended at a checkpoint instead of the fixpoint (budget
    /// exhausted or cancel token tripped — see
    /// [`crate::SolveOutcome::Interrupted`]).
    pub interrupts: u64,
    /// Solves that resumed after an interrupted one (for a session that
    /// always runs to completion this stays 0).
    pub resumed_after_interrupt: u64,
}

/// Retraction / edit counters of a session, embedded in
/// [`crate::SolveStats`]. Session-cumulative: the session owns them across
/// engine rebuilds. All zero for a session that never called
/// [`retract_roots`](crate::AnalysisSession::retract_roots) or
/// [`apply_edit`](crate::AnalysisSession::apply_edit).
///
/// A non-monotone mutation — retracting a solved-in root, disabling a
/// reachable body — discards the session's engine and rebuilds it for the
/// new configuration; the next solve starts from bottom.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationStats {
    /// Root methods retracted after having been solved in (roots removed
    /// while still pending are not counted — nothing was derived from them).
    pub retractions: u64,
    /// Method-body edits applied ([`crate::MethodEdit`] — each disable and
    /// each restore that changed the mask counts once).
    pub edits: u64,
    /// Reachable methods of the engines discarded by rebuilds.
    pub invalidated_methods: u64,
    /// Flows of the engines discarded by rebuilds.
    pub invalidated_flows: u64,
    /// Worklist steps from a rebuild to the completion of the solve that
    /// drains it, interrupted solves in between included. The `edit-`
    /// trajectory family compares this against the fresh-solve step count.
    pub rederive_steps: u64,
}

/// Computes the counter metrics from a finished analysis (any
/// [`AnalysisSnapshot`] view — owned results delegate through
/// [`crate::AnalysisResult::metrics`]).
pub fn compute_metrics(result: &AnalysisSnapshot<'_>, program: &Program) -> Metrics {
    let g = result.graph();
    let mut m = Metrics {
        reachable_methods: result.reachable_methods().len(),
        // PolyCalls shares one definition with `CallGraphQuery::poly_call_count`.
        poly_calls: result.poly_call_sites(),
        ..Metrics::default()
    };

    for (method, mg) in g.method_graphs() {
        let Some(body) = program.body(method) else { continue };

        // Branching-instruction counters: a check survives when the `if`
        // itself is live and neither branch is proven dead.
        let block_preds = g.block_preds(mg);
        for rec in g.method_ifs(mg) {
            let if_live = g.flow(block_preds[rec.block.index()]).is_active();
            if !if_live {
                continue;
            }
            let then_live = g.flow(rec.then_pred).is_active();
            let else_live = g.flow(rec.else_pred).is_active();
            if then_live && else_live {
                match rec.category {
                    CheckCategory::Type => m.type_checks += 1,
                    CheckCategory::Null => m.null_checks += 1,
                    CheckCategory::Prim => m.prim_checks += 1,
                }
            }
        }

        // Live instructions: statements whose flows are enabled, plus one
        // terminator per live block.
        for (bi, _block) in body.iter_blocks() {
            let block_live = g.flow(block_preds[bi.index()]).is_active();
            if block_live {
                m.live_instructions += 1; // terminator
            }
            for &f in g.stmt_flows(mg, bi) {
                if g.flow(f).enabled {
                    m.live_instructions += 1;
                }
            }
        }
    }

    m.binary_size_bytes =
        m.live_instructions * BYTES_PER_INSTRUCTION + m.reachable_methods * BYTES_PER_METHOD;
    m
}
