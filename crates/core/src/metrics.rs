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

/// Statistics of the SCC-aware priority scheduler, embedded in
/// [`crate::SolveStats`]. All zero under the forced FIFO scheduler and the
/// reference solver (which never maintain the online order).
///
/// Two kinds of fields live here, explicitly separated:
///
/// * **Engine-cumulative** — condensation snapshots and maintenance totals
///   that accumulate monotonically across every solve of the session's
///   current engine (everything not listed as per-solve below, plus the
///   `*_total` pop counters); an engine rebuild restarts them (see
///   [`crate::SolveStats`]).
/// * **Per-solve** — [`SchedulerStats::adaptive_pops`] and
///   [`SchedulerStats::adaptive_re_pops`] are re-based at the start of each
///   `solve()`, and [`SchedulerStats::flip_at_step`] is relative to the
///   solve that flipped; a *resumed* solve therefore reports its own
///   behaviour, never residue from the prior solve. (The flip itself stays
///   sticky: `flips` is cumulative and at most 1 per engine.)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Live strongly connected components of the PVPG (including
    /// singletons) under the online order.
    pub scc_count: usize,
    /// Live flows sitting in SCCs of size ≥ 2 (the cyclic region mass the
    /// priority ordering localizes).
    pub cyclic_flows: usize,
    /// Size of the largest SCC.
    pub max_scc_size: usize,
    /// Order-violating edge insertions repaired in place by the online
    /// order (the bounded work that replaced the PR 2–4 batch condensation
    /// recomputes; those reported as `scc_recomputes`, which no longer
    /// exist).
    pub order_repairs: u64,
    /// Components relocated by those repairs — the total affected-region
    /// mass, bounded per repair by the smaller side of the bidirectional
    /// search.
    pub order_comps_moved: u64,
    /// Component unions performed by cycle collapses.
    pub scc_merges: u64,
    /// Components relabeled by list-labeling gap maintenance.
    pub order_relabels: u64,
    /// Worklist steps taken on flows inside non-trivial SCCs while the SCC
    /// queue was active — with `steps` this yields the steps-per-SCC
    /// profile of the cyclic regions.
    pub steps_in_cycles: u64,
    /// Queued flows re-bucketed because an order repair relocated their
    /// component while they sat in the queue (the pop paths self-heal
    /// stale entries; this is the bounded replacement for the old
    /// wholesale bucket migration at recompute time).
    pub rebucketed_flows: u64,
    /// Adaptive-scheduler FIFO→SCC flips (0 when the re-enqueue rate never
    /// tripped the detector, or under a forced scheduler). At most 1 per
    /// engine: the flip is sticky — once a workload has demonstrated
    /// re-processing, resumed solves stay on the SCC queue.
    pub flips: u64,
    /// Worklist steps *into the solve that flipped* at which the flip
    /// occurred (0 when no flip happened). An event record: it keeps its
    /// value on later solves of the same session.
    pub flip_at_step: u64,
    /// **Per-solve**: worklist dequeues observed by the adaptive flip
    /// detector during the most recent solve's FIFO phase (0 under forced
    /// schedulers and for solves after the flip).
    pub adaptive_pops: u64,
    /// **Per-solve**: of [`SchedulerStats::adaptive_pops`], how many
    /// dequeued a flow that had already been processed at least once —
    /// every re-enqueue is observed when it drains, so this is the
    /// numerator of the re-enqueue rate the flip decision is based on.
    pub adaptive_re_pops: u64,
    /// Engine-cumulative total behind [`SchedulerStats::adaptive_pops`].
    pub adaptive_pops_total: u64,
    /// Engine-cumulative total behind
    /// [`SchedulerStats::adaptive_re_pops`].
    pub adaptive_re_pops_total: u64,
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

    for (&method, mg) in &g.methods {
        let body = match &program.method(method).body {
            Some(b) => b,
            None => continue,
        };

        // Branching-instruction counters: a check survives when the `if`
        // itself is live and neither branch is proven dead.
        for rec in &mg.ifs {
            let if_live = g.flow(mg.block_preds[rec.block.index()]).is_active();
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
            let block_live = g.flow(mg.block_preds[bi.index()]).is_active();
            if block_live {
                m.live_instructions += 1; // terminator
            }
            for &f in &mg.stmt_flows[bi.index()] {
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
