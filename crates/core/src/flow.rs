//! Flows — the vertices of a predicated value propagation graph (paper §4,
//! Appendix B.3).
//!
//! Flows represent values of parameters, variables, and fields; method calls
//! (doubling as the returned value in the caller); values returned to
//! callers; conditions (including negated/flipped versions); φ joins;
//! φ_pred predicate joins; and the always-enabled predicate `pred_on`.

use crate::error::AnalysisError;
use crate::lattice::ValueState;
use skipflow_ir::{BlockId, CmpOp, FieldId, MethodId, TypeId, TypeRef};
use std::fmt;

/// Identifier of a flow in the PVPG arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub(crate) u32);

/// The hard flow-count capacity: `u32::MAX` itself is reserved as the
/// scheduler's intrusive-list sentinel (`NO_FLOW`), so valid flow indices
/// are `0..MAX_FLOW_COUNT` and at most `MAX_FLOW_COUNT` flows can exist. A
/// graph allowed to reach the sentinel index would silently corrupt the
/// bucket lists — [`FlowId::try_from_index`] rejects it with a structured
/// [`AnalysisError::TooManyFlows`] instead.
pub const MAX_FLOW_COUNT: usize = u32::MAX as usize;

impl FlowId {
    /// Dense arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `FlowId` from a dense arena index (tests and tools; real
    /// ids come from the engine).
    ///
    /// # Panics
    ///
    /// Panics at the [`MAX_FLOW_COUNT`] capacity limit.
    pub fn from_index(i: usize) -> Self {
        // `< u32::MAX`, not `<=`: the sentinel index must never become a
        // real flow id (see [`MAX_FLOW_COUNT`]).
        assert!(i < u32::MAX as usize, "flow id overflow (index {i} collides with NO_FLOW)");
        FlowId(i as u32)
    }

    /// Checked conversion: rejects indices at or beyond the `NO_FLOW`
    /// sentinel with a structured error instead of panicking or (worse)
    /// wrapping into the sentinel value. The engine checks graph capacity
    /// through this before building new method fragments.
    pub fn try_from_index(i: usize) -> Result<Self, AnalysisError> {
        if i >= MAX_FLOW_COUNT {
            return Err(AnalysisError::TooManyFlows {
                flows: i,
                limit: MAX_FLOW_COUNT,
            });
        }
        Ok(FlowId(i as u32))
    }
}

impl fmt::Debug for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fl{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fl{}", self.0)
    }
}

/// Identifier of a call site in the PVPG.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub(crate) u32);

impl SiteId {
    /// Dense arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> Self {
        assert!(i <= u32::MAX as usize, "site id overflow");
        SiteId(i as u32)
    }
}

impl fmt::Debug for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "site{}", self.0)
    }
}

/// What a flow stands for, and how its output state is computed from its
/// input state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlowKind {
    /// The always-enabled predicate `pred_on`.
    PredOn,
    /// A formal parameter; filters by its declared type when declared-type
    /// filtering is configured.
    Param {
        /// Parameter index (0 = receiver for instance methods).
        index: usize,
        /// Declared type, used for the optional filter and for root
        /// injection.
        declared: TypeRef,
    },
    /// `v ← n`.
    Const(i64),
    /// `v ← Any` — opaque arithmetic.
    AnyPrim,
    /// `v ← new T`; enabling this flow marks `T` instantiated.
    New(TypeId),
    /// `v ← null`.
    NullSource,
    /// A field load `v ← r.x`; observes the receiver, receives use edges
    /// from field sinks as receiver types appear.
    Load {
        /// The accessed field (declaration site).
        field: FieldId,
        /// The observed receiver flow (`None` for static fields, which are
        /// wired at construction time).
        receiver: Option<FlowId>,
    },
    /// A field store `r.x ← v`; observes the receiver, sends use edges into
    /// field sinks as receiver types appear.
    Store {
        /// The accessed field (declaration site).
        field: FieldId,
        /// The observed receiver flow (`None` for static fields).
        receiver: Option<FlowId>,
    },
    /// The single flow representing a field's value state (the paper's
    /// `LookUp(t, x)` target; one per field declaration,
    /// context-insensitive).
    FieldSink {
        /// The field.
        field: FieldId,
    },
    /// A virtual invocation; doubles as the returned value in the caller and
    /// as the predicate for the following statements.
    Invoke {
        /// The call-site record.
        site: SiteId,
    },
    /// A static invocation (extension; see `skipflow_ir::Stmt::InvokeStatic`).
    InvokeStatic {
        /// The call-site record.
        site: SiteId,
    },
    /// The per-method return flow joining all return sites; linked back to
    /// invoke flows in callers.
    MethodReturn,
    /// A pass-through flow at one `return v` site (void returns use a
    /// constant token instead; paper §3 "Method Invocations as Predicates").
    ReturnSite,
    /// A type-check filtering flow: keeps (or, negated, removes) subtypes of
    /// `ty`; `instanceof` always filters `null` out, its negation keeps it.
    TypeFilter {
        /// Tested type.
        ty: TypeId,
        /// `true` for the `!instanceof` branch.
        negated: bool,
    },
    /// A comparison filtering flow: filters its use-input with
    /// [`crate::compare::compare`] against the observed `other` flow.
    CmpFilter {
        /// Comparison operator (already inverted/flipped as required).
        op: CmpOp,
        /// The flow whose output is the right operand.
        other: FlowId,
    },
    /// A φ flow joining values at a control-flow merge.
    Phi,
    /// A φ_pred flow joining predicates at a control-flow merge; enabled as
    /// soon as *any* incoming predicate is (paper §3 "Joining Values").
    PhiPred,
    /// A `throw v` site; passes the thrown value into the global thrown
    /// sink when reachable.
    ThrowSite,
    /// The global pool of thrown exception values.
    ThrownSink,
    /// An exception-handler entry `v ← catch T`: filters the thrown pool
    /// (and, under the coarse policy, all instantiated subtypes of `T`).
    CatchAll {
        /// Handler type bound.
        ty: TypeId,
    },
    /// The global pool unifying unsafe-accessed field values (paper §5).
    UnsafeSink,
    /// An injection source: receives every instantiated subtype of
    /// `declared` (or `Any` for primitives). Used for root-method
    /// parameters and reflectively-accessed fields.
    RootSource {
        /// Declared type bound of the injected values.
        declared: TypeRef,
    },
}

/// One vertex of the PVPG together with its state.
///
/// Adjacency (use / predicate / observe successors) is *not* stored here:
/// it lives in the graph-owned CSR pools of [`crate::graph::Pvpg`], so a
/// worklist step can iterate successors without cloning edge lists.
#[derive(Clone, Debug)]
pub struct Flow {
    /// What the flow stands for.
    pub kind: FlowKind,
    /// The containing method (`None` for the global flows: `pred_on`, field
    /// sinks, the thrown/unsafe pools, and root sources).
    pub method: Option<MethodId>,
    /// The basic block the flow was created for, when applicable (used by
    /// liveness reporting).
    pub block: Option<BlockId>,
    /// Joined input state (from use edges and injections).
    pub in_state: ValueState,
    /// Filtered output state; grows monotonically.
    pub out_state: ValueState,
    /// Whether the flow has been enabled by its predicate (paper: only
    /// enabled flows propagate).
    pub enabled: bool,
}

impl Flow {
    pub(crate) fn new(kind: FlowKind, method: Option<MethodId>, block: Option<BlockId>) -> Self {
        Flow {
            kind,
            method,
            block,
            in_state: ValueState::Empty,
            out_state: ValueState::Empty,
            enabled: false,
        }
    }

    /// Enabled with a non-empty output — the condition under which this flow
    /// triggers its outgoing predicate edges.
    pub fn is_active(&self) -> bool {
        self.enabled && self.out_state.is_non_empty()
    }
}

/// Whether a call site dispatches virtually or statically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `v ← v0.m(…)` — resolved per receiver type.
    Virtual,
    /// `v ← T::m(…)` — statically bound.
    Static,
}

/// One invocation site in the PVPG.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Virtual or static.
    pub kind: CallKind,
    /// The invoke flow (result value + predicate for following statements).
    pub flow: FlowId,
    /// The receiver flow (virtual calls only).
    pub receiver: Option<FlowId>,
    /// Argument flows, *including* the receiver at index 0 for virtual
    /// calls — positionally aligned with the callee's body parameters.
    pub args: Vec<FlowId>,
    /// Dispatch selector (virtual calls).
    pub selector: Option<skipflow_ir::SelectorId>,
    /// Statically bound target (static calls).
    pub static_target: Option<MethodId>,
    /// The containing method.
    pub caller: MethodId,
    /// Targets linked so far, in link order (deduplicated; kept as a list
    /// for deterministic reports).
    pub linked: Vec<MethodId>,
    /// O(1) membership companion of `linked`, indexed by method id.
    pub linked_set: skipflow_ir::BitSet,
    /// Receiver types already dispatched (dedup for the Invoke rule).
    pub seen_receiver_types: skipflow_ir::BitSet,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_starts_disabled_and_empty() {
        let f = Flow::new(FlowKind::Phi, None, None);
        assert!(!f.enabled);
        assert!(f.in_state.is_empty());
        assert!(!f.is_active());
    }

    #[test]
    fn is_active_requires_enabled_and_non_empty() {
        let mut f = Flow::new(FlowKind::Const(0), None, None);
        f.enabled = true;
        assert!(!f.is_active(), "empty out-state is inactive");
        f.out_state = ValueState::Const(0);
        assert!(f.is_active(), "false (0) still activates predicates");
    }

    /// The arena holds one `Flow` per PVPG vertex: two value states (40
    /// bytes each) plus kind, provenance and the enabled bit. A third state
    /// would cost 40 bytes on every flow of every engine.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn flow_stays_within_120_bytes() {
        assert!(std::mem::size_of::<Flow>() <= 120, "{}", std::mem::size_of::<Flow>());
    }

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(FlowId::from_index(1) < FlowId::from_index(2));
        assert_eq!(SiteId::from_index(3).index(), 3);
    }

    #[test]
    fn flow_id_capacity_excludes_the_sentinel() {
        // The last valid index is one below NO_FLOW (= u32::MAX).
        let last = FlowId::try_from_index(MAX_FLOW_COUNT - 1).unwrap();
        assert_eq!(last.index(), MAX_FLOW_COUNT - 1);
        // The sentinel index itself and anything beyond are structured
        // errors, never a silent wrap or an id equal to NO_FLOW.
        for i in [MAX_FLOW_COUNT, MAX_FLOW_COUNT + 1, usize::MAX] {
            match FlowId::try_from_index(i) {
                Err(AnalysisError::TooManyFlows { flows, limit }) => {
                    assert_eq!(flows, i);
                    assert_eq!(limit, MAX_FLOW_COUNT);
                }
                other => panic!("expected TooManyFlows, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "collides with NO_FLOW")]
    fn flow_id_from_index_rejects_the_sentinel() {
        let _ = FlowId::from_index(u32::MAX as usize);
    }
}
