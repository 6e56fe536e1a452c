//! # skipflow-baselines
//!
//! Classical call-graph construction algorithms used as comparators in the
//! paper's related-work discussion (§6): **Class Hierarchy Analysis** (Dean,
//! Grove, Chambers) and **Rapid Type Analysis** (Bacon, Sweeney). The
//! paper's own baseline — the type-based flow-insensitive points-to analysis
//! (`PTA`) — is the SkipFlow engine with predicates and primitives disabled
//! ([`skipflow_core::AnalysisConfig::baseline_pta`]); these two sit *below*
//! it on the precision ladder:
//!
//! ```text
//! CHA ⊇ RTA ⊇ PTA ⊇ SkipFlow      (reachable methods)
//! ```
//!
//! Both algorithms run over the same [`skipflow_ir::Program`] as the main
//! engine, so the precision ladder is directly measurable (see the
//! `precision_ladder` integration test and the bench harness). The ladder is
//! queried through one interface: [`CallGraph`] implements
//! [`skipflow_core::CallGraphQuery`], the same trait the engine's
//! `AnalysisResult`/`AnalysisSnapshot` implement, so comparisons like
//! `pta.refines(&rta)` work across analysis families.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cha;
pub mod rta;
pub mod sccp;

pub use cha::class_hierarchy_analysis;
pub use rta::rapid_type_analysis;
pub use sccp::{sccp, sccp_program, SccpResult};
pub use skipflow_core::CallGraphQuery;

use skipflow_ir::{MethodId, Program, SelectorId, Stmt};
use std::collections::BTreeSet;

/// The result of a baseline call-graph construction.
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// Methods reachable from the roots.
    pub reachable: BTreeSet<MethodId>,
    /// Total number of call edges discovered.
    pub call_edges: usize,
    /// Virtual call sites with two or more targets (the PolyCalls metric).
    pub poly_calls: usize,
}

impl CallGraph {
    /// Number of reachable methods.
    pub fn reachable_count(&self) -> usize {
        self.reachable.len()
    }

    /// Whether `m` is reachable.
    pub fn is_reachable(&self, m: MethodId) -> bool {
        self.reachable.contains(&m)
    }
}

impl CallGraphQuery for CallGraph {
    fn is_reachable(&self, m: MethodId) -> bool {
        CallGraph::is_reachable(self, m)
    }

    fn reachable_count(&self) -> usize {
        CallGraph::reachable_count(self)
    }

    fn reachable_ids(&self) -> Vec<MethodId> {
        self.reachable.iter().copied().collect()
    }

    fn call_edge_count(&self) -> usize {
        self.call_edges
    }

    fn poly_call_count(&self) -> usize {
        self.poly_calls
    }
}

/// Iterates over the call sites of a method body:
/// `(selector, is_virtual)` for virtual calls, plus statically bound targets.
pub(crate) fn body_calls(
    program: &Program,
    m: MethodId,
) -> (Vec<SelectorId>, Vec<MethodId>, Vec<skipflow_ir::TypeId>) {
    let mut virtuals = Vec::new();
    let mut statics = Vec::new();
    let mut allocations = Vec::new();
    if let Some(body) = program.body(m) {
        for (_, block) in body.iter_blocks() {
            for stmt in block.stmts() {
                match stmt {
                    Stmt::Invoke { selector, .. } => virtuals.push(selector),
                    Stmt::InvokeStatic { target, .. } => statics.push(target),
                    Stmt::Assign {
                        expr: skipflow_ir::Expr::New(t),
                        ..
                    } => allocations.push(t),
                    _ => {}
                }
            }
        }
    }
    (virtuals, statics, allocations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipflow_core::{analyze, AnalysisConfig};
    use skipflow_ir::frontend::compile;

    const LADDER: &str = "
        abstract class Animal { abstract method speak(): int; }
        class Dog extends Animal { method speak(): int { return 1; } }
        class Cat extends Animal { method speak(): int { return 2; } }
        class Fish extends Animal { method speak(): int { return 3; } }
        class Main {
          static method hear(a: Animal): int { return a.speak(); }
          static method main(): void {
            var d = new Dog();
            Main.hear(d);
          }
        }
    ";

    #[test]
    fn precision_ladder_cha_rta_pta_skipflow() {
        let p = compile(LADDER).unwrap();
        let main_cls = p.type_by_name("Main").unwrap();
        let main = p.method_by_name(main_cls, "main").unwrap();

        let cha = class_hierarchy_analysis(&p, &[main]);
        let rta = rapid_type_analysis(&p, &[main]);
        let pta = analyze(&p, &[main], &AnalysisConfig::baseline_pta());
        let skf = analyze(&p, &[main], &AnalysisConfig::skipflow());

        // CHA reaches every override of speak; RTA only instantiated Dog.
        let dog = p.method_by_name(p.type_by_name("Dog").unwrap(), "speak").unwrap();
        let cat = p.method_by_name(p.type_by_name("Cat").unwrap(), "speak").unwrap();
        let fish = p.method_by_name(p.type_by_name("Fish").unwrap(), "speak").unwrap();
        assert!(cha.is_reachable(dog) && cha.is_reachable(cat) && cha.is_reachable(fish));
        assert!(rta.is_reachable(dog) && !rta.is_reachable(cat) && !rta.is_reachable(fish));

        // The ladder: each analysis is at least as precise as the previous,
        // checked through the unified CallGraphQuery interface.
        assert!(rta.refines(&cha));
        assert!(pta.refines(&rta));
        assert!(skf.refines(&pta));
        // CallGraphQuery counts agree with the concrete representations.
        assert_eq!(CallGraphQuery::reachable_count(&cha), cha.reachable.len());
        assert_eq!(
            CallGraphQuery::reachable_count(&skf),
            skf.reachable_methods().len()
        );
    }

    #[test]
    fn cha_counts_polycalls_pessimistically() {
        let p = compile(LADDER).unwrap();
        let main_cls = p.type_by_name("Main").unwrap();
        let main = p.method_by_name(main_cls, "main").unwrap();
        let cha = class_hierarchy_analysis(&p, &[main]);
        let rta = rapid_type_analysis(&p, &[main]);
        assert_eq!(cha.poly_calls, 1, "3-target a.speak()");
        assert_eq!(rta.poly_calls, 0, "only Dog is instantiated");
    }
}
