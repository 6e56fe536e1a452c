//! Deterministic edit-script generation over a generated benchmark.
//!
//! An [`EditScript`] is a seeded, reproducible sequence of session
//! operations — root additions, root retractions, method-body edits, and
//! solve points — used by the non-monotone incrementality harnesses: the
//! differential tests in `tests/edit_scripts.rs`, the server stress test,
//! and the trajectory harness's `edit-` family. The generator maintains a
//! model of the session (current roots, masked methods) so every emitted
//! operation is valid at its position: retractions name current roots,
//! disables name unmasked concrete methods, restores name masked ones.

use crate::Benchmark;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use skipflow_ir::MethodId;

/// One operation of an [`EditScript`], in session-API terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditOp {
    /// Register new entry points (`AnalysisSession::add_roots`).
    AddRoots(Vec<MethodId>),
    /// Remove entry points (`AnalysisSession::retract_roots`). Every named
    /// method is a current root at this point of the script.
    RetractRoots(Vec<MethodId>),
    /// Mask a method body out (`MethodEdit::DisableBody`). The method is
    /// concrete and unmasked at this point of the script.
    DisableMethod(MethodId),
    /// Restore a masked body (`MethodEdit::RestoreBody`). The method is
    /// masked at this point of the script.
    RestoreMethod(MethodId),
    /// Run the solver to the fixpoint of the current configuration — the
    /// points where differential harnesses compare against a fresh solve.
    Solve,
}

/// A seeded, valid-by-construction operation sequence (see module docs),
/// plus the final configuration it leaves behind.
#[derive(Clone, Debug)]
pub struct EditScript {
    /// The operations, in order. Always ends with [`EditOp::Solve`].
    pub ops: Vec<EditOp>,
    /// Roots that remain registered after the whole script ran.
    pub final_roots: Vec<MethodId>,
    /// Methods that remain masked after the whole script ran.
    pub final_masked: Vec<MethodId>,
}

/// Builds a deterministic edit script of `steps` mutation operations over
/// `bench`, with up to `churn` roots moved per add/retract batch. The same
/// `(bench, seed, steps, churn)` always yields the same script. A solve
/// point is inserted after every mutation with probability ½ (and always at
/// the end), so scripts exercise both solved-in and pending retractions.
pub fn build_edit_script(bench: &Benchmark, seed: u64, steps: usize, churn: usize) -> EditScript {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5edc_a11e);
    let churn = churn.max(1);

    // Candidate pools. Roots rotate through the benchmark's entry points
    // plus a spread of extra concrete methods; edits hit any concrete
    // method (including live ones — that is what makes invalidation
    // non-trivial).
    let extra = crate::pick_spread_roots(&bench.program, &bench.roots, 4 * churn);
    let mut root_pool: Vec<MethodId> = bench.roots.iter().copied().chain(extra).collect();
    let editable: Vec<MethodId> = bench
        .program
        .iter_methods()
        .filter(|&m| bench.program.method(m).has_body())
        .collect();

    let mut roots: Vec<MethodId> = bench.roots.clone();
    root_pool.retain(|m| !roots.contains(m));
    let mut masked: Vec<MethodId> = Vec::new();
    let mut ops = vec![EditOp::Solve];

    for _ in 0..steps {
        let op = match rng.gen_range(0..4u32) {
            0 if !root_pool.is_empty() => {
                let n = rng.gen_range(1..churn.min(root_pool.len()) + 1);
                let batch: Vec<MethodId> =
                    (0..n).map(|_| root_pool.remove(rng.gen_range(0..root_pool.len()))).collect();
                roots.extend(batch.iter().copied());
                EditOp::AddRoots(batch)
            }
            1 if roots.len() > 1 => {
                let n = rng.gen_range(1..churn.min(roots.len() - 1) + 1);
                let batch: Vec<MethodId> =
                    (0..n).map(|_| roots.remove(rng.gen_range(0..roots.len()))).collect();
                root_pool.extend(batch.iter().copied());
                EditOp::RetractRoots(batch)
            }
            2 => {
                let candidates: Vec<MethodId> = editable
                    .iter()
                    .copied()
                    .filter(|m| !masked.contains(m))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let m = candidates[rng.gen_range(0..candidates.len())];
                masked.push(m);
                EditOp::DisableMethod(m)
            }
            _ => {
                if masked.is_empty() {
                    continue;
                }
                EditOp::RestoreMethod(masked.remove(rng.gen_range(0..masked.len())))
            }
        };
        ops.push(op);
        if rng.gen_range(0..2u32) == 0 {
            ops.push(EditOp::Solve);
        }
    }
    if ops.last() != Some(&EditOp::Solve) {
        ops.push(EditOp::Solve);
    }
    masked.sort();
    EditScript {
        ops,
        final_roots: roots,
        final_masked: masked,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;

    #[test]
    fn edit_scripts_are_deterministic_and_valid() {
        let bench = crate::build_benchmark(&suites::by_name("lusearch").unwrap());
        let a = build_edit_script(&bench, 7, 24, 3);
        let b = build_edit_script(&bench, 7, 24, 3);
        assert_eq!(a.ops, b.ops);
        assert_ne!(a.ops, build_edit_script(&bench, 8, 24, 3).ops);
        assert_eq!(a.ops.last(), Some(&EditOp::Solve));

        // Replay the model: every op must be valid at its position.
        let mut roots: Vec<MethodId> = bench.roots.clone();
        let mut masked: Vec<MethodId> = Vec::new();
        for op in &a.ops {
            match op {
                EditOp::AddRoots(batch) => {
                    for m in batch {
                        assert!(!roots.contains(m));
                        roots.push(*m);
                    }
                }
                EditOp::RetractRoots(batch) => {
                    for m in batch {
                        let i = roots.iter().position(|r| r == m).expect("retract a root");
                        roots.remove(i);
                    }
                }
                EditOp::DisableMethod(m) => {
                    assert!(bench.program.method(*m).has_body());
                    assert!(!masked.contains(m));
                    masked.push(*m);
                }
                EditOp::RestoreMethod(m) => {
                    let i = masked.iter().position(|x| x == m).expect("restore masked");
                    masked.remove(i);
                }
                EditOp::Solve => {}
            }
        }
        masked.sort();
        assert_eq!(roots, a.final_roots);
        assert_eq!(masked, a.final_masked);
    }
}
