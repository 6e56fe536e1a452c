//! The compiler client of §6 "Impact on Compiler Optimizations": consume an
//! [`AnalysisResult`] and produce a *smaller program*.
//!
//! Native Image uses the analysis to decide what to compile into the binary;
//! this module performs the equivalent ahead-of-time shrinking on the base
//! language:
//!
//! * **unreachable methods are dropped** entirely (their declarations
//!   disappear; virtual dispatch can never select them because the analysis
//!   proved no reachable receiver resolves to them);
//! * **dead blocks are stubbed**: their statements are removed and replaced
//!   by `throw new UnreachableStub()` — the moral equivalent of the
//!   deoptimization/abort stubs an AOT compiler plants on paths the analysis
//!   proved dead;
//! * merge blocks lose the predecessors whose jumps disappeared, and φs drop
//!   the corresponding arguments.
//!
//! The shrunk program re-validates from scratch, and (by the differential
//! tests) behaves identically under the reference interpreter: execution
//! never enters the stubbed regions. Encoding both programs with
//! [`skipflow_ir::encode`] turns the paper's binary-size metric into real
//! bytes.

use crate::report::AnalysisResult;
use skipflow_ir::{
    Block, BlockBegin, BlockEnd, Body, BodyView, MethodId, Phi, Program, ProgramBuilder, Stmt, TypeId, VarData, VarId,
    ValidationErrors,
};
use std::collections::HashMap;

/// Statistics of one shrink run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShrinkStats {
    /// Concrete methods in the input program.
    pub methods_before: usize,
    /// Concrete methods kept.
    pub methods_after: usize,
    /// Blocks replaced by unreachable stubs.
    pub blocks_stubbed: usize,
    /// Statements removed (from dropped methods and stubbed blocks).
    pub instructions_removed: usize,
}

/// The outcome of shrinking: the new program plus the method id mapping.
#[derive(Debug)]
pub struct Shrunk {
    /// The shrunk, re-validated program.
    pub program: Program,
    /// Old method id → new method id, for kept methods.
    pub method_map: HashMap<MethodId, MethodId>,
    /// Statistics.
    pub stats: ShrinkStats,
}

/// Shrinks `program` according to `result` (which must have been computed
/// for this exact program).
///
/// Types, fields, and selectors are kept wholesale — their metadata is cheap
/// and keeping ids stable avoids remapping every instruction operand; the
/// savings live in the method bodies, as in the paper's binary-size metric.
///
/// # Examples
///
/// ```
/// use skipflow_core::{analyze, AnalysisConfig};
/// use skipflow_core::shrink::shrink;
/// use skipflow_ir::frontend::compile;
///
/// let program = compile(
///     "class Dead { static method never(): void { return; } }
///      class Main { static method main(): void { return; } }",
/// )?;
/// let main_cls = program.type_by_name("Main").unwrap();
/// let main = program.method_by_name(main_cls, "main").unwrap();
/// let result = analyze(&program, &[main], &AnalysisConfig::skipflow());
///
/// let shrunk = shrink(&program, &result).expect("rebuild validates");
/// assert_eq!(shrunk.stats.methods_after, 1, "only main survives");
/// # Ok::<(), skipflow_ir::frontend::FrontendError>(())
/// ```
///
/// # Errors
///
/// Returns the validation failures of the rebuilt program — impossible
/// unless there is a bug in the shrinker (the tests lean on this).
pub fn shrink(program: &Program, result: &AnalysisResult) -> Result<Shrunk, ValidationErrors> {
    let mut pb = ProgramBuilder::new();
    let mut stats = ShrinkStats::default();

    // 1. Types, verbatim (ids preserved: same declaration order).
    for t in program.iter_types().skip(1) {
        let td = program.type_data(t);
        match td.kind {
            skipflow_ir::TypeKind::Interface => {
                pb.add_interface(&td.name, &td.interfaces);
            }
            kind => {
                let mut cb = pb.class(&td.name);
                if let Some(s) = td.superclass {
                    cb = cb.extends(s);
                }
                for &i in &td.interfaces {
                    cb = cb.implements_(i);
                }
                if kind == skipflow_ir::TypeKind::AbstractClass {
                    cb = cb.abstract_();
                }
                cb.build();
            }
        }
    }
    // The stub error class used by dead-block stubs.
    let stub_error = pb.add_class("UnreachableStub");

    // 2. Selectors in id order (ids preserved).
    for i in 0..program.selector_count() {
        let s = program.selector(skipflow_ir::SelectorId::from_index(i));
        pb.selector(&s.name, s.arity);
    }

    // 3. Fields, verbatim (ids preserved).
    for f in program.iter_fields() {
        let fd = program.field(f);
        if fd.is_static {
            pb.add_static_field(fd.owner, &fd.name, fd.ty);
        } else {
            pb.add_field(fd.owner, &fd.name, fd.ty);
        }
    }

    // 4. Methods: abstract declarations survive (they shape dispatch);
    //    concrete methods survive iff reachable.
    let mut method_map: HashMap<MethodId, MethodId> = HashMap::new();
    for m in program.iter_methods() {
        let md = program.method(m);
        if md.has_body() {
            stats.methods_before += 1;
        }
        let keep = md.is_abstract || result.is_reachable(m);
        if !keep {
            stats.instructions_removed += program.body(m).map_or(0, BodyView::instruction_count);
            continue;
        }
        let mut mb = pb
            .method(md.owner, &md.name)
            .params(md.sig.params.clone())
            .returns(md.sig.ret);
        if md.is_static {
            mb = mb.static_();
        }
        if md.is_abstract {
            mb = mb.abstract_();
        }
        let new_id = mb.build();
        method_map.insert(m, new_id);
        if md.has_body() {
            stats.methods_after += 1;
        }
    }

    // 5. Bodies: live statements verbatim (static targets remapped); dead
    //    blocks — and dead block *tails* after never-returning calls — are
    //    stubbed.
    for (old, new) in method_map.clone() {
        let Some(body) = program.body(old) else { continue };
        let shrunk = shrink_body(body, result, old, stub_error, &method_map, &mut stats);
        pb.set_body(new, shrunk);
    }

    let program = pb.finish()?;
    Ok(Shrunk {
        program,
        method_map,
        stats,
    })
}

/// The shrunk copy of `body`, as input for the rebuilt program.
fn shrink_body(
    body: BodyView<'_>,
    result: &AnalysisResult,
    method: MethodId,
    stub_error: TypeId,
    method_map: &HashMap<MethodId, MethodId>,
    stats: &mut ShrinkStats,
) -> Body {
    let live = result.live_blocks(method);
    let mut vars: Vec<VarData> = (0..body.var_count())
        .map(|v| VarData {
            name: body.var_name(VarId::from_index(v)).to_owned(),
        })
        .collect();
    let fresh_var = |vars: &mut Vec<VarData>| -> VarId {
        let id = VarId::from_index(vars.len());
        vars.push(VarData {
            name: "stub".to_string(),
        });
        id
    };

    let is_live = |b: skipflow_ir::BlockId| live.get(b.index()).copied().unwrap_or(false);
    // A live block may still have a dead *tail*: statements after a
    // never-returning call are disabled. The prefix of enabled statements is
    // kept; a truncated block loses its terminator (and so its jump).
    let live_prefix = |b: skipflow_ir::BlockId| -> usize {
        let n = body.block(b).stmt_count();
        (0..n)
            .find(|&i| result.stmt_enabled(method, b, i) == Some(false))
            .unwrap_or(n)
    };
    // A block reaches its original terminator iff it is live and untruncated;
    // merges must drop the predecessors whose jumps disappeared.
    let exits_normally =
        |b: skipflow_ir::BlockId| is_live(b) && live_prefix(b) == body.block(b).stmt_count();

    let mut blocks = Vec::with_capacity(body.block_count());
    for (id, block) in body.iter_blocks() {
        // Rebuild the header: merges lose dead predecessors.
        let begin = match block.begin() {
            BlockBegin::Merge { phis, preds } => {
                let kept: Vec<usize> = (0..preds.len())
                    .filter(|&j| exits_normally(preds[j]))
                    .collect();
                let new_preds: Vec<_> = kept.iter().map(|&j| preds[j]).collect();
                let new_phis: Vec<Phi> = phis
                    .iter()
                    .map(|phi| Phi {
                        def: phi.def,
                        args: kept.iter().map(|&j| phi.args[j]).collect(),
                    })
                    .collect();
                BlockBegin::Merge {
                    phis: new_phis,
                    preds: new_preds,
                }
            }
            BlockBegin::Start { params } => BlockBegin::Start {
                params: params.to_vec(),
            },
            BlockBegin::Label => BlockBegin::Label,
        };

        if !is_live(id) {
            // Whole block stubbed: `throw new UnreachableStub()`.
            stats.blocks_stubbed += 1;
            stats.instructions_removed += block.stmt_count();
            let err = fresh_var(&mut vars);
            blocks.push(Block {
                begin,
                stmts: vec![Stmt::Assign {
                    def: err,
                    expr: skipflow_ir::Expr::New(stub_error),
                }],
                end: BlockEnd::Throw(err),
            });
            continue;
        }

        let prefix = live_prefix(id);
        let mut stmts: Vec<Stmt> = block
            .stmts()
            .take(prefix)
            .map(|s| remap_stmt(s, method_map))
            .collect();
        if prefix == block.stmt_count() {
            blocks.push(Block {
                begin,
                stmts,
                end: block.end(),
            });
        } else {
            // Dead tail after a never-returning call: truncate and stub.
            stats.blocks_stubbed += 1;
            stats.instructions_removed += block.stmt_count() - prefix;
            let err = fresh_var(&mut vars);
            stmts.push(Stmt::Assign {
                def: err,
                expr: skipflow_ir::Expr::New(stub_error),
            });
            blocks.push(Block {
                begin,
                stmts,
                end: BlockEnd::Throw(err),
            });
        }
    }

    Body { blocks, vars }
}

/// Rewrites statically bound call targets through the method map. Targets in
/// live blocks are reachable by construction, so the lookup cannot fail.
fn remap_stmt(stmt: Stmt<&[VarId]>, method_map: &HashMap<MethodId, MethodId>) -> Stmt {
    match stmt.map_args(<[VarId]>::to_vec) {
        Stmt::InvokeStatic { def, target, args } => Stmt::InvokeStatic {
            def,
            target: *method_map
                .get(&target)
                .expect("static targets in live code are reachable"),
            args,
        },
        other => other,
    }
}

/// Convenience: the encoded (`SFBC`) sizes before and after shrinking — the
/// honest version of the binary-size metric.
pub fn encoded_sizes(program: &Program, shrunk: &Shrunk) -> (usize, usize) {
    (
        skipflow_ir::encode::encode(program).len(),
        skipflow_ir::encode::encode(&shrunk.program).len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, AnalysisConfig};
    use skipflow_ir::frontend::compile;

    fn fixture() -> (Program, AnalysisResult, MethodId) {
        let program = compile(
            "class Config { static method flag(): int { return 0; } }
             class Tracer {
               static method init(): void { Tracer.connect(); }
               static method connect(): void { return; }
             }
             class Main {
               static method main(): int {
                 if (Config.flag()) { Tracer.init(); }
                 return 41;
               }
             }",
        )
        .unwrap();
        let main_cls = program.type_by_name("Main").unwrap();
        let main = program.method_by_name(main_cls, "main").unwrap();
        let result = analyze(&program, &[main], &AnalysisConfig::skipflow());
        (program, result, main)
    }

    #[test]
    fn drops_unreachable_methods_and_stubs_dead_blocks() {
        let (program, result, _) = fixture();
        let shrunk = shrink(&program, &result).expect("rebuild validates");
        assert_eq!(shrunk.stats.methods_before, 4);
        assert_eq!(shrunk.stats.methods_after, 2, "main + flag survive");
        assert!(shrunk.stats.blocks_stubbed >= 1, "the then-branch is stubbed");
        assert!(shrunk.stats.instructions_removed > 0);
        // Tracer methods are gone from the new program.
        let tracer = shrunk.program.type_by_name("Tracer").unwrap();
        assert!(shrunk.program.method_by_name(tracer, "init").is_none());
        assert!(shrunk.program.method_by_name(tracer, "connect").is_none());
    }

    #[test]
    fn shrunk_program_behaves_identically() {
        let (program, result, main) = fixture();
        let shrunk = shrink(&program, &result).unwrap();
        let new_main = shrunk.method_map[&main];
        let cfg = skipflow_ir::interp::InterpConfig::default();
        let a = skipflow_ir::interp::run(&program, main, &[], &cfg);
        let b = skipflow_ir::interp::run(&shrunk.program, new_main, &[], &cfg);
        assert_eq!(a.outcome, b.outcome, "execution never enters the stubs");
    }

    #[test]
    fn encoded_size_shrinks() {
        let (program, result, _) = fixture();
        let shrunk = shrink(&program, &result).unwrap();
        let (before, after) = encoded_sizes(&program, &shrunk);
        assert!(
            after < before,
            "real binary size must drop: {after} vs {before}"
        );
    }

    #[test]
    fn reanalyzing_the_shrunk_program_is_stable() {
        let (program, result, main) = fixture();
        let shrunk = shrink(&program, &result).unwrap();
        let new_main = shrunk.method_map[&main];
        let again = analyze(&shrunk.program, &[new_main], &AnalysisConfig::skipflow());
        // Everything kept stays reachable (modulo nothing new appearing).
        assert_eq!(
            again.reachable_methods().len(),
            result.reachable_methods().len()
        );
    }

    #[test]
    fn baseline_shrink_keeps_more() {
        let (program, _, main) = fixture();
        let skf = analyze(&program, &[main], &AnalysisConfig::skipflow());
        let pta = analyze(&program, &[main], &AnalysisConfig::baseline_pta());
        let s = shrink(&program, &skf).unwrap();
        let p = shrink(&program, &pta).unwrap();
        assert!(s.stats.methods_after < p.stats.methods_after);
        let (_, s_bytes) = encoded_sizes(&program, &s);
        let (_, p_bytes) = encoded_sizes(&program, &p);
        assert!(s_bytes < p_bytes, "SkipFlow's binary is smaller than PTA's");
    }
}
