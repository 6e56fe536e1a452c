//! The Java-like source frontend: lexer, parser, and SSA-constructing
//! lowering.
//!
//! GraalVM Native Image obtains its analysis IR by parsing Java bytecode;
//! this module is the corresponding substrate in the reproduction. The
//! surface syntax is a deliberately small Java subset sufficient for the
//! paper's code patterns:
//!
//! ```text
//! abstract class Display { abstract method imageBegin(): void; }
//! class FrameDisplay extends Display {
//!   method imageBegin(): void { return; }
//! }
//! class Scene {
//!   method render(display: Display): void {
//!     var d = display;
//!     if (d == null) { d = new FrameDisplay(); }
//!     d.imageBegin();
//!   }
//! }
//! ```
//!
//! Use [`compile`] to go from source text to a validated
//! [`crate::Program`].

pub mod ast;
pub mod lexer;
mod lower;
pub mod parser;

pub use lower::LowerError;

use crate::builder::ValidationErrors;
use crate::program::Program;
use std::fmt;

/// Any failure on the source-to-IR path.
#[derive(Debug)]
pub enum FrontendError {
    /// Tokenization failure.
    Lex(lexer::LexError),
    /// Parse failure.
    Parse(parser::ParseError),
    /// Name-resolution / structure failure during lowering.
    Lower(LowerError),
    /// The lowered program failed IR validation (frontend bug or unsupported
    /// construct).
    Validation(ValidationErrors),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Lex(e) => write!(f, "{e}"),
            FrontendError::Parse(e) => write!(f, "{e}"),
            FrontendError::Lower(e) => write!(f, "{e}"),
            FrontendError::Validation(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrontendError {}

/// Parses source text into an AST.
///
/// # Errors
///
/// Returns [`FrontendError::Lex`] or [`FrontendError::Parse`].
pub fn parse_source(src: &str) -> Result<ast::AstProgram, FrontendError> {
    let tokens = lexer::tokenize(src).map_err(FrontendError::Lex)?;
    parser::parse(tokens).map_err(FrontendError::Parse)
}

/// Compiles source text all the way to a validated [`Program`].
///
/// # Errors
///
/// Returns the first failure on the lex → parse → lower → validate path.
///
/// # Examples
///
/// ```
/// let program = skipflow_ir::frontend::compile(
///     "class Main {
///        static method main(): int { return 42; }
///      }",
/// )?;
/// let main_class = program.type_by_name("Main").unwrap();
/// assert!(program.method_by_name(main_class, "main").is_some());
/// # Ok::<(), skipflow_ir::frontend::FrontendError>(())
/// ```
pub fn compile(src: &str) -> Result<Program, FrontendError> {
    let ast = parse_source(src)?;
    lower::lower(&ast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BlockBegin;
    use crate::instr::{BlockEnd, Stmt};

    #[test]
    fn compiles_hierarchy_in_any_declaration_order() {
        let p = compile(
            "class Dog extends Animal { method speak(): int { return 1; } }
             class Animal implements Pet { method speak(): int { return 0; } }
             interface Pet { }",
        )
        .unwrap();
        let animal = p.type_by_name("Animal").unwrap();
        let dog = p.type_by_name("Dog").unwrap();
        let pet = p.type_by_name("Pet").unwrap();
        assert!(p.is_subtype(dog, animal));
        assert!(p.is_subtype(dog, pet));
        let sel = p.method(p.method_by_name(animal, "speak").unwrap()).selector;
        assert_eq!(p.resolve(dog, sel), p.method_by_name(dog, "speak"));
    }

    #[test]
    fn ssa_construction_inserts_phis_for_branch_assignments() {
        let p = compile(
            "class Main {
               static method pick(c: int): int {
                 var x = 0;
                 if (c == 0) { x = 1; } else { x = 2; }
                 return x;
               }
             }",
        )
        .unwrap();
        let main = p.type_by_name("Main").unwrap();
        let m = p.method_by_name(main, "pick").unwrap();
        let body = p.method(m).body.as_ref().unwrap();
        let merge = body
            .blocks
            .iter()
            .find_map(|b| match &b.begin {
                BlockBegin::Merge { phis, .. } if !phis.is_empty() => Some(phis),
                _ => None,
            })
            .expect("expected a merge with φs");
        assert_eq!(merge.len(), 1);
        assert_eq!(merge[0].args.len(), 2);
    }

    #[test]
    fn ssa_construction_handles_loops() {
        let p = compile(
            "class Main {
               static method count(n: int): int {
                 var i = 0;
                 while (i < n) { i = any(); }
                 return i;
               }
             }",
        )
        .unwrap();
        let main = p.type_by_name("Main").unwrap();
        let m = p.method_by_name(main, "count").unwrap();
        let body = p.method(m).body.as_ref().unwrap();
        // The loop header must be a merge with a back edge.
        let (header_preds, phis) = body
            .blocks
            .iter()
            .enumerate()
            .find_map(|(i, b)| match &b.begin {
                BlockBegin::Merge { phis, preds } if preds.len() == 2 => {
                    Some((preds.iter().map(|p| p.index() > i).collect::<Vec<_>>(), phis))
                }
                _ => None,
            })
            .expect("expected loop header");
        assert_eq!(header_preds, vec![false, true], "second pred is the back edge");
        assert_eq!(phis.len(), 1);
    }

    #[test]
    fn no_phi_when_branches_agree() {
        let p = compile(
            "class Main {
               static method same(c: int): int {
                 var x = 7;
                 if (c == 0) { Main.noop(); } else { Main.noop(); }
                 return x;
               }
               static method noop(): void { return; }
             }",
        )
        .unwrap();
        let main = p.type_by_name("Main").unwrap();
        let m = p.method_by_name(main, "same").unwrap();
        let body = p.method(m).body.as_ref().unwrap();
        for b in &body.blocks {
            if let BlockBegin::Merge { phis, .. } = &b.begin {
                assert!(phis.is_empty());
            }
        }
    }

    #[test]
    fn truthy_condition_desugars_to_compare_with_zero() {
        let p = compile(
            "class T {
               method isOn(): int { return 1; }
               method use(t: T): void {
                 if (t.isOn()) { return; }
                 return;
               }
             }",
        )
        .unwrap();
        let t = p.type_by_name("T").unwrap();
        let m = p.method_by_name(t, "use").unwrap();
        let body = p.method(m).body.as_ref().unwrap();
        let entry = &body.blocks[0];
        assert!(matches!(
            entry.end,
            BlockEnd::If {
                cond: crate::instr::Cond::Cmp { op: crate::instr::CmpOp::Ne, .. },
                ..
            }
        ));
        // The invoke result feeds the comparison.
        assert!(entry.stmts.iter().any(|s| matches!(s, Stmt::Invoke { .. })));
    }

    #[test]
    fn static_members_resolve_through_the_superclass_chain() {
        let p = compile(
            "class Base { static var flag: int; static method get(): int { return Base.flag; } }
             class Sub extends Base {
               static method read(): int { return Sub.get(); }
             }",
        )
        .unwrap();
        let sub = p.type_by_name("Sub").unwrap();
        assert!(p.method_by_name(sub, "read").is_some());
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = compile("class A { static method m(): int { return nope; } }").unwrap_err();
        assert!(matches!(e, FrontendError::Lower(_)), "{e}");
    }

    #[test]
    fn rejects_unreachable_code() {
        let e = compile(
            "class A { static method m(): void { return; var x = 1; } }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("unreachable"), "{e}");
    }

    #[test]
    fn rejects_falling_off_non_void_method() {
        let e = compile("class A { static method m(): int { var x = 1; } }").unwrap_err();
        assert!(e.to_string().contains("fall off"), "{e}");
    }

    #[test]
    fn rejects_inheritance_cycle() {
        let e = compile("class A extends B { } class B extends A { }").unwrap_err();
        assert!(e.to_string().contains("cycle"), "{e}");
    }

    #[test]
    fn rejects_ambiguous_instance_field() {
        let e = compile(
            "class A { var f: int; method m(): int { return this.f; } }
             class B { var f: int; }",
        )
        .unwrap_err();
        assert!(e.to_string().contains("ambiguous"), "{e}");
    }

    #[test]
    fn void_methods_get_implicit_return() {
        let p = compile("class A { static method m(): void { var x = 1; } }").unwrap();
        let a = p.type_by_name("A").unwrap();
        let m = p.method_by_name(a, "m").unwrap();
        let body = p.method(m).body.as_ref().unwrap();
        assert!(matches!(body.blocks.last().unwrap().end, BlockEnd::Return(None)));
    }

    #[test]
    fn compiles_the_fig2_jdk_example() {
        // The paper's Figure 2, transcribed into the surface syntax.
        let p = compile(
            "class Object { }
             abstract class BaseVirtualThread extends Thread { }
             class Thread extends Object {
               method isVirtual(): int {
                 if (this instanceof BaseVirtualThread) { return 1; }
                 return 0;
               }
             }
             class VirtualThread extends BaseVirtualThread { }
             class ThreadSet extends Object { method remove(t: Thread): void { return; } }
             class SharedThreadContainer extends Object {
               var virtualThreads: ThreadSet;
               method onExit(thread: Thread): void {
                 if (thread.isVirtual()) {
                   var s = this.virtualThreads;
                   s.remove(thread);
                 }
               }
             }",
        );
        match p {
            Ok(p) => {
                let stc = p.type_by_name("SharedThreadContainer").unwrap();
                assert!(p.method_by_name(stc, "onExit").is_some());
            }
            Err(e) => panic!("{e}"),
        }
    }
}
