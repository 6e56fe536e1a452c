//! Pretty-printing of programs and bodies in the base-language syntax of
//! Appendix B.1 (Figure 10). Useful for debugging, golden tests, and the
//! examples.

use crate::body::{BlockBegin, BodyView};
use crate::ids::{MethodId, TypeId, VarId};
use crate::instr::{BlockEnd, Cond, Expr, Stmt};
use crate::program::Program;
use std::fmt::Write as _;

/// Renders the whole program.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for t in program.iter_types() {
        if t.is_null() {
            continue;
        }
        out.push_str(&print_type(program, t));
        out.push('\n');
    }
    out
}

/// Renders one type declaration with its fields and methods.
pub fn print_type(program: &Program, t: TypeId) -> String {
    let td = program.type_data(t);
    let mut out = String::new();
    let kw = match td.kind {
        crate::types::TypeKind::Class => "class",
        crate::types::TypeKind::AbstractClass => "abstract class",
        crate::types::TypeKind::Interface => "interface",
    };
    let _ = write!(out, "{kw} {}", td.name);
    if let Some(s) = td.superclass {
        let _ = write!(out, " extends {}", program.type_data(s).name);
    }
    if !td.interfaces.is_empty() {
        let names: Vec<_> = td
            .interfaces
            .iter()
            .map(|i| program.type_data(*i).name.as_str())
            .collect();
        let _ = write!(out, " implements {}", names.join(", "));
    }
    out.push_str(" {\n");
    for &f in td.declared_fields() {
        let fd = program.field(f);
        let stat = if fd.is_static { "static " } else { "" };
        let _ = writeln!(out, "  {stat}var {}: {};", fd.name, type_ref_name(program, fd.ty));
    }
    for &m in td.declared_methods() {
        out.push_str(&print_method(program, m));
    }
    out.push_str("}\n");
    out
}

fn type_ref_name(program: &Program, t: crate::types::TypeRef) -> String {
    match t {
        crate::types::TypeRef::Void => "void".to_string(),
        crate::types::TypeRef::Prim => "int".to_string(),
        crate::types::TypeRef::Object(id) => program.type_data(id).name.clone(),
    }
}

/// Renders one method declaration (header plus SSA body).
pub fn print_method(program: &Program, m: MethodId) -> String {
    let md = program.method(m);
    let mut out = String::new();
    let stat = if md.is_static { "static " } else { "" };
    let abst = if md.is_abstract { "abstract " } else { "" };
    let params: Vec<String> = md
        .sig
        .params
        .iter()
        .map(|p| type_ref_name(program, *p))
        .collect();
    let _ = write!(
        out,
        "  {stat}{abst}method {}({}): {}",
        md.name,
        params.join(", "),
        type_ref_name(program, md.sig.ret)
    );
    match program.body(m) {
        None => out.push_str(";\n"),
        Some(body) => {
            out.push_str(" {\n");
            out.push_str(&indent(&print_body(program, body), 4));
            out.push_str("  }\n");
        }
    }
    out
}

fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines()
        .map(|l| format!("{pad}{l}\n"))
        .collect::<Vec<_>>()
        .join("")
}

/// Renders an SSA body block by block.
pub fn print_body(program: &Program, body: BodyView<'_>) -> String {
    let mut out = String::new();
    for (id, block) in body.iter_blocks() {
        match block.begin() {
            BlockBegin::Start { params } => {
                let ps: Vec<String> = params.iter().map(|p| var_name(body, *p)).collect();
                let _ = writeln!(out, "{id}: start({})", ps.join(", "));
            }
            BlockBegin::Merge { phis, preds } => {
                let ps: Vec<String> = phis
                    .iter()
                    .map(|phi| {
                        let args: Vec<String> =
                            phi.args.iter().map(|a| var_name(body, *a)).collect();
                        format!("{} <- phi({})", var_name(body, phi.def), args.join(", "))
                    })
                    .collect();
                let preds_s: Vec<String> = preds.iter().map(|p| p.to_string()).collect();
                let _ = writeln!(out, "{id}: merge [{}] from [{}]", ps.join(", "), preds_s.join(", "));
            }
            BlockBegin::Label => {
                let _ = writeln!(out, "{id}: label");
            }
        }
        for stmt in block.stmts() {
            let _ = writeln!(out, "  {}", print_stmt(program, body, stmt));
        }
        let _ = writeln!(out, "  {}", print_end(program, body, block.end()));
    }
    out
}

fn var_name(body: BodyView<'_>, v: VarId) -> String {
    let name = body.var_name(v);
    if name.is_empty() {
        v.to_string()
    } else {
        format!("{name}{}", v.index())
    }
}

fn print_stmt(program: &Program, body: BodyView<'_>, stmt: Stmt<&[VarId]>) -> String {
    match stmt {
        Stmt::Assign { def, expr } => {
            let rhs = match expr {
                Expr::Const(n) => n.to_string(),
                Expr::AnyPrim => "any".to_string(),
                Expr::New(t) => format!("new {}", program.type_data(t).name),
                Expr::Null => "null".to_string(),
            };
            format!("{} <- {rhs}", var_name(body, def))
        }
        Stmt::Load { def, object, field } => format!(
            "{} <- {}.{}",
            var_name(body, def),
            var_name(body, object),
            program.field(field).name
        ),
        Stmt::Store { object, field, value } => format!(
            "{}.{} <- {}",
            var_name(body, object),
            program.field(field).name,
            var_name(body, value)
        ),
        Stmt::Invoke { def, receiver, selector, args } => {
            let a: Vec<String> = args.iter().map(|v| var_name(body, *v)).collect();
            format!(
                "{} <- {}.{}({})",
                var_name(body, def),
                var_name(body, receiver),
                program.selector(selector).name,
                a.join(", ")
            )
        }
        Stmt::InvokeStatic { def, target, args } => {
            let a: Vec<String> = args.iter().map(|v| var_name(body, *v)).collect();
            format!(
                "{} <- {}({})",
                var_name(body, def),
                program.method_label(target),
                a.join(", ")
            )
        }
        Stmt::Catch { def, ty } => format!(
            "{} <- catch {}",
            var_name(body, def),
            program.type_data(ty).name
        ),
    }
}

fn print_cond(program: &Program, body: BodyView<'_>, cond: Cond) -> String {
    match cond {
        Cond::Cmp { op, lhs, rhs } => format!(
            "{} {} {}",
            var_name(body, lhs),
            op.symbol(),
            var_name(body, rhs)
        ),
        Cond::InstanceOf { var, ty, negated } => {
            let bang = if negated { "!" } else { "" };
            format!(
                "{bang}({} instanceof {})",
                var_name(body, var),
                program.type_data(ty).name
            )
        }
    }
}

fn print_end(program: &Program, body: BodyView<'_>, end: BlockEnd) -> String {
    match end {
        BlockEnd::Return(None) => "return".to_string(),
        BlockEnd::Return(Some(v)) => format!("return {}", var_name(body, v)),
        BlockEnd::Jump(t) => format!("jump {t}"),
        BlockEnd::If { cond, then_block, else_block } => format!(
            "if {} then {then_block} else {else_block}",
            print_cond(program, body, cond)
        ),
        BlockEnd::Throw(v) => format!("throw {}", var_name(body, v)),
    }
}

/// Convenience: render the body of method `m`.
///
/// # Panics
///
/// Panics if `m` is abstract.
pub fn print_method_body(program: &Program, m: MethodId) -> String {
    print_body(program, program.body(m).expect("abstract method has no body"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BranchExit, ProgramBuilder};
    use crate::instr::CmpOp;
    use crate::types::TypeRef;

    #[test]
    fn prints_a_small_program() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let b = pb.class("B").extends(a).build();
        pb.add_field(a, "x", TypeRef::Prim);
        let m = pb
            .method(a, "decide")
            .params(vec![TypeRef::Prim])
            .returns(TypeRef::Object(a))
            .build();
        pb.build_body(m, |bb| {
            let p = bb.param(1);
            let zero = bb.const_(0);
            let j = bb.if_else(
                crate::instr::Cond::Cmp { op: CmpOp::Eq, lhs: p, rhs: zero },
                |bb| BranchExit::value(bb.new_obj(b)),
                |bb| BranchExit::value(bb.null_()),
            );
            bb.ret(Some(j[0]));
        });
        let p = pb.finish().unwrap();
        let text = print_program(&p);
        assert!(text.contains("class A"), "{text}");
        assert!(text.contains("class B extends A"), "{text}");
        assert!(text.contains("var x: int;"), "{text}");
        assert!(text.contains("new B"), "{text}");
        assert!(text.contains("phi("), "{text}");
        assert!(text.contains("if "), "{text}");
    }

    #[test]
    fn prints_instanceof_and_throw() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let exc = pb.add_class("Error");
        let m = pb.method(a, "check").params(vec![TypeRef::Object(a)]).returns(TypeRef::Void).build();
        pb.build_body(m, |bb| {
            let x = bb.param(1);
            bb.if_then(
                crate::instr::Cond::InstanceOf { var: x, ty: a, negated: true },
                |bb| {
                    let e = bb.new_obj(exc);
                    bb.throw(e);
                    BranchExit::Terminated
                },
            );
            bb.ret(None);
        });
        let p = pb.finish().unwrap();
        let text = print_method_body(&p, p.method_by_name(a, "check").unwrap());
        assert!(text.contains("instanceof A"), "{text}");
        assert!(text.contains("throw"), "{text}");
    }
}
