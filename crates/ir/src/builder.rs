//! Construction APIs: [`ProgramBuilder`] for declarations and [`BodyBuilder`]
//! for SSA method bodies.
//!
//! [`BodyBuilder`] offers structured helpers ([`BodyBuilder::if_else`],
//! [`BodyBuilder::while_loop`]) that emit the base language's
//! `label`/`merge`/φ discipline automatically, so client code never
//! constructs a malformed CFG. The low-level block operations remain
//! available for tests that need unusual shapes.

use crate::body::{Block, BlockBegin, Body, BodyPools, Phi, VarData};
use crate::ids::{BlockId, FieldId, MethodId, SelectorId, TypeId, VarId};
use crate::instr::{BlockEnd, Cond, Expr, Stmt};
use crate::program::Program;
use crate::types::{FieldData, MethodData, SelectorData, Signature, TypeData, TypeKind, TypeRef};
use crate::validate::{self, ValidationError};
use std::collections::HashMap;

/// Builds a [`Program`] incrementally.
///
/// Supertypes must be declared before their subtypes (the natural order);
/// this keeps the hierarchy acyclic by construction and lets
/// `Program::freeze` run in one pass.
///
/// # Examples
///
/// ```
/// use skipflow_ir::{ProgramBuilder, TypeRef};
///
/// let mut pb = ProgramBuilder::new();
/// let animal = pb.add_class("Animal");
/// let dog = pb.class("Dog").extends(animal).build();
/// let speak = pb.method(animal, "speak").returns(TypeRef::Prim).build();
/// pb.set_trivial_body(speak, Some(0));
/// let program = pb.finish()?;
/// assert!(program.is_subtype(dog, animal));
/// # Ok::<(), skipflow_ir::ValidationErrors>(())
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    types: Vec<TypeData>,
    methods: Vec<MethodData>,
    fields: Vec<FieldData>,
    selectors: Vec<SelectorData>,
    /// Selector ids by name, then arity.
    selector_index: HashMap<String, Vec<(usize, SelectorId)>>,
    type_by_name: HashMap<String, TypeId>,
    /// Every body attached so far, appended in place.
    pub(crate) bodies: BodyPools,
    /// Variable-name symbols interned into `bodies`.
    pub(crate) symbol_index: HashMap<Box<str>, u32>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Creates a builder with the reserved `null` pseudo-type pre-declared.
    pub fn new() -> Self {
        let mut b = ProgramBuilder {
            types: Vec::new(),
            methods: Vec::new(),
            fields: Vec::new(),
            selectors: Vec::new(),
            selector_index: HashMap::new(),
            type_by_name: HashMap::new(),
            bodies: BodyPools::default(),
            symbol_index: HashMap::new(),
        };
        let null = b.push_type(TypeData {
            name: "null".to_string(),
            kind: TypeKind::AbstractClass,
            superclass: None,
            interfaces: Vec::new(),
            methods: Vec::new(),
            fields: Vec::new(),
        });
        debug_assert_eq!(null, TypeId::NULL);
        b
    }

    fn push_type(&mut self, data: TypeData) -> TypeId {
        assert!(
            !self.type_by_name.contains_key(&data.name),
            "duplicate type name {:?}",
            data.name
        );
        let id = TypeId::from_index(self.types.len());
        self.type_by_name.insert(data.name.clone(), id);
        self.types.push(data);
        id
    }

    /// Declares a concrete class with no superclass.
    pub fn add_class(&mut self, name: &str) -> TypeId {
        self.class(name).build()
    }

    /// Declares a concrete class extending `superclass`.
    pub fn add_class_extending(&mut self, name: &str, superclass: TypeId) -> TypeId {
        self.class(name).extends(superclass).build()
    }

    /// Declares an interface extending the given interfaces.
    pub fn add_interface(&mut self, name: &str, extends: &[TypeId]) -> TypeId {
        self.push_type(TypeData {
            name: name.to_string(),
            kind: TypeKind::Interface,
            superclass: None,
            interfaces: extends.to_vec(),
            methods: Vec::new(),
            fields: Vec::new(),
        })
    }

    /// Starts a fluent class declaration.
    pub fn class<'a>(&'a mut self, name: &str) -> ClassBuilder<'a> {
        ClassBuilder {
            pb: self,
            name: name.to_string(),
            kind: TypeKind::Class,
            superclass: None,
            interfaces: Vec::new(),
        }
    }

    /// Interns the selector `name/arity`.
    pub fn selector(&mut self, name: &str, arity: usize) -> SelectorId {
        // Looked up by `&str`, so declaring a method with a known selector
        // allocates nothing.
        if let Some(&(_, id)) = self
            .selector_index
            .get(name)
            .and_then(|ids| ids.iter().find(|(a, _)| *a == arity))
        {
            return id;
        }
        let id = SelectorId::from_index(self.selectors.len());
        self.selectors.push(SelectorData {
            name: name.to_string(),
            arity,
        });
        self.selector_index.entry(name.to_string()).or_default().push((arity, id));
        id
    }

    /// Declares an instance field.
    pub fn add_field(&mut self, owner: TypeId, name: &str, ty: TypeRef) -> FieldId {
        self.add_field_inner(owner, name, ty, false)
    }

    /// Declares a static field.
    pub fn add_static_field(&mut self, owner: TypeId, name: &str, ty: TypeRef) -> FieldId {
        self.add_field_inner(owner, name, ty, true)
    }

    fn add_field_inner(&mut self, owner: TypeId, name: &str, ty: TypeRef, is_static: bool) -> FieldId {
        let id = FieldId::from_index(self.fields.len());
        self.fields.push(FieldData {
            name: name.to_string(),
            owner,
            ty,
            is_static,
        });
        self.types[owner.index()].fields.push(id);
        id
    }

    /// Starts a fluent method declaration on `owner`.
    pub fn method<'a>(&'a mut self, owner: TypeId, name: &str) -> MethodDeclBuilder<'a> {
        MethodDeclBuilder {
            pb: self,
            owner,
            name: name.to_string(),
            is_static: false,
            is_abstract: false,
            sig: Signature::void(),
        }
    }

    /// Attaches a body to a previously declared method, appending it to the
    /// program's body pools.
    ///
    /// # Panics
    ///
    /// Panics if the method is abstract or the parameter count disagrees with
    /// the declared signature.
    pub fn set_body(&mut self, m: MethodId, body: Body) {
        let md = &mut self.methods[m.index()];
        assert!(!md.is_abstract, "abstract method {:?} cannot have a body", md.name);
        assert_eq!(
            body.params().len(),
            md.param_count(),
            "body of {:?} declares the wrong parameter count",
            md.name
        );
        md.body = Some(self.bodies.push_body(body, &mut self.symbol_index));
    }

    /// Attaches a body already appended to `self.bodies` (the decoder
    /// writes bodies straight into the pools and checks what
    /// [`ProgramBuilder::set_body`] asserts itself).
    pub(crate) fn attach_body(&mut self, m: MethodId, span: crate::body::BodySpan) {
        self.methods[m.index()].body = Some(span);
    }

    /// Builds a body for `m` with a [`BodyBuilder`] pre-seeded with the
    /// method's parameters, then attaches it.
    pub fn build_body(&mut self, m: MethodId, f: impl FnOnce(&mut BodyBuilder)) {
        let md = &self.methods[m.index()];
        let names: Vec<String> = (0..md.param_count())
            .map(|i| {
                if !md.is_static && i == 0 {
                    "this".to_string()
                } else {
                    format!("p{i}")
                }
            })
            .collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut bb = BodyBuilder::new(&refs);
        f(&mut bb);
        self.set_body(m, bb.finish());
    }

    /// Attaches the simplest possible body: `start(…); return [const]`.
    pub fn set_trivial_body(&mut self, m: MethodId, ret: Option<i64>) {
        self.build_body(m, |bb| {
            let v = ret.map(|n| bb.const_(n));
            bb.ret(v);
        });
    }

    /// Freezes, validates, and returns the program.
    ///
    /// # Errors
    ///
    /// Returns every validation failure found (SSA violations, malformed
    /// block discipline, bad references).
    pub fn finish(mut self) -> Result<Program, ValidationErrors> {
        // The tables and pools grew by doubling; the program keeps exactly
        // their contents.
        self.types.shrink_to_fit();
        self.methods.shrink_to_fit();
        self.fields.shrink_to_fit();
        self.selectors.shrink_to_fit();
        self.bodies.shrink_to_fit();
        let mut program = Program {
            types: self.types,
            methods: self.methods,
            fields: self.fields,
            selectors: self.selectors,
            bodies: self.bodies,
            type_order: Vec::new(),
            subtype_mask: Vec::new(),
            dispatch_runs: Vec::new(),
            dispatch: Vec::new(),
            heap_bytes: 0,
        };
        program.freeze();
        let errors = validate::validate_program(&program);
        if errors.is_empty() {
            Ok(program)
        } else {
            Err(ValidationErrors(errors))
        }
    }
}

/// The collection of validation failures returned by
/// [`ProgramBuilder::finish`].
#[derive(Debug)]
pub struct ValidationErrors(pub Vec<ValidationError>);

impl std::fmt::Display for ValidationErrors {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} validation error(s):", self.0.len())?;
        for e in &self.0 {
            writeln!(f, "  - {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ValidationErrors {}

/// Fluent class declaration, created by [`ProgramBuilder::class`].
#[derive(Debug)]
pub struct ClassBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    name: String,
    kind: TypeKind,
    superclass: Option<TypeId>,
    interfaces: Vec<TypeId>,
}

impl ClassBuilder<'_> {
    /// Sets the superclass.
    pub fn extends(mut self, superclass: TypeId) -> Self {
        self.superclass = Some(superclass);
        self
    }

    /// Adds an implemented interface.
    pub fn implements_(mut self, interface: TypeId) -> Self {
        self.interfaces.push(interface);
        self
    }

    /// Marks the class abstract (not instantiable).
    pub fn abstract_(mut self) -> Self {
        self.kind = TypeKind::AbstractClass;
        self
    }

    /// Declares the class and returns its id.
    pub fn build(self) -> TypeId {
        let ClassBuilder {
            pb,
            name,
            kind,
            superclass,
            interfaces,
        } = self;
        pb.push_type(TypeData {
            name,
            kind,
            superclass,
            interfaces,
            methods: Vec::new(),
            fields: Vec::new(),
        })
    }
}

/// Fluent method declaration, created by [`ProgramBuilder::method`].
#[derive(Debug)]
pub struct MethodDeclBuilder<'a> {
    pb: &'a mut ProgramBuilder,
    owner: TypeId,
    name: String,
    is_static: bool,
    is_abstract: bool,
    sig: Signature,
}

impl MethodDeclBuilder<'_> {
    /// Sets the declared (non-receiver) parameter types.
    pub fn params(mut self, params: Vec<TypeRef>) -> Self {
        self.sig.params = params;
        self
    }

    /// Sets the declared return type (default: void).
    pub fn returns(mut self, ret: TypeRef) -> Self {
        self.sig.ret = ret;
        self
    }

    /// Marks the method static (no receiver, no dynamic dispatch).
    pub fn static_(mut self) -> Self {
        self.is_static = true;
        self
    }

    /// Marks the method abstract (no body; masks inherited implementations).
    pub fn abstract_(mut self) -> Self {
        self.is_abstract = true;
        self
    }

    /// Declares the method and returns its id.
    pub fn build(self) -> MethodId {
        let MethodDeclBuilder {
            pb,
            owner,
            name,
            is_static,
            is_abstract,
            sig,
        } = self;
        let selector = pb.selector(&name, sig.params.len());
        let id = MethodId::from_index(pb.methods.len());
        pb.methods.push(MethodData {
            name,
            owner,
            selector,
            is_static,
            is_abstract,
            sig,
            body: None,
        });
        pb.types[owner.index()].methods.push(id);
        id
    }
}

// ---------------------------------------------------------------------------
// Body construction
// ---------------------------------------------------------------------------

/// Outcome of one branch of an [`BodyBuilder::if_else`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BranchExit {
    /// The branch falls through, carrying these values to the join (both
    /// branches must carry the same number of values).
    Values(Vec<VarId>),
    /// The branch ends with `return` or `throw` and never reaches the join.
    Terminated,
}

impl BranchExit {
    /// A fall-through carrying no values.
    pub fn fallthrough() -> Self {
        BranchExit::Values(Vec::new())
    }

    /// A fall-through carrying one value.
    pub fn value(v: VarId) -> Self {
        BranchExit::Values(vec![v])
    }
}

struct BlockInProgress {
    begin: BlockBegin,
    stmts: Vec<Stmt>,
    end: Option<BlockEnd>,
}

/// Builds one SSA method body.
///
/// The builder maintains a *current block*; statement emitters append to it
/// and control-flow helpers replace it. Once the current block terminates
/// (`return`/`throw`, or an `if_else` whose branches both terminate), further
/// emission panics — structure the code so that dead statements are never
/// emitted.
pub struct BodyBuilder {
    blocks: Vec<BlockInProgress>,
    vars: Vec<VarData>,
    params: Vec<VarId>,
    current: Option<BlockId>,
}

impl BodyBuilder {
    /// Creates a builder whose entry block declares one parameter per name.
    pub fn new(param_names: &[&str]) -> Self {
        let mut vars = Vec::new();
        let params: Vec<VarId> = param_names
            .iter()
            .map(|n| {
                let id = VarId::from_index(vars.len());
                vars.push(VarData { name: (*n).to_string() });
                id
            })
            .collect();
        BodyBuilder {
            blocks: vec![BlockInProgress {
                begin: BlockBegin::Start { params: params.clone() },
                stmts: Vec::new(),
                end: None,
            }],
            vars,
            params,
            current: Some(BlockId::ENTRY),
        }
    }

    /// The parameter variables, receiver first for instance methods.
    pub fn params(&self) -> &[VarId] {
        &self.params
    }

    /// A shorthand for parameter `i`.
    pub fn param(&self, i: usize) -> VarId {
        self.params[i]
    }

    /// Returns `true` once all control paths have terminated; emitting more
    /// statements would panic.
    pub fn is_terminated(&self) -> bool {
        self.current.is_none()
    }

    fn fresh_var(&mut self, name: impl Into<String>) -> VarId {
        let id = VarId::from_index(self.vars.len());
        self.vars.push(VarData { name: name.into() });
        id
    }

    fn cur(&mut self) -> &mut BlockInProgress {
        let id = self.current.expect("all control paths already terminated");
        &mut self.blocks[id.index()]
    }

    fn push_block(&mut self, begin: BlockBegin) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(BlockInProgress {
            begin,
            stmts: Vec::new(),
            end: None,
        });
        id
    }

    fn end_current(&mut self, end: BlockEnd) {
        let b = self.cur();
        assert!(b.end.is_none(), "current block already terminated");
        b.end = Some(end);
        self.current = None;
    }

    // ---- statement emitters ------------------------------------------------

    /// Emits `v ← e` and returns `v`.
    pub fn assign(&mut self, expr: Expr) -> VarId {
        let def = self.fresh_var("v");
        self.cur().stmts.push(Stmt::Assign { def, expr });
        def
    }

    /// Emits `v ← n` and returns `v`.
    pub fn const_(&mut self, n: i64) -> VarId {
        self.assign(Expr::Const(n))
    }

    /// Emits `v ← Any` (opaque arithmetic result) and returns `v`.
    pub fn any_prim(&mut self) -> VarId {
        self.assign(Expr::AnyPrim)
    }

    /// Emits `v ← new T` and returns `v`.
    pub fn new_obj(&mut self, ty: TypeId) -> VarId {
        self.assign(Expr::New(ty))
    }

    /// Emits `v ← null` and returns `v`.
    pub fn null_(&mut self) -> VarId {
        self.assign(Expr::Null)
    }

    /// Emits `v ← object.field` and returns `v`.
    pub fn load(&mut self, object: VarId, field: FieldId) -> VarId {
        let def = self.fresh_var("v");
        self.cur().stmts.push(Stmt::Load { def, object, field });
        def
    }

    /// Emits `object.field ← value`.
    pub fn store(&mut self, object: VarId, field: FieldId, value: VarId) {
        self.cur().stmts.push(Stmt::Store { object, field, value });
    }

    /// Emits a virtual invoke and returns the result variable.
    pub fn invoke(&mut self, receiver: VarId, selector: SelectorId, args: &[VarId]) -> VarId {
        let def = self.fresh_var("v");
        self.cur().stmts.push(Stmt::Invoke {
            def,
            receiver,
            selector,
            args: args.to_vec(),
        });
        def
    }

    /// Emits a static invoke and returns the result variable.
    pub fn invoke_static(&mut self, target: MethodId, args: &[VarId]) -> VarId {
        let def = self.fresh_var("v");
        self.cur().stmts.push(Stmt::InvokeStatic {
            def,
            target,
            args: args.to_vec(),
        });
        def
    }

    /// Emits `v ← catch T` (exception-handler entry) and returns `v`.
    pub fn catch_(&mut self, ty: TypeId) -> VarId {
        let def = self.fresh_var("ex");
        self.cur().stmts.push(Stmt::Catch { def, ty });
        def
    }

    // ---- terminators ---------------------------------------------------------

    /// Ends the body on the current path with `return [v]`.
    pub fn ret(&mut self, v: Option<VarId>) {
        self.end_current(BlockEnd::Return(v));
    }

    /// Ends the body on the current path with `throw v`.
    pub fn throw(&mut self, v: VarId) {
        self.end_current(BlockEnd::Throw(v));
    }

    // ---- structured control flow ----------------------------------------------

    /// Emits `if (cond) { then } else { else }` with a merge afterwards.
    ///
    /// Each closure returns a [`BranchExit`]; fall-through branches must carry
    /// the same number of values, which are joined with φ instructions at the
    /// merge. Returns the joined values (empty when both branches terminate —
    /// in that case the whole builder is terminated).
    ///
    /// # Panics
    ///
    /// Panics if the two fall-through branches carry different value counts.
    pub fn if_else(
        &mut self,
        cond: Cond,
        then_f: impl FnOnce(&mut Self) -> BranchExit,
        else_f: impl FnOnce(&mut Self) -> BranchExit,
    ) -> Vec<VarId> {
        let then_block = self.push_block(BlockBegin::Label);
        let else_block = self.push_block(BlockBegin::Label);
        self.end_current(BlockEnd::If {
            cond,
            then_block,
            else_block,
        });

        self.current = Some(then_block);
        let then_exit = then_f(self);
        let then_end = self.current; // block the branch fell out of, if any

        self.current = Some(else_block);
        let else_exit = else_f(self);
        let else_end = self.current;

        let mut incoming: Vec<(BlockId, Vec<VarId>)> = Vec::new();
        if let BranchExit::Values(vals) = &then_exit {
            incoming.push((then_end.expect("fall-through branch has a current block"), vals.clone()));
        }
        if let BranchExit::Values(vals) = &else_exit {
            incoming.push((else_end.expect("fall-through branch has a current block"), vals.clone()));
        }

        match incoming.len() {
            0 => {
                // Both branches terminated; the builder is now terminated.
                self.current = None;
                Vec::new()
            }
            1 => {
                // Single fall-through: a one-predecessor merge, no φs needed.
                let (pred, vals) = incoming.pop().unwrap();
                let merge = self.push_block(BlockBegin::Merge {
                    phis: Vec::new(),
                    preds: vec![pred],
                });
                self.blocks[pred.index()].end = Some(BlockEnd::Jump(merge));
                self.current = Some(merge);
                vals
            }
            2 => {
                let (then_pred, then_vals) = incoming.remove(0);
                let (else_pred, else_vals) = incoming.remove(0);
                assert_eq!(
                    then_vals.len(),
                    else_vals.len(),
                    "if_else branches must carry the same number of values"
                );
                let mut phis = Vec::new();
                let mut joined = Vec::new();
                for (&tv, &ev) in then_vals.iter().zip(&else_vals) {
                    if tv == ev {
                        joined.push(tv);
                    } else {
                        let def = self.fresh_var("phi");
                        phis.push(Phi {
                            def,
                            args: vec![tv, ev],
                        });
                        joined.push(def);
                    }
                }
                let merge = self.push_block(BlockBegin::Merge {
                    phis,
                    preds: vec![then_pred, else_pred],
                });
                self.blocks[then_pred.index()].end = Some(BlockEnd::Jump(merge));
                self.blocks[else_pred.index()].end = Some(BlockEnd::Jump(merge));
                self.current = Some(merge);
                joined
            }
            _ => unreachable!(),
        }
    }

    /// Emits `if (cond) { then }` with no else-branch values.
    pub fn if_then(&mut self, cond: Cond, then_f: impl FnOnce(&mut Self) -> BranchExit) {
        self.if_else(cond, then_f, |_| BranchExit::fallthrough());
    }

    /// Emits a while loop.
    ///
    /// `carried` are the loop-carried values (initial definitions from before
    /// the loop); the closures receive the corresponding φ definitions from
    /// the loop header. `cond_f` builds the loop condition (emitting into the
    /// header block); `body_f` builds the body and returns the next iteration's
    /// values (same count), or [`BranchExit::Terminated`] if the body never
    /// reaches the back edge.
    ///
    /// Returns the header φ definitions, which hold the values after the loop.
    pub fn while_loop(
        &mut self,
        carried: &[VarId],
        cond_f: impl FnOnce(&mut Self, &[VarId]) -> Cond,
        body_f: impl FnOnce(&mut Self, &[VarId]) -> BranchExit,
    ) -> Vec<VarId> {
        let preheader = self.current.expect("loop emitted on a terminated path");
        let phi_defs: Vec<VarId> = carried.iter().map(|_| self.fresh_var("loop")).collect();
        let phis: Vec<Phi> = phi_defs
            .iter()
            .zip(carried)
            .map(|(&def, &init)| Phi {
                def,
                args: vec![init],
            })
            .collect();
        let header = self.push_block(BlockBegin::Merge {
            phis,
            preds: vec![preheader],
        });
        self.blocks[preheader.index()].end = Some(BlockEnd::Jump(header));
        self.current = Some(header);

        let cond = cond_f(self, &phi_defs);
        let body_block = self.push_block(BlockBegin::Label);
        let exit_block = self.push_block(BlockBegin::Label);
        self.end_current(BlockEnd::If {
            cond,
            then_block: body_block,
            else_block: exit_block,
        });

        self.current = Some(body_block);
        let body_exit = body_f(self, &phi_defs);
        if let BranchExit::Values(next) = body_exit {
            assert_eq!(
                next.len(),
                carried.len(),
                "loop body must produce one value per carried variable"
            );
            let back = self.current.expect("fall-through body has a current block");
            self.blocks[back.index()].end = Some(BlockEnd::Jump(header));
            // Patch the header: add the back edge and the second φ arguments.
            match &mut self.blocks[header.index()].begin {
                BlockBegin::Merge { phis, preds } => {
                    preds.push(back);
                    for (phi, &n) in phis.iter_mut().zip(&next) {
                        phi.args.push(n);
                    }
                }
                _ => unreachable!(),
            }
        }

        self.current = Some(exit_block);
        phi_defs
    }

    // ---- low-level escape hatches -------------------------------------------

    /// Appends a raw statement to the current block.
    pub fn push_stmt(&mut self, stmt: Stmt) {
        self.cur().stmts.push(stmt);
    }

    /// Creates a detached label block (low-level API).
    pub fn raw_label_block(&mut self) -> BlockId {
        self.push_block(BlockBegin::Label)
    }

    /// Creates a detached merge block (low-level API).
    pub fn raw_merge_block(&mut self, phis: Vec<Phi>, preds: Vec<BlockId>) -> BlockId {
        self.push_block(BlockBegin::Merge { phis, preds })
    }

    /// Creates a fresh variable without a defining statement (low-level API;
    /// validation will reject the body unless a definition is added).
    pub fn raw_var(&mut self, name: &str) -> VarId {
        self.fresh_var(name)
    }

    /// Terminates the current block with an arbitrary terminator (low-level
    /// API).
    pub fn raw_end(&mut self, end: BlockEnd) {
        self.end_current(end);
    }

    /// Switches emission to the given block (low-level API).
    pub fn raw_switch_to(&mut self, block: BlockId) {
        self.current = Some(block);
    }

    /// The block currently receiving statements, if the path is live
    /// (low-level API).
    pub fn current_block(&self) -> Option<BlockId> {
        self.current
    }

    /// Terminates an arbitrary block (low-level API).
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn raw_end_block(&mut self, block: BlockId, end: BlockEnd) {
        let b = &mut self.blocks[block.index()];
        assert!(b.end.is_none(), "block {block} already terminated");
        b.end = Some(end);
        if self.current == Some(block) {
            self.current = None;
        }
    }

    /// Adds a predecessor and one φ argument per φ to a merge block
    /// (low-level API used for loop back edges).
    ///
    /// # Panics
    ///
    /// Panics if `merge` is not a merge block or the argument count disagrees
    /// with the φ count.
    pub fn patch_merge(&mut self, merge: BlockId, pred: BlockId, args: &[VarId]) {
        match &mut self.blocks[merge.index()].begin {
            BlockBegin::Merge { phis, preds } => {
                assert_eq!(phis.len(), args.len(), "one argument per φ required");
                preds.push(pred);
                for (phi, &a) in phis.iter_mut().zip(args) {
                    phi.args.push(a);
                }
            }
            _ => panic!("{merge} is not a merge block"),
        }
    }

    /// Finalizes the body.
    ///
    /// # Panics
    ///
    /// Panics if any block lacks a terminator (i.e. some control path was
    /// left unfinished).
    pub fn finish(self) -> Body {
        let blocks: Vec<Block> = self
            .blocks
            .into_iter()
            .enumerate()
            .map(|(i, b)| Block {
                begin: b.begin,
                stmts: b.stmts,
                end: b
                    .end
                    .unwrap_or_else(|| panic!("block b{i} left unterminated")),
            })
            .collect();
        Body {
            blocks,
            vars: self.vars,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::CmpOp;

    #[test]
    fn straight_line_body() {
        let mut bb = BodyBuilder::new(&["this"]);
        let c = bb.const_(5);
        bb.ret(Some(c));
        let body = bb.finish();
        assert_eq!(body.blocks.len(), 1);
        assert_eq!(body.params().len(), 1);
        let (pools, span) = crate::body::tests::pooled(body);
        assert_eq!(pools.view(span).instruction_count(), 2);
    }

    #[test]
    fn if_else_creates_diamond_with_phi() {
        let mut bb = BodyBuilder::new(&["this", "x"]);
        let x = bb.param(1);
        let ten = bb.const_(10);
        let joined = bb.if_else(
            Cond::Cmp { op: CmpOp::Lt, lhs: x, rhs: ten },
            |bb| BranchExit::value(bb.const_(1)),
            |bb| BranchExit::value(bb.const_(2)),
        );
        assert_eq!(joined.len(), 1);
        bb.ret(Some(joined[0]));
        let body = bb.finish();
        // entry, then-label, else-label, merge
        assert_eq!(body.blocks.len(), 4);
        match &body.blocks[3].begin {
            BlockBegin::Merge { phis, preds } => {
                assert_eq!(phis.len(), 1);
                assert_eq!(preds.len(), 2);
                assert_eq!(phis[0].args.len(), 2);
            }
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn if_else_same_value_skips_phi() {
        let mut bb = BodyBuilder::new(&["x"]);
        let x = bb.param(0);
        let zero = bb.const_(0);
        let joined = bb.if_else(
            Cond::Cmp { op: CmpOp::Eq, lhs: x, rhs: zero },
            |_| BranchExit::value(x),
            |_| BranchExit::value(x),
        );
        assert_eq!(joined, vec![x]);
        bb.ret(Some(joined[0]));
        let body = bb.finish();
        match &body.blocks[3].begin {
            BlockBegin::Merge { phis, .. } => assert!(phis.is_empty()),
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn if_else_one_branch_terminates() {
        let mut bb = BodyBuilder::new(&["x"]);
        let x = bb.param(0);
        let zero = bb.const_(0);
        bb.if_else(
            Cond::Cmp { op: CmpOp::Eq, lhs: x, rhs: zero },
            |bb| {
                bb.ret(None);
                BranchExit::Terminated
            },
            |_| BranchExit::fallthrough(),
        );
        bb.ret(None);
        let body = bb.finish();
        // entry, then, else, single-pred merge
        assert_eq!(body.blocks.len(), 4);
        match &body.blocks[3].begin {
            BlockBegin::Merge { preds, .. } => assert_eq!(preds.len(), 1),
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn both_branches_terminated_terminates_builder() {
        let mut bb = BodyBuilder::new(&["x"]);
        let x = bb.param(0);
        let zero = bb.const_(0);
        bb.if_else(
            Cond::Cmp { op: CmpOp::Eq, lhs: x, rhs: zero },
            |bb| {
                bb.ret(None);
                BranchExit::Terminated
            },
            |bb| {
                bb.ret(None);
                BranchExit::Terminated
            },
        );
        assert!(bb.is_terminated());
        let body = bb.finish();
        assert_eq!(body.blocks.len(), 3);
    }

    #[test]
    fn while_loop_builds_header_phis_and_back_edge() {
        let mut bb = BodyBuilder::new(&[]);
        let zero = bb.const_(0);
        let ten = bb.const_(10);
        let after = bb.while_loop(
            &[zero],
            |_, phis| Cond::Cmp { op: CmpOp::Lt, lhs: phis[0], rhs: ten },
            |bb, _| BranchExit::Values(vec![bb.any_prim()]),
        );
        bb.ret(Some(after[0]));
        let body = bb.finish();
        // entry, header(merge), body(label), exit(label)
        assert_eq!(body.blocks.len(), 4);
        match &body.blocks[1].begin {
            BlockBegin::Merge { phis, preds } => {
                assert_eq!(preds.len(), 2);
                assert_eq!(phis.len(), 1);
                assert_eq!(phis[0].args.len(), 2);
                // Back edge: second predecessor has a larger id than header.
                assert!(preds[1].index() > 1);
            }
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn emitting_after_termination_panics() {
        let mut bb = BodyBuilder::new(&[]);
        bb.ret(None);
        let _ = bb.const_(1);
    }

    #[test]
    #[should_panic(expected = "unterminated")]
    fn finish_rejects_open_blocks() {
        let mut bb = BodyBuilder::new(&[]);
        let _ = bb.const_(1);
        let _ = bb.finish();
    }
}
