//! A compact binary serialization of programs — the "class-file" format of
//! the base language.
//!
//! GraalVM Native Image consumes Java class files; this module provides the
//! equivalent distribution format for the reproduction: benchmark corpora
//! can be encoded once and shipped/loaded without re-running the generator
//! or the frontend. The format (`SFBC`, *SkipFlow bytecode*) is:
//!
//! ```text
//! magic "SFBC"  u32 version
//! string table  (shared by all names)
//! type table    (kind, superclass, interfaces)
//! selector table
//! field table
//! method table  (flags, signature, optional body)
//! ```
//!
//! Decoding rebuilds the program through [`ProgramBuilder`], so every
//! decoded program passes the same validation as freshly built ones, and
//! ids round-trip exactly (tables are written in id order). Bodies are
//! decoded straight into the builder's body pools, with no owned body in
//! between. Every count read from the input is checked against the bytes
//! that remain before anything is reserved for it, so a forged count
//! fails as [`DecodeError::Truncated`] instead of reserving memory the
//! input could never fill.

use crate::body::{BlockBegin, BlockRec, BodySpan, BodyView, Phi, Span};
use crate::builder::ProgramBuilder;
use crate::ids::{BlockId, FieldId, MethodId, SelectorId, TypeId, VarId};
use crate::instr::{BlockEnd, CmpOp, Cond, Expr, Stmt};
use crate::program::Program;
use crate::types::{TypeKind, TypeRef};
use std::collections::HashMap;
use std::fmt;

const MAGIC: &[u8; 4] = b"SFBC";
const VERSION: u32 = 1;

/// A decoding failure.
#[derive(Debug)]
pub enum DecodeError {
    /// Wrong magic bytes or version.
    BadHeader,
    /// Input ended early or an index was out of range.
    Truncated(&'static str),
    /// An enum tag byte had no meaning.
    BadTag(&'static str, u8),
    /// A string was not valid UTF-8.
    BadString,
    /// An id referenced an entity that does not exist, or tables are
    /// structurally inconsistent.
    Malformed(&'static str),
    /// The decoded program failed IR validation.
    Invalid(crate::builder::ValidationErrors),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad magic or unsupported version"),
            DecodeError::Truncated(what) => write!(f, "truncated input while reading {what}"),
            DecodeError::BadTag(what, tag) => write!(f, "invalid tag {tag} for {what}"),
            DecodeError::BadString => write!(f, "invalid UTF-8 in string table"),
            DecodeError::Malformed(what) => write!(f, "malformed reference: {what}"),
            DecodeError::Invalid(e) => write!(f, "decoded program failed validation: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
    strings: Vec<String>,
    string_index: HashMap<String, u32>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str_ref(&mut self, s: &str) {
        let idx = match self.string_index.get(s) {
            Some(&i) => i,
            None => {
                let i = self.strings.len() as u32;
                self.strings.push(s.to_string());
                self.string_index.insert(s.to_string(), i);
                i
            }
        };
        self.u32(idx);
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        self.u32(v.unwrap_or(u32::MAX));
    }
    fn type_ref(&mut self, t: TypeRef) {
        match t {
            TypeRef::Void => self.u8(0),
            TypeRef::Prim => self.u8(1),
            TypeRef::Object(id) => {
                self.u8(2);
                self.u32(id.as_u32());
            }
        }
    }
}

/// Serializes a program to the `SFBC` byte format.
///
/// # Examples
///
/// ```
/// use skipflow_ir::encode::{decode, encode};
/// use skipflow_ir::frontend::compile;
///
/// let program = compile("class Main { static method main(): void { return; } }")?;
/// let bytes = encode(&program);
/// assert!(bytes.starts_with(b"SFBC"));
/// let back = decode(&bytes).expect("round-trips");
/// assert_eq!(program.method_count(), back.method_count());
/// # Ok::<(), skipflow_ir::frontend::FrontendError>(())
/// ```
pub fn encode(program: &Program) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::new(),
        strings: Vec::new(),
        string_index: HashMap::new(),
    };
    // Body payload is written after the header tables, but string refs are
    // interned while writing, so assemble payload first, then splice the
    // string table in front.
    let mut payload = Writer {
        buf: Vec::new(),
        strings: std::mem::take(&mut w.strings),
        string_index: std::mem::take(&mut w.string_index),
    };
    let p = &mut payload;

    // Types (skipping the reserved null pseudo-type).
    p.u32(program.type_count() as u32 - 1);
    for t in program.iter_types().skip(1) {
        let td = program.type_data(t);
        p.str_ref(&td.name);
        p.u8(match td.kind {
            TypeKind::Class => 0,
            TypeKind::AbstractClass => 1,
            TypeKind::Interface => 2,
        });
        p.opt_u32(td.superclass.map(|s| s.as_u32()));
        p.u32(td.interfaces.len() as u32);
        for i in &td.interfaces {
            p.u32(i.as_u32());
        }
    }

    // Selectors.
    p.u32(program.selector_count() as u32);
    for i in 0..program.selector_count() {
        let s = program.selector(SelectorId::from_index(i));
        p.str_ref(&s.name);
        p.u32(s.arity as u32);
    }

    // Fields.
    p.u32(program.field_count() as u32);
    for f in program.iter_fields() {
        let fd = program.field(f);
        p.str_ref(&fd.name);
        p.u32(fd.owner.as_u32());
        p.type_ref(fd.ty);
        p.u8(fd.is_static as u8);
    }

    // Methods.
    p.u32(program.method_count() as u32);
    for m in program.iter_methods() {
        let md = program.method(m);
        p.str_ref(&md.name);
        p.u32(md.owner.as_u32());
        p.u8(md.is_static as u8 | ((md.is_abstract as u8) << 1));
        p.u32(md.sig.params.len() as u32);
        for param in &md.sig.params {
            p.type_ref(*param);
        }
        p.type_ref(md.sig.ret);
        match program.body(m) {
            None => p.u8(0),
            Some(body) => {
                p.u8(1);
                encode_body(p, body);
            }
        }
    }

    // Header + string table + payload.
    w.buf.extend_from_slice(MAGIC);
    w.u32(VERSION);
    w.u32(payload.strings.len() as u32);
    for s in &payload.strings {
        w.u32(s.len() as u32);
        w.buf.extend_from_slice(s.as_bytes());
    }
    w.buf.extend_from_slice(&payload.buf);
    w.buf
}

fn encode_body(p: &mut Writer, body: BodyView<'_>) {
    p.u32(body.var_count() as u32);
    for v in 0..body.var_count() {
        p.str_ref(body.var_name(VarId::from_index(v)));
    }
    p.u32(body.block_count() as u32);
    for (_, block) in body.iter_blocks() {
        match block.begin() {
            BlockBegin::Start { params } => {
                p.u8(0);
                p.u32(params.len() as u32);
                for v in params {
                    p.u32(v.as_u32());
                }
            }
            BlockBegin::Merge { phis, preds } => {
                p.u8(1);
                p.u32(preds.len() as u32);
                for b in preds {
                    p.u32(b.as_u32());
                }
                p.u32(phis.len() as u32);
                for phi in phis {
                    p.u32(phi.def.as_u32());
                    for a in phi.args {
                        p.u32(a.as_u32());
                    }
                }
            }
            BlockBegin::Label => p.u8(2),
        }
        p.u32(block.stmt_count() as u32);
        for stmt in block.stmts() {
            encode_stmt(p, stmt);
        }
        encode_end(p, block.end());
    }
}

fn encode_stmt(p: &mut Writer, stmt: Stmt<&[VarId]>) {
    match stmt {
        Stmt::Assign { def, expr } => {
            p.u8(0);
            p.u32(def.as_u32());
            match expr {
                Expr::Const(n) => {
                    p.u8(0);
                    p.i64(n);
                }
                Expr::AnyPrim => p.u8(1),
                Expr::New(t) => {
                    p.u8(2);
                    p.u32(t.as_u32());
                }
                Expr::Null => p.u8(3),
            }
        }
        Stmt::Load { def, object, field } => {
            p.u8(1);
            p.u32(def.as_u32());
            p.u32(object.as_u32());
            p.u32(field.as_u32());
        }
        Stmt::Store { object, field, value } => {
            p.u8(2);
            p.u32(object.as_u32());
            p.u32(field.as_u32());
            p.u32(value.as_u32());
        }
        Stmt::Invoke { def, receiver, selector, args } => {
            p.u8(3);
            p.u32(def.as_u32());
            p.u32(receiver.as_u32());
            p.u32(selector.as_u32());
            p.u32(args.len() as u32);
            for a in args {
                p.u32(a.as_u32());
            }
        }
        Stmt::InvokeStatic { def, target, args } => {
            p.u8(4);
            p.u32(def.as_u32());
            p.u32(target.as_u32());
            p.u32(args.len() as u32);
            for a in args {
                p.u32(a.as_u32());
            }
        }
        Stmt::Catch { def, ty } => {
            p.u8(5);
            p.u32(def.as_u32());
            p.u32(ty.as_u32());
        }
    }
}

fn encode_end(p: &mut Writer, end: BlockEnd) {
    match end {
        BlockEnd::Return(v) => {
            p.u8(0);
            p.opt_u32(v.map(|v| v.as_u32()));
        }
        BlockEnd::Jump(t) => {
            p.u8(1);
            p.u32(t.as_u32());
        }
        BlockEnd::If { cond, then_block, else_block } => {
            p.u8(2);
            match cond {
                Cond::Cmp { op, lhs, rhs } => {
                    p.u8(0);
                    p.u8(match op {
                        CmpOp::Eq => 0,
                        CmpOp::Ne => 1,
                        CmpOp::Lt => 2,
                        CmpOp::Le => 3,
                        CmpOp::Gt => 4,
                        CmpOp::Ge => 5,
                    });
                    p.u32(lhs.as_u32());
                    p.u32(rhs.as_u32());
                }
                Cond::InstanceOf { var, ty, negated } => {
                    p.u8(1);
                    p.u32(var.as_u32());
                    p.u32(ty.as_u32());
                    p.u8(negated as u8);
                }
            }
            p.u32(then_block.as_u32());
            p.u32(else_block.as_u32());
        }
        BlockEnd::Throw(v) => {
            p.u8(3);
            p.u32(v.as_u32());
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// The string table, borrowed from `buf`.
    strings: Vec<&'a str>,
}

impl<'a> Reader<'a> {
    fn u8(&mut self, what: &'static str) -> Result<u8, DecodeError> {
        let v = *self.buf.get(self.pos).ok_or(DecodeError::Truncated(what))?;
        self.pos += 1;
        Ok(v)
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, DecodeError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 4)
            .ok_or(DecodeError::Truncated(what))?;
        self.pos += 4;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }
    fn i64(&mut self, what: &'static str) -> Result<i64, DecodeError> {
        let bytes = self
            .buf
            .get(self.pos..self.pos + 8)
            .ok_or(DecodeError::Truncated(what))?;
        self.pos += 8;
        Ok(i64::from_le_bytes(bytes.try_into().unwrap()))
    }
    /// Reads a count of items that each take at least `min_bytes` of the
    /// input, rejecting one the remaining bytes cannot hold — so the count
    /// can size a reservation.
    fn count(&mut self, what: &'static str, min_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_bytes) > self.buf.len() - self.pos {
            return Err(DecodeError::Truncated(what));
        }
        Ok(n)
    }
    /// Reads a string-table index.
    fn str_index(&mut self, what: &'static str) -> Result<usize, DecodeError> {
        let idx = self.u32(what)? as usize;
        if idx < self.strings.len() {
            Ok(idx)
        } else {
            Err(DecodeError::Truncated(what))
        }
    }
    /// Reads a string-table index and lends the string; callers copy only
    /// what they keep.
    fn str_ref(&mut self, what: &'static str) -> Result<&'a str, DecodeError> {
        let idx = self.str_index(what)?;
        Ok(self.strings[idx])
    }
    fn opt_u32(&mut self, what: &'static str) -> Result<Option<u32>, DecodeError> {
        let v = self.u32(what)?;
        Ok(if v == u32::MAX { None } else { Some(v) })
    }
    fn type_ref(&mut self) -> Result<TypeRef, DecodeError> {
        match self.u8("type-ref tag")? {
            0 => Ok(TypeRef::Void),
            1 => Ok(TypeRef::Prim),
            2 => Ok(TypeRef::Object(TypeId::from_index(
                self.u32("type-ref id")? as usize,
            ))),
            t => Err(DecodeError::BadTag("type-ref", t)),
        }
    }
    fn var(&mut self, what: &'static str) -> Result<VarId, DecodeError> {
        Ok(VarId::from_index(self.u32(what)? as usize))
    }
    fn block(&mut self, what: &'static str) -> Result<BlockId, DecodeError> {
        Ok(BlockId::from_index(self.u32(what)? as usize))
    }
}

/// Deserializes a program from the `SFBC` byte format, re-running full
/// validation.
///
/// # Errors
///
/// Returns [`DecodeError`] on malformed input or if the decoded program
/// fails IR validation.
pub fn decode(bytes: &[u8]) -> Result<Program, DecodeError> {
    let mut r = Reader {
        buf: bytes,
        pos: 0,
        strings: Vec::new(),
    };
    if bytes.len() < 8 || &bytes[..4] != MAGIC {
        return Err(DecodeError::BadHeader);
    }
    r.pos = 4;
    if r.u32("version")? != VERSION {
        return Err(DecodeError::BadHeader);
    }
    let n_strings = r.count("string count", 4)?;
    r.strings.reserve_exact(n_strings);
    for _ in 0..n_strings {
        let len = r.u32("string length")? as usize;
        let bytes = r
            .buf
            .get(r.pos..r.pos + len)
            .ok_or(DecodeError::Truncated("string bytes"))?;
        r.pos += len;
        r.strings
            .push(std::str::from_utf8(bytes).map_err(|_| DecodeError::BadString)?);
    }

    let mut pb = ProgramBuilder::new();

    // Types. All indices are range-checked against the tables decoded so
    // far (or, for forward-referencing tables, the declared totals), so
    // corrupted inputs fail with an error rather than a panic deeper in the
    // builder.
    let n_types = r.count("type count", MIN_TYPE_BYTES)?;
    let total_types = n_types + 1; // + the reserved null pseudo-type
    let mut seen_names = std::collections::HashSet::new();
    for declared in 0..n_types {
        let name = r.str_ref("type name")?;
        if !seen_names.insert(name) {
            return Err(DecodeError::Malformed("duplicate type name"));
        }
        let kind = r.u8("type kind")?;
        let superclass = r.opt_u32("superclass")?;
        let n_ifaces = r.count("interface count", 4)?;
        if n_ifaces > n_types {
            return Err(DecodeError::Malformed("interface list longer than type table"));
        }
        let mut ifaces = Vec::with_capacity(n_ifaces);
        for _ in 0..n_ifaces {
            let i = r.u32("interface id")? as usize;
            // Supertypes must precede subtypes: only earlier ids are legal.
            if i == 0 || i > declared {
                return Err(DecodeError::Malformed("interface id out of range"));
            }
            ifaces.push(TypeId::from_index(i));
        }
        match kind {
            2 => {
                pb.add_interface(name, &ifaces);
            }
            k @ (0 | 1) => {
                let mut cb = pb.class(name);
                if let Some(s) = superclass {
                    let s = s as usize;
                    if s == 0 || s > declared {
                        return Err(DecodeError::Malformed("superclass id out of range"));
                    }
                    cb = cb.extends(TypeId::from_index(s));
                }
                for i in ifaces {
                    cb = cb.implements_(i);
                }
                if k == 1 {
                    cb = cb.abstract_();
                }
                cb.build();
            }
            t => return Err(DecodeError::BadTag("type kind", t)),
        }
    }

    let check_type = |idx: u32| -> Result<TypeId, DecodeError> {
        if (idx as usize) < total_types {
            Ok(TypeId::from_index(idx as usize))
        } else {
            Err(DecodeError::Malformed("type id out of range"))
        }
    };
    let check_type_ref = |t: TypeRef| -> Result<TypeRef, DecodeError> {
        if let TypeRef::Object(id) = t {
            if id.index() >= total_types {
                return Err(DecodeError::Malformed("type id out of range"));
            }
        }
        Ok(t)
    };

    // Selectors (interned in id order so ids round-trip).
    let n_selectors = r.count("selector count", MIN_SELECTOR_BYTES)?;
    for _ in 0..n_selectors {
        let name = r.str_ref("selector name")?;
        let arity = r.u32("selector arity")? as usize;
        pb.selector(name, arity);
    }

    // Fields.
    let n_fields = r.count("field count", MIN_FIELD_BYTES)?;
    for _ in 0..n_fields {
        let name = r.str_ref("field name")?;
        let owner = check_type(r.u32("field owner")?)?;
        let ty = check_type_ref(r.type_ref()?)?;
        let is_static = r.u8("field static flag")? != 0;
        if is_static {
            pb.add_static_field(owner, name, ty);
        } else {
            pb.add_field(owner, name, ty);
        }
    }

    // Methods. A body may reference later methods, so its ids are checked
    // against the declared method count.
    let n_methods = r.count("method count", MIN_METHOD_BYTES)?;
    let limits = Limits {
        types: total_types,
        selectors: n_selectors,
        fields: n_fields,
        methods: n_methods,
    };
    // The symbol each string-table entry interned to as a variable name.
    let mut var_syms = vec![u32::MAX; r.strings.len()];
    for _ in 0..n_methods {
        let name = r.str_ref("method name")?;
        let owner = check_type(r.u32("method owner")?)?;
        let flags = r.u8("method flags")?;
        let n_params = r.count("param count", 1)?;
        if n_params > 1 << 16 {
            return Err(DecodeError::Malformed("absurd parameter count"));
        }
        let mut params = Vec::with_capacity(n_params);
        for _ in 0..n_params {
            params.push(check_type_ref(r.type_ref()?)?);
        }
        let ret = check_type_ref(r.type_ref()?)?;
        let is_static = flags & 1 != 0;
        let is_abstract = flags & 2 != 0;
        let expected_body_params = n_params + usize::from(!is_static);
        let mut mb = pb.method(owner, name).params(params).returns(ret);
        if is_static {
            mb = mb.static_();
        }
        if is_abstract {
            mb = mb.abstract_();
        }
        let mid = mb.build();
        if r.u8("body flag")? != 0 {
            if is_abstract {
                return Err(DecodeError::Malformed("abstract method with a body"));
            }
            let span = decode_body(&mut r, &limits, &mut pb, &mut var_syms)?;
            // Check what set_body asserts, so corruption errors cleanly.
            let entry = (span.blocks.len() > 0).then(|| pb.bodies.blocks[span.blocks.start as usize].begin);
            match entry {
                Some(BlockBegin::Start { params }) if params.len() == expected_body_params => {}
                _ => return Err(DecodeError::Malformed("body entry/parameter mismatch")),
            }
            pb.attach_body(mid, span);
        }
    }
    pb.finish().map_err(DecodeError::Invalid)
}

/// The fewest bytes each item of a counted list takes in the input: what a
/// count is checked against before it sizes a reservation.
const MIN_TYPE_BYTES: usize = 13; // name, kind, superclass, interface count
const MIN_SELECTOR_BYTES: usize = 8; // name, arity
const MIN_FIELD_BYTES: usize = 10; // name, owner, type tag, static flag
const MIN_METHOD_BYTES: usize = 15; // name, owner, flags, param count, return tag, body flag
const MIN_BLOCK_BYTES: usize = 10; // `label` tag, statement count, `return`/`jump`/`throw`
const MIN_STMT_BYTES: usize = 6; // `v ← any` / `v ← null`

/// Table sizes used for id range checks while decoding bodies.
struct Limits {
    types: usize,
    selectors: usize,
    fields: usize,
    methods: usize,
}

/// Id range checks inside one body.
struct BodyLimits {
    vars: usize,
    blocks: usize,
}

impl BodyLimits {
    fn var(&self, v: VarId) -> Result<VarId, DecodeError> {
        if v.index() < self.vars {
            Ok(v)
        } else {
            Err(DecodeError::Malformed("variable id out of range"))
        }
    }
    fn block(&self, b: BlockId) -> Result<BlockId, DecodeError> {
        if b.index() < self.blocks {
            Ok(b)
        } else {
            Err(DecodeError::Malformed("block id out of range"))
        }
    }
}

impl Limits {
    fn ty(&self, idx: u32) -> Result<TypeId, DecodeError> {
        if (idx as usize) < self.types {
            Ok(TypeId::from_index(idx as usize))
        } else {
            Err(DecodeError::Malformed("type id out of range"))
        }
    }
    fn selector(&self, idx: u32) -> Result<SelectorId, DecodeError> {
        if (idx as usize) < self.selectors {
            Ok(SelectorId::from_index(idx as usize))
        } else {
            Err(DecodeError::Malformed("selector id out of range"))
        }
    }
    fn field(&self, idx: u32) -> Result<FieldId, DecodeError> {
        if (idx as usize) < self.fields {
            Ok(FieldId::from_index(idx as usize))
        } else {
            Err(DecodeError::Malformed("field id out of range"))
        }
    }
    fn method(&self, idx: u32) -> Result<MethodId, DecodeError> {
        if (idx as usize) < self.methods {
            Ok(MethodId::from_index(idx as usize))
        } else {
            Err(DecodeError::Malformed("method id out of range"))
        }
    }
}

/// Decodes one body straight into the builder's pools. `var_syms` caches,
/// per string-table entry, the symbol it interned to.
fn decode_body(
    r: &mut Reader<'_>,
    limits: &Limits,
    pb: &mut ProgramBuilder,
    var_syms: &mut [u32],
) -> Result<BodySpan, DecodeError> {
    let ProgramBuilder { bodies: pools, symbol_index, .. } = pb;
    let n_vars = r.count("var count", 4)?;
    let var_start = pools.var_names.len();
    pools.var_names.reserve(n_vars);
    for _ in 0..n_vars {
        let idx = r.str_index("var name")?;
        if var_syms[idx] == u32::MAX {
            var_syms[idx] = pools.intern(symbol_index, r.strings[idx]);
        }
        pools.var_names.push(var_syms[idx]);
    }
    let n_blocks = r.count("block count", MIN_BLOCK_BYTES)?;
    let bl = BodyLimits {
        vars: n_vars,
        blocks: n_blocks,
    };
    let block_start = pools.blocks.len();
    pools.blocks.reserve(n_blocks);
    for _ in 0..n_blocks {
        let begin = match r.u8("block begin tag")? {
            0 => {
                let n = r.count("param count", 4)?;
                if n > n_vars {
                    return Err(DecodeError::Malformed("param count exceeds variables"));
                }
                let start = pools.vars.len();
                pools.vars.reserve(n);
                for _ in 0..n {
                    pools.vars.push(bl.var(r.var("param var")?)?);
                }
                BlockBegin::Start {
                    params: Span::between(start, pools.vars.len()),
                }
            }
            1 => {
                let n_preds = r.count("pred count", 4)?;
                if n_preds > n_blocks {
                    return Err(DecodeError::Malformed("pred count exceeds blocks"));
                }
                let pred_start = pools.preds.len();
                pools.preds.reserve(n_preds);
                for _ in 0..n_preds {
                    pools.preds.push(bl.block(r.block("pred block")?)?);
                }
                // Each φ is its def plus one argument per predecessor.
                let n_phis = r.count("phi count", 4 * (n_preds + 1))?;
                if n_phis > n_vars {
                    return Err(DecodeError::Malformed("phi count exceeds variables"));
                }
                let phi_start = pools.phis.len();
                pools.phis.reserve(n_phis);
                pools.vars.reserve(n_phis * n_preds);
                for _ in 0..n_phis {
                    let def = bl.var(r.var("phi def")?)?;
                    let args = pools.vars.len();
                    for _ in 0..n_preds {
                        pools.vars.push(bl.var(r.var("phi arg")?)?);
                    }
                    pools.phis.push(Phi {
                        def,
                        args: Span::between(args, pools.vars.len()),
                    });
                }
                BlockBegin::Merge {
                    phis: Span::between(phi_start, pools.phis.len()),
                    preds: Span::between(pred_start, pools.preds.len()),
                }
            }
            2 => BlockBegin::Label,
            t => return Err(DecodeError::BadTag("block begin", t)),
        };
        let n_stmts = r.count("stmt count", MIN_STMT_BYTES)?;
        let stmt_start = pools.stmts.len();
        pools.stmts.reserve(n_stmts);
        for _ in 0..n_stmts {
            let stmt = decode_stmt(r, limits, &bl, &mut pools.vars)?;
            pools.stmts.push(stmt);
        }
        let end = decode_end(r, limits, &bl)?;
        pools.blocks.push(BlockRec {
            begin,
            stmts: Span::between(stmt_start, pools.stmts.len()),
            end,
        });
    }
    Ok(BodySpan {
        blocks: Span::between(block_start, pools.blocks.len()),
        vars: Span::between(var_start, pools.var_names.len()),
    })
}

/// Decodes one statement; call arguments are appended to `vars`.
fn decode_stmt(
    r: &mut Reader<'_>,
    limits: &Limits,
    bl: &BodyLimits,
    vars: &mut Vec<VarId>,
) -> Result<Stmt<Span>, DecodeError> {
    let mut args = |r: &mut Reader<'_>, count: &'static str, arg: &'static str| {
        let n = r.count(count, 4)?;
        if n > bl.vars {
            return Err(DecodeError::Malformed("call arg count exceeds variables"));
        }
        let start = vars.len();
        vars.reserve(n);
        for _ in 0..n {
            vars.push(bl.var(r.var(arg)?)?);
        }
        Ok(Span::between(start, vars.len()))
    };
    Ok(match r.u8("stmt tag")? {
        0 => {
            let def = bl.var(r.var("assign def")?)?;
            let expr = match r.u8("expr tag")? {
                0 => Expr::Const(r.i64("const value")?),
                1 => Expr::AnyPrim,
                2 => Expr::New(limits.ty(r.u32("new type")?)?),
                3 => Expr::Null,
                t => return Err(DecodeError::BadTag("expr", t)),
            };
            Stmt::Assign { def, expr }
        }
        1 => Stmt::Load {
            def: bl.var(r.var("load def")?)?,
            object: bl.var(r.var("load object")?)?,
            field: limits.field(r.u32("load field")?)?,
        },
        2 => Stmt::Store {
            object: bl.var(r.var("store object")?)?,
            field: limits.field(r.u32("store field")?)?,
            value: bl.var(r.var("store value")?)?,
        },
        3 => {
            let def = bl.var(r.var("invoke def")?)?;
            let receiver = bl.var(r.var("invoke receiver")?)?;
            let selector = limits.selector(r.u32("invoke selector")?)?;
            let args = args(r, "invoke arg count", "invoke arg")?;
            Stmt::Invoke { def, receiver, selector, args }
        }
        4 => {
            let def = bl.var(r.var("static invoke def")?)?;
            let target = limits.method(r.u32("static target")?)?;
            let args = args(r, "static arg count", "static arg")?;
            Stmt::InvokeStatic { def, target, args }
        }
        5 => Stmt::Catch {
            def: bl.var(r.var("catch def")?)?,
            ty: limits.ty(r.u32("catch type")?)?,
        },
        t => return Err(DecodeError::BadTag("stmt", t)),
    })
}

fn decode_end(
    r: &mut Reader<'_>,
    limits: &Limits,
    bl: &BodyLimits,
) -> Result<BlockEnd, DecodeError> {
    Ok(match r.u8("end tag")? {
        0 => BlockEnd::Return(match r.opt_u32("return var")? {
            Some(v) => Some(bl.var(VarId::from_index(v as usize))?),
            None => None,
        }),
        1 => BlockEnd::Jump(bl.block(r.block("jump target")?)?),
        2 => {
            let cond = match r.u8("cond tag")? {
                0 => {
                    let op = match r.u8("cmp op")? {
                        0 => CmpOp::Eq,
                        1 => CmpOp::Ne,
                        2 => CmpOp::Lt,
                        3 => CmpOp::Le,
                        4 => CmpOp::Gt,
                        5 => CmpOp::Ge,
                        t => return Err(DecodeError::BadTag("cmp op", t)),
                    };
                    Cond::Cmp {
                        op,
                        lhs: bl.var(r.var("cmp lhs")?)?,
                        rhs: bl.var(r.var("cmp rhs")?)?,
                    }
                }
                1 => Cond::InstanceOf {
                    var: bl.var(r.var("instanceof var")?)?,
                    ty: limits.ty(r.u32("instanceof type")?)?,
                    negated: r.u8("instanceof negated")? != 0,
                },
                t => return Err(DecodeError::BadTag("cond", t)),
            };
            BlockEnd::If {
                cond,
                then_block: bl.block(r.block("then block")?)?,
                else_block: bl.block(r.block("else block")?)?,
            }
        }
        3 => BlockEnd::Throw(bl.var(r.var("throw var")?)?),
        t => return Err(DecodeError::BadTag("end", t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::compile;
    use crate::printer::print_program;

    fn roundtrip(src: &str) {
        let original = compile(src).expect("compiles");
        let bytes = encode(&original);
        let decoded = decode(&bytes).expect("decodes");
        assert_eq!(original.type_count(), decoded.type_count());
        assert_eq!(original.method_count(), decoded.method_count());
        assert_eq!(original.field_count(), decoded.field_count());
        assert_eq!(original.selector_count(), decoded.selector_count());
        assert_eq!(
            print_program(&original),
            print_program(&decoded),
            "printed form must round-trip exactly"
        );
    }

    #[test]
    fn roundtrips_the_kitchen_sink() {
        roundtrip(
            "interface Pet { method speak(): int; }
             abstract class Animal implements Pet { }
             class Dog extends Animal {
               var friend: Animal;
               static var count: int;
               method speak(): int {
                 var f = this.friend;
                 if (f != null) { return f.speak(); }
                 return 1;
               }
             }
             class Err { }
             class Main {
               static method main(): int {
                 var d = new Dog();
                 d.friend = d;
                 Dog.count = 3;
                 var i = 0;
                 while (i < Dog.count) { i = any(); }
                 if (d instanceof Pet) { return d.speak(); }
                 throw new Err();
               }
               static method handler(): Err {
                 var e = catch (Err);
                 return e;
               }
             }",
        );
    }

    #[test]
    fn roundtrips_minimal_program() {
        roundtrip("class Main { static method main(): void { return; } }");
    }

    #[test]
    fn decoded_programs_behave_identically() {
        let src = "
            class Main {
              static method fib(): int {
                var a = 0;
                var b = 1;
                var i = 0;
                while (i < 10) {
                  var t = b;
                  b = any();
                  a = t;
                  i = any();
                }
                return a;
              }
              static method main(): int { return Main.fib(); }
            }";
        let original = compile(src).unwrap();
        let decoded = decode(&encode(&original)).unwrap();
        let main_o = original
            .method_by_name(original.type_by_name("Main").unwrap(), "main")
            .unwrap();
        let main_d = decoded
            .method_by_name(decoded.type_by_name("Main").unwrap(), "main")
            .unwrap();
        let cfg = crate::interp::InterpConfig { seed: 3, ..Default::default() };
        let a = crate::interp::run(&original, main_o, &[], &cfg);
        let b = crate::interp::run(&decoded, main_d, &[], &cfg);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.steps, b.steps);
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(decode(b"JUNK\0\0\0\0"), Err(DecodeError::BadHeader)));
        assert!(matches!(decode(b"SF"), Err(DecodeError::BadHeader)));
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = encode(&compile("class A { static method m(): void { return; } }").unwrap());
        bytes[4] = 99;
        assert!(matches!(decode(&bytes), Err(DecodeError::BadHeader)));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let bytes = encode(
            &compile(
                "class Main { static method main(): int { var x = 1; return x; } }",
            )
            .unwrap(),
        );
        // Chopping the stream at any point must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn rejects_corrupted_tags() {
        let bytes = encode(
            &compile("class Main { static method main(): void { return; } }").unwrap(),
        );
        // Flip every byte one at a time; decoding must never panic (it may
        // still succeed when the byte is not load-bearing).
        for i in 0..bytes.len() {
            let mut m = bytes.clone();
            m[i] ^= 0xFF;
            let _ = decode(&m);
        }
    }
}
