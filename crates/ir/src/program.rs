//! The whole-program container: types, methods, fields, selectors, the
//! pooled method bodies, and the frozen hierarchy caches (subtype masks and
//! virtual-dispatch tables).
//!
//! SkipFlow is a closed-world analysis (it ships inside an ahead-of-time
//! compiler), so the program is immutable once built: [`Program`] values are
//! only produced by [`crate::builder::ProgramBuilder::finish`], which
//! validates the IR and precomputes the caches.
//!
//! # Layout
//!
//! Every method body lives in one set of program-wide pools (blocks,
//! statements, φs, variable lists, predecessors, variable-name symbols; see
//! [`crate::body`]), and a method holds only a `Copy` range record into
//! them. Readers get a [`BodyView`] from [`Program::body`]. The hierarchy
//! caches are flat too: each subtype mask is a banded [`BitSet`] spanning
//! only its own members, dispatch tables are sorted runs in one pool, and
//! the name index is a sorted id list. So the program holds no hash map,
//! its allocation count does not grow with its bodies, and
//! [`Program::heap_bytes`] is a figure summed once when the program is
//! built.

use crate::bitset::BitSet;
use crate::body::{BodyPools, BodyView, Span};
use crate::ids::{FieldId, MethodId, SelectorId, TypeId};
use crate::types::{FieldData, MethodData, SelectorData, TypeData};

/// An immutable, validated whole program.
#[derive(Debug)]
pub struct Program {
    pub(crate) types: Vec<TypeData>,
    pub(crate) methods: Vec<MethodData>,
    pub(crate) fields: Vec<FieldData>,
    pub(crate) selectors: Vec<SelectorData>,
    /// Every method body (see the module docs).
    pub(crate) bodies: BodyPools,
    /// All type ids, sorted by name.
    pub(crate) type_order: Vec<TypeId>,
    /// For each type `t`: the set of types `s` with `s <: t` (including `t`
    /// itself; `null` is never included — nullness is tracked separately in
    /// value states). Each mask's band spans its members only.
    pub(crate) subtype_mask: Vec<BitSet>,
    /// Virtual-dispatch tables: for each type, the run of
    /// `(selector, concrete method)` entries in `dispatch` it resolves
    /// (sorted by selector; `None` marks a selector made abstract again).
    pub(crate) dispatch_runs: Vec<Span>,
    pub(crate) dispatch: Vec<(SelectorId, Option<MethodId>)>,
    /// [`Program::heap_bytes`], summed when the program was built.
    pub(crate) heap_bytes: usize,
}

impl Clone for Program {
    /// A deep copy. Cloned tables hold no spare capacity, so the copy sums
    /// its own [`Program::heap_bytes`].
    fn clone(&self) -> Self {
        let mut copy = Program {
            types: self.types.clone(),
            methods: self.methods.clone(),
            fields: self.fields.clone(),
            selectors: self.selectors.clone(),
            bodies: self.bodies.clone(),
            type_order: self.type_order.clone(),
            subtype_mask: self.subtype_mask.clone(),
            dispatch_runs: self.dispatch_runs.clone(),
            dispatch: self.dispatch.clone(),
            heap_bytes: 0,
        };
        copy.heap_bytes = copy.sum_heap_bytes();
        copy
    }
}

impl Program {
    // ---- basic accessors -------------------------------------------------

    /// The data of type `t`.
    pub fn type_data(&self, t: TypeId) -> &TypeData {
        &self.types[t.index()]
    }

    /// The data of method `m`.
    pub fn method(&self, m: MethodId) -> &MethodData {
        &self.methods[m.index()]
    }

    /// The data of field `f`.
    pub fn field(&self, f: FieldId) -> &FieldData {
        &self.fields[f.index()]
    }

    /// The data of selector `s`.
    pub fn selector(&self, s: SelectorId) -> &SelectorData {
        &self.selectors[s.index()]
    }

    /// The SSA body of method `m`; `None` for abstract methods.
    pub fn body(&self, m: MethodId) -> Option<BodyView<'_>> {
        self.methods[m.index()].body.map(|span| self.bodies.view(span))
    }

    /// Bytes the program holds on the heap: the capacity of every table,
    /// pool, string and mask it owns. Summed once when the program is
    /// built, so reading it is O(1).
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes
    }

    /// Number of declared types, including the `null` pseudo-type.
    pub fn type_count(&self) -> usize {
        self.types.len()
    }

    /// Number of declared methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of declared fields.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Number of selectors.
    pub fn selector_count(&self) -> usize {
        self.selectors.len()
    }

    /// Iterates over all type ids (including [`TypeId::NULL`]).
    pub fn iter_types(&self) -> impl Iterator<Item = TypeId> {
        (0..self.types.len()).map(TypeId::from_index)
    }

    /// Iterates over all method ids.
    pub fn iter_methods(&self) -> impl Iterator<Item = MethodId> {
        (0..self.methods.len()).map(MethodId::from_index)
    }

    /// Iterates over all field ids.
    pub fn iter_fields(&self) -> impl Iterator<Item = FieldId> {
        (0..self.fields.len()).map(FieldId::from_index)
    }

    /// Looks a type up by name.
    pub fn type_by_name(&self, name: &str) -> Option<TypeId> {
        self.type_order
            .binary_search_by(|t| self.types[t.index()].name.as_str().cmp(name))
            .ok()
            .map(|i| self.type_order[i])
    }

    /// Looks a method up by `owner` and name (first match in declaration
    /// order; convenient for tests and examples).
    pub fn method_by_name(&self, owner: TypeId, name: &str) -> Option<MethodId> {
        self.types[owner.index()]
            .methods
            .iter()
            .copied()
            .find(|&m| self.methods[m.index()].name == name)
    }

    /// Looks a field up by `owner` and name (declared fields only).
    pub fn field_by_name(&self, owner: TypeId, name: &str) -> Option<FieldId> {
        self.types[owner.index()]
            .fields
            .iter()
            .copied()
            .find(|&f| self.fields[f.index()].name == name)
    }

    /// A human-readable `Owner.name` label for a method.
    pub fn method_label(&self, m: MethodId) -> String {
        let md = self.method(m);
        format!("{}.{}", self.type_data(md.owner).name, md.name)
    }

    // ---- hierarchy queries -----------------------------------------------

    /// Returns `true` if `sub <: sup` (reflexive; considers superclass chains
    /// and transitively implemented interfaces). The `null` pseudo-type is a
    /// subtype of nothing and has no subtypes.
    pub fn is_subtype(&self, sub: TypeId, sup: TypeId) -> bool {
        self.subtype_mask[sup.index()].contains(sub.index())
    }

    /// The set of subtypes of `t` (including `t`; excluding `null`).
    pub fn subtypes(&self, t: TypeId) -> &BitSet {
        &self.subtype_mask[t.index()]
    }

    /// Returns `true` if `t` can be instantiated with `new`.
    pub fn is_instantiable(&self, t: TypeId) -> bool {
        !t.is_null() && self.types[t.index()].kind.is_instantiable()
    }

    /// JVM-style virtual method resolution: the concrete method invoked when
    /// calling `selector` on a receiver of *runtime* type `t`.
    ///
    /// Returns `None` when `t` is `null`, the selector is not understood by
    /// `t`, or resolution reaches an abstract declaration.
    pub fn resolve(&self, t: TypeId, selector: SelectorId) -> Option<MethodId> {
        if t.is_null() {
            return None;
        }
        let run = &self.dispatch[self.dispatch_runs[t.index()].range()];
        run.binary_search_by_key(&selector, |&(s, _)| s)
            .ok()
            .and_then(|i| run[i].1)
    }

    /// The field named like `field` reached from runtime type `t`, walking
    /// the superclass chain (the paper's `LookUp : T × F ⇀ N`, resolved to
    /// the declaring class so one flow exists per declaration).
    pub fn lookup_field(&self, t: TypeId, field: FieldId) -> Option<FieldId> {
        let owner = self.fields[field.index()].owner;
        if self.is_subtype(t, owner) {
            Some(field)
        } else {
            None
        }
    }

    /// All concrete methods any subtype of `declared` resolves `selector` to
    /// — the dispatch cone used by CHA and by devirtualization reports.
    pub fn dispatch_cone(&self, declared: TypeId, selector: SelectorId) -> Vec<MethodId> {
        let mut out = Vec::new();
        for sub in self.subtypes(declared).iter() {
            let t = TypeId::from_index(sub);
            if let Some(m) = self.resolve(t, selector) {
                if !out.contains(&m) {
                    out.push(m);
                }
            }
        }
        out.sort_unstable();
        out
    }

    // ---- construction helpers (crate-internal) ----------------------------

    /// Builds the name index, the subtype masks and the dispatch tables,
    /// then sums [`Program::heap_bytes`]. Called by the builder after all
    /// declarations are in place; `types` must be topologically ordered
    /// (supertypes before subtypes), which validation checks. A supertype
    /// reference that breaks the order contributes nothing here.
    pub(crate) fn freeze(&mut self) {
        let n = self.types.len();
        let mut order: Vec<TypeId> = self.iter_types().collect();
        order.sort_unstable_by(|a, b| self.types[a.index()].name.cmp(&self.types[b.index()].name));
        self.type_order = order;

        // Supertype closures first (each type's closure is itself plus its
        // direct supertypes' closures, all of smaller id), then inverted
        // into subtype masks. Closures only hold ids up to their own type's,
        // so each mask's members run from its own type to the largest
        // subtype naming it, and the mask is allocated with exactly that
        // band.
        let mut closure: Vec<BitSet> = vec![BitSet::new(); n];
        for i in 0..n {
            if TypeId::from_index(i).is_null() {
                continue;
            }
            let (done, rest) = closure.split_at_mut(i);
            rest[0].insert(i);
            let td = &self.types[i];
            for s in td.superclass.iter().chain(&td.interfaces) {
                if let Some(sup) = done.get(s.index()) {
                    rest[0].union_with(sup);
                }
            }
        }
        let mut last_sub: Vec<Option<usize>> = vec![None; n];
        for (i, c) in closure.iter().enumerate() {
            for sup in c.iter() {
                last_sub[sup] = Some(i);
            }
        }
        let mut masks: Vec<BitSet> = last_sub
            .iter()
            .enumerate()
            .map(|(t, last)| last.map_or_else(BitSet::new, |hi| BitSet::with_band(t, hi)))
            .collect();
        for (i, c) in closure.iter().enumerate() {
            for sup in c.iter() {
                masks[sup].insert(i);
            }
        }
        self.subtype_mask = masks;

        // Dispatch tables: copy the superclass's run, then overlay own
        // declarations (concrete => Some, abstract => None), keeping the run
        // sorted by selector.
        let mut runs = Vec::with_capacity(n);
        let mut dispatch: Vec<(SelectorId, Option<MethodId>)> = Vec::new();
        for i in 0..n {
            let start = dispatch.len();
            if !TypeId::from_index(i).is_null() {
                if let Some(sup) = self.types[i].superclass.filter(|s| s.index() < i) {
                    let run: Span = runs[sup.index()];
                    dispatch.extend_from_within(run.range());
                }
                for &m in &self.types[i].methods {
                    let md = &self.methods[m.index()];
                    if md.is_static {
                        continue;
                    }
                    let entry = (md.selector, if md.is_abstract { None } else { Some(m) });
                    match dispatch[start..].binary_search_by_key(&md.selector, |&(s, _)| s) {
                        Ok(j) => dispatch[start + j] = entry,
                        Err(j) => dispatch.insert(start + j, entry),
                    }
                }
            }
            runs.push(Span::between(start, dispatch.len()));
        }
        dispatch.shrink_to_fit();
        self.dispatch = dispatch;
        self.dispatch_runs = runs;
        self.heap_bytes = self.sum_heap_bytes();
    }

    /// Sums the capacity of everything the program owns on the heap.
    fn sum_heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let types: usize = self
            .types
            .iter()
            .map(|t| t.name.capacity() + cap(&t.interfaces) + cap(&t.methods) + cap(&t.fields))
            .sum();
        let methods: usize = self
            .methods
            .iter()
            .map(|m| m.name.capacity() + cap(&m.sig.params))
            .sum();
        let fields: usize = self.fields.iter().map(|f| f.name.capacity()).sum();
        let selectors: usize = self.selectors.iter().map(|s| s.name.capacity()).sum();
        let masks: usize = self.subtype_mask.iter().map(BitSet::heap_bytes).sum();
        cap(&self.types)
            + types
            + cap(&self.methods)
            + methods
            + cap(&self.fields)
            + fields
            + cap(&self.selectors)
            + selectors
            + self.bodies.heap_bytes()
            + cap(&self.type_order)
            + cap(&self.subtype_mask)
            + masks
            + cap(&self.dispatch_runs)
            + cap(&self.dispatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::types::{Signature, TypeRef};

    /// Object <- A <- B; interface I implemented by B; A.m concrete,
    /// B overrides m; A.n concrete, B re-abstracts? (covered separately)
    fn sample() -> (Program, TypeId, TypeId, TypeId, TypeId, SelectorId) {
        let mut pb = ProgramBuilder::new();
        let object = pb.add_class("Object");
        let i = pb.add_interface("I", &[]);
        let a = pb.class("A").extends(object).build();
        let b = pb.class("B").extends(a).implements_(i).build();
        let sel = pb.selector("m", 0);
        let ma = pb.method(a, "m").returns(TypeRef::Prim).build();
        pb.set_trivial_body(ma, Some(1));
        let mb = pb.method(b, "m").returns(TypeRef::Prim).build();
        pb.set_trivial_body(mb, Some(2));
        let p = pb.finish().expect("valid program");
        (p, object, i, a, b, sel)
    }

    #[test]
    fn subtyping_reflexive_and_transitive() {
        let (p, object, i, a, b, _) = sample();
        assert!(p.is_subtype(a, a));
        assert!(p.is_subtype(b, a));
        assert!(p.is_subtype(b, object));
        assert!(p.is_subtype(b, i));
        assert!(!p.is_subtype(a, i));
        assert!(!p.is_subtype(a, b));
        assert!(!p.is_subtype(TypeId::NULL, object));
    }

    #[test]
    fn subtypes_sets() {
        let (p, object, _, a, b, _) = sample();
        let subs: Vec<_> = p.subtypes(a).iter().map(TypeId::from_index).collect();
        assert_eq!(subs, vec![a, b]);
        assert_eq!(p.subtypes(object).len(), 3); // Object, A, B
    }

    #[test]
    fn resolve_walks_overrides() {
        let (p, _, _, a, b, sel) = sample();
        let ma = p.method_by_name(a, "m").unwrap();
        let mb = p.method_by_name(b, "m").unwrap();
        assert_eq!(p.resolve(a, sel), Some(ma));
        assert_eq!(p.resolve(b, sel), Some(mb));
        assert_eq!(p.resolve(TypeId::NULL, sel), None);
    }

    #[test]
    fn resolve_inherits_from_superclass() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let b = pb.class("B").extends(a).build();
        let m = pb.method(a, "m").returns(TypeRef::Void).build();
        pb.set_trivial_body(m, None);
        let sel = pb.selector("m", 0);
        let p = pb.finish().unwrap();
        assert_eq!(p.resolve(b, sel), Some(p.method_by_name(a, "m").unwrap()));
    }

    #[test]
    fn abstract_declaration_masks_inherited_concrete() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let b = pb.class("B").extends(a).abstract_().build();
        let c = pb.class("C").extends(b).build();
        let m = pb.method(a, "m").returns(TypeRef::Void).build();
        pb.set_trivial_body(m, None);
        // B re-declares m abstract.
        pb.method(b, "m").returns(TypeRef::Void).abstract_().build();
        let sel = pb.selector("m", 0);
        let p = pb.finish().unwrap();
        assert_eq!(p.resolve(b, sel), None);
        // C inherits the abstract entry, not A's concrete one.
        assert_eq!(p.resolve(c, sel), None);
        assert!(p.resolve(a, sel).is_some());
    }

    #[test]
    fn dispatch_cone_collects_targets() {
        let (p, _, _, a, _, sel) = sample();
        let cone = p.dispatch_cone(a, sel);
        assert_eq!(cone.len(), 2);
    }

    #[test]
    fn lookup_field_requires_subtype() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let b = pb.class("B").extends(a).build();
        let c = pb.add_class("C");
        let f = pb.add_field(a, "x", TypeRef::Prim);
        let p = pb.finish().unwrap();
        assert_eq!(p.lookup_field(a, f), Some(f));
        assert_eq!(p.lookup_field(b, f), Some(f));
        assert_eq!(p.lookup_field(c, f), None);
    }

    #[test]
    fn method_signature_helpers() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A");
        let m = pb
            .method(a, "f")
            .params(vec![TypeRef::Prim, TypeRef::Object(a)])
            .returns(TypeRef::Prim)
            .build();
        pb.set_trivial_body(m, Some(0));
        let p = pb.finish().unwrap();
        let md = p.method(m);
        assert_eq!(md.sig, Signature::new(vec![TypeRef::Prim, TypeRef::Object(a)], TypeRef::Prim));
        assert_eq!(md.param_count(), 3);
    }
}
