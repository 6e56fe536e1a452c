//! Types, fields, methods, and selectors of the base language.

use crate::ids::{FieldId, MethodId, SelectorId, TypeId};
use std::fmt;

/// The kind of a declared type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// A concrete class; instantiable with `new`.
    Class,
    /// An abstract class; participates in dispatch but cannot be instantiated.
    AbstractClass,
    /// An interface; cannot be instantiated, cannot declare fields here.
    Interface,
}

impl TypeKind {
    /// Returns `true` if values of this type can be created with `new`.
    pub fn is_instantiable(self) -> bool {
        matches!(self, TypeKind::Class)
    }
}

/// A declared type (class or interface).
#[derive(Clone, Debug)]
pub struct TypeData {
    /// Source-level name, unique within a program.
    pub name: String,
    /// Class, abstract class, or interface.
    pub kind: TypeKind,
    /// Direct superclass. `None` for root classes, interfaces, and the
    /// reserved `null` pseudo-type.
    pub superclass: Option<TypeId>,
    /// Directly implemented (class) or extended (interface) interfaces.
    pub interfaces: Vec<TypeId>,
    /// Methods declared directly on this type.
    pub(crate) methods: Vec<MethodId>,
    /// Fields declared directly on this type.
    pub(crate) fields: Vec<FieldId>,
}

impl TypeData {
    /// Methods declared directly on this type (excluding inherited ones).
    pub fn declared_methods(&self) -> &[MethodId] {
        &self.methods
    }

    /// Fields declared directly on this type (excluding inherited ones).
    pub fn declared_fields(&self) -> &[FieldId] {
        &self.fields
    }
}

/// A declared (static) type annotation: the type of a parameter, field, or
/// return value.
///
/// The base language distinguishes only primitives and object references —
/// boolean values are integers 0/1 per the JVM specification (paper §5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TypeRef {
    /// No value; only valid as a method return type. Per the paper, a void
    /// method still returns an artificial token so invokes act as predicates.
    Void,
    /// A primitive (integer-like) value.
    Prim,
    /// A reference of the given declared class/interface type (may be null).
    Object(TypeId),
}

impl TypeRef {
    /// Returns `true` for [`TypeRef::Object`].
    pub fn is_object(self) -> bool {
        matches!(self, TypeRef::Object(_))
    }

    /// Returns the object type id, if any.
    pub fn object_type(self) -> Option<TypeId> {
        match self {
            TypeRef::Object(t) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for TypeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeRef::Void => write!(f, "void"),
            TypeRef::Prim => write!(f, "int"),
            TypeRef::Object(t) => write!(f, "{t}"),
        }
    }
}

/// A field declaration.
#[derive(Clone, Debug)]
pub struct FieldData {
    /// Source-level name, unique within the declaring type.
    pub name: String,
    /// Declaring type.
    pub owner: TypeId,
    /// Declared type of the stored value.
    pub ty: TypeRef,
    /// Whether the field is static (one global location instead of one per
    /// object). Static fields still get a single flow in the analysis, which
    /// matches the context-insensitive treatment of instance fields.
    pub is_static: bool,
}

/// A method selector: dispatch key consisting of a name and an argument count
/// (receiver excluded).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SelectorData {
    /// Method name.
    pub name: String,
    /// Number of declared (non-receiver) parameters.
    pub arity: usize,
}

/// A method signature: declared parameter types (receiver excluded) and the
/// return type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Signature {
    /// Declared types of the non-receiver parameters.
    pub params: Vec<TypeRef>,
    /// Declared return type.
    pub ret: TypeRef,
}

impl Signature {
    /// A signature with no parameters and a void return.
    pub fn void() -> Self {
        Signature {
            params: Vec::new(),
            ret: TypeRef::Void,
        }
    }

    /// Creates a signature from parameter types and a return type.
    pub fn new(params: Vec<TypeRef>, ret: TypeRef) -> Self {
        Signature { params, ret }
    }
}

/// A method declaration, possibly with a body.
#[derive(Clone, Debug)]
pub struct MethodData {
    /// Source-level name.
    pub name: String,
    /// Declaring type.
    pub owner: TypeId,
    /// Dispatch selector (name + arity).
    pub selector: SelectorId,
    /// Static methods have no receiver and are not dispatched virtually.
    pub is_static: bool,
    /// Abstract methods have no body and make inherited concrete
    /// implementations invisible to resolution (as in Java).
    pub is_abstract: bool,
    /// Declared signature.
    pub sig: Signature,
    /// Where the SSA body sits in the program's body pools; `None` for
    /// abstract methods. Read it through [`crate::Program::body`].
    pub(crate) body: Option<crate::body::BodySpan>,
}

impl MethodData {
    /// Whether the method has a body (every concrete method does).
    pub fn has_body(&self) -> bool {
        self.body.is_some()
    }

    /// Number of formal parameters of the body, including the receiver for
    /// instance methods.
    pub fn param_count(&self) -> usize {
        self.sig.params.len() + usize::from(!self.is_static)
    }

    /// Declared type of body parameter `i` (receiver included for instance
    /// methods: index 0 is the receiver, typed as the owner).
    pub fn param_type(&self, i: usize) -> TypeRef {
        if self.is_static {
            self.sig.params[i]
        } else if i == 0 {
            TypeRef::Object(self.owner)
        } else {
            self.sig.params[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_kind_instantiable() {
        assert!(TypeKind::Class.is_instantiable());
        assert!(!TypeKind::AbstractClass.is_instantiable());
        assert!(!TypeKind::Interface.is_instantiable());
    }

    #[test]
    fn type_ref_accessors() {
        let t = TypeId::from_index(5);
        assert!(TypeRef::Object(t).is_object());
        assert_eq!(TypeRef::Object(t).object_type(), Some(t));
        assert_eq!(TypeRef::Prim.object_type(), None);
        assert!(!TypeRef::Void.is_object());
    }

    #[test]
    fn type_ref_display() {
        assert_eq!(TypeRef::Void.to_string(), "void");
        assert_eq!(TypeRef::Prim.to_string(), "int");
        assert_eq!(TypeRef::Object(TypeId::from_index(2)).to_string(), "t2");
    }

    #[test]
    fn method_param_indexing() {
        let owner = TypeId::from_index(1);
        let m = MethodData {
            name: "m".into(),
            owner,
            selector: SelectorId::from_index(0),
            is_static: false,
            is_abstract: false,
            sig: Signature::new(vec![TypeRef::Prim], TypeRef::Void),
            body: None,
        };
        assert_eq!(m.param_count(), 2);
        assert_eq!(m.param_type(0), TypeRef::Object(owner));
        assert_eq!(m.param_type(1), TypeRef::Prim);

        let s = MethodData { is_static: true, ..m };
        assert_eq!(s.param_count(), 1);
        assert_eq!(s.param_type(0), TypeRef::Prim);
    }
}
