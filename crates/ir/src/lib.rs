//! # skipflow-ir
//!
//! The base-language substrate of the SkipFlow reproduction: an SSA
//! intermediate representation matching the language of the paper's
//! Appendix B.1, a class hierarchy with JVM-style virtual resolution, builder
//! APIs, a small structured source frontend, validation, and printing.
//!
//! The paper's analysis runs over Java bytecode inside GraalVM Native Image;
//! this crate plays the role of bytecode + Graal IR: programs are either
//! constructed directly with [`ProgramBuilder`]/[`BodyBuilder`] or parsed
//! from the Java-like surface syntax in [`frontend`].
//!
//! ## Quick example
//!
//! ```
//! use skipflow_ir::{ProgramBuilder, TypeRef};
//!
//! let mut pb = ProgramBuilder::new();
//! let animal = pb.add_class("Animal");
//! let dog = pb.class("Dog").extends(animal).build();
//! let speak = pb.method(animal, "speak").returns(TypeRef::Prim).build();
//! pb.set_trivial_body(speak, Some(1));
//! let program = pb.finish()?;
//!
//! assert!(program.is_subtype(dog, animal));
//! let sel = program.method(speak).selector;
//! assert_eq!(program.resolve(dog, sel), Some(speak));
//! # Ok::<(), skipflow_ir::ValidationErrors>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitset;
mod body;
pub mod builder;
pub mod cfg;
pub mod encode;
pub mod frontend;
mod ids;
mod instr;
pub mod interp;
mod load;
pub mod printer;
mod program;
mod types;
pub mod validate;

pub use bitset::BitSet;
pub use body::{Block, BlockBegin, Body, Phi, VarData};
pub use builder::{BodyBuilder, BranchExit, ClassBuilder, MethodDeclBuilder, ProgramBuilder, ValidationErrors};
pub use ids::{BlockId, FieldId, MethodId, SelectorId, TypeId, VarId};
pub use instr::{BlockEnd, CmpOp, Cond, Expr, Stmt};
pub use load::{load_program, LoadError};
pub use program::Program;
pub use types::{FieldData, MethodData, SelectorData, Signature, TypeData, TypeKind, TypeRef};
pub use validate::ValidationError;
