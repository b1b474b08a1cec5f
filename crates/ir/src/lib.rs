//! # fmsa-ir — the IR substrate of the FMSA reproduction
//!
//! A from-scratch, LLVM-v8-flavoured intermediate representation used by the
//! reproduction of *Function Merging by Sequence Alignment* (Rocha et al.,
//! CGO 2019). It provides everything §III of the paper assumes of the
//! compiler it is embedded in:
//!
//! * a typed instruction set (~46 opcodes) with the Itanium-style
//!   `invoke`/`landingpad` exception-handling model,
//! * interned types with the *lossless bitcast* equivalence used by the
//!   merger ([`TypeStore::can_lossless_bitcast`]),
//! * functions/blocks/instructions stored in id-indexed arenas,
//! * a [`FuncBuilder`] construction API, CFG utilities (reverse post-order
//!   with canonical successor ordering — the traversal FMSA linearizes),
//! * a verifier, a textual printer and parser, and the φ-demotion pass the
//!   paper applies before merging.
//!
//! # Examples
//!
//! ```
//! use fmsa_ir::{Module, FuncBuilder, Value, verify_module};
//!
//! let mut m = Module::new("demo");
//! let i32t = m.types.i32();
//! let fn_ty = m.types.func(i32t, vec![i32t, i32t]);
//! let f = m.create_function("add2", fn_ty);
//! let mut b = FuncBuilder::new(&mut m, f);
//! let entry = b.block("entry");
//! b.switch_to(entry);
//! let sum = b.add(Value::Param(0), Value::Param(1));
//! b.ret(Some(sum));
//! assert!(verify_module(&m).is_empty());
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cfg;
pub mod function;
pub mod idhash;
pub mod inst;
pub mod module;
pub mod parser;
pub mod passes;
pub mod printer;
pub mod types;
pub mod value;
pub mod verifier;

pub use builder::FuncBuilder;
pub use function::{Block, Function, Linkage, Param};
pub use idhash::{IdHashMap, IdHashSet, IdHasher};
pub use inst::{ExtraData, FloatPredicate, Inst, IntPredicate, LandingPadClause, Opcode};
pub use module::Module;
pub use types::{TyId, Type, TypeStore};
pub use value::{BlockId, FuncId, InstId, Value};
pub use verifier::{verify_function, verify_module, VerifyError};
