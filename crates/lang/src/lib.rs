//! PetaBricks-style language front-end with the variable-accuracy
//! extensions of §3.
//!
//! This crate is the "language and compiler support" of the paper's
//! title: a small transform language in which the programmer declares
//! *what* may vary — algorithmic choices (multiple rules producing the
//! same data, `either…or` statements), accuracy variables,
//! `for_enough` loops, an `accuracy_metric` — and the compiler turns
//! those degrees of freedom into a tunable schema for the genetic
//! autotuner.
//!
//! Pipeline:
//!
//! ```text
//! source ──lexer──▶ tokens ──parser──▶ AST ──sema──▶ checked AST
//!        ──cdg──▶ choice dependency graph (execution order, choice sites)
//!        ──traininfo──▶ pb_config::Schema  (the "training information file")
//!        ──compile──▶ bytecode ──opt──▶ optimized bytecode
//!        ──vm──▶ register-VM execution (every tuned run)
//!        ──interp──▶ transform orchestration shared by both engines, and
//!                    the reference tree-walker (differential oracle only)
//! ```
//!
//! The `compile`/`vm` stage is this reproduction's analogue of the
//! original compiler's C++ code generation: rule bodies are lowered
//! once to flat register bytecode and executed by a dispatch loop,
//! with identical tunable-resolution semantics to the tree-walking
//! interpreter (`rule_<Data>` decision trees, `for_enough_<i>` /
//! `either_<i>` variables, `<callee>.`-prefixed sub-transform
//! tunables). Like the original, there is one execution path: a
//! program [`check_program`] accepts compiles, whole — the checks
//! include definite assignment of every local a rule body reads and
//! the arities of indices, builtins and calls — and [`DslTransform`]
//! compiles at construction, so the autotuner's thousands of candidate
//! executions per generation run on the VM. The tree-walker survives as
//! the oracle the VM is tested against, at both [`OptLevel`]s.
//!
//! # Examples
//!
//! ```
//! use pb_lang::parse_program;
//!
//! let source = r#"
//!     transform double
//!     accuracy_metric doubleacc
//!     from In[n]
//!     to Out[n]
//!     {
//!         to (Out o) from (In a) {
//!             for (i in 0 .. len(a)) { o[i] = 2 * a[i]; }
//!         }
//!     }
//!
//!     transform doubleacc
//!     from Out[n], In[n]
//!     to Accuracy
//!     {
//!         to (Accuracy acc) from (Out o, In a) {
//!             acc = 1;
//!         }
//!     }
//! "#;
//! let program = parse_program(source).unwrap();
//! assert_eq!(program.transforms.len(), 2);
//! ```

mod analysis;
pub mod ast;
mod cdg;
pub mod compile;
pub mod interp;
pub mod lexer;
pub mod opt;
mod parser;
pub mod pretty;
mod sema;
pub mod token;
mod traininfo;
pub mod transform;
pub mod vm;

pub use analysis::{
    analyze_chunk, charge_signature, lint_program, verify_chunk, verify_code, verify_inlined,
    verify_tunables, AbsValue, ChunkFacts, Lint, ScalarKind, Severity, Violation, ViolationKind,
};
pub use ast::Program;
pub use compile::{
    compile_program, opcode_is_fused, opcode_is_specialized, CompiledProgram, N_OPCODES,
    OPCODE_NAMES,
};
pub use interp::{Dims, Interpreter, Value};
pub use opt::{optimize, OptLevel, PassViolation};
pub use parser::{parse_program, ParseError};
pub use sema::{check_program, SemaError};
pub use traininfo::extract_schema;
pub use transform::DslTransform;
