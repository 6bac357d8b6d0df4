//! Compiler IR substrate for *Beyond Induction Variables*.
//!
//! The paper assumes "the program is represented by a CFG" whose basic
//! blocks hold tuples `(op, left, right, ssalink)`. This crate builds that
//! substrate from scratch:
//!
//! - a three-address **control-flow-graph IR** over named scalar variables
//!   and (multi-dimensional) arrays ([`Function`], [`Inst`],
//!   [`Terminator`]);
//! - a **mini loop language** front end (lexer, parser, AST, lowering) so
//!   every example loop in the paper can be written as source text
//!   ([`parser::parse_program`]);
//! - dense **CSR adjacency** over the CFG — flat predecessor/successor
//!   pools indexed by block, built once per analysis ([`cfg::Cfg`]);
//! - **dominator** / postdominator trees and dominance frontiers
//!   (Cooper–Harvey–Kennedy) — the inputs to SSA construction
//!   ([`dom::DomTree`]);
//! - **natural-loop detection** and a loop-nest forest, with a
//!   loop-simplify pass that guarantees preheaders and unique latches
//!   ([`loops::LoopForest`]);
//! - an iterative bit-vector **liveness** analysis, used by SSA pruning
//!   ([`dataflow`]);
//! - an IR **verifier** and a concrete **interpreter** used for
//!   differential testing of closed forms ([`interp::Interpreter`]).
//!
//! # Example
//!
//! ```
//! use biv_ir::parser::parse_program;
//!
//! let src = r#"
//!     func main(n) {
//!         j = n
//!         L7: loop {
//!             i = j + 1
//!             j = i + 2
//!             if j > 100 { break }
//!         }
//!     }
//! "#;
//! let program = parse_program(src)?;
//! let func = &program.functions[0];
//! assert_eq!(func.name(), "main");
//! # Ok::<(), biv_ir::parser::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod entity;
mod function;

pub mod builder;
pub mod cfg;
pub mod dataflow;
pub mod dom;
pub mod dot;
pub mod interp;
pub mod loops;
pub mod parser;
pub mod print;
pub mod verify;

pub use cfg::Cfg;
pub use entity::{Arena, EntityId, EntityMap, EntitySet, IndexList, SecondaryMap, VecMap};
pub use function::{
    Array, ArrayData, BinOp, Block, BlockData, CmpOp, Function, Inst, Operand, Program, Successors,
    Terminator, Var, VarData,
};

// Functions (and whole programs) cross thread boundaries in the parallel
// batch driver; keep them `Send + Sync` by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Function>();
    assert_send_sync::<Program>();
};
