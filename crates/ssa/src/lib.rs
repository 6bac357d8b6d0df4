//! Static Single Assignment form for the `biv` system.
//!
//! Converts [`biv_ir::Function`] CFGs into SSA form with the two key
//! properties the paper relies on (§2.1):
//!
//! 1. every use of a variable has exactly one reaching definition, and
//! 2. φ-functions merge values at confluence points.
//!
//! Construction is the standard Cytron et al. algorithm — φ placement on
//! dominance frontiers (pruned with liveness) and renaming along the
//! dominator tree. The result keeps the original block IDs, records which
//! source variable each SSA value versions (so values print as the paper's
//! `i2`, `j3` names), and exposes the **SSA graph** — edges from each
//! operation to its source operands — that the classifier runs Tarjan's
//! algorithm over.
//!
//! # Example
//!
//! ```
//! use biv_ir::parser::parse_program;
//! use biv_ssa::SsaFunction;
//!
//! let program = parse_program(
//!     "func f(n) { i = 0 L1: loop { i = i + 1 if i > n { break } } }",
//! )?;
//! let ssa = SsaFunction::build(&program.functions[0]);
//! // The loop header holds a phi for `i`.
//! let header = ssa.func().block_by_label("L1").unwrap();
//! assert_eq!(ssa.block(header).phis.len(), 1);
//! # Ok::<(), biv_ir::parser::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod dot;
mod fold;
mod interp;
mod print;
mod ssa;
mod verify;

pub use build::BuildConfig;
pub use dot::ssa_graph_to_dot;
pub use fold::{constant_operand, fold_constants};
pub use interp::{SsaInterpError, SsaInterpreter, SsaTrace};
pub use print::ssa_to_string;
pub use ssa::{Operand, SsaBlock, SsaFunction, SsaInst, SsaTerminator, Value, ValueData, ValueDef};
pub use verify::{verify_ssa, SsaVerifyError};

// The batch-analysis driver shards functions across worker threads;
// everything it moves between threads must be `Send` (and shared caches
// `Sync`). Pin that property at compile time so an accidental `Rc` or
// raw pointer in the SSA data structures fails here, not at a distant
// `thread::scope` call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SsaFunction>();
    assert_send_sync::<ValueData>();
    assert_send_sync::<ValueDef>();
    assert_send_sync::<Value>();
};
