//! An explicit-register, Itanium-flavoured intermediate representation for
//! the SSP post-pass binary-adaptation tool.
//!
//! The PLDI 2002 paper's tool consumes the Intel compiler's code-generation
//! IR, which "exactly matches the hardware instructions in the binary".
//! This crate plays that role: programs are sequences of machine-level
//! instructions over *physical* registers ([`Reg`]), grouped into basic
//! blocks and functions, with initialized data sections ([`Program::image`])
//! standing in for a loaded binary's `.data` segment.
//!
//! Besides the representation itself the crate provides the program analyses
//! a post-pass tool needs:
//!
//! * [`mod@cfg`] — control-flow graph views, reverse post-order
//! * [`dom`] — dominator and post-dominator trees (Cooper–Harvey–Kennedy)
//! * [`loops`] — natural-loop detection
//! * [`dataflow`] — reaching definitions and upward-exposed uses over
//!   physical registers
//! * [`paths`] — trigger-coverage path counting over marked sub-CFGs
//! * [`verify`] — structural well-formedness checks
//!
//! # Example
//!
//! ```
//! use ssp_ir::{ProgramBuilder, Reg, AluKind, CmpKind, Operand};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let entry = f.entry_block();
//! let body = f.new_block();
//! let exit = f.new_block();
//!
//! let (i, lim, one) = (Reg(14), Reg(15), Reg(16));
//! f.at(entry).movi(i, 0).movi(lim, 10).movi(one, 1).br(body);
//! let p = Reg(17);
//! f.at(body)
//!     .alu(AluKind::Add, i, i, Operand::Reg(one))
//!     .cmp(CmpKind::Lt, p, i, Operand::Reg(lim))
//!     .br_cond(p, body, exit);
//! f.at(exit).halt();
//! let main = f.finish();
//! let prog = pb.finish_with(main);
//! assert!(ssp_ir::verify::verify(&prog).is_ok());
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod cfg;
pub mod dataflow;
pub mod display;
pub mod dom;
pub mod inst;
pub mod loops;
pub mod paths;
pub mod program;
pub mod reg;
pub mod verify;

pub use builder::{BlockCursor, FunctionBuilder, ProgramBuilder};
pub use inst::{AluKind, CmpKind, FAluKind, Inst, InstTag, Op, Operand, MAX_USES};
pub use program::{
    fnv64, fnv64_word, Block, BlockId, FuncId, Function, Image, InstRef, Program, WordHasher,
    WordMap, FNV64_OFFSET,
};
pub use reg::{conv, Reg};
