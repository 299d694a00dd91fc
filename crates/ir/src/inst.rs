//! Machine instructions: opcodes, operands, and def/use queries.

use crate::program::{BlockId, FuncId};
use crate::reg::{conv, Reg};
use std::fmt;

/// A stable identity for a static instruction.
///
/// Profiles (cache-miss counts, execution frequencies) are keyed by tag, and
/// tags survive binary adaptation: when the post-pass tool rewrites a program
/// it preserves the tags of original instructions, so a cache profile taken
/// on the original binary still identifies the same loads in the adapted
/// binary. Newly synthesized instructions receive fresh tags.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstTag(pub u32);

impl fmt::Display for InstTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Second source operand of ALU/compare instructions: a register or a
/// 14-bit-style immediate (we allow full `i64` for convenience).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// A register operand.
    Reg(Reg),
    /// An immediate operand.
    Imm(i64),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(i: i64) -> Self {
        Operand::Imm(i)
    }
}

/// Integer ALU operation kinds.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluKind {
    /// Addition (wrapping).
    Add,
    /// Subtraction (wrapping).
    Sub,
    /// Multiplication (wrapping). Higher latency than add/sub.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
}

/// Comparison kinds; results are 0 or 1 in the destination register
/// (standing in for Itanium predicate registers).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpKind {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Signed less-than.
    SLt,
    /// Signed greater-than.
    SGt,
}

/// Floating-point ALU kinds; values are `f64` bit patterns in the 64-bit
/// integer registers (the workloads only need a handful of FP operations).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FAluKind {
    /// FP addition.
    Add,
    /// FP subtraction.
    Sub,
    /// FP multiplication.
    Mul,
}

/// A machine operation.
///
/// Every basic block ends with exactly one *terminator* ([`Op::is_terminator`]):
/// `Br`, `BrCond`, `Ret`, `Halt`, or `KillThread`. `Call` is not a
/// terminator — control returns to the following instruction.
///
/// The SSP-specific operations mirror §3.4.2 of the paper:
///
/// * [`Op::ChkC`] — the trigger instruction. At retirement it raises a
///   lightweight exception *iff* a free hardware thread context exists,
///   redirecting the main thread to its stub block; otherwise it behaves
///   like a `nop`.
/// * [`Op::Spawn`] — executed at the end of a stub block (or inside a
///   chaining slice); binds a free context to the slice entry block and
///   hands it the live-in-buffer slot in [`conv::SLOT`]. Ignored when no
///   context is free.
/// * [`Op::LibAlloc`]/[`Op::LibSt`]/[`Op::LibLd`]/[`Op::LibFree`] — the
///   live-in buffer, modelling the Register Stack Engine backing store used
///   as an on-chip communication buffer between parent and child threads.
/// * [`Op::KillThread`] — `thread_kill_self()`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `dst = imm`.
    Movi {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// `dst = src`.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source register.
        src: Reg,
    },
    /// `dst = a <kind> b`.
    Alu {
        /// Operation kind.
        kind: AluKind,
        /// Destination register.
        dst: Reg,
        /// First operand register.
        a: Reg,
        /// Second operand.
        b: Operand,
    },
    /// `dst = (a <kind> b) ? 1 : 0`.
    Cmp {
        /// Operation kind.
        kind: CmpKind,
        /// Destination register.
        dst: Reg,
        /// First operand register.
        a: Reg,
        /// Second operand.
        b: Operand,
    },
    /// `dst = a <kind> b` over `f64` bit patterns.
    FAlu {
        /// Operation kind.
        kind: FAluKind,
        /// Destination register.
        dst: Reg,
        /// First operand register.
        a: Reg,
        /// Second operand register.
        b: Reg,
    },
    /// `dst = mem[base + off]` (8 bytes).
    Ld {
        /// Destination register.
        dst: Reg,
        /// Base-address register.
        base: Reg,
        /// Byte offset from `base`.
        off: i64,
    },
    /// `mem[base + off] = src` (8 bytes).
    St {
        /// Source register.
        src: Reg,
        /// Base-address register.
        base: Reg,
        /// Byte offset from `base`.
        off: i64,
    },
    /// Prefetch the line containing `base + off` into L1 (Itanium `lfetch`).
    /// Never faults, never stalls the issuing thread on a miss.
    Lfetch {
        /// Base-address register.
        base: Reg,
        /// Byte offset from `base`.
        off: i64,
    },
    /// Unconditional branch.
    Br {
        /// Branch target block.
        target: BlockId,
    },
    /// Conditional branch: to `if_true` when `pred != 0`, else `if_false`.
    BrCond {
        /// Predicate register (taken when nonzero).
        pred: Reg,
        /// Target when the predicate is nonzero.
        if_true: BlockId,
        /// Target when the predicate is zero.
        if_false: BlockId,
    },
    /// Direct call. `nargs` register arguments are live at the call.
    Call {
        /// Called function.
        callee: FuncId,
        /// Number of live register arguments.
        nargs: u16,
    },
    /// Indirect call through a register holding a function id, as produced
    /// by [`Op::Movi`] with [`FuncId::as_value`]. The paper instruments
    /// these to recover the dynamic call graph during profiling.
    CallInd {
        /// Register holding the callee's function id.
        target: Reg,
        /// Number of live register arguments.
        nargs: u16,
    },
    /// Return to the caller.
    Ret,
    /// SSP trigger: raise to `stub` if a hardware context is free.
    ChkC {
        /// Stub block the trigger raises to.
        stub: BlockId,
    },
    /// Spawn a speculative thread at `entry`, passing the live-in slot
    /// currently in `slot` to the child's [`conv::SLOT`] register.
    Spawn {
        /// Entry block of the spawned slice.
        entry: BlockId,
        /// Register holding the live-in buffer slot.
        slot: Reg,
    },
    /// Allocate a live-in buffer slot into `dst`.
    LibAlloc {
        /// Destination register.
        dst: Reg,
    },
    /// Store `src` into word `idx` of live-in slot `slot`.
    LibSt {
        /// Register holding the live-in buffer slot.
        slot: Reg,
        /// Word index within the slot.
        idx: u8,
        /// Source register.
        src: Reg,
    },
    /// Load word `idx` of live-in slot `slot` into `dst`.
    LibLd {
        /// Destination register.
        dst: Reg,
        /// Register holding the live-in buffer slot.
        slot: Reg,
        /// Word index within the slot.
        idx: u8,
    },
    /// Release live-in slot `slot`.
    LibFree {
        /// Register holding the live-in buffer slot.
        slot: Reg,
    },
    /// Terminate the executing (speculative) thread.
    KillThread,
    /// Mark the start of the timed region of interest.
    RoiBegin,
    /// Mark the end of the timed region of interest.
    RoiEnd,
    /// Terminate the whole simulation.
    Halt,
    /// No operation. The post-pass tool replaces padding `nop`s with
    /// `chk.c` trigger instructions (§3.4.2, Figure 7).
    Nop,
}

/// Upper bound on the number of registers any operation reads
/// ([`Op::CallInd`]: target, up to [`conv::MAX_ARGS`] arguments, and SP).
pub const MAX_USES: usize = 2 + conv::MAX_ARGS as usize;

impl Op {
    /// Whether this operation must end a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::BrCond { .. } | Op::Ret | Op::Halt | Op::KillThread)
    }

    /// Whether this is a memory-reading load (`ld8`). `Lfetch` and the
    /// live-in buffer ops are excluded: only true loads can be delinquent.
    pub fn is_load(&self) -> bool {
        matches!(self, Op::Ld { .. })
    }

    /// Whether this operation writes simulated memory.
    pub fn is_store(&self) -> bool {
        matches!(self, Op::St { .. })
    }

    /// Whether this is any kind of call.
    pub fn is_call(&self) -> bool {
        matches!(self, Op::Call { .. } | Op::CallInd { .. })
    }

    /// Whether this is a conditional or unconditional branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, Op::Br { .. } | Op::BrCond { .. })
    }

    /// The register defined by this operation, if any.
    ///
    /// Writes to `r0` are discarded by the hardware, so `r0` destinations
    /// report no definition.
    pub fn def(&self) -> Option<Reg> {
        let d = match *self {
            Op::Movi { dst, .. }
            | Op::Mov { dst, .. }
            | Op::Alu { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::FAlu { dst, .. }
            | Op::Ld { dst, .. }
            | Op::LibAlloc { dst }
            | Op::LibLd { dst, .. } => dst,
            _ => return None,
        };
        (!d.is_zero()).then_some(d)
    }

    /// Collect the registers this operation reads into `out`.
    ///
    /// Calls report their convention uses (argument registers and SP);
    /// their clobbers are reported by [`Op::extra_defs`]. Reads of `r0`
    /// are included (they are real operand slots), callers that only care
    /// about dependences should skip [`Reg::is_zero`] sources.
    pub fn uses_into(&self, out: &mut Vec<Reg>) {
        self.for_each_use(|r| out.push(r));
    }

    /// Visit the registers this operation reads, in [`Op::uses_into`]
    /// order. The single source of truth for use order: both the `Vec`
    /// and fixed-capacity collectors are built on it.
    pub fn for_each_use(&self, mut f: impl FnMut(Reg)) {
        match *self {
            Op::Movi { .. }
            | Op::Ret
            | Op::ChkC { .. }
            | Op::LibAlloc { .. }
            | Op::KillThread
            | Op::RoiBegin
            | Op::RoiEnd
            | Op::Halt
            | Op::Br { .. }
            | Op::Nop => {}
            Op::Mov { src, .. } => f(src),
            Op::Alu { a, b, .. } | Op::Cmp { a, b, .. } => {
                f(a);
                if let Operand::Reg(r) = b {
                    f(r);
                }
            }
            Op::FAlu { a, b, .. } => {
                f(a);
                f(b);
            }
            Op::Ld { base, .. } | Op::Lfetch { base, .. } => f(base),
            Op::St { src, base, .. } => {
                f(src);
                f(base);
            }
            Op::BrCond { pred, .. } => f(pred),
            Op::Call { nargs, .. } => conv::call_uses(nargs).for_each(f),
            Op::CallInd { target, nargs } => {
                f(target);
                conv::call_uses(nargs).for_each(f);
            }
            Op::Spawn { slot, .. } => f(slot),
            Op::LibSt { slot, src, .. } => {
                f(slot);
                f(src);
            }
            Op::LibLd { slot, .. } => f(slot),
            Op::LibFree { slot } => f(slot),
        }
    }

    /// Collect the registers this operation reads into a fixed-capacity
    /// buffer, returning how many were written. Allocation-free: sized
    /// for the worst case ([`MAX_USES`]), in [`Op::uses_into`] order.
    pub fn uses_fixed(&self, out: &mut [Reg; MAX_USES]) -> usize {
        let mut n = 0;
        self.for_each_use(|r| {
            out[n] = r;
            n += 1;
        });
        n
    }

    /// The registers this operation reads, as a fresh vector.
    pub fn uses(&self) -> Vec<Reg> {
        let mut v = Vec::new();
        self.uses_into(&mut v);
        v
    }

    /// Registers clobbered beyond [`Op::def`]: the scratch range for calls,
    /// [`conv::RV`] being the visible definition.
    pub fn extra_defs(&self) -> Vec<Reg> {
        if self.is_call() {
            conv::call_defs().collect()
        } else {
            Vec::new()
        }
    }

    /// CFG successor blocks within the same function. `ChkC`'s stub and
    /// `Spawn`'s entry are *not* successors: the former is an exception
    /// edge taken by the recovery mechanism, the latter starts a different
    /// thread.
    pub fn branch_targets(&self) -> Vec<BlockId> {
        match *self {
            Op::Br { target } => vec![target],
            Op::BrCond { if_true, if_false, .. } => vec![if_true, if_false],
            _ => Vec::new(),
        }
    }
}

/// An instruction: a tagged operation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Inst {
    /// Stable profile identity.
    pub tag: InstTag,
    /// The operation.
    pub op: Op,
}

impl Inst {
    /// Create an instruction with the given tag.
    pub fn new(tag: InstTag, op: Op) -> Self {
        Inst { tag, op }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_of_zero_dst_is_none() {
        let op = Op::Movi { dst: Reg(0), imm: 7 };
        assert_eq!(op.def(), None);
        let op = Op::Movi { dst: Reg(5), imm: 7 };
        assert_eq!(op.def(), Some(Reg(5)));
    }

    #[test]
    fn alu_uses_both_regs() {
        let op = Op::Alu { kind: AluKind::Add, dst: Reg(3), a: Reg(1), b: Operand::Reg(Reg(2)) };
        assert_eq!(op.uses(), vec![Reg(1), Reg(2)]);
        let op = Op::Alu { kind: AluKind::Add, dst: Reg(3), a: Reg(1), b: Operand::Imm(4) };
        assert_eq!(op.uses(), vec![Reg(1)]);
    }

    #[test]
    fn store_uses_value_and_base() {
        let op = Op::St { src: Reg(7), base: Reg(8), off: 16 };
        assert_eq!(op.uses(), vec![Reg(7), Reg(8)]);
        assert!(op.is_store());
        assert!(!op.is_load());
        assert_eq!(op.def(), None);
    }

    #[test]
    fn call_defs_and_uses_follow_convention() {
        let op = Op::Call { callee: FuncId(0), nargs: 3 };
        let uses = op.uses();
        assert!(uses.contains(&conv::arg(0)));
        assert!(uses.contains(&conv::arg(2)));
        assert!(uses.contains(&conv::SP));
        let defs = op.extra_defs();
        assert!(defs.contains(&conv::RV));
        assert!(!defs.contains(&conv::SP));
        assert!(!defs.contains(&Reg(100)), "callee-saved not clobbered");
    }

    #[test]
    fn terminators() {
        assert!(Op::Ret.is_terminator());
        assert!(Op::Halt.is_terminator());
        assert!(Op::KillThread.is_terminator());
        assert!(Op::Br { target: BlockId(0) }.is_terminator());
        assert!(!Op::Call { callee: FuncId(0), nargs: 0 }.is_terminator());
        assert!(!Op::ChkC { stub: BlockId(0) }.is_terminator());
    }

    #[test]
    fn branch_targets_exclude_spawn_and_chk() {
        assert!(Op::ChkC { stub: BlockId(3) }.branch_targets().is_empty());
        assert!(Op::Spawn { entry: BlockId(3), slot: Reg(9) }.branch_targets().is_empty());
        assert_eq!(
            Op::BrCond { pred: Reg(1), if_true: BlockId(1), if_false: BlockId(2) }.branch_targets(),
            vec![BlockId(1), BlockId(2)]
        );
    }

    #[test]
    fn lfetch_is_not_a_load() {
        assert!(!Op::Lfetch { base: Reg(1), off: 0 }.is_load());
        assert!(Op::Ld { dst: Reg(2), base: Reg(1), off: 0 }.is_load());
    }
}
