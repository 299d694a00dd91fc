//! Pre-decoded instruction table: the engine's whole view of the program.
//!
//! Every static instruction is decoded once, up front, into one flat,
//! cache-friendly array, and the engine addresses instructions by their
//! index into it. A thread's pc and its return addresses are flat
//! indices; fallthrough is `pc + 1`; every static control target (both
//! `br.cond` targets, `br`, the `chk.c` stub, the `spawn` entry and a
//! direct call's callee) is resolved to the flat index of its block's
//! first instruction here, and a per-function entry table serves
//! indirect calls. Each entry carries the [`Op`] it executes, its
//! functional-unit class, its use list and mask, its tag and its
//! branch-predictor key, so issuing an instruction is one indexed read
//! and the cycle loop touches no heap.
//!
//! The `uses` array is filled by the same visitor that backs
//! [`Op::uses_into`], so stall-reporting order is identical by
//! construction. Fallthrough by `pc + 1` is sound only because every
//! block ends in a terminator: [`DecodedProgram::new`] rejects a program
//! with a block that does not, so a pc can never run from one block into
//! the next.

use crate::branch::static_pc;
use crate::exec::{RegMask, MASK_WORDS};
use ssp_ir::inst::MAX_USES;
use ssp_ir::{BlockId, FuncId, InstTag, Op, Program, Reg};

/// Functional-unit classes (Table 1: 4 int, 2 FP, 3 branch, 2 mem ports).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FuClass {
    /// Integer ALU.
    Int = 0,
    /// Floating-point unit.
    Fp = 1,
    /// Branch unit.
    Branch = 2,
    /// Memory port.
    Mem = 3,
}

/// The functional-unit class executing `op`.
pub fn fu_class(op: &Op) -> FuClass {
    match op {
        Op::FAlu { .. } => FuClass::Fp,
        Op::Ld { .. } | Op::St { .. } | Op::Lfetch { .. } | Op::LibLd { .. } | Op::LibSt { .. } => {
            FuClass::Mem
        }
        Op::Br { .. }
        | Op::BrCond { .. }
        | Op::Call { .. }
        | Op::CallInd { .. }
        | Op::Ret
        | Op::Spawn { .. }
        | Op::KillThread => FuClass::Branch,
        _ => FuClass::Int,
    }
}

/// Everything the engine needs about one static instruction.
#[derive(Clone, Debug)]
pub struct DecodedInst {
    /// The operation, executed from here.
    pub op: Op,
    /// Source registers, in [`Op::uses_into`] order; only the first
    /// `n_uses` entries are meaningful.
    uses: [Reg; MAX_USES],
    /// Number of valid entries in `uses`.
    n_uses: u8,
    /// The source registers as a bitset — the operand mask the fast
    /// engine intersects with the thread's pending-register scoreboard
    /// ([`crate::exec::Scoreboard`]) so the all-sources-ready check is
    /// two word ANDs instead of a per-operand walk.
    pub use_mask: RegMask,
    /// Which functional unit executes this instruction.
    pub fu: FuClass,
    /// Profile identity.
    pub tag: InstTag,
    /// Flat index of the static control target: `br`'s target,
    /// `br.cond`'s taken target, the `chk.c` stub, the `spawn` entry or
    /// a direct call's callee entry. 0 for every other operation.
    pub target: u32,
    /// Flat index of `br.cond`'s not-taken target; 0 otherwise.
    pub else_target: u32,
    /// The branch-predictor key of this location
    /// ([`crate::branch::static_pc`]).
    pub branch_key: u64,
    /// For a load, the row of its tag in [`DecodedProgram::load_tags`]
    /// (the dense per-load statistics table); 0 otherwise.
    pub load_slot: u32,
}

impl DecodedInst {
    /// Decode `op` at the location whose branch-predictor key is
    /// `branch_key`, with no control targets or load row yet.
    fn new(op: &Op, tag: InstTag, branch_key: u64) -> Self {
        let mut uses = [Reg(0); MAX_USES];
        let n_uses = op.uses_fixed(&mut uses) as u8;
        let mut use_mask = [0u64; MASK_WORDS];
        for u in &uses[..n_uses as usize] {
            use_mask[u.index() / 64] |= 1u64 << (u.index() % 64);
        }
        DecodedInst {
            op: op.clone(),
            uses,
            n_uses,
            use_mask,
            fu: fu_class(op),
            tag,
            target: 0,
            else_target: 0,
            branch_key,
            load_slot: 0,
        }
    }

    /// The source registers, in use order.
    #[inline]
    pub fn uses(&self) -> &[Reg] {
        &self.uses[..self.n_uses as usize]
    }
}

/// The flat table of [`DecodedInst`]s for one [`Program`]: functions in
/// order, each function's blocks in order, each block's instructions in
/// order.
#[derive(Clone, Debug)]
pub struct DecodedProgram {
    insts: Vec<DecodedInst>,
    /// Per function: flat index of its entry block's first instruction.
    func_entry: Vec<u32>,
    /// The distinct tags of the program's loads, ascending.
    load_tags: Vec<InstTag>,
}

impl DecodedProgram {
    /// Decode every instruction of `prog`.
    ///
    /// # Panics
    ///
    /// Panics if a block does not end in a terminator (the flat pc would
    /// fall through into the next block), if a control target names a
    /// block or function that does not exist, or if the program has
    /// more than `u32::MAX` instructions.
    pub fn new(prog: &Program) -> Self {
        // Flat index of every block's first instruction, per function.
        let mut starts: Vec<Vec<u32>> = Vec::with_capacity(prog.funcs.len());
        let mut n = 0usize;
        for (fid, f) in prog.iter_funcs() {
            let mut s = Vec::with_capacity(f.blocks.len());
            for (bid, b) in f.iter_blocks() {
                assert!(
                    b.insts.last().is_some_and(|i| i.op.is_terminator()),
                    "block {fid}:{bid} does not end in a terminator"
                );
                s.push(n as u32);
                n += b.insts.len();
            }
            starts.push(s);
        }
        assert!(u32::try_from(n).is_ok(), "more than u32::MAX instructions");
        let block = |f: FuncId, b: BlockId| starts[f.0 as usize][b.index()];
        let func_entry: Vec<u32> = prog.iter_funcs().map(|(fid, f)| block(fid, f.entry)).collect();
        let mut load_tags: Vec<InstTag> = prog
            .funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .flat_map(|b| &b.insts)
            .filter(|i| i.op.is_load())
            .map(|i| i.tag)
            .collect();
        load_tags.sort_unstable();
        load_tags.dedup();

        let mut insts = Vec::with_capacity(n);
        for (fid, f) in prog.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for (idx, i) in b.insts.iter().enumerate() {
                    let mut d = DecodedInst::new(&i.op, i.tag, static_pc(fid, bid, idx));
                    match i.op {
                        Op::Br { target }
                        | Op::ChkC { stub: target }
                        | Op::Spawn { entry: target, .. } => d.target = block(fid, target),
                        Op::BrCond { if_true, if_false, .. } => {
                            d.target = block(fid, if_true);
                            d.else_target = block(fid, if_false);
                        }
                        Op::Call { callee, .. } => d.target = func_entry[callee.0 as usize],
                        Op::Ld { .. } => {
                            let row =
                                load_tags.binary_search(&i.tag).expect("load tags are listed");
                            d.load_slot = row as u32;
                        }
                        _ => {}
                    }
                    insts.push(d);
                }
            }
        }
        DecodedProgram { insts, func_entry, load_tags }
    }

    /// The decoded entry at flat index `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[inline]
    pub fn get(&self, pc: u32) -> &DecodedInst {
        &self.insts[pc as usize]
    }

    /// Flat index of function `f`'s first instruction, or `None` if the
    /// program has no such function.
    #[inline]
    pub fn entry(&self, f: FuncId) -> Option<u32> {
        self.func_entry.get(f.0 as usize).copied()
    }

    /// The distinct tags of the program's loads, ascending: the rows of
    /// the per-load statistics table ([`DecodedInst::load_slot`]).
    pub fn load_tags(&self) -> &[InstTag] {
        &self.load_tags
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program had no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_ir::{conv, Inst, Operand, ProgramBuilder};

    fn sample() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("leaf");
        let e = f.entry_block();
        f.at(e).add(conv::RV, conv::arg(0), Operand::Imm(1)).ret();
        let leaf = pb.install(f.finish());
        let mut f = pb.function("main");
        let e = f.entry_block();
        let done = f.new_block();
        f.at(e).movi(Reg(1), 5).ld(Reg(2), Reg(1), 0).st(Reg(2), Reg(1), 8).call(leaf, 1).br(done);
        f.at(done).halt();
        let main = f.finish();
        pb.finish_with(main)
    }

    #[test]
    fn decoded_matches_op_queries() {
        let prog = sample();
        let d = DecodedProgram::new(&prog);
        assert_eq!(d.len(), prog.inst_count());
        assert!(!d.is_empty());
        let mut pc = 0;
        for (fid, f) in prog.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for (i, inst) in b.insts.iter().enumerate() {
                    let e = d.get(pc);
                    let r = format!("{fid}:{bid}:{i}");
                    assert_eq!(e.op, inst.op, "at {r}");
                    assert_eq!(e.uses(), inst.op.uses().as_slice(), "at {r}");
                    let mut mask = [0u64; MASK_WORDS];
                    for u in inst.op.uses() {
                        mask[u.index() / 64] |= 1u64 << (u.index() % 64);
                    }
                    assert_eq!(e.use_mask, mask, "at {r}");
                    assert_eq!(e.fu, fu_class(&inst.op), "at {r}");
                    assert_eq!(e.tag, inst.tag, "at {r}");
                    assert_eq!(e.branch_key, static_pc(fid, bid, i), "at {r}");
                    pc += 1;
                }
            }
        }
    }

    #[test]
    fn lookup_crosses_function_boundaries() {
        let prog = sample();
        let d = DecodedProgram::new(&prog);
        // Flat layout: leaf's add, ret (0, 1); main's entry block movi,
        // ld, st, call, br (2..=6); main's `done` block, halt (7).
        let leaf = prog.func_by_name("leaf").unwrap();
        let main = prog.func_by_name("main").unwrap();
        assert_eq!(d.entry(leaf), Some(0));
        assert_eq!(d.entry(main), Some(2));
        assert_eq!(d.entry(FuncId(2)), None);
        assert_eq!(d.get(2).uses(), &[] as &[Reg]);
        assert_eq!(d.get(2).fu, FuClass::Int);
        assert_eq!(d.get(5).target, 0, "main's call lands on the leaf's entry");
        assert_eq!(d.get(6).target, 7, "main's br lands on `done`");
        // The leaf's `ret` is a branch-class terminator.
        assert!(d.get(1).op.is_terminator());
        assert_eq!(d.get(1).fu, FuClass::Branch);
        // The one load's tag is the one row of the per-load table.
        assert_eq!(d.load_tags(), &[d.get(3).tag]);
        assert_eq!(d.get(3).load_slot, 0);
    }

    #[test]
    #[should_panic(expected = "does not end in a terminator")]
    fn a_block_without_a_terminator_is_rejected() {
        let mut prog = sample();
        // Drop `main`'s entry `br`: its block would fall through into
        // `done` under a flat pc, so decoding must refuse it.
        let main = prog.func_by_name("main").unwrap();
        prog.funcs[main.0 as usize].blocks[0].insts.pop();
        DecodedProgram::new(&prog);
    }

    #[test]
    #[should_panic(expected = "does not end in a terminator")]
    fn an_empty_block_is_rejected() {
        let mut prog = sample();
        let main = prog.func_by_name("main").unwrap();
        prog.funcs[main.0 as usize].blocks.push(ssp_ir::Block::default());
        DecodedProgram::new(&prog);
    }

    #[test]
    fn a_load_tag_repeated_across_loads_has_one_row() {
        let mut prog = sample();
        let main = prog.func_by_name("main").unwrap();
        let block = &mut prog.funcs[main.0 as usize].blocks[0];
        let tag = block.insts[1].tag;
        block.insts.insert(2, Inst { op: Op::Ld { dst: Reg(3), base: Reg(1), off: 8 }, tag });
        let d = DecodedProgram::new(&prog);
        assert_eq!(d.load_tags(), &[tag]);
        assert_eq!((d.get(3).load_slot, d.get(4).load_slot), (0, 0));
    }
}
