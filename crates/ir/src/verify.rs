//! Structural verification of programs.
//!
//! The simulator and the post-pass tool both assume these invariants; the
//! post-pass tool re-verifies its output, so adaptation bugs surface as
//! verifier errors rather than simulator misbehaviour.

use crate::inst::Op;
use crate::program::{BlockId, FuncId, InstRef, Program};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A structural defect found by [`verify`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VerifyError {
    /// A block has no instructions.
    EmptyBlock(FuncId, BlockId),
    /// A block's last instruction is not a terminator.
    MissingTerminator(FuncId, BlockId),
    /// A terminator appears before the end of a block.
    EarlyTerminator(InstRef),
    /// A branch, `chk.c`, or `spawn` names a block outside its function.
    BadBlockRef(InstRef, BlockId),
    /// A call names a function outside the program.
    BadFuncRef(InstRef, FuncId),
    /// Two instructions share a tag.
    DuplicateTag(InstRef, InstRef),
    /// The entry function id is out of range.
    BadEntry(FuncId),
    /// A store appears in an attachment (slice/stub) block reachable only
    /// by speculative threads, violating the paper's "no store instructions
    /// in the precomputation" rule. Stub blocks are executed by the main
    /// thread and may store; this error is raised by the dedicated
    /// [`verify_speculative`] pass, not plain [`verify`].
    StoreInSlice(InstRef),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::EmptyBlock(func, b) => write!(f, "empty block {func}:{b}"),
            VerifyError::MissingTerminator(func, b) => {
                write!(f, "block {func}:{b} does not end in a terminator")
            }
            VerifyError::EarlyTerminator(at) => {
                write!(f, "terminator before end of block at {at}")
            }
            VerifyError::BadBlockRef(at, b) => {
                write!(f, "instruction at {at} references nonexistent block {b}")
            }
            VerifyError::BadFuncRef(at, func) => {
                write!(f, "instruction at {at} references nonexistent function {func}")
            }
            VerifyError::DuplicateTag(a, b) => {
                write!(f, "instructions at {a} and {b} share a tag")
            }
            VerifyError::BadEntry(func) => write!(f, "entry function {func} out of range"),
            VerifyError::StoreInSlice(at) => {
                write!(f, "store instruction in speculative slice code at {at}")
            }
        }
    }
}

impl Error for VerifyError {}

/// Check the structural invariants of `prog`.
///
/// # Errors
///
/// Returns the first defect found; see [`VerifyError`].
pub fn verify(prog: &Program) -> Result<(), VerifyError> {
    if prog.entry.0 as usize >= prog.funcs.len() {
        return Err(VerifyError::BadEntry(prog.entry));
    }
    let mut tags: std::collections::HashMap<crate::inst::InstTag, InstRef> =
        std::collections::HashMap::new();
    for (fid, func) in prog.iter_funcs() {
        let nblocks = func.blocks.len() as u32;
        for (bid, block) in func.iter_blocks() {
            if block.insts.is_empty() {
                return Err(VerifyError::EmptyBlock(fid, bid));
            }
            let last = block.insts.len() - 1;
            for (i, inst) in block.insts.iter().enumerate() {
                let at = InstRef { func: fid, block: bid, idx: i };
                if let Some(prev) = tags.insert(inst.tag, at) {
                    return Err(VerifyError::DuplicateTag(prev, at));
                }
                if inst.op.is_terminator() && i != last {
                    return Err(VerifyError::EarlyTerminator(at));
                }
                if i == last && !inst.op.is_terminator() {
                    return Err(VerifyError::MissingTerminator(fid, bid));
                }
                // Block references.
                let mut refs = inst.op.branch_targets();
                match inst.op {
                    Op::ChkC { stub } => refs.push(stub),
                    Op::Spawn { entry, .. } => refs.push(entry),
                    _ => {}
                }
                for b in refs {
                    if b.0 >= nblocks {
                        return Err(VerifyError::BadBlockRef(at, b));
                    }
                }
                if let Op::Call { callee, .. } = inst.op {
                    if callee.0 as usize >= prog.funcs.len() {
                        return Err(VerifyError::BadFuncRef(at, callee));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Check the SSP-specific invariant: no stores in slice code.
///
/// Slice blocks are the attachment blocks reachable from any `Spawn`
/// entry; stub blocks (reachable from `ChkC`) belong to the main thread
/// and are allowed to store (they write the live-in buffer via `LibSt`
/// anyway).
///
/// # Errors
///
/// Returns [`VerifyError::StoreInSlice`] for the first offending store.
pub fn verify_speculative(prog: &Program) -> Result<(), VerifyError> {
    for (fid, func) in prog.iter_funcs() {
        // Collect spawn entries in this function.
        let mut entries: Vec<BlockId> = Vec::new();
        for (_, block) in func.iter_blocks() {
            for inst in &block.insts {
                if let Op::Spawn { entry, .. } = inst.op {
                    entries.push(entry);
                }
            }
        }
        // Blocks reachable from slice entries via branches.
        let mut seen: HashSet<BlockId> = HashSet::new();
        let mut work = entries;
        while let Some(b) = work.pop() {
            if !seen.insert(b) {
                continue;
            }
            if let Some(last) = func.block(b).insts.last() {
                work.extend(last.op.branch_targets());
            }
        }
        for &b in &seen {
            for (i, inst) in func.block(b).insts.iter().enumerate() {
                if inst.op.is_store() {
                    return Err(VerifyError::StoreInSlice(InstRef { func: fid, block: b, idx: i }));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::{Inst, InstTag};
    use crate::reg::Reg;

    fn ok_prog() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.at(e).movi(Reg(1), 1).halt();
        let main = f.finish();
        pb.finish_with(main)
    }

    #[test]
    fn accepts_valid_program() {
        assert_eq!(verify(&ok_prog()), Ok(()));
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut prog = ok_prog();
        prog.funcs[0].blocks[0].insts.pop(); // drop the halt
        assert!(matches!(verify(&prog), Err(VerifyError::MissingTerminator(..))));
    }

    #[test]
    fn rejects_empty_block() {
        let mut prog = ok_prog();
        prog.funcs[0].blocks.push(crate::program::Block::default());
        assert!(matches!(verify(&prog), Err(VerifyError::EmptyBlock(..))));
    }

    #[test]
    fn rejects_early_terminator() {
        let mut prog = ok_prog();
        let halt = prog.funcs[0].blocks[0].insts.last().unwrap().clone();
        prog.funcs[0].blocks[0].insts.insert(0, Inst::new(InstTag(999), halt.op));
        assert!(matches!(verify(&prog), Err(VerifyError::EarlyTerminator(..))));
    }

    #[test]
    fn rejects_duplicate_tags() {
        let mut prog = ok_prog();
        let tag = prog.funcs[0].blocks[0].insts[0].tag;
        prog.funcs[0].blocks[0].insts[1].tag = tag;
        assert!(matches!(verify(&prog), Err(VerifyError::DuplicateTag(..))));
    }

    #[test]
    fn rejects_bad_branch_target() {
        let mut prog = ok_prog();
        let t = prog.fresh_tag();
        prog.funcs[0].blocks[0].insts[1] = Inst::new(t, Op::Br { target: BlockId(99) });
        assert!(matches!(verify(&prog), Err(VerifyError::BadBlockRef(..))));
    }

    #[test]
    fn speculative_verifier_rejects_store_in_slice() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let stub = f.new_block();
        let slice = f.new_block();
        let resume = f.new_block();
        f.at(e).chk_c(stub).br(resume);
        f.at(stub).lib_alloc(Reg(10)).spawn(slice, Reg(10)).br(resume);
        f.at(slice)
            .st(Reg(1), Reg(2), 0) // illegal: store in slice
            .kill_thread();
        f.at(resume).halt();
        let main = f.finish();
        let mut prog = pb.finish_with(main);
        prog.funcs[0].blocks[1].attachment = true;
        prog.funcs[0].blocks[2].attachment = true;
        assert_eq!(verify(&prog), Ok(()), "structurally fine");
        assert!(matches!(verify_speculative(&prog), Err(VerifyError::StoreInSlice(..))));
    }

    #[test]
    fn speculative_verifier_allows_clean_slice() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let stub = f.new_block();
        let slice = f.new_block();
        let resume = f.new_block();
        f.at(e).chk_c(stub).br(resume);
        f.at(stub).lib_alloc(Reg(10)).lib_st(Reg(10), 0, Reg(5)).spawn(slice, Reg(10)).br(resume);
        f.at(slice).lib_ld(Reg(4), Reg(9), 0).ld(Reg(5), Reg(4), 0).lfetch(Reg(5), 8).kill_thread();
        f.at(resume).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        assert_eq!(verify_speculative(&prog), Ok(()));
    }
}
