//! Defect seeding for mutation-testing the linter.
//!
//! Each mutator takes a *correctly* adapted program plus the
//! [`EmittedSlice`] record of one of its slices and plants a specific,
//! realistic bug — the kind a regression in the emitter or scheduler
//! would introduce. The test suite asserts that [`crate::lint`] kills
//! every mutant with the expected diagnostic, which is the evidence that
//! each check actually checks something.
//!
//! Mutators panic when the program does not have the shape they expect
//! to corrupt (they are test helpers; a panic means the fixture, not the
//! linter, is wrong).

use crate::EmittedSlice;
use ssp_ir::reg::conv;
use ssp_ir::{AluKind, BlockId, Inst, Op, Program, Reg};

/// Remove the first live-in copy (`lib_st`) from the stub, so the
/// spawned slice reads a buffer word nobody wrote.
/// Expected diagnostic: `live-in-copy-missing`.
pub fn drop_stub_copy(prog: &mut Program, plan: &EmittedSlice) {
    let insts = &mut prog.func_mut(plan.trigger.func).block_mut(plan.stub).insts;
    let pos = insts
        .iter()
        .position(|i| matches!(i.op, Op::LibSt { .. }))
        .expect("stub has a live-in copy to drop");
    insts.remove(pos);
}

/// Append a copy of a live-in word the slice never loads.
/// Expected diagnostic: `dead-live-in-copy`.
pub fn add_dead_stub_copy(prog: &mut Program, plan: &EmittedSlice) {
    let tag = prog.fresh_tag();
    let insts = &mut prog.func_mut(plan.trigger.func).block_mut(plan.stub).insts;
    let slot = match insts.first().map(|i| &i.op) {
        Some(&Op::LibAlloc { dst }) => dst,
        other => panic!("stub does not start with lib_alloc: {other:?}"),
    };
    let pos =
        insts.iter().position(|i| matches!(i.op, Op::Spawn { .. })).expect("stub has a spawn");
    insts.insert(pos, Inst::new(tag, Op::LibSt { slot, idx: 15, src: conv::ZERO }));
}

/// Plant a second `chk.c` for the same stub at the top of the trigger
/// block, so hot paths fire the trigger twice.
/// Expected diagnostics: `multi-trigger` (and `trigger-dup-path`).
pub fn duplicate_trigger(prog: &mut Program, plan: &EmittedSlice) {
    let tag = prog.fresh_tag();
    let block = prog.func_mut(plan.trigger.func).block_mut(plan.trigger.block);
    block.insts.insert(0, Inst::new(tag, Op::ChkC { stub: plan.stub }));
}

/// Insert a store to memory at the head of the slice body — the defining
/// violation of p-slice hygiene (a speculative thread must never commit
/// state).
/// Expected diagnostic: `store-in-slice`.
pub fn insert_store(prog: &mut Program, plan: &EmittedSlice) {
    let tag = prog.fresh_tag();
    let block = prog.func_mut(plan.trigger.func).block_mut(plan.slice_entry);
    block.insts.insert(0, Inst::new(tag, Op::St { src: conv::ZERO, base: conv::SP, off: 0 }));
}

/// Replace the first `kill_thread` in the slice with `halt`, unbalancing
/// spawn/kill: a spawned thread now exits without releasing its context.
/// Expected diagnostic: `slice-exit-not-kill`.
pub fn unbalance_spawn(prog: &mut Program, plan: &EmittedSlice) {
    let func = prog.func_mut(plan.trigger.func);
    for b in plan.slice_entry.0..=plan.stub.0 {
        for inst in &mut func.block_mut(BlockId(b)).insts {
            if matches!(inst.op, Op::KillThread) {
                inst.op = Op::Halt;
                return;
            }
        }
    }
    panic!("slice has no kill_thread to unbalance");
}

/// Flip the chain-budget decrement into an increment, so the chaining
/// slice re-spawns forever.
/// Expected diagnostic: `chain-unbounded`.
pub fn unbound_chain(prog: &mut Program, plan: &EmittedSlice) {
    let func = prog.func_mut(plan.trigger.func);
    for b in plan.slice_entry.0..=plan.stub.0 {
        for inst in &mut func.block_mut(BlockId(b)).insts {
            if let Op::Alu { kind: kind @ AluKind::Sub, .. } = &mut inst.op {
                *kind = AluKind::Add;
                return;
            }
        }
    }
    panic!("slice has no budget decrement to flip");
}

/// Make the stub overwrite a register the main thread still reads after
/// resuming from the trigger.
/// Expected diagnostic: `stub-clobbers-live`.
pub fn clobber_live_reg(prog: &mut Program, plan: &EmittedSlice, reg: Reg) {
    let tag = prog.fresh_tag();
    let insts = &mut prog.func_mut(plan.trigger.func).block_mut(plan.stub).insts;
    insts.insert(1, Inst::new(tag, Op::Movi { dst: reg, imm: 0 }));
}

/// Remove the first live-in load from the slice entry, so the slice body
/// reads a register the child context never initializes.
/// Expected diagnostics: `upward-exposed` (and `live-in-layout`).
pub fn drop_entry_copy(prog: &mut Program, plan: &EmittedSlice) {
    let insts = &mut prog.func_mut(plan.trigger.func).block_mut(plan.slice_entry).insts;
    let pos = insts
        .iter()
        .position(|i| matches!(i.op, Op::LibLd { .. }))
        .expect("slice entry has a live-in load to drop");
    insts.remove(pos);
}
