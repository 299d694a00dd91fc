//! SSP-enabled code generation (§3.4.2, Figure 7).
//!
//! Each adapted delinquent load gets:
//!
//! * a **trigger**: a `chk.c` placed at its trigger point (the paper
//!   replaces a padding `nop`; our elastic IR inserts the instruction and
//!   splits the block so the stub can branch back to the resume point);
//! * a **stub block** (main-thread recovery code): allocate a live-in
//!   buffer slot, copy the live-ins (plus the chain budget for chaining
//!   SP), spawn the slice, resume;
//! * **slice blocks** (the speculative thread): copy live-ins from the
//!   buffer, run the scheduled execution slice with the delinquent load
//!   turned into an `lfetch` where its value is dead, spawn the next
//!   chaining thread after the critical sub-slice (gated by the spawn
//!   condition and a chain budget), and kill itself. Basic-SP slices
//!   loop over iterations in one thread instead (Figure 6(b)).
//!
//! Slices contain no stores, by construction; the emitter re-verifies.
//!
//! Cloned slice instructions keep their original *registers* (the child
//! context starts zeroed and live-ins land in the same register numbers
//! the original code used) but receive fresh instruction tags.
//!
//! Control flow inside a slice is resolved speculatively: cold-path
//! branches were already pruned by speculative slicing, remaining
//! non-latch branches are dropped and the hot path is emitted straight
//! line; the loop latch branch becomes the spawn condition (chaining) or
//! the slice's own loop branch (basic). Interprocedural slices inline the
//! callee's extracted instructions when they are simple straight-line
//! code; otherwise the call's result is captured as a live-in at spawn
//! time — a stale-value speculation the SSP paradigm tolerates, and the
//! reason the automatic tool loses against hand adaptation on deeply
//! recursive slices (§4.5).

use crate::select::SlicePlan;
use ssp_ir::reg::{conv, NUM_REGS};
use ssp_ir::{Block, BlockId, CmpKind, FuncId, Inst, InstRef, InstTag, Op, Operand, Program, Reg};
use ssp_lint::EmittedSlice;
use ssp_sched::SpModel;
use ssp_trigger::TriggerPoint;
use std::cmp::Reverse;
use std::collections::{BTreeSet, HashSet};

/// Why a plan could not be emitted.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SkipReason {
    /// Not enough never-used registers in the function for the stub and
    /// slice machinery.
    NoScratchRegisters,
    /// More live-ins than live-in buffer words.
    TooManyLiveIns(usize),
    /// The scheduled order was empty.
    EmptySlice,
    /// The slicer rejected the load (e.g. the profiled root turned out
    /// not to be a load instruction).
    SliceFailed(ssp_slicing::SliceError),
    /// The profiled delinquent tag is not present in the program's tag
    /// index — stale or foreign profile data.
    UnknownTag,
}

/// Registers never mentioned in the function (safe scratch space for the
/// stub, which runs in the main thread's context).
fn unused_regs(prog: &Program, fid: FuncId, extra_exclude: &BTreeSet<Reg>) -> Vec<Reg> {
    let mut used = [false; NUM_REGS];
    used[conv::ZERO.index()] = true;
    used[conv::SLOT.index()] = true;
    used[conv::SP.index()] = true;
    for block in &prog.func(fid).blocks {
        for inst in &block.insts {
            if let Some(d) = inst.op.def() {
                used[d.index()] = true;
            }
            for u in inst.op.uses() {
                used[u.index()] = true;
            }
        }
    }
    for r in extra_exclude {
        used[r.index()] = true;
    }
    (0..NUM_REGS as u16).rev().map(Reg).filter(|r| !used[r.index()]).collect()
}

/// Per-instruction emission decision for the slice body.
enum BodyInst {
    /// Clone the op as is.
    Clone(Op),
    /// The delinquent load, demoted to a prefetch.
    Prefetch { base: Reg, off: i64 },
    /// The latch branch: becomes the spawn gate / loop branch.
    Latch { pred: Reg, continue_on_true: bool },
    /// Dropped (straight-line speculation or unemittable call).
    Skip,
}

struct BodyPlan {
    insts: Vec<BodyInst>,
    extra_live_ins: BTreeSet<Reg>,
    interprocedural: bool,
}

/// Decide how each scheduled instruction is emitted.
fn plan_body(prog: &Program, plan: &SlicePlan) -> BodyPlan {
    let order = &plan.sched.order;
    let mut extra_live_ins = BTreeSet::new();
    let mut interprocedural = false;

    // Callee inlining feasibility: simple = no calls, branches, stores.
    let callee_simple = !plan.slice.callee_insts.is_empty()
        && plan.slice.callee_insts.iter().all(|&at| {
            let op = &prog.inst(at).op;
            !(op.is_call() || op.is_branch() || op.is_store() || op.is_terminator())
        });

    // Does the root load's value feed anything later in the order?
    let value_needed = |root: InstRef, pos: usize| -> bool {
        let Op::Ld { dst, .. } = prog.inst(root).op else { return true };
        order.iter().skip(pos + 1).any(|&at| prog.inst(at).op.uses().contains(&dst))
            || plan.slice.callee_insts.iter().any(|&at| prog.inst(at).op.uses().contains(&dst))
    };
    let is_root = |at: InstRef| at == plan.root || plan.extra_roots.contains(&at);

    let mut insts = Vec::with_capacity(order.len());
    for (pos, &at) in order.iter().enumerate() {
        let op = prog.inst(at).op.clone();
        let emitted = if is_root(at) {
            if value_needed(at, pos) {
                BodyInst::Clone(op)
            } else {
                let Op::Ld { base, off, .. } = op else { unreachable!("root is a load") };
                BodyInst::Prefetch { base, off }
            }
        } else if Some(at) == plan.latch_branch {
            let Op::BrCond { pred, if_true, .. } = op else {
                unreachable!("latch is a conditional branch")
            };
            // Continue when the taken target stays inside the region.
            let continue_on_true = plan.blocks.contains(&if_true);
            BodyInst::Latch { pred, continue_on_true }
        } else {
            match op {
                // Straight-line speculation: other branches vanish.
                Op::Br { .. } | Op::BrCond { .. } => BodyInst::Skip,
                Op::Call { .. } | Op::CallInd { .. } => {
                    if callee_simple {
                        interprocedural = true;
                        BodyInst::Clone(op) // placeholder; expanded at emit
                    } else {
                        // Stale-value speculation: capture the result at
                        // spawn time instead of computing it.
                        extra_live_ins.insert(conv::RV);
                        BodyInst::Skip
                    }
                }
                // Never allowed in slices.
                Op::St { .. } => BodyInst::Skip,
                other => BodyInst::Clone(other),
            }
        };
        insts.push(emitted);
    }
    BodyPlan { insts, extra_live_ins, interprocedural }
}

/// Emit the slice and stub blocks for `plan` into `prog` (phase 1: no
/// existing block is modified, only new blocks appended) and return the
/// slice's record. Phase 2 ([`insert_triggers`]) inserts the `chk.c` at
/// `trigger` and the stub's final branch. A chaining slice's chain stops
/// re-spawning after at most `chain_budget` links.
///
/// # Errors
///
/// Returns a [`SkipReason`] when the plan cannot be emitted.
pub fn emit_slice(
    prog: &mut Program,
    plan: &SlicePlan,
    trigger: TriggerPoint,
    chain_budget: u64,
) -> Result<EmittedSlice, SkipReason> {
    if plan.sched.order.is_empty() {
        return Err(SkipReason::EmptySlice);
    }
    let fid = plan.func;
    let body = plan_body(prog, plan);

    // Live-in layout: slice live-ins plus any stale-value captures.
    let mut live_ins: Vec<Reg> = plan
        .slice
        .live_ins
        .iter()
        .chain(body.extra_live_ins.iter())
        .copied()
        .collect::<BTreeSet<Reg>>()
        .into_iter()
        .collect();
    live_ins.retain(|r| !r.is_zero());
    // One word per live-in, plus the chain budget word for chaining SP.
    let budget_idx = live_ins.len() as u8;
    let words_needed = live_ins.len() + usize::from(plan.model == SpModel::Chaining);
    if words_needed > 16 {
        return Err(SkipReason::TooManyLiveIns(live_ins.len()));
    }

    let slice_regs: BTreeSet<Reg> = plan
        .sched
        .order
        .iter()
        .chain(plan.slice.callee_insts.iter())
        .flat_map(|&at| {
            let op = &prog.inst(at).op;
            op.uses().into_iter().chain(op.def())
        })
        .chain(live_ins.iter().copied())
        .collect();
    let scratch = unused_regs(prog, fid, &slice_regs);
    // Needs: stub slot + stub budget, slice slot + count + 2 predicates.
    if scratch.len() < 6 {
        return Err(SkipReason::NoScratchRegisters);
    }
    let (r_stub_slot, r_stub_tmp) = (scratch[0], scratch[1]);
    let (r_slot2, r_cnt, r_p1, r_cnt2) = (scratch[2], scratch[3], scratch[4], scratch[5]);

    // ---- Slice blocks ----
    let func_len = |prog: &Program| prog.func(fid).blocks.len() as u32;
    let entry_blk = BlockId(func_len(prog));
    let mut new_blocks: Vec<Block> = Vec::new();
    // Local tag minting that works with &mut Program later.
    let fresh = |prog: &mut Program, op: Op| {
        let t = prog.fresh_tag();
        Inst::new(t, op)
    };

    let mut slice_len = 0usize;
    match plan.model {
        SpModel::Chaining => {
            // entry -> (gate) -> spawn -> cont [-> work | kill] .
            // When the latch was predicted out of the critical sub-slice
            // it re-appears post-spawn as an *early-kill* gate: the
            // condition chain runs first and a link past the loop end
            // dies without issuing wild prefetches.
            let post = &body.insts[plan.sched.spawn_pos..];
            let post_latch = post.iter().find_map(|bi| match bi {
                BodyInst::Latch { pred, continue_on_true } => Some((*pred, *continue_on_true)),
                _ => None,
            });
            let spawn_blk = BlockId(entry_blk.0 + 1);
            let cont_blk = BlockId(entry_blk.0 + 2);
            let work_blk = BlockId(entry_blk.0 + 3); // used only with post_latch
            let killb_blk = BlockId(entry_blk.0 + 4);
            let mut entry = Block { insts: Vec::new(), attachment: true };
            for (i, &r) in live_ins.iter().enumerate() {
                entry.insts.push(fresh(prog, Op::LibLd { dst: r, slot: conv::SLOT, idx: i as u8 }));
            }
            entry
                .insts
                .push(fresh(prog, Op::LibLd { dst: r_cnt, slot: conv::SLOT, idx: budget_idx }));
            entry.insts.push(fresh(prog, Op::LibFree { slot: conv::SLOT }));
            // Critical sub-slice.
            let mut gate_pred: Option<(Reg, bool)> = None;
            for bi in body.insts.iter().take(plan.sched.spawn_pos) {
                emit_body_inst(prog, plan, bi, &mut entry.insts, &mut gate_pred, &mut slice_len);
            }
            // Gate: chain budget, AND the spawn condition when the latch
            // was computed pre-spawn (unpredicted).
            entry.insts.push(fresh(
                prog,
                Op::Cmp { kind: CmpKind::Gt, dst: r_p1, a: r_cnt, b: Operand::Imm(0) },
            ));
            if let Some((pred, cont_on_true)) = gate_pred {
                if cont_on_true {
                    entry.insts.push(fresh(
                        prog,
                        Op::Alu {
                            kind: ssp_ir::AluKind::And,
                            dst: r_p1,
                            a: r_p1,
                            b: Operand::Reg(pred),
                        },
                    ));
                } else {
                    // Continue when pred == 0: invert into the gate.
                    entry.insts.push(fresh(
                        prog,
                        Op::Cmp { kind: CmpKind::Eq, dst: r_cnt2, a: pred, b: Operand::Imm(0) },
                    ));
                    entry.insts.push(fresh(
                        prog,
                        Op::Alu {
                            kind: ssp_ir::AluKind::And,
                            dst: r_p1,
                            a: r_p1,
                            b: Operand::Reg(r_cnt2),
                        },
                    ));
                }
            }
            entry.insts.push(fresh(
                prog,
                Op::BrCond { pred: r_p1, if_true: spawn_blk, if_false: cont_blk },
            ));
            new_blocks.push(entry);

            // Spawn block: pass the live-in registers (now holding the
            // next iteration's values — the critical sub-slice computed
            // them) and the decremented budget.
            let mut spawn = Block { insts: Vec::new(), attachment: true };
            spawn.insts.push(fresh(
                prog,
                Op::Alu { kind: ssp_ir::AluKind::Sub, dst: r_cnt2, a: r_cnt, b: Operand::Imm(1) },
            ));
            spawn.insts.push(fresh(prog, Op::LibAlloc { dst: r_slot2 }));
            for (i, &r) in live_ins.iter().enumerate() {
                spawn.insts.push(fresh(prog, Op::LibSt { slot: r_slot2, idx: i as u8, src: r }));
            }
            spawn
                .insts
                .push(fresh(prog, Op::LibSt { slot: r_slot2, idx: budget_idx, src: r_cnt2 }));
            spawn.insts.push(fresh(prog, Op::Spawn { entry: entry_blk, slot: r_slot2 }));
            spawn.insts.push(fresh(prog, Op::Br { target: cont_blk }));
            new_blocks.push(spawn);

            // Non-critical sub-slice, then die.
            match post_latch {
                None => {
                    let mut cont = Block { insts: Vec::new(), attachment: true };
                    let mut gate2: Option<(Reg, bool)> = None;
                    for bi in body.insts.iter().skip(plan.sched.spawn_pos) {
                        emit_body_inst(prog, plan, bi, &mut cont.insts, &mut gate2, &mut slice_len);
                    }
                    cont.insts.push(fresh(prog, Op::KillThread));
                    new_blocks.push(cont);
                }
                Some((pred, continue_on_true)) => {
                    // Split the post section into the condition chain
                    // (what the latch's predicate transitively needs) and
                    // the prefetch work.
                    let mut needed: HashSet<Reg> = HashSet::from([pred]);
                    let mut feeds = vec![false; post.len()];
                    for (i, bi) in post.iter().enumerate().rev() {
                        if let BodyInst::Clone(op) = bi {
                            if op.def().is_some_and(|d| needed.contains(&d)) {
                                feeds[i] = true;
                                needed.extend(op.uses());
                            }
                        }
                    }
                    let mut cont = Block { insts: Vec::new(), attachment: true };
                    let mut unused_gate: Option<(Reg, bool)> = None;
                    for (i, bi) in post.iter().enumerate() {
                        if feeds[i] {
                            emit_body_inst(
                                prog,
                                plan,
                                bi,
                                &mut cont.insts,
                                &mut unused_gate,
                                &mut slice_len,
                            );
                        }
                    }
                    let (t, f) = if continue_on_true {
                        (work_blk, killb_blk)
                    } else {
                        (killb_blk, work_blk)
                    };
                    cont.insts.push(fresh(prog, Op::BrCond { pred, if_true: t, if_false: f }));
                    new_blocks.push(cont);

                    let mut workb = Block { insts: Vec::new(), attachment: true };
                    for (i, bi) in post.iter().enumerate() {
                        if !feeds[i] && !matches!(bi, BodyInst::Latch { .. }) {
                            emit_body_inst(
                                prog,
                                plan,
                                bi,
                                &mut workb.insts,
                                &mut unused_gate,
                                &mut slice_len,
                            );
                        }
                    }
                    workb.insts.push(fresh(prog, Op::KillThread));
                    new_blocks.push(workb);

                    let mut killb = Block { insts: Vec::new(), attachment: true };
                    killb.insts.push(fresh(prog, Op::KillThread));
                    new_blocks.push(killb);
                }
            }
        }
        SpModel::Basic => {
            // entry -> loop -> loop | done; done -> kill (Figure 6(b)).
            let loop_blk = BlockId(entry_blk.0 + 1);
            let done_blk = BlockId(entry_blk.0 + 2);
            let mut entry = Block { insts: Vec::new(), attachment: true };
            for (i, &r) in live_ins.iter().enumerate() {
                entry.insts.push(fresh(prog, Op::LibLd { dst: r, slot: conv::SLOT, idx: i as u8 }));
            }
            entry.insts.push(fresh(prog, Op::LibFree { slot: conv::SLOT }));
            entry.insts.push(fresh(prog, Op::Br { target: loop_blk }));
            new_blocks.push(entry);

            let mut lp = Block { insts: Vec::new(), attachment: true };
            let mut gate_pred: Option<(Reg, bool)> = None;
            for bi in &body.insts {
                emit_body_inst(prog, plan, bi, &mut lp.insts, &mut gate_pred, &mut slice_len);
            }
            match gate_pred {
                Some((pred, true)) => {
                    lp.insts.push(fresh(
                        prog,
                        Op::BrCond { pred, if_true: loop_blk, if_false: done_blk },
                    ));
                }
                Some((pred, false)) => {
                    lp.insts.push(fresh(
                        prog,
                        Op::BrCond { pred, if_true: done_blk, if_false: loop_blk },
                    ));
                }
                // No latch in the slice: single pass.
                None => lp.insts.push(fresh(prog, Op::Br { target: done_blk })),
            }
            new_blocks.push(lp);

            let mut done = Block { insts: Vec::new(), attachment: true };
            done.insts.push(fresh(prog, Op::KillThread));
            new_blocks.push(done);
        }
    }

    // ---- Stub block (main-thread recovery code) ----
    let stub_blk = BlockId(entry_blk.0 + new_blocks.len() as u32);
    let mut stub = Block { insts: Vec::new(), attachment: true };
    stub.insts.push(fresh(prog, Op::LibAlloc { dst: r_stub_slot }));
    for (i, &r) in live_ins.iter().enumerate() {
        stub.insts.push(fresh(prog, Op::LibSt { slot: r_stub_slot, idx: i as u8, src: r }));
    }
    if plan.model == SpModel::Chaining {
        // Chain budget: roughly twice the expected remaining iterations,
        // clamped — chains self-terminate on the spawn condition, the
        // budget bounds predicted (ungated) chains and broken profiles.
        let budget = ((plan.trip_count * 2.0) as u64).max(16).min(chain_budget.max(1));
        stub.insts.push(fresh(prog, Op::Movi { dst: r_stub_tmp, imm: budget as i64 }));
        stub.insts
            .push(fresh(prog, Op::LibSt { slot: r_stub_slot, idx: budget_idx, src: r_stub_tmp }));
    }
    stub.insts.push(fresh(prog, Op::Spawn { entry: entry_blk, slot: r_stub_slot }));
    // Final `br resume` appended by `insert_trigger`.
    new_blocks.push(stub);

    prog.func_mut(fid).blocks.extend(new_blocks);

    let roots = std::iter::once(plan.root).chain(plan.extra_roots.iter().copied());
    Ok(EmittedSlice {
        root_tags: roots.map(|at| prog.inst(at).tag).collect(),
        trigger,
        stub: stub_blk,
        slice_entry: entry_blk,
        model: plan.model,
        live_ins,
        slice_len,
        interprocedural: body.interprocedural,
    })
}

/// Emit one body instruction into `out`.
fn emit_body_inst(
    prog: &mut Program,
    plan: &SlicePlan,
    bi: &BodyInst,
    out: &mut Vec<Inst>,
    gate_pred: &mut Option<(Reg, bool)>,
    slice_len: &mut usize,
) {
    match bi {
        BodyInst::Clone(op) => {
            if op.is_call() {
                // Inline the callee's extracted instructions in callee
                // program order ("the tool can form a slice block by
                // extracting instructions from various procedures").
                let callee_ops: Vec<Op> =
                    plan.slice.callee_insts.iter().map(|&at| prog.inst(at).op.clone()).collect();
                for cop in callee_ops {
                    let t = prog.fresh_tag();
                    out.push(Inst::new(t, cop));
                    *slice_len += 1;
                }
            } else {
                let t = prog.fresh_tag();
                out.push(Inst::new(t, op.clone()));
                *slice_len += 1;
            }
        }
        BodyInst::Prefetch { base, off } => {
            let t = prog.fresh_tag();
            out.push(Inst::new(t, Op::Lfetch { base: *base, off: *off }));
            *slice_len += 1;
        }
        BodyInst::Latch { pred, continue_on_true } => {
            *gate_pred = Some((*pred, *continue_on_true));
        }
        BodyInst::Skip => {}
    }
}

/// Phase 2 helper: insert `slice`'s `chk.c` at its trigger point,
/// splitting the block so the stub can branch back to the resume point
/// (Figure 7's layout). Triggers must be inserted in descending
/// `(block, position)` order so earlier splits do not invalidate later
/// positions; [`insert_triggers`] handles the ordering.
fn insert_trigger(prog: &mut Program, slice: &EmittedSlice) {
    let point = &slice.trigger;
    let fid = point.func;
    let split_at = point.after.map_or(0, |i| i + 1);
    let cont_blk = BlockId(prog.func(fid).blocks.len() as u32);
    let func = prog.func_mut(fid);
    let tail: Vec<Inst> = func.block_mut(point.block).insts.split_off(split_at);
    debug_assert!(!tail.is_empty(), "trigger split must leave a terminator in the tail");
    let was_attachment = func.block(point.block).attachment;
    func.blocks.push(Block { insts: tail, attachment: was_attachment });
    let chk = Inst::new(InstTag(0), Op::ChkC { stub: slice.stub });
    let br = Inst::new(InstTag(0), Op::Br { target: cont_blk });
    let block = &mut prog.func_mut(fid).blocks[point.block.index()].insts;
    block.push(chk);
    block.push(br);
    // Fresh tags (fresh_tag needs &mut prog, so patch afterwards).
    let t1 = prog.fresh_tag();
    let t2 = prog.fresh_tag();
    let block = &mut prog.func_mut(fid).blocks[point.block.index()].insts;
    let n = block.len();
    block[n - 2].tag = t1;
    block[n - 1].tag = t2;
    // Stub resumes at the split-off tail.
    let t3 = prog.fresh_tag();
    prog.func_mut(fid).blocks[slice.stub.index()]
        .insts
        .push(Inst::new(t3, Op::Br { target: cont_blk }));
}

/// Insert every slice's trigger, ordering by descending position so
/// splits never invalidate pending positions (a stable sort: slices
/// sharing a position keep their order, and so their tags).
pub fn insert_triggers(prog: &mut Program, slices: &[EmittedSlice]) {
    let mut order: Vec<&EmittedSlice> = slices.iter().collect();
    order.sort_by_key(|s| {
        let TriggerPoint { func, block, after } = s.trigger;
        Reverse((func, block, after.map_or(-1, |i| i as i64)))
    });
    for slice in order {
        insert_trigger(prog, slice);
    }
}

/// Check that the emitted program still verifies, including the
/// no-stores-in-slices rule.
///
/// # Errors
///
/// Propagates the verifier error.
pub fn verify_emitted(prog: &Program) -> Result<(), ssp_ir::verify::VerifyError> {
    ssp_ir::verify::verify(prog)?;
    ssp_ir::verify::verify_speculative(prog)
}
