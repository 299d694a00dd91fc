//! Hand-tuned SSP adaptations of `mcf` and `health` (§4.5).
//!
//! Wang et al. \[31\] adapted these two benchmarks manually; the paper
//! compares the automatic tool against them on the same simulator. Our
//! hand versions play the same role and use the same tricks the paper
//! credits the manual work with:
//!
//! * **mcf** — a two-arc-unrolled chaining slice (half the chain hand-off
//!   overhead per prefetch) that prefetches both node potentials;
//! * **health** — a chaining slice over the village worklist that
//!   *inlines the callee's patient-list walk* across the procedure
//!   boundary, chasing several patients deep — "the inlining of a few
//!   levels of recursive function calls by the programmer's hand
//!   adaptation" the automatic tool declines to do.
//!
//! Both are built directly against the known shape of the corresponding
//! [`ssp_workloads`] builders (asserted at construction time), using the
//! same stub/trigger machinery as the tool so the comparison isolates
//! slice quality.

use ssp_codegen::emit::insert_triggers;
use ssp_codegen::EmittedSlice;
use ssp_ir::reg::conv;
use ssp_ir::{AluKind, Block, BlockId, CmpKind, FuncId, Inst, Op, Operand, Program, Reg};
use ssp_sched::SpModel;
use ssp_trigger::TriggerPoint;

fn push_block(prog: &mut Program, fid: FuncId, mut make: impl FnMut(&mut Vec<Op>)) -> BlockId {
    let mut ops = Vec::new();
    make(&mut ops);
    let insts = ops
        .into_iter()
        .map(|op| {
            let t = prog.fresh_tag();
            Inst::new(t, op)
        })
        .collect();
    let id = BlockId(prog.func(fid).blocks.len() as u32);
    prog.func_mut(fid).blocks.push(Block { insts, attachment: true });
    id
}

/// Hand-adapt the `mcf` workload program.
///
/// # Panics
///
/// Panics if `prog` does not have the shape `ssp_workloads::mcf::build`
/// produces.
pub fn adapt_mcf(prog: &Program) -> Program {
    let fid = prog.entry;
    let func = prog.func(fid);
    assert_eq!(func.name, "primal_bea_map", "expects the mcf workload");
    assert!(func.blocks.len() >= 7, "mcf builder layout changed");
    let cont = BlockId(4);
    assert!(
        matches!(func.block(cont).insts[0].op, Op::Alu { kind: AluKind::Add, .. }),
        "cont block starts with the arc update"
    );

    let mut out = prog.clone();
    // Registers: live-ins are arc (r70) and K (r65); slice temps high.
    let (arc, k) = (Reg(70), Reg(65));
    let (a, kk, cnt, a2, a4, p, c, s2) =
        (Reg(100), Reg(101), Reg(102), Reg(103), Reg(104), Reg(105), Reg(106), Reg(107));
    let (t1, h1, t2, h2) = (Reg(108), Reg(109), Reg(110), Reg(111));

    let n0 = out.func(fid).blocks.len() as u32;
    let (entry_s, spawn_s, work_s) = (BlockId(n0), BlockId(n0 + 1), BlockId(n0 + 2));
    push_block(&mut out, fid, |ops| {
        ops.push(Op::LibLd { dst: a, slot: conv::SLOT, idx: 0 });
        ops.push(Op::LibLd { dst: kk, slot: conv::SLOT, idx: 1 });
        ops.push(Op::LibLd { dst: cnt, slot: conv::SLOT, idx: 2 });
        ops.push(Op::LibFree { slot: conv::SLOT });
        ops.push(Op::Alu { kind: AluKind::Add, dst: a2, a, b: Operand::Imm(64) });
        ops.push(Op::Alu { kind: AluKind::Add, dst: a4, a, b: Operand::Imm(128) });
        ops.push(Op::Cmp { kind: CmpKind::Lt, dst: p, a: a4, b: Operand::Reg(kk) });
        ops.push(Op::Cmp { kind: CmpKind::Gt, dst: c, a: cnt, b: Operand::Imm(0) });
        ops.push(Op::Alu { kind: AluKind::And, dst: p, a: p, b: Operand::Reg(c) });
        ops.push(Op::BrCond { pred: p, if_true: spawn_s, if_false: work_s });
    });
    push_block(&mut out, fid, |ops| {
        ops.push(Op::Alu { kind: AluKind::Sub, dst: cnt, a: cnt, b: Operand::Imm(1) });
        ops.push(Op::LibAlloc { dst: s2 });
        ops.push(Op::LibSt { slot: s2, idx: 0, src: a4 });
        ops.push(Op::LibSt { slot: s2, idx: 1, src: kk });
        ops.push(Op::LibSt { slot: s2, idx: 2, src: cnt });
        ops.push(Op::Spawn { entry: entry_s, slot: s2 });
        ops.push(Op::Br { target: work_s });
    });
    push_block(&mut out, fid, |ops| {
        // Prefetch both potentials of this arc and the next one.
        ops.push(Op::Ld { dst: t1, base: a, off: 0 });
        ops.push(Op::Lfetch { base: t1, off: 0 });
        ops.push(Op::Ld { dst: h1, base: a, off: 8 });
        ops.push(Op::Lfetch { base: h1, off: 0 });
        ops.push(Op::Ld { dst: t2, base: a2, off: 0 });
        ops.push(Op::Lfetch { base: t2, off: 0 });
        ops.push(Op::Ld { dst: h2, base: a2, off: 8 });
        ops.push(Op::Lfetch { base: h2, off: 0 });
        ops.push(Op::KillThread);
    });
    // Stub: copy {arc, K}, chain budget; spawn.
    let (rs, rt) = (Reg(112), Reg(113));
    let stub = push_block(&mut out, fid, |ops| {
        ops.push(Op::LibAlloc { dst: rs });
        ops.push(Op::LibSt { slot: rs, idx: 0, src: arc });
        ops.push(Op::LibSt { slot: rs, idx: 1, src: k });
        ops.push(Op::Movi { dst: rt, imm: 4000 });
        ops.push(Op::LibSt { slot: rs, idx: 2, src: rt });
        ops.push(Op::Spawn { entry: entry_s, slot: rs });
        // Resume branch appended by insert_triggers.
    });
    let slice = EmittedSlice {
        root_tags: Vec::new(),
        trigger: TriggerPoint { func: fid, block: cont, after: Some(0) },
        stub,
        slice_entry: entry_s,
        model: SpModel::Chaining,
        live_ins: vec![arc, k],
        slice_len: 12,
        interprocedural: false,
    };
    insert_triggers(&mut out, &[slice]);
    ssp_ir::verify::verify(&out).expect("hand mcf verifies");
    ssp_ir::verify::verify_speculative(&out).expect("hand mcf slice is store-free");
    out
}

/// Hand-adapt the `health` workload program.
///
/// # Panics
///
/// Panics if `prog` does not have the shape
/// `ssp_workloads::health::build` produces.
pub fn adapt_health(prog: &Program) -> Program {
    let fid = prog.entry;
    let func = prog.func(fid);
    assert_eq!(func.name, "main", "expects the health workload");
    assert!(prog.funcs.len() == 2, "health has main + check_patients");
    let child_l = BlockId(3);
    assert!(
        matches!(func.block(child_l).insts[0].op, Op::Ld { .. }),
        "child_l starts by popping the worklist"
    );

    let mut out = prog.clone();
    // Live-ins: worklist head (r66) and tail (r67) cursors.
    let (headp, tailp) = (Reg(66), Reg(67));
    let (hp, tp, cnt, hp2, p, c, s2) =
        (Reg(100), Reg(101), Reg(102), Reg(103), Reg(104), Reg(105), Reg(106));
    let (v, ph, p1, p2) = (Reg(107), Reg(108), Reg(109), Reg(110));

    let n0 = out.func(fid).blocks.len() as u32;
    let (entry_s, spawn_s, work_s) = (BlockId(n0), BlockId(n0 + 1), BlockId(n0 + 2));
    push_block(&mut out, fid, |ops| {
        ops.push(Op::LibLd { dst: hp, slot: conv::SLOT, idx: 0 });
        ops.push(Op::LibLd { dst: tp, slot: conv::SLOT, idx: 1 });
        ops.push(Op::LibLd { dst: cnt, slot: conv::SLOT, idx: 2 });
        ops.push(Op::LibFree { slot: conv::SLOT });
        ops.push(Op::Alu { kind: AluKind::Add, dst: hp2, a: hp, b: Operand::Imm(8) });
        // Stale tail bound: conservative chain stop.
        ops.push(Op::Cmp { kind: CmpKind::Lt, dst: p, a: hp2, b: Operand::Reg(tp) });
        ops.push(Op::Cmp { kind: CmpKind::Gt, dst: c, a: cnt, b: Operand::Imm(0) });
        ops.push(Op::Alu { kind: AluKind::And, dst: p, a: p, b: Operand::Reg(c) });
        ops.push(Op::BrCond { pred: p, if_true: spawn_s, if_false: work_s });
    });
    push_block(&mut out, fid, |ops| {
        ops.push(Op::Alu { kind: AluKind::Sub, dst: cnt, a: cnt, b: Operand::Imm(1) });
        ops.push(Op::LibAlloc { dst: s2 });
        ops.push(Op::LibSt { slot: s2, idx: 0, src: hp2 });
        ops.push(Op::LibSt { slot: s2, idx: 1, src: tp });
        ops.push(Op::LibSt { slot: s2, idx: 2, src: cnt });
        ops.push(Op::Spawn { entry: entry_s, slot: s2 });
        ops.push(Op::Br { target: work_s });
    });
    push_block(&mut out, fid, |ops| {
        // The hand trick: inline check_patients' pointer chase across the
        // call boundary, three patients deep, plus the village lines.
        ops.push(Op::Ld { dst: v, base: hp, off: 0 }); // village ptr
        ops.push(Op::Lfetch { base: v, off: 0 }); // children line
        ops.push(Op::Ld { dst: ph, base: v, off: 32 }); // patients head
        ops.push(Op::Ld { dst: p1, base: ph, off: 0 }); // patient 1 (line: next+time)
        ops.push(Op::Ld { dst: p2, base: p1, off: 0 }); // patient 2
        ops.push(Op::Lfetch { base: p2, off: 0 }); // patient 3
        ops.push(Op::KillThread);
    });
    let (rs, rt) = (Reg(111), Reg(112));
    let stub = push_block(&mut out, fid, |ops| {
        ops.push(Op::LibAlloc { dst: rs });
        ops.push(Op::LibSt { slot: rs, idx: 0, src: headp });
        ops.push(Op::LibSt { slot: rs, idx: 1, src: tailp });
        ops.push(Op::Movi { dst: rt, imm: 800 });
        ops.push(Op::LibSt { slot: rs, idx: 2, src: rt });
        ops.push(Op::Spawn { entry: entry_s, slot: rs });
    });
    let slice = EmittedSlice {
        root_tags: Vec::new(),
        // Trigger right after the worklist pop advances headp (idx 1).
        trigger: TriggerPoint { func: fid, block: child_l, after: Some(1) },
        stub,
        slice_entry: entry_s,
        model: SpModel::Chaining,
        live_ins: vec![headp, tailp],
        slice_len: 10,
        interprocedural: true,
    };
    insert_triggers(&mut out, &[slice]);
    ssp_ir::verify::verify(&out).expect("hand health verifies");
    ssp_ir::verify::verify_speculative(&out).expect("hand health slice is store-free");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_core::{simulate, MachineConfig};

    #[test]
    fn hand_mcf_speeds_up_in_order() {
        let w = ssp_workloads::mcf::build(crate::SEED);
        let hand = adapt_mcf(&w.program);
        let mc = MachineConfig::in_order();
        let base = simulate(&w.program, &mc);
        let h = simulate(&hand, &mc);
        assert!(h.halted);
        assert!(h.threads_spawned > 10);
        assert!(
            h.cycles * 4 < base.cycles * 3,
            "hand mcf saves >25%: base={} hand={}",
            base.cycles,
            h.cycles
        );
    }

    #[test]
    fn hand_health_speeds_up_in_order() {
        let w = ssp_workloads::health::build(crate::SEED);
        let hand = adapt_health(&w.program);
        let mc = MachineConfig::in_order();
        let base = simulate(&w.program, &mc);
        let h = simulate(&hand, &mc);
        assert!(h.halted);
        assert!(h.threads_spawned > 10);
        assert!(
            h.cycles * 10 < base.cycles * 9,
            "hand health saves >10%: base={} hand={}",
            base.cycles,
            h.cycles
        );
    }

    #[test]
    fn hand_adaptations_preserve_main_thread_work() {
        type HandAdapt = fn(&Program) -> Program;
        let cases: Vec<(ssp_workloads::Workload, HandAdapt)> = vec![
            (ssp_workloads::mcf::build(crate::SEED), adapt_mcf),
            (ssp_workloads::health::build(crate::SEED), adapt_health),
        ];
        for (w, adapt) in cases {
            let hand = adapt(&w.program);
            let mc = MachineConfig::in_order().with_memory_mode(ssp_core::MemoryMode::PerfectAll);
            let base = simulate(&w.program, &mc);
            let h = simulate(&hand, &mc);
            for (tag, s) in &base.loads {
                assert_eq!(
                    s.accesses,
                    h.loads.get(tag).map(|x| x.accesses).unwrap_or(0),
                    "{}: load {tag} count preserved",
                    w.name
                );
            }
        }
    }
}
