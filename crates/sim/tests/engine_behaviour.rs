//! Behavioural tests of the timed engine: stall-on-use, OOO latency
//! hiding, prefetching, SMT spawning, and a hand-built miniature SSP
//! adaptation exercising the whole `chk.c`/stub/slice/live-in-buffer path.

use ssp_ir::reg::conv;
use ssp_ir::{CmpKind, InstRef, Op, Operand, Program, ProgramBuilder, Reg};
use ssp_sim::decode::fu_class;
use ssp_sim::exec::MASK_WORDS;
use ssp_sim::{
    simulate, simulate_snapshot, simulate_stepped, DecodedProgram, MachineConfig, MemoryMode,
    PipelineKind,
};

const ARCS: u64 = 0x0100_0000;
const NODES: u64 = 0x0800_0000;
const N: i64 = 400;

/// A pointer-chasing loop modelled on mcf's `primal_bea_map` (Figure 3):
///
/// ```text
/// do { t = arc; u = load(t->tail); v = load(u->potential);
///      sum += v; arc += 64; } while (arc < K);
/// ```
///
/// Arcs are sequential (one per cache line); `tail` pointers are scattered
/// by a multiplicative permutation so the dependent load defeats any
/// stride pattern.
fn pointer_chase_program() -> Program {
    let mut pb = ProgramBuilder::new();
    // Data image: arc[i].tail at ARCS + 64 i -> NODES + 64 perm(i);
    // node.potential = i (value loaded).
    for i in 0..N as u64 {
        let perm = (i * 7919) % N as u64;
        pb.data_word(ARCS + 64 * i, NODES + 64 * perm);
        pb.data_word(NODES + 64 * perm, perm);
    }
    let mut f = pb.function("main");
    let e = f.entry_block();
    let body = f.new_block();
    let exit = f.new_block();
    let (arc, k, t, u, v, sum, p) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70));
    f.at(e).movi(arc, ARCS as i64).movi(k, ARCS as i64 + 64 * N).movi(sum, 0).br(body);
    f.at(body)
        .mov(t, arc)
        .ld(u, t, 0) // u = t->tail
        .ld(v, u, 0) // v = u->potential  (the delinquent load)
        .add(sum, sum, Operand::Reg(v))
        .add(arc, arc, 64)
        .cmp(CmpKind::Lt, p, arc, Operand::Reg(k))
        .br_cond(p, body, exit);
    f.at(exit).halt();
    let main = f.finish();
    pb.finish_with(main)
}

/// The same program hand-adapted for chaining SSP, following Figure 5(b)
/// and the Figure 7 code layout: a `chk.c` trigger in the loop preheader,
/// a stub block copying live-ins, and a chaining slice block that spawns
/// its successor before doing the two dependent loads.
fn pointer_chase_ssp() -> Program {
    let mut pb = ProgramBuilder::new();
    for i in 0..N as u64 {
        let perm = (i * 7919) % N as u64;
        pb.data_word(ARCS + 64 * i, NODES + 64 * perm);
        pb.data_word(NODES + 64 * perm, perm);
    }
    let mut f = pb.function("main");
    let e = f.entry_block();
    let pre = f.new_block();
    let body = f.new_block();
    let exit = f.new_block();
    let stub = f.new_block();
    let slice = f.new_block();
    let (arc, k, t, u, v, sum, p) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70));
    f.at(e).movi(arc, ARCS as i64).movi(k, ARCS as i64 + 64 * N).movi(sum, 0).br(pre);
    // Trigger point: the `chk.c` sits in the loop, so whenever a hardware
    // context is free a fresh chain is seeded from the main thread's
    // current position; while contexts are busy it is a nop. The stub
    // resumes *after* the trigger (the tool's Figure-7 layout after the
    // block split), so the trigger runs at most once per iteration.
    let rest = f.new_block();
    f.at(pre).br(body);
    f.at(body).chk_c(stub).br(rest);
    f.at(rest)
        .mov(t, arc)
        .ld(u, t, 0)
        .ld(v, u, 0)
        .add(sum, sum, Operand::Reg(v))
        .add(arc, arc, 64)
        .cmp(CmpKind::Lt, p, arc, Operand::Reg(k))
        .br_cond(p, body, exit);
    f.at(exit).halt();

    // Stub (executed by the main thread as chk.c recovery code):
    // copy live-ins {arc, k} to a fresh LIB slot, spawn, resume.
    let slot = Reg(20);
    f.at(stub).lib_alloc(slot).lib_st(slot, 0, arc).lib_st(slot, 1, k).spawn(slice, slot).br(rest);

    // Chaining slice (Figure 5(b)): critical sub-slice first, then spawn
    // the next chaining thread, then the two dependent loads.
    let (st, sk, snext, sp_, su, sslot) = (Reg(30), Reg(31), Reg(32), Reg(33), Reg(34), Reg(35));
    let spawn_blk = f.new_block();
    let work = f.new_block();
    f.at(slice)
        .lib_ld(st, conv::SLOT, 0) // A: t = arc (live-in)
        .lib_ld(sk, conv::SLOT, 1)
        .lib_free(conv::SLOT)
        .add(snext, st, 64) // D: arc' = t + 64
        .cmp(CmpKind::Lt, sp_, snext, Operand::Reg(sk)) // E: arc' < K ?
        .br_cond(sp_, spawn_blk, work);
    f.at(spawn_blk)
        .lib_alloc(sslot)
        .lib_st(sslot, 0, snext)
        .lib_st(sslot, 1, sk)
        .spawn(slice, sslot)
        .br(work);
    f.at(work)
        .ld(su, st, 0) // B: u = load(t->tail)
        .lfetch(su, 0) // C: prefetch(u->potential)
        .kill_thread();

    let main = f.finish();
    let mut prog = pb.finish_with(main);
    for b in [stub, slice, spawn_blk, work] {
        prog.funcs[0].blocks[b.index()].attachment = true;
    }
    ssp_ir::verify::verify(&prog).expect("hand adaptation is structurally valid");
    ssp_ir::verify::verify_speculative(&prog).expect("slice contains no stores");
    prog
}

#[test]
fn straightline_program_halts() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    f.at(e).movi(Reg(1), 1).movi(Reg(2), 2).add(Reg(3), Reg(1), Operand::Reg(Reg(2))).halt();
    let main = f.finish();
    let prog = pb.finish_with(main);
    let r = simulate(&prog, &MachineConfig::in_order());
    assert!(r.halted);
    assert!(r.cycles >= 1);
    assert_eq!(r.main_insts, 4);
}

#[test]
fn in_order_stalls_on_dependent_load_use() {
    let prog = pointer_chase_program();
    let r = simulate(&prog, &MachineConfig::in_order());
    assert!(r.halted);
    // Two dependent cold misses per iteration: at least ~2*230 cycles/iter
    // minus partial-hit effects. Far more than the handful of instructions.
    assert!(
        r.cycles > (N as u64) * 300,
        "pointer chase must be memory bound: {} cycles for {} iters",
        r.cycles,
        N
    );
    let agg = r.load_stats_all();
    assert!(agg.l1_miss_rate() > 0.9, "cold scattered loads mostly miss");
}

#[test]
fn perfect_memory_is_dramatically_faster() {
    let prog = pointer_chase_program();
    let base = simulate(&prog, &MachineConfig::in_order());
    let perfect =
        simulate(&prog, &MachineConfig::in_order().with_memory_mode(MemoryMode::PerfectAll));
    assert!(perfect.halted);
    assert!(
        base.cycles > 10 * perfect.cycles,
        "perfect memory should give order-of-magnitude speedup: {} vs {}",
        base.cycles,
        perfect.cycles
    );
}

#[test]
fn perfect_delinquent_mode_targets_selected_loads() {
    let prog = pointer_chase_program();
    // Find the two loads' tags via profile.
    let profile = ssp_sim::profile(&prog, &MachineConfig::in_order());
    let delinquent = profile.delinquent_loads(0.9);
    assert!(!delinquent.is_empty());
    let cfg = MachineConfig::in_order()
        .with_memory_mode(MemoryMode::PerfectDelinquent(delinquent.iter().copied().collect()));
    let r = simulate(&prog, &cfg);
    let base = simulate(&prog, &MachineConfig::in_order());
    assert!(r.cycles < base.cycles, "fixing delinquent loads must help");
}

#[test]
fn ooo_hides_latency_better_than_in_order() {
    let prog = pointer_chase_program();
    let io = simulate(&prog, &MachineConfig::in_order());
    let ooo = simulate(&prog, &MachineConfig::out_of_order());
    assert!(ooo.halted);
    assert!(
        ooo.cycles * 3 < io.cycles * 2,
        "OOO should be at least 1.5x faster on independent-iteration misses: io={} ooo={}",
        io.cycles,
        ooo.cycles
    );
}

#[test]
fn software_prefetch_helps_in_order() {
    // Strided load with an lfetch 8 lines ahead vs. without.
    let build = |prefetch: bool| {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        let (a, i, x, p) = (Reg(64), Reg(65), Reg(66), Reg(67));
        f.at(e).movi(a, 0x200_0000).movi(i, 0).br(body);
        let mut c = f.at(body);
        if prefetch {
            c = c.lfetch(a, 64 * 8);
        }
        c.ld(x, a, 0)
            .add(Reg(68), x, Operand::Imm(1)) // use the value: stall-on-use
            .add(a, a, 64)
            .add(i, i, 1)
            .cmp(CmpKind::Lt, p, i, 600)
            .br_cond(p, body, exit);
        f.at(exit).halt();
        let main = f.finish();
        pb.finish_with(main)
    };
    let base = simulate(&build(false), &MachineConfig::in_order());
    let pf = simulate(&build(true), &MachineConfig::in_order());
    assert!(
        pf.cycles * 10 < base.cycles * 9,
        "prefetching 8 lines ahead should save >10%: base={} pf={}",
        base.cycles,
        pf.cycles
    );
}

#[test]
fn hand_built_chaining_ssp_speeds_up_in_order() {
    let base = simulate(&pointer_chase_program(), &MachineConfig::in_order());
    let ssp = simulate(&pointer_chase_ssp(), &MachineConfig::in_order());
    assert!(ssp.halted);
    assert!(ssp.threads_spawned > 10, "chaining threads must actually run");
    assert!(
        ssp.cycles * 5 < base.cycles * 4,
        "chaining SSP should save >20% on the in-order model: base={} ssp={}",
        base.cycles,
        ssp.cycles
    );
    // The speculative threads did real work.
    assert!(ssp.spec_insts > 0);
}

#[test]
fn ssp_preserves_program_semantics() {
    // The adapted binary must compute the same `sum`: both versions halt
    // after the same number of main-thread loop iterations, and the
    // speculative threads never store. We check via instruction counts
    // and identical load values being summed (indirectly: same main inst
    // count modulo the trigger/stub overhead).
    let base = simulate(&pointer_chase_program(), &MachineConfig::in_order());
    let ssp = simulate(&pointer_chase_ssp(), &MachineConfig::in_order());
    let per_iter = 7;
    assert_eq!(base.main_insts, 4 + per_iter * N as u64 + 1);
    // SSP adds the preheader br, then per iteration either chk.c + br
    // (suppressed) or chk.c + the 5-instruction stub (fired; the raise
    // skips the trigger block's own br).
    let fired = ssp.spawns_fired;
    assert!(fired > 0);
    assert_eq!(ssp.main_insts, base.main_insts + 1 + 2 * N as u64 + 4 * fired);
}

#[test]
fn spawn_without_free_context_is_dropped() {
    // Spawn 5 threads back-to-back on a 4-context machine; each child
    // spins long enough to exhaust contexts (main + 3 children). Children
    // are killed by the runaway cap eventually.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    let spin = f.new_block();
    let slot = Reg(20);
    let mut c = f.at(e);
    for _ in 0..5 {
        c = c.lib_alloc(slot).spawn(spin, slot);
    }
    c.halt();
    // Child: infinite loop (runaway-capped).
    f.at(spin).add(Reg(30), Reg(30), 1).br(spin);
    let main = f.finish();
    let mut prog = pb.finish_with(main);
    prog.funcs[0].blocks[spin.index()].attachment = true;
    let r = simulate(&prog, &MachineConfig::in_order());
    assert_eq!(r.threads_spawned, 3, "only 3 free contexts");
    assert_eq!(r.spawns_dropped, 2);
}

#[test]
fn runaway_speculative_thread_is_killed() {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    let wait = f.new_block();
    let exit = f.new_block();
    let spin = f.new_block();
    let slot = Reg(20);
    let (i, p) = (Reg(64), Reg(65));
    f.at(e).lib_alloc(slot).spawn(spin, slot).movi(i, 0).br(wait);
    // Main busy-waits long enough for the cap to trigger.
    f.at(wait).add(i, i, 1).cmp(CmpKind::Lt, p, i, 20_000).br_cond(p, wait, exit);
    f.at(exit).halt();
    f.at(spin).add(Reg(30), Reg(30), 1).br(spin);
    let main = f.finish();
    let mut prog = pb.finish_with(main);
    prog.funcs[0].blocks[spin.index()].attachment = true;
    let r = simulate(&prog, &MachineConfig::in_order());
    assert_eq!(r.runaway_kills, 1);
}

/// A slice whose own `kill` is the instruction that crosses the runaway
/// cap ends once: one kill and no runaway kill. A killed context keeps
/// its stale registers and counters until the next spawn, so nothing may
/// be charged to it once it is free.
#[test]
fn a_slice_killing_itself_at_the_runaway_cap_is_killed_once() {
    // `movis` moves then `kill`: with a cap of 4, four moves put the kill
    // fifth (over the cap, but the thread is already gone); five moves
    // trip the cap before the kill runs.
    for (movis, runaway) in [(4, 0), (5, 1)] {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let wait = f.new_block();
        let exit = f.new_block();
        let slice = f.new_block();
        let (slot, i, p) = (Reg(20), Reg(64), Reg(65));
        f.at(e).lib_alloc(slot).spawn(slice, slot).movi(i, 0).br(wait);
        f.at(wait).add(i, i, 1).cmp(CmpKind::Lt, p, i, 200).br_cond(p, wait, exit);
        f.at(exit).halt();
        let mut c = f.at(slice);
        for k in 0..movis {
            c = c.movi(Reg(30 + k), 1);
        }
        c.kill_thread();
        let main = f.finish();
        let mut prog = pb.finish_with(main);
        prog.funcs[0].blocks[slice.index()].attachment = true;
        for mut cfg in [MachineConfig::in_order(), MachineConfig::out_of_order()] {
            cfg.spec_inst_cap = 4;
            let (r, snap) = simulate_snapshot(&prog, &cfg, prog.next_tag);
            let what = format!("{movis} moves on {:?}", cfg.pipeline);
            assert_eq!(r.threads_spawned, 1, "{what}");
            assert_eq!(r.runaway_kills, runaway, "{what}");
            assert_eq!(snap.spec_kills, 1, "{what}");
            assert_eq!(simulate_stepped(&prog, &cfg), r, "{what}");
        }
    }
}

#[test]
fn speculative_store_does_not_modify_memory() {
    // A (hand-broken) slice stores to memory; the engine must drop it.
    let mut pb = ProgramBuilder::new();
    pb.data_word(0x1000, 7);
    let mut f = pb.function("main");
    let e = f.entry_block();
    let wait = f.new_block();
    let check = f.new_block();
    let spin = f.new_block();
    let (slot, i, p, v) = (Reg(20), Reg(64), Reg(65), Reg(66));
    f.at(e).lib_alloc(slot).spawn(spin, slot).movi(i, 0).br(wait);
    f.at(wait).add(i, i, 1).cmp(CmpKind::Lt, p, i, 3000).br_cond(p, wait, check);
    // Read 0x1000: must still be 7, else spin forever (the run would then
    // hit the cycle cap and report !halted).
    let good = f.new_block();
    let bad = f.new_block();
    f.at(check)
        .movi(Reg(70), 0x1000)
        .ld(v, Reg(70), 0)
        .cmp(CmpKind::Eq, p, v, 7)
        .br_cond(p, good, bad);
    f.at(good).halt();
    f.at(bad).br(bad);
    // The rogue slice writes 99 to 0x1000 then dies.
    f.at(spin).movi(Reg(30), 0x1000).movi(Reg(31), 99).st(Reg(31), Reg(30), 0).kill_thread();
    let main = f.finish();
    let mut prog = pb.finish_with(main);
    prog.funcs[0].blocks[spin.index()].attachment = true;
    // The speculative verifier rejects this program; the engine must
    // enforce isolation anyway (defence in depth).
    assert!(ssp_ir::verify::verify_speculative(&prog).is_err());
    let mut cfg = MachineConfig::in_order();
    cfg.max_cycles = 200_000;
    let r = simulate(&prog, &cfg);
    assert!(r.halted, "main thread saw the unmodified value");
}

#[test]
fn lib_values_flow_parent_to_child() {
    // Parent passes 0xABCD via the LIB; child prefetches [value], which
    // we observe through the spawn/thread counters and clean halt.
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("main");
    let e = f.entry_block();
    let wait = f.new_block();
    let exit = f.new_block();
    let slice = f.new_block();
    let (slot, x, i, p) = (Reg(20), Reg(21), Reg(64), Reg(65));
    f.at(e)
        .movi(x, 0xABCD0)
        .lib_alloc(slot)
        .lib_st(slot, 0, x)
        .spawn(slice, slot)
        .movi(i, 0)
        .br(wait);
    f.at(wait).add(i, i, 1).cmp(CmpKind::Lt, p, i, 500).br_cond(p, wait, exit);
    f.at(exit).halt();
    let (cv,) = (Reg(30),);
    f.at(slice).lib_ld(cv, conv::SLOT, 0).lfetch(cv, 0).lib_free(conv::SLOT).kill_thread();
    let main = f.finish();
    let mut prog = pb.finish_with(main);
    prog.funcs[0].blocks[slice.index()].attachment = true;
    let r = simulate(&prog, &MachineConfig::in_order());
    assert_eq!(r.threads_spawned, 1);
    assert!(r.halted);
    assert!(r.spec_insts >= 4);
}

#[test]
fn roi_markers_limit_cycle_accounting() {
    let build = |with_roi: bool| {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let warm = f.new_block();
        let hot = f.new_block();
        let exit = f.new_block();
        let (a, i, p) = (Reg(64), Reg(65), Reg(66));
        f.at(e).movi(a, 0x300_0000).movi(i, 0).br(warm);
        // Warm-up loop: 300 missy loads whose values are used, so the
        // in-order pipe stalls on each.
        f.at(warm)
            .ld(Reg(67), a, 0)
            .add(Reg(68), Reg(67), 1)
            .add(a, a, 64)
            .add(i, i, 1)
            .cmp(CmpKind::Lt, p, i, 300)
            .br_cond(p, warm, hot);
        let mut c = f.at(hot);
        if with_roi {
            c = c.roi_begin();
        }
        c.movi(i, 0).br(exit);
        let done = f.new_block();
        f.at(exit).add(i, i, 1).cmp(CmpKind::Lt, p, i, 100).br_cond(p, exit, done);
        let mut c = f.at(done);
        if with_roi {
            c = c.roi_end();
        }
        c.halt();
        let main = f.finish();
        pb.finish_with(main)
    };
    let full = simulate(&build(false), &MachineConfig::in_order());
    let roi = simulate(&build(true), &MachineConfig::in_order());
    assert!(roi.cycles < full.cycles / 4, "ROI excludes the missy warm-up");
    assert!(roi.total_cycles >= full.cycles / 2, "total still includes warm-up");
}

/// Assert that every entry of `prog`'s pre-decoded table, in flat order,
/// equals what the retired reference engine re-derived from the `Op` at
/// issue time: the op itself, use list (in stall-reporting order), use
/// mask, FU class and tag. Returns the ops checked.
fn assert_decoded_matches_ops(what: &str, prog: &Program) -> Vec<Op> {
    let table = DecodedProgram::new(prog);
    assert_eq!(table.len(), prog.inst_count(), "{what}: one entry per instruction");
    let mut ops = Vec::with_capacity(table.len());
    for (func, f) in prog.iter_funcs() {
        for (block, b) in f.iter_blocks() {
            for (idx, inst) in b.insts.iter().enumerate() {
                let at = InstRef { func, block, idx };
                let d = table.get(ops.len() as u32);
                assert_eq!(d.op, inst.op, "{what} at {at}: op");
                let uses = inst.op.uses();
                let mut mask = [0u64; MASK_WORDS];
                for u in &uses {
                    mask[u.index() / 64] |= 1 << (u.index() % 64);
                }
                assert_eq!(d.uses(), uses.as_slice(), "{what} at {at}: use list");
                assert_eq!(d.use_mask, mask, "{what} at {at}: use mask");
                assert_eq!(d.fu, fu_class(&inst.op), "{what} at {at}: FU class");
                assert_eq!(d.tag, inst.tag, "{what} at {at}: tag");
                ops.push(inst.op.clone());
            }
        }
    }
    ops
}

/// The pre-decoded hot path against its reference: for every workload in
/// the suite, each static instruction's decoded entry must equal the
/// facts derived from its `Op`.
#[test]
fn predecoded_engine_matches_reference_on_all_workloads() {
    for w in ssp_workloads::suite(2002) {
        assert_decoded_matches_ops(w.name, &w.program);
    }
}

/// The same check on the hand-adapted SSP binary, so the speculative
/// opcodes (`chk.c`, spawn, LIB traffic, kill) are covered too; and on
/// both machine models its fast run, which spawns chaining threads, must
/// equal in every field the run that steps every cycle.
#[test]
fn predecoded_engine_matches_reference_with_speculative_threads() {
    let prog = pointer_chase_ssp();
    let ops = assert_decoded_matches_ops("pointer_chase_ssp", &prog);
    let has = |p: fn(&Op) -> bool| ops.iter().any(p);
    assert!(has(|op| matches!(op, Op::ChkC { .. })), "binary must carry chk.c");
    assert!(has(|op| matches!(op, Op::Spawn { .. })), "binary must carry spawn");
    assert!(has(|op| matches!(op, Op::LibSt { .. })), "binary must carry lib.st");
    assert!(has(|op| matches!(op, Op::LibLd { .. })), "binary must carry lib.ld");
    assert!(has(|op| matches!(op, Op::KillThread)), "binary must carry kill");
    for cfg in [MachineConfig::in_order(), MachineConfig::out_of_order()] {
        let fast = simulate(&prog, &cfg);
        let stepped = simulate_stepped(&prog, &cfg);
        assert!(fast.threads_spawned > 0, "test must exercise speculation");
        assert_eq!(
            fast, stepped,
            "fast engine diverged from the stepped run on the SSP binary ({:?})",
            cfg.pipeline
        );
    }
}

#[test]
fn ooo_pipeline_identifier_differs() {
    // Sanity: the two configs drive different pipelines end to end.
    let io = MachineConfig::in_order();
    let ooo = MachineConfig::out_of_order();
    assert_eq!(io.pipeline, PipelineKind::InOrder);
    assert_eq!(ooo.pipeline, PipelineKind::OutOfOrder);
    let prog = pointer_chase_program();
    let a = simulate(&prog, &io);
    let b = simulate(&prog, &ooo);
    assert_ne!(a.cycles, b.cycles);
}
