//! Differential tests of the event-driven clock fast-forward: the
//! skipping engine must be byte-identical to the stepped engine on every
//! observable output — `SimResult` (all fields, including the Figure-10
//! stall breakdown), architectural snapshots, and telemetry traces.
//!
//! Machine configs are cycle-capped because tier-1 runs this in a debug
//! build; equivalence does not depend on the cap (and one test checks
//! the cap interaction explicitly).

use ssp_ir::reg::conv;
use ssp_ir::{CmpKind, Operand, Program, ProgramBuilder, Reg};
use ssp_sim::{
    simulate, simulate_snapshot, simulate_snapshot_stepped, simulate_stepped, simulate_traced,
    simulate_traced_stepped, simulate_windowed, MachineConfig,
};

const SEED: u64 = 2002;

fn capped(mut mc: MachineConfig, max: u64) -> MachineConfig {
    mc.max_cycles = max;
    mc
}

fn machines(max: u64) -> [(&'static str, MachineConfig); 2] {
    [
        ("in-order", capped(MachineConfig::in_order(), max)),
        ("out-of-order", capped(MachineConfig::out_of_order(), max)),
    ]
}

#[test]
fn workload_baselines_match_stepped_engine() {
    for w in ssp_workloads::suite(SEED) {
        for (model, cfg) in machines(120_000) {
            let fast = simulate(&w.program, &cfg);
            let stepped = simulate_stepped(&w.program, &cfg);
            assert_eq!(fast, stepped, "{} on {model}: fast-forward diverged", w.name);
        }
    }
}

#[test]
fn snapshots_match_stepped_engine() {
    for w in ssp_workloads::suite(SEED) {
        for (model, cfg) in machines(120_000) {
            let bound = w.program.next_tag;
            let (fr, fs) = simulate_snapshot(&w.program, &cfg, bound);
            let (sr, ss) = simulate_snapshot_stepped(&w.program, &cfg, bound);
            assert_eq!(fr, sr, "{} on {model}: snapshot-run stats diverged", w.name);
            assert_eq!(fs, ss, "{} on {model}: architectural snapshot diverged", w.name);
        }
    }
}

#[test]
fn telemetry_matches_stepped_engine() {
    // Tracing attaches the `Telemetry` side-structure; the skip must not
    // change any prefetch-timeliness classification. Empty target map:
    // baseline programs have no SSP prefetches, but demand-load records
    // and totals still flow through the telemetry path.
    let w = ssp_workloads::by_name("mcf", SEED).expect("known workload");
    for (model, cfg) in machines(120_000) {
        let (fr, ft) = simulate_traced(&w.program, &cfg, &[]);
        let (sr, st) = simulate_traced_stepped(&w.program, &cfg, &[]);
        assert_eq!(fr, sr, "{model}: traced-run stats diverged");
        assert_eq!(ft, st, "{model}: telemetry trace diverged");
    }
}

#[test]
fn cycle_cap_clamps_the_jump() {
    // A cap small enough to land mid-run — and, on the memory-bound
    // workloads, mid-stall: a fast-forward jump in flight when the cap
    // hits must be clamped to it, not sail past. Several odd caps make
    // it overwhelmingly likely at least one falls inside a skip window.
    for w in ssp_workloads::suite(SEED) {
        for cap in [997, 5_003, 20_011] {
            for (model, cfg) in machines(cap) {
                let fast = simulate(&w.program, &cfg);
                let stepped = simulate_stepped(&w.program, &cfg);
                assert_eq!(
                    fast.total_cycles, stepped.total_cycles,
                    "{} on {model} cap={cap}: total_cycles diverged",
                    w.name
                );
                assert!(
                    fast.total_cycles <= cap,
                    "{} on {model} cap={cap}: jump escaped the cycle cap",
                    w.name
                );
                assert_eq!(fast, stepped, "{} on {model} cap={cap}: stats diverged", w.name);
            }
        }
    }
}

/// A chaining-SP kernel: the main thread walks `N` arcs, each a chain of
/// two dependent loads, and at every arc a `chk.c` stub spawns a slice
/// that prefetches the arc's node and spawns the next link. The main
/// thread stalls on its loads while one slice runs, so the fast engine
/// takes speculative-issuer windows.
fn chaining_kernel() -> Program {
    const ARCS: u64 = 0x0100_0000;
    const NODES: u64 = 0x0800_0000;
    const N: u64 = 300;
    let mut pb = ProgramBuilder::new();
    for i in 0..N {
        let node = NODES + 64 * ((i * 7919) % N);
        pb.data_word(ARCS + 64 * i, node);
        pb.data_word(node, i);
    }
    let mut f = pb.function("main");
    let (entry, body, rest, exit) = (f.entry_block(), f.new_block(), f.new_block(), f.new_block());
    let (stub, slice, link, work) = (f.new_block(), f.new_block(), f.new_block(), f.new_block());
    let (arc, end, node, val, sum, more) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69));
    f.at(entry).movi(arc, ARCS as i64).movi(end, (ARCS + 64 * N) as i64).movi(sum, 0).br(body);
    f.at(body).chk_c(stub).br(rest);
    f.at(rest)
        .ld(node, arc, 0)
        .ld(val, node, 0)
        .add(sum, sum, Operand::Reg(val))
        .add(arc, arc, 64)
        .cmp(CmpKind::Lt, more, arc, Operand::Reg(end))
        .br_cond(more, body, exit);
    f.at(exit).halt();
    let slot = Reg(20);
    f.at(stub)
        .lib_alloc(slot)
        .lib_st(slot, 0, arc)
        .lib_st(slot, 1, end)
        .spawn(slice, slot)
        .br(rest);
    let (s_arc, s_end, s_next, s_more, s_node, s_slot) =
        (Reg(30), Reg(31), Reg(32), Reg(33), Reg(34), Reg(35));
    f.at(slice)
        .lib_ld(s_arc, conv::SLOT, 0)
        .lib_ld(s_end, conv::SLOT, 1)
        .lib_free(conv::SLOT)
        .add(s_next, s_arc, 64)
        .cmp(CmpKind::Lt, s_more, s_next, Operand::Reg(s_end))
        .br_cond(s_more, link, work);
    f.at(link)
        .lib_alloc(s_slot)
        .lib_st(s_slot, 0, s_next)
        .lib_st(s_slot, 1, s_end)
        .spawn(slice, s_slot)
        .br(work);
    f.at(work).ld(s_node, s_arc, 0).lfetch(s_node, 0).kill_thread();
    let main = f.finish();
    let mut prog = pb.finish_with(main);
    for b in [stub, slice, link, work] {
        prog.funcs[0].blocks[b.index()].attachment = true;
    }
    prog
}

#[test]
fn speculative_issuer_windows_match_stepped_engine_under_odd_caps() {
    // Every cap of a 64-cycle stretch, so caps land inside speculative-
    // issuer windows (and inside their skips), plus a few odd caps
    // further on and the whole run.
    let prog = chaining_kernel();
    let bound = prog.next_tag;
    for (model, full) in machines(400_000) {
        let (whole, stats) = simulate_windowed(&prog, &full);
        assert!(whole.halted, "{model}: the kernel runs to its halt");
        assert!(
            stats.spec_windows > 0 && stats.spec_cycles > 0,
            "{model}: no speculative-issuer window ({stats:?})"
        );
        for cap in (2_000..2_064).chain([4_801, 9_973, 30_011, 400_000]) {
            let mut cfg = full.clone();
            cfg.max_cycles = cap;
            let what = format!("{model} cap={cap}");
            let (fr, fs) = simulate_snapshot(&prog, &cfg, bound);
            let (sr, ss) = simulate_snapshot_stepped(&prog, &cfg, bound);
            assert!(fr.total_cycles <= cap, "{what}: the run escaped the cycle cap");
            assert_eq!(fr, sr, "{what}: stats diverged");
            assert_eq!(fs, ss, "{what}: architectural snapshot diverged");
        }
    }
}
