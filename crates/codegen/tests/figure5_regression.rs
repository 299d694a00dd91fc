//! Regression tests pinning the tool's output on the paper's running
//! example (Figure 3's mcf loop): the generated schedule must match
//! Figure 5(b)'s structure and the adapted binary must deliver the
//! speedup class the paper reports.

use ssp_ir::{BlockId, CmpKind, InstRef, Operand, Program, ProgramBuilder, Reg};
use ssp_sim::{simulate, MachineConfig};
use ssp_slicing::Slicer;

fn pointer_chase(n: u64) -> Program {
    let mut pb = ProgramBuilder::new();
    for i in 0..n {
        let perm = (i * 7919) % n;
        pb.data_word(0x0100_0000 + 64 * i, 0x0800_0000 + 64 * perm);
        pb.data_word(0x0800_0000 + 64 * perm, perm);
    }
    let mut f = pb.function("primal_bea_map");
    let e = f.entry_block();
    let body = f.new_block();
    let exit = f.new_block();
    let (arc, k, t, u, v, sum, p) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70));
    f.at(e).movi(arc, 0x0100_0000).movi(k, 0x0100_0000 + (64 * n) as i64).movi(sum, 0).br(body);
    f.at(body)
        .mov(t, arc) // A
        .ld(u, t, 0) // B
        .ld(v, u, 0) // C (delinquent)
        .add(sum, sum, Operand::Reg(v))
        .add(arc, t, 64) // D
        .cmp(CmpKind::Lt, p, arc, Operand::Reg(k)) // E
        .br_cond(p, body, exit);
    f.at(exit).halt();
    let main = f.finish();
    pb.finish_with(main)
}

/// The generated chaining schedule must put A and D (the arc chain)
/// before the spawn and B, C after it — Figure 5(b) exactly.
#[test]
fn schedule_matches_figure_5b() {
    let prog = pointer_chase(400);
    let mc = MachineConfig::in_order();
    let profile = ssp_sim::profile(&prog, &mc);
    let mut slicer = Slicer::new(&prog, &profile, 1);
    let body = BlockId(1);
    let root = InstRef { func: prog.entry, block: body, idx: 2 };
    let plan =
        ssp_codegen::plan_for_load(&mut slicer, &prog, &profile, &mc, root, &Default::default())
            .expect("the slice root is a load")
            .expect("mcf-like loop must be adaptable");

    assert_eq!(plan.model, ssp_sched::SpModel::Chaining);
    let pos = |idx: usize| {
        plan.sched
            .order
            .iter()
            .position(|r| r.block == body && r.idx == idx)
            .unwrap_or_else(|| panic!("instruction {idx} missing from schedule"))
    };
    let (a, b, c, d) = (pos(0), pos(1), pos(2), pos(4));
    assert!(a < plan.sched.spawn_pos, "A before spawn");
    assert!(d < plan.sched.spawn_pos, "D before spawn");
    assert!(b >= plan.sched.spawn_pos, "B after spawn");
    assert!(c >= plan.sched.spawn_pos, "C after spawn");
    assert!(a < d && d < b && b < c, "dependences respected: A<D<B<C");
    // The cheap ALU condition is gated exactly, not predicted (§3.2.1.1
    // only pays off when a load leaves the critical sub-slice).
    assert!(plan.sched.predicted.is_none());
}

/// End-to-end speedup class on the in-order model: the paper's mcf is
/// +37% automatic; our kernel version lands well above that.
#[test]
fn adapted_pointer_chase_speedup_regression() {
    let prog = pointer_chase(400);
    let mc = MachineConfig::in_order();
    let profile = ssp_sim::profile(&prog, &mc);
    let (adapted, report) = ssp_codegen::adapt(&prog, &profile, &mc, &Default::default()).unwrap();
    assert_eq!(report.slice_count(), 1, "overlapping slices merge into one");
    assert_eq!(report.slices[0].root_tags.len(), 2, "both loads covered");
    let base = simulate(&prog, &mc);
    let ssp = simulate(&adapted.clone(), &mc);
    let speedup = base.cycles as f64 / ssp.cycles as f64;
    assert!(speedup > 1.5, "regression: speedup {speedup:.2} < 1.5x");
    // The chain must actually run long-range: most delinquent accesses
    // leave the memory bucket.
    let before = base.load_stats_for(&report.delinquent);
    let after = ssp.load_stats_for(&report.delinquent);
    assert!(after.mem < before.mem / 2, "memory hits at least halved");
}
