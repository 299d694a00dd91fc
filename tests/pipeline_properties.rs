//! Property-based tests over randomly generated pointer-chase programs:
//! whatever the layout, the post-pass tool must produce a verified binary
//! that preserves main-thread semantics and never livelocks.

use proptest::prelude::*;
use ssp_core::{
    lint_binary, simulate, AdaptOptions, MachineConfig, MemoryMode, PostPassTool, SpModel,
};
use ssp_ir::{CmpKind, Operand, Program, ProgramBuilder, Reg};

/// A randomized two-level pointer chase: `n` arcs with stride `stride`,
/// tails permuted by `mult`, node values at scattered addresses.
fn chase(n: u64, stride: u64, mult: u64, extra_alu: usize) -> Program {
    let arcs = 0x0100_0000u64;
    let nodes = 0x0800_0000u64;
    let mut pb = ProgramBuilder::new();
    for i in 0..n {
        let perm = (i * mult) % n;
        pb.data_word(arcs + stride * i, nodes + 64 * perm);
        pb.data_word(nodes + 64 * perm, perm + 1);
    }
    let mut f = pb.function("main");
    let (e, body, exit) = (f.entry_block(), f.new_block(), f.new_block());
    let (arc, k, t, u, v, sum, p) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70));
    f.at(e).movi(arc, arcs as i64).movi(k, (arcs + stride * n) as i64).movi(sum, 0).br(body);
    let mut c = f.at(body).mov(t, arc).ld(u, t, 0).ld(v, u, 0);
    for j in 0..extra_alu {
        c = c.add(Reg(80 + j as u16), v, Operand::Imm(j as i64));
    }
    c.add(sum, sum, Operand::Reg(v))
        .add(arc, arc, stride as i64)
        .cmp(CmpKind::Lt, p, arc, Operand::Reg(k))
        .br_cond(p, body, exit);
    f.at(exit).halt();
    let main = f.finish();
    pb.finish_with(main)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn adapted_binaries_verify_and_halt(
        n in 32u64..200,
        stride_pow in 3u32..7, // 8..64 bytes
        mult in prop::sample::select(vec![7919u64, 104729, 31, 1, 3]),
        extra_alu in 0usize..6,
    ) {
        let stride = 1u64 << stride_pow;
        let prog = chase(n, stride, mult, extra_alu);
        prop_assert!(ssp_ir::verify::verify(&prog).is_ok());

        let mc = MachineConfig::in_order();
        let tool = PostPassTool::new(mc.clone());
        let adapted = tool.run(&prog).expect("adaptation succeeds");
        prop_assert!(ssp_ir::verify::verify(&adapted.program).is_ok());
        prop_assert!(ssp_ir::verify::verify_speculative(&adapted.program).is_ok());
        let report = lint_binary(&prog, &adapted);
        prop_assert!(report.is_clean(), "static lint clean: {report}");

        // Bounded simulation must halt (no livelock from triggers).
        let mut capped = mc.clone();
        capped.max_cycles = 30_000_000;
        let base = simulate(&prog, &capped);
        let ssp = simulate(&adapted.program, &capped);
        prop_assert!(base.halted, "baseline halts");
        prop_assert!(ssp.halted, "SSP binary halts (no trigger livelock)");
        // Never a catastrophic slowdown.
        prop_assert!(
            (ssp.cycles as f64) < base.cycles as f64 * 1.3,
            "ssp {} vs base {}", ssp.cycles, base.cycles
        );
    }

    #[test]
    fn adaptation_preserves_loads_under_perfect_memory(
        n in 32u64..128,
        mult in prop::sample::select(vec![7919u64, 13, 1]),
    ) {
        let prog = chase(n, 64, mult, 2);
        let tool = PostPassTool::new(MachineConfig::in_order());
        let adapted = tool.run(&prog).expect("adaptation succeeds");
        let mc = MachineConfig::in_order().with_memory_mode(MemoryMode::PerfectAll);
        let base = simulate(&prog, &mc);
        let ssp = simulate(&adapted.program, &mc);
        for (tag, s) in &base.loads {
            let got = ssp.loads.get(tag).map(|x| x.accesses).unwrap_or(0);
            prop_assert_eq!(s.accesses, got, "load {} count preserved", tag);
        }
    }
}

/// Every workload, under both precomputation models and both machine
/// configurations, must adapt to a binary the static linter passes with
/// zero diagnostics — trigger coverage is proved per hot path (miss and
/// double-fire), not just by a global trigger count.
#[test]
fn every_workload_and_model_lints_clean() {
    for w in ssp_workloads::suite(2002) {
        for model in [SpModel::Chaining, SpModel::Basic] {
            for mc in [MachineConfig::in_order(), MachineConfig::out_of_order()] {
                let opts = AdaptOptions { force_model: Some(model), ..AdaptOptions::default() };
                let tool = PostPassTool::new(mc).with_options(opts);
                // The in-pipeline gate already rejects lint-dirty output,
                // so success means clean; re-lint anyway to check the
                // standalone path agrees with the gate.
                let adapted = tool
                    .run(&w.program)
                    .unwrap_or_else(|e| panic!("{} ({model:?}) fails to adapt: {e}", w.name));
                let report = lint_binary(&w.program, &adapted);
                assert!(report.is_clean(), "{} ({model:?}) lints dirty: {report}", w.name);
            }
        }
    }
}
