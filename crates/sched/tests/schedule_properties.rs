//! Property-based tests of the slice scheduler: whatever the loop body
//! shape, the emitted order must be a dependence-respecting permutation
//! with a sane spawn point.

use proptest::prelude::*;
use ssp_ir::{CmpKind, InstRef, Program, ProgramBuilder, Reg};
use ssp_sched::{schedule_basic, schedule_chaining};
use ssp_sim::{MachineConfig, Profile};
use ssp_slicing::{Analyses, RegionDepGraph};

/// A random single-block loop: `n_chain` dependent ops threading one
/// value, `n_indep` independent ops, one induction, loads sprinkled in.
fn loop_program(n_chain: usize, n_indep: usize, with_load: bool) -> (Program, ssp_ir::BlockId) {
    let mut pb = ProgramBuilder::new();
    let mut f = pb.function("gen");
    let e = f.entry_block();
    let body = f.new_block();
    let exit = f.new_block();
    let (ind, p) = (Reg(64), Reg(65));
    f.at(e).movi(ind, 0x1000).br(body);
    {
        let mut c = f.at(body);
        let mut chain = ind;
        for i in 0..n_chain {
            let dst = Reg(70 + i as u16);
            c = if with_load && i == 0 { c.ld(dst, chain, 0) } else { c.add(dst, chain, 1) };
            chain = dst;
        }
        for i in 0..n_indep {
            let dst = Reg(100 + i as u16);
            c = c.movi(dst, i as i64);
        }
        c.add(ind, ind, 64).cmp(CmpKind::Lt, p, ind, 0x200000).br_cond(p, body, exit);
    }
    f.at(exit).halt();
    let main = f.finish();
    (pb.finish_with(main), body)
}

fn graph_of(prog: &Program, body: ssp_ir::BlockId) -> RegionDepGraph {
    let mut an = Analyses::new();
    let fa = an.get(prog, prog.entry);
    RegionDepGraph::build(
        prog,
        prog.entry,
        &[body],
        fa,
        &Profile::default(),
        &MachineConfig::in_order(),
    )
}

fn order_respects_forward_deps(g: &RegionDepGraph, order: &[InstRef]) -> Result<(), String> {
    let pos = |at: InstRef| order.iter().position(|&x| x == at);
    for e in &g.edges {
        if e.carried {
            continue;
        }
        let (Some(pf), Some(pt)) = (pos(g.nodes[e.from]), pos(g.nodes[e.to])) else {
            continue; // node pruned (e.g. prediction DCE)
        };
        if pf >= pt {
            return Err(format!("edge {}->{} violated", g.nodes[e.from], g.nodes[e.to]));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chaining_schedule_is_valid(
        n_chain in 1usize..8,
        n_indep in 0usize..6,
        with_load in any::<bool>(),
    ) {
        let (prog, body) = loop_program(n_chain, n_indep, with_load);
        let g = graph_of(&prog, body);
        let profile = Profile::default();
        let mc = MachineConfig::in_order();
        let s = schedule_chaining(&g, &prog, &profile, &mc, 0.9);
        // Order is a subset-permutation of the region (prediction may
        // prune) with no duplicates.
        let mut seen = std::collections::HashSet::new();
        for at in &s.order {
            prop_assert!(seen.insert(*at), "duplicate {at} in order");
            prop_assert!(g.nodes.contains(at));
        }
        prop_assert!(s.spawn_pos <= s.order.len());
        prop_assert!(order_respects_forward_deps(&g, &s.order).is_ok());
        // Critical instructions are all scheduled before the spawn point.
        for c in &s.critical {
            if let Some(p) = s.order.iter().position(|x| x == c) {
                prop_assert!(p < s.spawn_pos, "critical inst {c} after spawn");
            }
        }
        prop_assert!(s.critical_height <= s.slice_height);
    }

    #[test]
    fn basic_schedule_is_complete_permutation(
        n_chain in 1usize..8,
        n_indep in 0usize..6,
    ) {
        let (prog, body) = loop_program(n_chain, n_indep, true);
        let g = graph_of(&prog, body);
        let profile = Profile::default();
        let mc = MachineConfig::in_order();
        let s = schedule_basic(&g, &prog, &profile, &mc);
        prop_assert_eq!(s.order.len(), g.nodes.len(), "basic keeps every instruction");
        prop_assert_eq!(s.spawn_pos, s.order.len());
        prop_assert!(order_respects_forward_deps(&g, &s.order).is_ok());
    }

    #[test]
    fn rotation_never_increases_carried_edges(
        n_chain in 1usize..8,
        n_indep in 0usize..6,
    ) {
        let (prog, body) = loop_program(n_chain, n_indep, false);
        let g = graph_of(&prog, body);
        let before = g.edges.iter().filter(|e| e.carried).count();
        let (_, rg) = ssp_sched::rotate_loop(&g);
        let after = rg.edges.iter().filter(|e| e.carried).count();
        prop_assert!(after <= before);
        prop_assert_eq!(rg.nodes.len(), g.nodes.len());
    }
}
