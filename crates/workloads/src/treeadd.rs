//! `treeadd` — balanced binary-tree reduction (Olden), in the paper's two
//! variants: `treeadd.df` (depth-first, recursive) and `treeadd.bf`
//! (breadth-first over an explicit queue). Nodes are scattered over an
//! 8 MB heap; the child-pointer and value loads are delinquent.

use crate::layout::{rng_for, Scatter, ARRAYS, GLOBALS, HEAP};
use crate::Workload;
use ssp_ir::reg::conv;
use ssp_ir::{CmpKind, Operand, ProgramBuilder, Reg};

/// Node layout: left(+0), right(+8), value(+16). One line per node.
const DEPTH: u32 = 11; // 2^11 - 1 = 2047 nodes

fn build_tree(pb: &mut ProgramBuilder, seed: u64, name: &str) -> u64 {
    let mut rng = rng_for(name, seed);
    let count = (1usize << DEPTH) - 1;
    let mut scatter = Scatter::new(HEAP, 8 << 20, 64, count, &mut rng);
    let addrs: Vec<u64> = (0..count).map(|_| scatter.alloc()).collect();
    // Heap-index tree: node i has children 2i+1, 2i+2.
    for (i, &a) in addrs.iter().enumerate() {
        let l = if 2 * i + 1 < count { addrs[2 * i + 1] } else { 0 };
        let r = if 2 * i + 2 < count { addrs[2 * i + 2] } else { 0 };
        pb.data_word(a, l);
        pb.data_word(a + 8, r);
        pb.data_word(a + 16, i as u64 + 1);
    }
    addrs[0]
}

/// Depth-first (recursive) variant.
pub fn build_df(seed: u64) -> Workload {
    let mut pb = ProgramBuilder::new();
    let root = build_tree(&mut pb, seed, "treeadd");

    let main_id = pb.declare();
    let sum_id = pb.declare();

    // main: r8 = sum(root); store to globals; halt.
    let mut m = pb.define(main_id, "main");
    let e = m.entry_block();
    m.at(e)
        .movi(conv::arg(0), root as i64)
        .call(sum_id, 1)
        .movi(Reg(80), GLOBALS as i64)
        .st(conv::RV, Reg(80), 0)
        .halt();
    let m = m.finish();

    // sum(n): if n == 0 return 0;
    //         return n.value + sum(n.left) + sum(n.right)
    // Locals in callee-saved registers, spilled around calls.
    let mut s = pb.define(sum_id, "treeadd_sum");
    let e = s.entry_block();
    let zero = s.new_block();
    let rec = s.new_block();
    let (n, acc, p) = (Reg(64), Reg(65), Reg(20));
    s.at(e).cmp(CmpKind::Eq, p, conv::arg(0), 0).br_cond(p, zero, rec);
    s.at(zero).movi(conv::RV, 0).ret();
    s.at(rec)
        // prologue: save n, acc
        .sub(conv::SP, conv::SP, 16)
        .st(n, conv::SP, 0)
        .st(acc, conv::SP, 8)
        .mov(n, conv::arg(0))
        .ld(acc, n, 16) // delinquent: n.value
        .ld(conv::arg(0), n, 0) // delinquent: n.left
        .call(sum_id, 1)
        .add(acc, acc, Operand::Reg(conv::RV))
        .ld(conv::arg(0), n, 8) // n.right
        .call(sum_id, 1)
        .add(acc, acc, Operand::Reg(conv::RV))
        .mov(conv::RV, acc)
        // epilogue
        .ld(n, conv::SP, 0)
        .ld(acc, conv::SP, 8)
        .add(conv::SP, conv::SP, 16)
        .ret();
    let s = s.finish();

    pb.install(m);
    pb.install(s);
    Workload { name: "treeadd.df", seed, program: pb.finish(main_id) }
}

/// Breadth-first variant: an explicit FIFO queue of node pointers.
pub fn build_bf(seed: u64) -> Workload {
    let mut pb = ProgramBuilder::new();
    let root = build_tree(&mut pb, seed, "treeadd");

    let mut f = pb.function("main");
    let e = f.entry_block();
    let loop_b = f.new_block();
    let pushl = f.new_block();
    let afterl = f.new_block();
    let pushr = f.new_block();
    let afterr = f.new_block();
    let exit = f.new_block();

    let (headp, tailp, node, val, l, r, sum, p) =
        (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70), Reg(71));
    // Queue of node pointers at ARRAYS; head/tail are byte cursors.
    f.at(e)
        .movi(headp, ARRAYS as i64)
        .movi(tailp, ARRAYS as i64)
        .movi(Reg(72), root as i64)
        .st(Reg(72), tailp, 0)
        .add(tailp, tailp, 8)
        .movi(sum, 0)
        .br(loop_b);
    f.at(loop_b).cmp(CmpKind::Eq, p, headp, Operand::Reg(tailp)).br_cond(p, exit, pushl);
    // Process the head node.
    f.at(pushl)
        .ld(node, headp, 0) // queue slot (sequential)
        .add(headp, headp, 8)
        .ld(val, node, 16) // delinquent: node value
        .add(sum, sum, Operand::Reg(val))
        .ld(l, node, 0) // delinquent: left child
        .cmp(CmpKind::Eq, p, l, 0)
        .br_cond(p, pushr, afterl);
    f.at(afterl).st(l, tailp, 0).add(tailp, tailp, 8).br(pushr);
    f.at(pushr)
        .ld(r, node, 8) // right child
        .cmp(CmpKind::Eq, p, r, 0)
        .br_cond(p, loop_b, afterr);
    f.at(afterr).st(r, tailp, 0).add(tailp, tailp, 8).br(loop_b);
    f.at(exit).movi(Reg(80), GLOBALS as i64).st(sum, Reg(80), 0).halt();

    let main = f.finish();
    Workload { name: "treeadd.bf", seed, program: pb.finish_with(main) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_sim::{simulate, MachineConfig};

    #[test]
    fn df_and_bf_visit_every_node() {
        let df = build_df(5);
        let bf = build_bf(5);
        ssp_ir::verify::verify(&df.program).unwrap();
        ssp_ir::verify::verify(&bf.program).unwrap();
        let count = (1u64 << DEPTH) - 1;
        let rdf = simulate(&df.program, &MachineConfig::in_order());
        let rbf = simulate(&bf.program, &MachineConfig::in_order());
        assert!(rdf.halted && rbf.halted);
        // Every node's value load runs exactly once in each variant.
        let df_val_loads: u64 = rdf.loads.values().map(|s| s.accesses).sum();
        assert!(df_val_loads >= count * 3, "left+right+value per node");
        let bf_val_loads: u64 = rbf.loads.values().map(|s| s.accesses).sum();
        assert!(bf_val_loads >= count * 3);
    }

    #[test]
    fn both_variants_are_memory_bound() {
        for w in [build_df(1), build_bf(1)] {
            let r = simulate(&w.program, &MachineConfig::in_order());
            let agg = r.load_stats_all();
            assert!(agg.l1_miss_rate() > 0.2, "{} miss rate {}", w.name, agg.l1_miss_rate());
            assert!(r.halted);
        }
    }

    #[test]
    fn recursion_preserves_callee_saved_state() {
        // If the prologue/epilogue were wrong the df variant would lose
        // its accumulator and execute wildly different instruction
        // counts; pin the exact dynamic instruction count instead.
        let w = build_df(2);
        let r = simulate(&w.program, &MachineConfig::in_order());
        let nodes = (1u64 << DEPTH) - 1; // calls on real nodes
        let null_calls = nodes + 1;
        // main: 5; per call: entry cmp+branch (2); real node: 16-inst rec
        // block; null call: 2-inst zero block.
        let expected = 5 + (nodes + null_calls) * 2 + nodes * 16 + null_calls * 2;
        assert_eq!(r.main_insts, expected);
    }
}
