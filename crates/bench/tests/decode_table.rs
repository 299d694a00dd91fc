//! The pre-decoded table is the engine's whole view of the program
//! ([`DecodedProgram`]): it fetches, executes and branches from it alone.
//! So at every static instruction, in flat order (functions, blocks,
//! instructions), the entry must carry the instruction's own `Op`, the
//! use list, use mask and functional-unit class derived from it, its
//! branch-predictor key, its per-load row, and the flat index of every
//! static control target's first instruction, re-derived here from the
//! IR. Inputs are every suite workload, each workload's default adapted
//! binary for both machine models (their stubs and slices carry the
//! trigger, spawn, live-in-buffer and kill opcodes), and every corpus
//! program.

use ssp_core::{MachineConfig, PostPassTool, Program};
use ssp_ir::{FuncId, InstRef, Op};
use ssp_sim::branch::static_pc;
use ssp_sim::decode::fu_class;
use ssp_sim::exec::{RegMask, MASK_WORDS};
use ssp_sim::DecodedProgram;

const CORPUS: &str = include_str!("../../../tests/corpus/adaptation_oracle.corpus");

/// The opcodes only adapted binaries carry, so the test can show it saw
/// each of them.
const SSP_OPS: [&str; 5] = ["chk.c", "spawn", "lib.st", "lib.ld", "kill"];

fn ssp_op(op: &Op) -> Option<usize> {
    match op {
        Op::ChkC { .. } => Some(0),
        Op::Spawn { .. } => Some(1),
        Op::LibSt { .. } => Some(2),
        Op::LibLd { .. } => Some(3),
        Op::KillThread => Some(4),
        _ => None,
    }
}

/// Assert `prog`'s decoded table matches its ops, counting the SSP
/// opcodes checked into `seen`.
fn assert_table_matches_ops(what: &str, prog: &Program, seen: &mut [usize; SSP_OPS.len()]) {
    let table = DecodedProgram::new(prog);
    assert_eq!(table.len(), prog.inst_count(), "{what}: one entry per instruction");
    // The flat index of every block's first instruction, per function.
    let mut starts: Vec<Vec<u32>> = Vec::new();
    let mut n = 0u32;
    for f in &prog.funcs {
        let mut s = Vec::new();
        for b in &f.blocks {
            s.push(n);
            n += b.insts.len() as u32;
        }
        starts.push(s);
    }
    let entry = |f: FuncId| starts[f.0 as usize][prog.func(f).entry.index()];
    for (func, _) in prog.iter_funcs() {
        assert_eq!(table.entry(func), Some(entry(func)), "{what}: entry of {func}");
    }
    assert_eq!(table.entry(FuncId(prog.funcs.len() as u32)), None, "{what}: no extra function");
    let mut pc = 0u32;
    for (func, f) in prog.iter_funcs() {
        for (block, b) in f.iter_blocks() {
            for (idx, inst) in b.insts.iter().enumerate() {
                let at = InstRef { func, block, idx };
                let decoded = table.get(pc);
                pc += 1;
                assert_eq!(decoded.op, inst.op, "{what} at {at}: op");
                let start = |b: ssp_ir::BlockId| starts[func.0 as usize][b.index()];
                let targets = match inst.op {
                    Op::Br { target } => (start(target), 0),
                    Op::BrCond { if_true, if_false, .. } => (start(if_true), start(if_false)),
                    Op::ChkC { stub } => (start(stub), 0),
                    Op::Spawn { entry, .. } => (start(entry), 0),
                    Op::Call { callee, .. } => (entry(callee), 0),
                    _ => (0, 0),
                };
                assert_eq!(
                    (decoded.target, decoded.else_target),
                    targets,
                    "{what} at {at}: flat control targets"
                );
                assert!(
                    inst.op.is_terminator() || idx + 1 < b.insts.len(),
                    "{what} at {at}: fallthrough leaves the block"
                );
                assert_eq!(decoded.branch_key, static_pc(func, block, idx), "{what} at {at}: key");
                if inst.op.is_load() {
                    let row = table.load_tags()[decoded.load_slot as usize];
                    assert_eq!(row, inst.tag, "{what} at {at}: per-load row");
                }
                let uses = inst.op.uses();
                let mut mask: RegMask = [0; MASK_WORDS];
                for u in &uses {
                    mask[u.index() / 64] |= 1 << (u.index() % 64);
                }
                assert_eq!(decoded.uses(), uses.as_slice(), "{what} at {at}: use list");
                assert_eq!(decoded.use_mask, mask, "{what} at {at}: use mask");
                assert_eq!(decoded.fu, fu_class(&inst.op), "{what} at {at}: FU class");
                if let Some(k) = ssp_op(&inst.op) {
                    seen[k] += 1;
                }
            }
        }
    }
}

#[test]
fn decoded_table_matches_every_op_of_workloads_adapted_binaries_and_corpus() {
    let mut seen = [0; SSP_OPS.len()];
    for w in &ssp_workloads::suite(ssp_bench::SEED) {
        assert_table_matches_ops(&format!("{} baseline", w.name), &w.program, &mut seen);
        for (model, cfg) in [
            ("in-order", MachineConfig::in_order()),
            ("out-of-order", MachineConfig::out_of_order()),
        ] {
            let adapted = PostPassTool::new(cfg).run(&w.program).expect("adaptation succeeds");
            let what = format!("{} adapted for {model}", w.name);
            assert_table_matches_ops(&what, &adapted.program, &mut seen);
        }
    }
    for spec in &ssp_fuzz::corpus::parse(CORPUS).expect("corpus parses") {
        let prog = ssp_fuzz::gen::generate(spec).expect("corpus entries generate");
        assert_table_matches_ops(&spec.to_string(), &prog, &mut seen);
    }
    for (name, n) in SSP_OPS.iter().zip(seen) {
        assert!(n > 0, "no {name} instruction was checked");
    }
}
