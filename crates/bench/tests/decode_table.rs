//! The pre-decoded side table the engine's hot path reads
//! ([`DecodedProgram`]) against the `Op` each entry was decoded from: at
//! every static instruction, the use list, the use mask and the
//! functional-unit class must equal those derived from the instruction
//! itself. Inputs are every suite workload, each workload's default
//! adapted binary for both machine models (their stubs and slices carry
//! the trigger, spawn, live-in-buffer and kill opcodes), and every corpus
//! program.

use ssp_core::{MachineConfig, PostPassTool, Program};
use ssp_ir::{InstRef, Op};
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
    for (func, f) in prog.iter_funcs() {
        for (block, b) in f.iter_blocks() {
            for (idx, inst) in b.insts.iter().enumerate() {
                let at = InstRef { func, block, idx };
                let decoded = table.get(at);
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
