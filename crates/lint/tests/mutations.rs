//! Mutation tests: the linter must kill every seeded defect class.
//!
//! Each test adapts the same pointer-chasing fixture with the real
//! pipeline (so the binaries under test are genuine emitter output,
//! linted clean by the `adapt` gate), plants one defect with
//! [`ssp_lint::mutate`], and asserts the linter reports exactly the
//! diagnostic that check exists to produce. A mutant that survives —
//! a clean report on a corrupted binary — fails its test.

use ssp_codegen::{adapt, AdaptOptions};
use ssp_ir::{CmpKind, Operand, Program, ProgramBuilder, Reg};
use ssp_lint::{lint, mutate, EmittedSlice, LintReport};
use ssp_sim::{MachineConfig, Profile};

/// Pointer chase over scattered nodes: adapts to one chaining slice.
fn pointer_chase(n: u64) -> Program {
    let mut pb = ProgramBuilder::new();
    for i in 0..n {
        let perm = (i * 7919) % n;
        pb.data_word(0x0100_0000 + 64 * i, 0x0800_0000 + 64 * perm);
        pb.data_word(0x0800_0000 + 64 * perm, perm);
    }
    let mut f = pb.function("main");
    let e = f.entry_block();
    let body = f.new_block();
    let exit = f.new_block();
    let (arc, k, t, u, v, sum, p) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70));
    f.at(e).movi(arc, 0x0100_0000).movi(k, 0x0100_0000 + (64 * n) as i64).movi(sum, 0).br(body);
    f.at(body)
        .mov(t, arc)
        .ld(u, t, 0)
        .ld(v, u, 0)
        .add(sum, sum, Operand::Reg(v))
        .add(arc, t, 64)
        .cmp(CmpKind::Lt, p, arc, Operand::Reg(k))
        .br_cond(p, body, exit);
    f.at(exit).halt();
    let main = f.finish();
    pb.finish_with(main)
}

struct Fixture {
    original: Program,
    profile: Profile,
    adapted: Program,
    plans: Vec<EmittedSlice>,
}

fn fixture() -> Fixture {
    let original = pointer_chase(300);
    let mc = MachineConfig::in_order();
    let profile = ssp_sim::profile(&original, &mc);
    let (adapted, report) =
        adapt(&original, &profile, &mc, &AdaptOptions::default()).expect("fixture adapts clean");
    assert!(report.slice_count() >= 1, "fixture emits a slice");
    Fixture { original, profile, adapted, plans: report.slices }
}

impl Fixture {
    fn relint(&self, mutated: &Program) -> LintReport {
        lint(&self.original, mutated, &self.profile, &self.plans)
    }

    /// Apply one mutation to the first slice and assert the linter
    /// reports the expected diagnostic code.
    fn kills(&self, mutator: impl FnOnce(&mut Program, &EmittedSlice), code: &str) {
        let mut mutated = self.adapted.clone();
        mutator(&mut mutated, &self.plans[0]);
        let report = self.relint(&mutated);
        assert!(report.has(code), "mutant must die with `{code}`, got: {report}",);
    }
}

#[test]
fn unmutated_fixture_lints_clean() {
    let fx = fixture();
    let report = fx.relint(&fx.adapted);
    assert!(report.is_clean(), "genuine pipeline output is clean: {report}");
}

#[test]
fn dropped_stub_copy_is_killed() {
    let fx = fixture();
    fx.kills(mutate::drop_stub_copy, "live-in-copy-missing");
}

#[test]
fn dead_stub_copy_is_killed() {
    let fx = fixture();
    fx.kills(mutate::add_dead_stub_copy, "dead-live-in-copy");
}

#[test]
fn duplicated_trigger_is_killed() {
    let fx = fixture();
    fx.kills(mutate::duplicate_trigger, "multi-trigger");
    // And the path counter independently sees the double fire.
    fx.kills(mutate::duplicate_trigger, "trigger-dup-path");
}

#[test]
fn store_in_slice_is_killed() {
    let fx = fixture();
    fx.kills(mutate::insert_store, "store-in-slice");
}

#[test]
fn unbalanced_spawn_is_killed() {
    let fx = fixture();
    fx.kills(mutate::unbalance_spawn, "slice-exit-not-kill");
}

#[test]
fn unbounded_chain_is_killed() {
    let fx = fixture();
    fx.kills(mutate::unbound_chain, "chain-unbounded");
}

#[test]
fn live_register_clobber_is_killed() {
    let fx = fixture();
    // Reg(65) holds the loop bound, which the main thread still compares
    // against after resuming from the trigger.
    fx.kills(|p, plan| mutate::clobber_live_reg(p, plan, Reg(65)), "stub-clobbers-live");
}

#[test]
fn dropped_entry_copy_is_killed() {
    let fx = fixture();
    fx.kills(mutate::drop_entry_copy, "upward-exposed");
}
