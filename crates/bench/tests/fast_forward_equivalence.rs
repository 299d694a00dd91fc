//! Tier-1 property: the event-driven fast-forward engine is observably
//! indistinguishable from the stepped engine — identical `SimResult`
//! statistics, memory digests, and trap status — across the whole
//! surface the harness exercises: every workload × both machine models
//! × {baseline, SSP-adapted binary}, plus the checked-in fuzz corpus.
//!
//! The sim-crate tests cover baselines; this one adds the adapted
//! binaries (the bench crate is the lowest layer that can run the
//! post-pass tool) and the corpus programs. Machine configs are
//! cycle-capped because tier-1 runs this in a debug build; equivalence
//! does not depend on the cap.

use ssp_core::{
    prefetch_targets, simulate, simulate_stepped, simulate_traced, AdaptOptions, MachineConfig,
    PostPassTool, SimResult,
};
use ssp_sim::{
    simulate_snapshot, simulate_snapshot_stepped, simulate_windowed, simulate_with, SimOptions,
};

const CORPUS: &str = include_str!("../../../tests/corpus/adaptation_oracle.corpus");

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

fn assert_equivalent(what: &str, fast: &SimResult, stepped: &SimResult) {
    assert_eq!(fast.total_cycles, stepped.total_cycles, "{what}: total_cycles");
    assert_eq!(fast.breakdown, stepped.breakdown, "{what}: stall breakdown");
    assert_eq!(fast, stepped, "{what}: full SimResult");
}

#[test]
fn workloads_baseline_and_adapted_match_stepped_engine() {
    let ws = ssp_workloads::suite(ssp_bench::SEED);
    let opts = AdaptOptions::default();
    for w in &ws {
        let adapted = PostPassTool::new(MachineConfig::in_order())
            .with_options(opts.clone())
            .run(&w.program)
            .expect("adaptation succeeds");
        for (model, cfg) in machines(120_000) {
            for (class, prog) in [("baseline", &w.program), ("adapted", &adapted.program)] {
                let what = format!("{} {class} on {model}", w.name);
                assert_equivalent(&what, &simulate(prog, &cfg), &simulate_stepped(prog, &cfg));
            }
        }
    }
}

#[test]
fn fused_snapshot_and_telemetry_run_matches_the_separate_runs() {
    // The tuner's oracle gate installs the snapshot recorder and the
    // telemetry collector in one run; each must see exactly what it sees
    // alone, on both engines.
    for w in &ssp_workloads::suite(ssp_bench::SEED) {
        let adapted = PostPassTool::new(MachineConfig::in_order())
            .run(&w.program)
            .expect("adaptation succeeds");
        let targets = prefetch_targets(&adapted);
        let bound = w.program.next_tag;
        for (model, cfg) in machines(120_000) {
            let (result, snapshot) = simulate_snapshot(&adapted.program, &cfg, bound);
            let (traced, trace) = simulate_traced(&adapted.program, &cfg, &targets);
            assert_equivalent(&format!("{} traced on {model}", w.name), &traced, &result);
            for stepped in [false, true] {
                let what = format!("{} fused on {model} (stepped: {stepped})", w.name);
                let mode = if stepped { ssp_sim::SimMode::Stepped } else { ssp_sim::SimMode::Fast };
                let opts = SimOptions { mode, snapshot: Some(bound), telemetry: Some(&targets) };
                let run = simulate_with(&adapted.program, &cfg, opts);
                assert_equivalent(&what, &run.result, &result);
                assert_eq!(run.snapshot.as_ref(), Some(&snapshot), "{what}: snapshot");
                assert_eq!(run.trace.as_ref(), Some(&trace), "{what}: trace");
            }
        }
    }
}

#[test]
fn window_accounting_holds_on_adapted_binaries_and_corpus() {
    // `simulate_windowed` asserts busy + idle + stepped == total_cycles
    // internally; the sim-crate tests drive it over baselines, this one
    // adds the SSP-adapted binaries (speculative threads make the busy
    // batcher work hardest) and the corpus programs.
    let opts = AdaptOptions::default();
    for w in &ssp_workloads::suite(ssp_bench::SEED) {
        let adapted = PostPassTool::new(MachineConfig::in_order())
            .with_options(opts.clone())
            .run(&w.program)
            .expect("adaptation succeeds");
        for (model, cfg) in machines(120_000) {
            let what = format!("{} adapted on {model}", w.name);
            let (r, stats) = simulate_windowed(&adapted.program, &cfg);
            assert_equivalent(&what, &r, &simulate_stepped(&adapted.program, &cfg));
            assert_eq!(stats.simulated(), r.total_cycles, "{what}: accounting leak");
        }
    }
    for spec in &ssp_fuzz::corpus::parse(CORPUS).expect("corpus parses") {
        let prog = ssp_fuzz::gen::generate(spec).expect("corpus entries generate");
        for (model, cfg) in machines(120_000) {
            let (r, stats) = simulate_windowed(&prog, &cfg);
            assert_eq!(stats.simulated(), r.total_cycles, "{spec} on {model}: accounting leak");
        }
    }
}

#[test]
fn corpus_programs_match_stepped_engine_with_digests_and_traps() {
    let specs = ssp_fuzz::corpus::parse(CORPUS).expect("corpus parses");
    assert!(specs.len() >= 8, "seed corpus present");
    for spec in &specs {
        let prog = ssp_fuzz::gen::generate(spec).expect("corpus entries generate");
        let bound = prog.next_tag;
        for (model, cfg) in machines(120_000) {
            let (fr, fs) = simulate_snapshot(&prog, &cfg, bound);
            let (sr, ss) = simulate_snapshot_stepped(&prog, &cfg, bound);
            assert_equivalent(&format!("{spec} on {model}"), &fr, &sr);
            assert_eq!(fs.mem_digest, ss.mem_digest, "{spec} on {model}: memory digest");
            assert_eq!(fs.trap, ss.trap, "{spec} on {model}: trap status");
            assert_eq!(fs, ss, "{spec} on {model}: full snapshot");
        }
    }
}
