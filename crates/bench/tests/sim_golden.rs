//! Golden-file test: every statistic a simulation reports, pinned.
//!
//! The fast and stepped engines share the per-instruction path (fetch
//! from the decoded table, functional memory, per-load statistics,
//! spawn and kill, functional-unit booking), so the differential suites
//! cannot see a change that moves both the same way. This file can: it
//! records, for every suite workload on both machine models, baseline
//! and default-adapted (adapted once against the in-order profile, as
//! the suite does), and for every corpus program, the full
//! `ssp-sim-result/1` record, the final architectural snapshot's
//! digests and trap, the speculative-thread counters, and for adapted
//! runs the telemetry counters and timeliness totals. Runs are capped
//! at 120,000 cycles, the tier-1 cap. Every run must also keep its ROI
//! cycles within its total cycles.
//!
//! To regenerate after an intentional change to what the simulator
//! computes:
//!
//! ```text
//! SSP_BLESS=1 cargo test -p ssp-bench --test sim_golden
//! ```

use ssp_core::{prefetch_targets, MachineConfig, PostPassTool, Program};
use ssp_ir::InstTag;
use ssp_sim::{simulate_with, SimOptions};
use std::fmt::Write as _;

const CORPUS: &str = include_str!("../../../tests/corpus/adaptation_oracle.corpus");
const GOLDEN: &str = include_str!("golden/sim_stats.txt");
const MAX_CYCLES: u64 = 120_000;

fn machines() -> [(&'static str, MachineConfig); 2] {
    let mut io = MachineConfig::in_order();
    io.max_cycles = MAX_CYCLES;
    let mut ooo = MachineConfig::out_of_order();
    ooo.max_cycles = MAX_CYCLES;
    [("in-order", io), ("out-of-order", ooo)]
}

/// Simulate `prog` once with the snapshot recorder (commit digest over
/// tags below `bound`) and, when `targets` is given, the telemetry
/// collector, and append everything the run reports under `what`.
fn render_run(
    out: &mut String,
    what: &str,
    prog: &Program,
    cfg: &MachineConfig,
    bound: u32,
    targets: Option<&[(InstTag, InstTag)]>,
) {
    let opts = SimOptions { snapshot: Some(bound), telemetry: targets, ..Default::default() };
    let run = simulate_with(prog, cfg, opts);
    let r = &run.result;
    assert!(
        r.cycles <= r.total_cycles,
        "{what}: ROI cycles {} exceed total_cycles {}",
        r.cycles,
        r.total_cycles
    );
    let s = run.snapshot.expect("snapshot requested");
    writeln!(out, "run {what}").unwrap();
    out.push_str(&ssp_bench::persist::encode(&run.result));
    writeln!(
        out,
        "snapshot mem_digest={:016x} commit_digest={:016x} commit_len={} trap={}",
        s.mem_digest,
        s.commit_digest,
        s.commit_len,
        s.trap.name()
    )
    .unwrap();
    writeln!(
        out,
        "spec kills={} live_at_end={} store_attempts={}",
        s.spec_kills, s.spec_live_at_end, s.spec_store_attempts
    )
    .unwrap();
    if let Some(t) = run.trace {
        let tot = t.totals();
        writeln!(
            out,
            "telemetry fired={} suppressed={} spawned={} killed={} live_in={} issued={} \
             dropped={} completed={} evictions={} loads={}",
            t.triggers_fired,
            t.triggers_suppressed,
            t.slices_spawned,
            t.slices_killed,
            t.live_in_copies,
            t.prefetches_issued,
            t.prefetches_dropped,
            t.prefetches_completed,
            t.prefetch_table_evictions,
            t.per_load.len()
        )
        .unwrap();
        writeln!(
            out,
            "timeliness early={} timely={} late={} useless={}",
            tot.early, tot.timely, tot.late, tot.useless
        )
        .unwrap();
    }
}

/// Baseline and default-adapted runs of `prog` on both models.
fn render_program(out: &mut String, name: &str, prog: &Program) {
    let bound = prog.next_tag;
    for (model, cfg) in machines() {
        render_run(out, &format!("{name} baseline {model}"), prog, &cfg, bound, None);
    }
    match PostPassTool::new(machines()[0].1.clone()).run(prog) {
        Ok(adapted) => {
            let targets = prefetch_targets(&adapted);
            for (model, cfg) in machines() {
                let what = format!("{name} adapted {model}");
                render_run(out, &what, &adapted.program, &cfg, bound, Some(&targets));
            }
        }
        Err(e) => writeln!(out, "run {name} adapted: error {e}").unwrap(),
    }
}

#[test]
fn every_simulated_statistic_matches_golden() {
    let mut actual = String::new();
    for w in &ssp_workloads::suite(ssp_bench::SEED) {
        render_program(&mut actual, w.name, &w.program);
    }
    for spec in &ssp_fuzz::corpus::parse(CORPUS).expect("corpus parses") {
        let prog = ssp_fuzz::gen::generate(spec).expect("corpus entries generate");
        render_program(&mut actual, &format!("corpus[{spec}]"), &prog);
    }
    if std::env::var_os("SSP_BLESS").is_some() {
        let path = format!("{}/tests/golden/sim_stats.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    if actual != GOLDEN {
        let (a, g): (Vec<_>, Vec<_>) = (actual.lines().collect(), GOLDEN.lines().collect());
        let first = a.iter().zip(&g).position(|(x, y)| x != y).unwrap_or(a.len().min(g.len()));
        panic!(
            "simulated statistics changed at golden line {}: got {:?}, golden {:?} \
             ({} lines vs {}); if intentional, regenerate with \
             `SSP_BLESS=1 cargo test -p ssp-bench --test sim_golden`",
            first + 1,
            a.get(first),
            g.get(first),
            a.len(),
            g.len()
        );
    }
}
