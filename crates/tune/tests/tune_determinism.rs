//! Tier-1 property: a tune run is a pure function of its inputs. The
//! `ssp-tune-report/1` document must be byte-identical across worker
//! counts and across a warm persistent-store restart (a second
//! [`Tuner`] on the same directory), mirroring the `ssp-serve`
//! differential suite.
//!
//! Machine configs are cycle-capped because tier-1 runs this in a
//! debug build; capped configs fingerprint differently from the paper
//! configs, so these cache entries can never pollute a real store.

use ssp_bench::cache::MemoStats;
use ssp_bench::persist::{decode, encode, Store};
use ssp_core::MachineConfig;
use ssp_tune::{render_report, TuneConfig, TuneRow, Tuner, SEED};
use std::path::PathBuf;

const MAX_CYCLES: u64 = 120_000;
/// A small, shape-diverse slice of the suite: one workload whose
/// default plan regresses out-of-order (em3d) and the pinned
/// default-no-op workload (treeadd.df). Two is enough for the
/// determinism properties; the full-suite outcomes live in the bench
/// diagnostics and the committed BENCH_9 report.
const WORKLOADS: [&str; 2] = ["em3d", "treeadd.df"];

fn capped_config(workers: usize) -> TuneConfig {
    let mut io = MachineConfig::in_order();
    let mut ooo = MachineConfig::out_of_order();
    io.max_cycles = MAX_CYCLES;
    ooo.max_cycles = MAX_CYCLES;
    TuneConfig { seed: SEED, io, ooo, max_rounds: 2, workers }
}

fn workloads(cfg: &TuneConfig) -> Vec<ssp_workloads::Workload> {
    WORKLOADS.iter().map(|n| ssp_workloads::by_name(n, cfg.seed).expect("suite name")).collect()
}

fn report_for(tuner: &Tuner) -> String {
    let cfg = tuner.config().clone();
    let rows = tuner.tune_suite(&workloads(&cfg));
    render_report(cfg.seed, cfg.max_rounds, &cfg.io.fingerprint(), &cfg.ooo.fingerprint(), &rows)
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ssp-tune-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn report_is_byte_identical_across_worker_counts() {
    let serial_tuner = Tuner::new(capped_config(1));
    let serial = report_for(&serial_tuner);
    assert!(serial.starts_with("{\n  \"schema\": \"ssp-tune-report/1\""));
    assert!(serial_tuner.gate_stats().hits > 0, "no two candidates shared a binary");
    // Three workers split a round's jobs unevenly. No counter may show
    // which worker ran which simulation.
    for workers in [3, 4] {
        let parallel_tuner = Tuner::new(capped_config(workers));
        let parallel = report_for(&parallel_tuner);
        assert_eq!(serial, parallel, "tune report depends on worker count ({workers})");
        assert_eq!(serial_tuner.stats(), parallel_tuner.stats(), "memo counters ({workers})");
        assert_eq!(
            serial_tuner.gate_stats(),
            parallel_tuner.gate_stats(),
            "gate counters ({workers})"
        );
    }
}

#[test]
fn warm_store_restart_replays_byte_identically() {
    let dir = tmpdir("restart");

    let cold = Tuner::new(capped_config(2)).with_store(Store::open(&dir).expect("open store"));
    let cold_report = report_for(&cold);
    let cold_stats = cold.stats();
    assert!(cold_stats.misses > 0, "cold run must compute something");
    assert_eq!(cold_stats.disk_hits, 0, "cold run found a dirty store");

    // "Restart": a fresh instance, empty memory, same directory.
    let warm = Tuner::new(capped_config(2)).with_store(Store::open(&dir).expect("reopen store"));
    let warm_report = report_for(&warm);
    let warm_stats = warm.stats();

    assert_eq!(cold_report, warm_report, "warm restart drifted from the cold run");
    assert_eq!(warm_stats.misses, 0, "warm restart re-computed evaluations");
    assert_eq!(
        warm_stats.disk_hits, cold_stats.misses,
        "every cold computation should be answered from disk on restart"
    );
    // Every candidate resolved from disk, so the replay gated, and so
    // simulated, no binary.
    assert_eq!(warm.gate_stats(), MemoStats::default(), "warm restart ran the oracle gate");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn produced_rows_roundtrip_through_the_row_codec() {
    let cfg = capped_config(2);
    let tuner = Tuner::new(cfg.clone());
    let w = ssp_workloads::by_name("em3d", cfg.seed).expect("suite name");
    for target in ssp_tune::TargetModel::BOTH {
        let row = tuner.tune_workload(&w, target);
        let decoded = decode::<TuneRow>(&encode(&row));
        assert_eq!(decoded.as_ref(), Ok(&row), "row codec drift for {} {}", row.name, row.model);
    }
}
