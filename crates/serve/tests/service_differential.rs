//! Tier-1 property: the `ssp-serve` daemon is observably
//! indistinguishable from the one-shot binaries. Every response line is
//! byte-compared against an answer built independently from the
//! one-shot APIs (`run_benchmark_configured`, `oracle::run_case` on one
//! worker) — cold, warm in-memory, across worker counts, across a
//! daemon "restart" (a second `Server` on the same store directory),
//! and over the framed socket transport.
//!
//! Machine configs are cycle-capped because tier-1 runs this in a debug
//! build; capped configs fingerprint differently from the paper
//! configs, so these entries can never pollute a real store.

use ssp_bench::persist::Store;
use ssp_bench::{run_benchmark_configured, suite_row_json, BenchmarkRun, SEED};
use ssp_core::{simulate, AdaptOptions, MachineConfig, PostPassTool};
use ssp_fuzz::oracle::{run_case, OracleConfig};
use ssp_fuzz::spec::CaseSpec;
use ssp_serve::{read_frame, write_frame, Server, ServerConfig};
use ssp_tune::{TargetModel, TuneConfig, Tuner};
use std::path::PathBuf;

const CORPUS: &str = include_str!("../../../tests/corpus/adaptation_oracle.corpus");
const MAX_CYCLES: u64 = 120_000;

/// The workload the batch tunes. One request keeps the debug-build cost
/// of the closed loop bounded; determinism across worker counts for the
/// full tuner lives in `ssp-tune`'s own suite.
const TUNED: &str = "treeadd.df";

fn capped_config(workers: usize) -> ServerConfig {
    let mut io = MachineConfig::in_order();
    let mut ooo = MachineConfig::out_of_order();
    io.max_cycles = MAX_CYCLES;
    ooo.max_cycles = MAX_CYCLES;
    ServerConfig { seed: SEED, io, ooo, oracle: OracleConfig::default(), workers, tune_rounds: 2 }
}

/// The full request batch: every suite workload, one tune request, plus
/// the checked-in fuzz corpus, verbatim (comments and all).
fn batch() -> String {
    let mut b = String::new();
    for name in ssp_workloads::NAMES {
        b.push_str(name);
        b.push('\n');
    }
    b.push_str("tune ");
    b.push_str(TUNED);
    b.push('\n');
    b.push_str(CORPUS);
    b
}

/// The response line of a workload request that `run` answers.
fn workload_line(run: &BenchmarkRun) -> String {
    format!(
        "{{\"kind\": \"workload\", \"row\": {}, \"plan_digest\": \"{}\", \"slices\": {}, \"skipped\": {}}}\n",
        suite_row_json(&run.suite_row()),
        run.report.plan_digest(),
        run.report.slices.len(),
        run.report.skipped.len(),
    )
}

/// Build the expected response lines straight from the one-shot APIs,
/// duplicating the daemon's render format on purpose: the test must
/// fail if either side drifts.
fn expected_responses(cfg: &ServerConfig) -> String {
    let mut out = String::new();
    for name in ssp_workloads::NAMES {
        let w = ssp_workloads::by_name(name, cfg.seed).expect("suite name");
        let run = run_benchmark_configured(&w, &AdaptOptions::default(), &cfg.io, &cfg.ooo);
        out.push_str(&workload_line(&run));
    }
    let w = ssp_workloads::by_name(TUNED, cfg.seed).expect("suite name");
    let tuner = Tuner::new(TuneConfig {
        seed: cfg.seed,
        io: cfg.io.clone(),
        ooo: cfg.ooo.clone(),
        max_rounds: cfg.tune_rounds,
        workers: 1,
    });
    out.push_str(&format!(
        "{{\"kind\": \"tune\", \"rounds\": {}, \"io\": {}, \"ooo\": {}}}\n",
        cfg.tune_rounds,
        ssp_tune::report::row_json(&tuner.tune_workload(&w, TargetModel::InOrder)),
        ssp_tune::report::row_json(&tuner.tune_workload(&w, TargetModel::OutOfOrder)),
    ));
    for line in CORPUS.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let spec = CaseSpec::parse(line).expect("corpus specs parse");
        let result = run_case(&spec, &cfg.oracle, 1);
        out.push_str(&format!("{{\"kind\": \"case\", \"case\": {}}}\n", result.to_json()));
    }
    out
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ssp-serve-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn cold_service_matches_one_shot_byte_for_byte() {
    let cfg = capped_config(1);
    let expected = expected_responses(&cfg);
    let server = Server::new(cfg);
    assert_eq!(server.handle_batch(&batch()), expected);
    // Same batch again: everything answers from memory, still identical.
    assert_eq!(server.handle_batch(&batch()), expected);
    let report = server.report_json();
    assert!(report.contains("\"disk_hits\": 0"), "no store attached: {report}");
}

#[test]
fn worker_count_does_not_change_responses() {
    let serial = Server::new(capped_config(1)).handle_batch(&batch());
    let parallel = Server::new(capped_config(4)).handle_batch(&batch());
    assert_eq!(serial, parallel, "responses must not depend on the worker pool size");
}

#[test]
fn a_lone_tune_frame_answers_the_same_at_any_worker_count() {
    // The batch above gives its tune request one worker; alone in its
    // batch, a tune request fans its candidates over every worker.
    let frame = format!("tune {TUNED}\n");
    let answers = [1, 2, 4].map(|w| Server::new(capped_config(w)).handle_batch(&frame));
    assert!(answers[0].starts_with("{\"kind\": \"tune\""), "a tune answer: {}", answers[0]);
    assert_eq!(answers[0], answers[1], "1 vs 2 workers");
    assert_eq!(answers[0], answers[2], "1 vs 4 workers");
}

#[test]
fn a_lone_workload_frame_answers_the_same_at_any_worker_count() {
    // In the batch above each workload request gets one worker; alone
    // in its batch, it runs its four simulations on every worker. The
    // simulations memoize through the process-wide memo, so only the
    // first server to ask simulates: a seed no other test here uses
    // keeps them from asking first, the four-worker server asks before
    // the others, and its answer is checked against the four
    // simulations run serially here, outside the memo.
    let seed = SEED + 1;
    let config = |workers| ServerConfig { seed, ..capped_config(workers) };
    for name in ssp_workloads::NAMES {
        let frame = format!("{name}\n");
        let answers = [4, 2, 1].map(|w| {
            let server = Server::new(config(w));
            (server.handle_batch(&frame), server.report_json())
        });
        let cfg = config(1);
        let w = ssp_workloads::by_name(name, seed).expect("suite name");
        let a = PostPassTool::new(cfg.io.clone()).run(&w.program).expect("adaptation succeeds");
        let serial = BenchmarkRun {
            name: w.name,
            base_io: simulate(&w.program, &cfg.io),
            ssp_io: simulate(&a.program, &cfg.io),
            base_ooo: simulate(&w.program, &cfg.ooo),
            ssp_ooo: simulate(&a.program, &cfg.ooo),
            report: a.report,
        };
        let (response, report) = &answers[0];
        assert_eq!(*response, workload_line(&serial), "{name}: 4 workers vs a serial run");
        assert_eq!(answers[1], answers[0], "{name}: 2 vs 4 workers ({report})");
        assert_eq!(answers[2], answers[0], "{name}: 1 vs 4 workers ({report})");
    }
}

#[test]
fn a_lone_case_frame_answers_the_same_at_any_worker_count() {
    // In the batch above each case request gets one worker; alone in
    // its batch, it runs its baseline and adapted simulations as two
    // four-job lists on every worker. Case answers are not memoized
    // across servers, so each server simulates.
    for line in CORPUS.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let frame = format!("{line}\n");
        let answers = [4, 2, 1].map(|w| {
            let server = Server::new(capped_config(w));
            (server.handle_batch(&frame), server.report_json())
        });
        let spec = CaseSpec::parse(line).expect("corpus specs parse");
        let serial = run_case(&spec, &OracleConfig::default(), 1);
        let (response, report) = &answers[0];
        let want = format!("{{\"kind\": \"case\", \"case\": {}}}\n", serial.to_json());
        assert_eq!(*response, want, "{line}: 4 workers vs a serial run");
        assert_eq!(answers[1], answers[0], "{line}: 2 vs 4 workers ({report})");
        assert_eq!(answers[2], answers[0], "{line}: 1 vs 4 workers ({report})");
    }
}

#[test]
fn warm_restart_answers_from_disk_byte_for_byte() {
    let dir = tmpdir("warm-restart");
    let cold = Server::new(capped_config(2)).with_store(Store::open(&dir).expect("create store"));
    let cold_out = cold.handle_batch(&batch());
    assert!(cold.report_json().contains("\"disk_hits\": 0"), "first run computes everything");

    // "Restart": a fresh instance, empty memory cache, same directory.
    let warm = Server::new(capped_config(2)).with_store(Store::open(&dir).expect("reopen store"));
    let warm_out = warm.handle_batch(&batch());
    assert_eq!(warm_out, cold_out, "a store round-trip must not change a single byte");
    let report = warm.report_json();
    assert!(
        report.contains("\"misses\": 0"),
        "every request must be answered from disk after a restart: {report}"
    );
    let n = batch()
        .lines()
        .filter(|l| {
            let l = l.trim();
            !l.is_empty() && !l.starts_with('#')
        })
        .count() as u64;
    assert!(report.contains(&format!("\"disk_hits\": {n}")), "expected {n} disk hits: {report}");
    assert!(!report.contains("\"store_shards\": null"), "store stats present: {report}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn socket_transport_round_trips_the_same_bytes() {
    use std::os::unix::net::{UnixListener, UnixStream};

    let path =
        std::env::temp_dir().join(format!("ssp-serve-test-socket-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind test socket");

    // Daemon side, on a helper thread: one connection, one frame in,
    // one frame out — the same loop body the `ssp_serve` bin runs.
    let daemon = std::thread::spawn(move || {
        let server = Server::new(capped_config(2));
        let (mut conn, _) = listener.accept().expect("accept");
        let payload = read_frame(&mut conn).expect("read request frame").expect("one frame");
        let response = server.handle_batch(&String::from_utf8_lossy(&payload));
        write_frame(&mut conn, response.as_bytes()).expect("write response frame");
    });

    let mut conn = UnixStream::connect(&path).expect("connect");
    write_frame(&mut conn, batch().as_bytes()).expect("send batch");
    let payload = read_frame(&mut conn).expect("read response").expect("daemon answered");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_file(&path);

    let direct = Server::new(capped_config(2)).handle_batch(&batch());
    assert_eq!(String::from_utf8_lossy(&payload), direct, "framing must be transparent");
}
