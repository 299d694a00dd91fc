//! The request scheduler behind `ssp-serve`: batch handling, the
//! response memo with its optional persistent store, and the
//! `ssp-serve-report/2` statistics document.
//!
//! # Caching and sharding
//!
//! Every answer goes through the server's [`Memo`], whose doc comment
//! states the caching contract (per-key cells, schedule-independent
//! counters, disk probe, write-back). A request's *key* is its full
//! identity, machine-config fingerprints included; its memo *group* is
//! the in-order machine fingerprint (workload and tune requests) or the
//! oracle configuration fingerprint (case requests), so one
//! configuration's answers share a memory shard and a store shard.
//!
//! The memo holds the rendered response; the store holds the entry
//! ([`crate::store`]). A warm answer is rendered from the decoded entry
//! by the same renderer a cold answer uses, so the two are
//! byte-identical.
//!
//! # Options in keys
//!
//! Adaptation options participate in every adaptation-bearing cache
//! key via the versioned [`AdaptOptions::fingerprint`]
//! (`ssp-adapt-options/1`), so default-options workload answers and
//! tuned plans can never collide on workload + seed + machine alone.
//! Plain workload requests still adapt with [`AdaptOptions::default`];
//! `tune <name>` requests run the `ssp-tune` closed loop (which
//! explores non-default options under the same keying discipline) and
//! persist the tuned rows as their own entry kind.

use crate::protocol::{parse_line, Request};
use crate::store::{CaseEntry, TuneEntry, WorkloadEntry};
use ssp_bench::cache::Memo;
use ssp_bench::persist::Store;
use ssp_bench::{json_escape, parallel, suite_row_json, SEED};
use ssp_core::{AdaptOptions, MachineConfig};
use ssp_fuzz::oracle::{run_case, OracleConfig};
use ssp_fuzz::spec::CaseSpec;
use ssp_tune::{TargetModel, TuneConfig, Tuner};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Everything a [`Server`] is parameterized over. The default is the
/// exact one-shot experiment configuration: paper machine models,
/// [`SEED`], default oracle, `SSP_THREADS` workers.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Workload builder seed.
    pub seed: u64,
    /// In-order machine model.
    pub io: MachineConfig,
    /// Out-of-order machine model.
    pub ooo: MachineConfig,
    /// Oracle configuration for case requests.
    pub oracle: OracleConfig,
    /// Worker threads a batch fans out across.
    pub workers: usize,
    /// Greedy-round cap for `tune` requests (part of the tune cache
    /// key: different caps are different answers).
    pub tune_rounds: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            seed: SEED,
            io: MachineConfig::in_order(),
            ooo: MachineConfig::out_of_order(),
            oracle: OracleConfig::default(),
            workers: parallel::threads(),
            tune_rounds: ssp_tune::DEFAULT_MAX_ROUNDS,
        }
    }
}

/// A persistent adaptation service instance.
///
/// Instance-based on purpose: "restart the daemon" in a test is just a
/// second `Server` pointed at the same store directory.
pub struct Server {
    config: ServerConfig,
    /// Configuration fingerprints as they appear in keys and groups,
    /// computed once: in-order and out-of-order machines, default
    /// adaptation options, oracle configuration.
    io_fp: String,
    ooo_fp: String,
    opts_fp: String,
    oracle_fp: String,
    /// Rendered responses, each held at its length: a `format!`ted
    /// `String` keeps up to twice its length in spare capacity, and a
    /// long-lived daemon holds every distinct answer it gave.
    memo: Memo<Box<str>>,
    requests: AtomicU64,
    workloads: AtomicU64,
    cases: AtomicU64,
    tunes: AtomicU64,
    errors: AtomicU64,
}

impl Server {
    /// A server with no persistent store (memory-only caching).
    pub fn new(config: ServerConfig) -> Server {
        Server {
            io_fp: config.io.fingerprint(),
            ooo_fp: config.ooo.fingerprint(),
            opts_fp: AdaptOptions::default().fingerprint(),
            oracle_fp: format!("ssp-oracle-config/1 max_cycles={}", config.oracle.max_cycles),
            config,
            memo: Memo::default(),
            requests: AtomicU64::new(0),
            workloads: AtomicU64::new(0),
            cases: AtomicU64::new(0),
            tunes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
        }
    }

    /// Attach a persistent store: memory misses probe it, computed
    /// answers are written back, and each tune request lends it to its
    /// tuner for the candidates.
    pub fn with_store(self, store: Store) -> Server {
        self.memo.attach_store(store);
        self
    }

    /// The configuration this instance answers under.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Handle one batch of request lines: parse, fan out across
    /// [`ServerConfig::workers`], and return one JSON response line per
    /// request, in request order (trailing newline included when the
    /// batch was non-empty). Blank lines and `#` comments are skipped;
    /// unparseable lines, and requests whose computation panics, yield
    /// `{"kind": "error", …}` responses in place rather than aborting
    /// the batch. A panicked computation leaves its memo key uncomputed
    /// and uncounted, so a later lookup retries it.
    pub fn handle_batch(&self, input: &str) -> String {
        let requests: Vec<_> = input.lines().filter_map(parse_line).collect();
        self.requests.fetch_add(requests.len() as u64, Ordering::Relaxed);
        // Every request fans its simulations over the workers its batch
        // leaves idle: a lone frame gets them all, a full batch one
        // each, so the daemon never runs more than `workers`
        // simulations at once. No answer depends on it.
        let share = (self.config.workers / requests.len().max(1)).max(1);
        let responses = parallel::map_indexed(&requests, self.config.workers, |_, req| {
            let answer = catch_unwind(AssertUnwindSafe(|| match req {
                Ok(Request::Workload(name)) => Ok(self.respond_workload(name, share)),
                Ok(Request::Tune(name)) => Ok(self.respond_tune(name, share)),
                Ok(Request::Case(spec)) => Ok(self.respond_case(spec, share)),
                Err(e) => Err(e.to_string()),
            }));
            let error = match answer {
                Ok(Ok(response)) => return response.into(),
                Ok(Err(e)) => e,
                Err(panic) => format!("request panicked: {}", panic_message(panic.as_ref())),
            };
            self.errors.fetch_add(1, Ordering::Relaxed);
            format!("{{\"kind\": \"error\", \"error\": \"{}\"}}", json_escape(&error))
        });
        let mut out = String::new();
        for r in responses {
            out.push_str(&r);
            out.push('\n');
        }
        out
    }

    /// The daemon's statistics document (`ssp-serve-report/2`):
    /// request/answer counters, the three-way cache verdict, per-shard
    /// in-memory occupancy, and (when a store is attached) per-shard
    /// on-disk entry counts. Deterministic for a fixed request multiset.
    pub fn report_json(&self) -> String {
        let shard_sizes: Vec<String> =
            self.memo.shard_sizes().iter().map(ToString::to_string).collect();
        let store_json = match self.memo.store() {
            None => "null".to_owned(),
            Some(store) => {
                let counts: Vec<String> = store
                    .shard_entry_counts()
                    .iter()
                    .map(|(shard, n)| format!("{{\"shard\": \"{shard}\", \"entries\": {n}}}"))
                    .collect();
                format!("[{}]", counts.join(", "))
            }
        };
        let cache = self.memo.stats();
        format!(
            concat!(
                "{{\"schema\": \"ssp-serve-report/2\", ",
                "\"requests\": {}, \"workloads\": {}, \"cases\": {}, \"tunes\": {}, \"errors\": {}, ",
                "\"cache\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}}}, ",
                "\"memory_shards\": [{}], \"store_shards\": {}}}"
            ),
            self.requests.load(Ordering::Relaxed),
            self.workloads.load(Ordering::Relaxed),
            self.cases.load(Ordering::Relaxed),
            self.tunes.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            cache.hits,
            cache.disk_hits,
            cache.misses,
            shard_sizes.join(", "),
            store_json,
        )
    }

    fn respond_workload(&self, name: &str, workers: usize) -> Box<str> {
        self.workloads.fetch_add(1, Ordering::Relaxed);
        let key = format!(
            "workload name={name} seed={} io={} ooo={} opts={}",
            self.config.seed, self.io_fp, self.ooo_fp, self.opts_fp
        );
        let decode = |text: &str| WorkloadEntry::decode(text).ok().as_ref().map(render_workload);
        self.memo.get(&self.io_fp, &key, decode, || {
            let w = ssp_workloads::by_name(name, self.config.seed)
                .expect("parse_line admits only known workload names");
            // The four simulations run longest first on `workers`
            // threads, so on two the request waits for build, profile,
            // adapt and the adapted out-of-order run, and the other
            // three overlap that run on the second worker.
            let run = ssp_bench::run_suite_configured(
                std::slice::from_ref(&w),
                &AdaptOptions::default(),
                &self.config.io,
                &self.config.ooo,
                workers,
            )
            .remove(0);
            let entry = WorkloadEntry {
                name: name.to_owned(),
                seed: self.config.seed,
                plan_digest: run.report.plan_digest(),
                slices: run.report.slices.len() as u64,
                skipped: run.report.skipped.len() as u64,
                base_io: run.base_io,
                ssp_io: run.ssp_io,
                base_ooo: run.base_ooo,
                ssp_ooo: run.ssp_ooo,
            };
            (render_workload(&entry), entry.encode())
        })
    }

    fn respond_tune(&self, name: &str, workers: usize) -> Box<str> {
        self.tunes.fetch_add(1, Ordering::Relaxed);
        let key = format!(
            "tune name={name} seed={} rounds={} io={} ooo={} opts={}",
            self.config.seed, self.config.tune_rounds, self.io_fp, self.ooo_fp, self.opts_fp
        );
        let decode = |text: &str| TuneEntry::decode(text).ok().as_ref().map(render_tune);
        self.memo.get(&self.io_fp, &key, decode, || {
            let w = ssp_workloads::by_name(name, self.config.seed)
                .expect("parse_line admits only known workload names");
            // Fanning a tune over every worker costs little memory: a
            // gated simulation of a default adapted binary, snapshot and
            // telemetry recorders installed, peaks at 377-564 KB of heap
            // (a plain one under 420 KB, which
            // `every_default_adapted_simulation_peaks_under_420_kb_of_heap`
            // bounds), the tuner keeps no more simulations alive than it
            // has workers, all sharing the workload's one frozen data
            // image, and perfbench's tune-cold daemon (two workers,
            // two-vCPU host) peaks at about 4.9 MB of RSS.
            let mut tuner = Tuner::new(TuneConfig {
                seed: self.config.seed,
                io: self.config.io.clone(),
                ooo: self.config.ooo.clone(),
                max_rounds: self.config.tune_rounds,
                workers,
            });
            if let Some(store) = self.memo.store() {
                // The tuner's candidate memo shares the daemon's store,
                // so a restarted daemon replays even half-finished tunes
                // from disk.
                tuner = tuner.with_store(store.clone());
            }
            let entry = TuneEntry {
                name: name.to_owned(),
                seed: self.config.seed,
                rounds: self.config.tune_rounds as u64,
                io_row: tuner.tune_workload(&w, TargetModel::InOrder),
                ooo_row: tuner.tune_workload(&w, TargetModel::OutOfOrder),
            };
            (render_tune(&entry), entry.encode())
        })
    }

    fn respond_case(&self, spec: &CaseSpec, workers: usize) -> Box<str> {
        self.cases.fetch_add(1, Ordering::Relaxed);
        let key = format!("case {spec} {}", self.oracle_fp);
        let decode = |text: &str| CaseEntry::decode(text).ok().as_ref().map(render_case);
        self.memo.get(&self.oracle_fp, &key, decode, || {
            let result = run_case(spec, &self.config.oracle, workers);
            let entry = CaseEntry {
                spec: result.spec.to_string(),
                outcome: result.outcome_name().to_owned(),
                kinds: result.violation_kinds(),
                slices: result.slices as u64,
                threads_spawned: result.threads_spawned,
            };
            (render_case(&entry), entry.encode())
        })
    }
}

fn render_workload(entry: &WorkloadEntry) -> Box<str> {
    format!(
        "{{\"kind\": \"workload\", \"row\": {}, \"plan_digest\": \"{}\", \"slices\": {}, \"skipped\": {}}}",
        suite_row_json(&entry.suite_row()),
        entry.plan_digest,
        entry.slices,
        entry.skipped,
    )
    .into_boxed_str()
}

fn render_case(entry: &CaseEntry) -> Box<str> {
    format!("{{\"kind\": \"case\", \"case\": {}}}", entry.to_json()).into_boxed_str()
}

/// Render a tune answer from its entry — same path cold and warm, so
/// both are byte-identical (the rows go through
/// [`ssp_tune::report::row_json`], the renderer the `tune` binary
/// uses).
fn render_tune(entry: &TuneEntry) -> Box<str> {
    format!(
        "{{\"kind\": \"tune\", \"rounds\": {}, \"io\": {}, \"ooo\": {}}}",
        entry.rounds,
        ssp_tune::report::row_json(&entry.io_row),
        ssp_tune::report::row_json(&entry.ooo_row),
    )
    .into_boxed_str()
}

/// The message a panic was raised with, when it carries one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<&str>() {
        Some(s) => s,
        None => payload.downcast_ref::<String>().map_or("(no message)", String::as_str),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    fn capped_config() -> ServerConfig {
        let mut io = MachineConfig::in_order();
        let mut ooo = MachineConfig::out_of_order();
        io.max_cycles = 120_000;
        ooo.max_cycles = 120_000;
        ServerConfig {
            seed: SEED,
            io,
            ooo,
            oracle: OracleConfig::default(),
            workers: 2,
            tune_rounds: 2,
        }
    }

    #[test]
    fn batch_preserves_order_and_counts() {
        let server = Server::new(capped_config());
        let out =
            server.handle_batch("# comment\n\nmcf\nseed=1 chase=48 loads=2\nmcf\nnot-a-request\n");
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"kind\": \"workload\", \"row\": {\"name\": \"mcf\""));
        assert!(lines[1].starts_with("{\"kind\": \"case\", \"case\": {\"spec\": \"seed=1"));
        assert_eq!(lines[0], lines[2], "duplicate request, identical response");
        assert!(lines[3].starts_with("{\"kind\": \"error\""));
        let report = server.report_json();
        assert!(report.starts_with("{\"schema\": \"ssp-serve-report/2\""));
        assert!(report.contains("\"tunes\": 0"), "report: {report}");
        assert!(report.contains("\"requests\": 4"), "report: {report}");
        assert!(report.contains("\"errors\": 1"), "report: {report}");
        assert!(
            report.contains("\"cache\": {\"hits\": 1, \"disk_hits\": 0, \"misses\": 2}"),
            "report: {report}"
        );
        assert!(report.contains("\"store_shards\": null"), "report: {report}");
    }

    /// Replace every entry under `root` with `cut` of its text.
    fn cut_entries(root: &Path, cut: fn(&str) -> String) {
        for shard in fs::read_dir(root).unwrap().flatten().filter(|d| d.path().is_dir()) {
            for entry in fs::read_dir(shard.path()).unwrap().flatten() {
                let text = fs::read_to_string(entry.path()).unwrap();
                fs::write(entry.path(), cut(&text)).unwrap();
            }
        }
    }

    #[test]
    fn truncated_workload_and_case_entries_are_recomputed_and_repaired() {
        let root = std::env::temp_dir().join(format!("ssp-serve-truncated-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let batch = "mcf\nseed=1 chase=48 loads=2\n";
        let server = || Server::new(capped_config()).with_store(Store::open(&root).unwrap());
        let cold = server().handle_batch(batch);
        let cuts: [fn(&str) -> String; 2] = [
            // The format and key lines, the payload's header and first field.
            |text| text.lines().take(4).map(|l| format!("{l}\n")).collect(),
            // All but the last two bytes: the last number loses a digit.
            |text| text[..text.len() - 2].to_owned(),
        ];
        for cut in cuts {
            cut_entries(&root, cut);
            let repaired = server();
            assert_eq!(repaired.handle_batch(batch), cold);
            let report = repaired.report_json();
            assert!(
                report.contains("\"cache\": {\"hits\": 0, \"disk_hits\": 0, \"misses\": 2}"),
                "corrupt entries are misses: {report}"
            );
            let warm = server();
            assert_eq!(warm.handle_batch(batch), cold);
            let report = warm.report_json();
            assert!(
                report.contains("\"cache\": {\"hits\": 0, \"disk_hits\": 2, \"misses\": 0}"),
                "the recompute rewrote both entries: {report}"
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_panicking_request_answers_an_error_and_spares_the_batch() {
        // No hardware contexts: the engine has no main thread to start,
        // so simulating a workload panics.
        let mut broken = capped_config();
        broken.io.num_contexts = 0;
        let server = Server::new(broken);
        let case = "seed=1 chase=48 loads=2\n";
        let out = server.handle_batch(&format!("mcf\n{case}"));
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "one response per request: {out}");
        assert!(
            lines[0].starts_with("{\"kind\": \"error\", \"error\": \"request panicked: "),
            "the panic is an error line: {out}"
        );
        let healthy = Server::new(capped_config()).handle_batch(case);
        assert_eq!(format!("{}\n", lines[1]), healthy, "the case answer is unharmed");
        let report = server.report_json();
        assert!(report.contains("\"errors\": 1"), "report: {report}");
        assert!(
            report.contains("\"cache\": {\"hits\": 0, \"disk_hits\": 0, \"misses\": 1}"),
            "the panicked key is neither computed nor counted: {report}"
        );
        assert_eq!(server.handle_batch(case), healthy, "the server still answers");
    }

    #[test]
    fn error_text_is_valid_json() {
        let server = Server::new(capped_config());
        let out = server.handle_batch("se\"ed=\\1\n");
        assert!(out.contains("\\\""), "quotes escaped: {out}");
        assert!(out.contains("\\\\"), "backslashes escaped: {out}");
    }
}
