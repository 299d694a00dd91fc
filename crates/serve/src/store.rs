//! Serve-level store entries: the versioned payloads `ssp-serve`
//! persists per answered request, layered on the generic
//! [`ssp_bench::persist::Store`] and written in its record grammar
//! ([`ssp_bench::persist::Record`]).
//!
//! Three entry kinds exist, one per request kind:
//!
//! * [`WorkloadEntry`] (`ssp-serve-workload/1`) — the four nested
//!   `ssp-sim-result/1` records of a Figure-8 run plus the adaptation's
//!   structural plan digest and slice/skip counts. The suite row the
//!   daemon answers with is *reconstructed* from these results, never
//!   cached as rendered text, so a warm answer is byte-identical to a
//!   cold one by construction and the differential suite can compare
//!   decoded results structurally.
//! * [`CaseEntry`] (`ssp-serve-case/1`) — the oracle verdict of one
//!   fuzz case: outcome, deduplicated violation kinds, and counters.
//! * [`TuneEntry`] (`ssp-serve-tune/1`) — the auto-tuner's outcome for
//!   one workload: the two nested `ssp-tune-row/1` records (in-order
//!   and out-of-order), re-rendered from the decoded rows on warm
//!   answers.
//!
//! Entries are keyed (and sharded) by the full request identity
//! including the machine-config fingerprints — see
//! [`crate::server`] for the key layout.

use ssp_bench::persist::{self, PersistError, Record, RecordReader, RecordWriter};
use ssp_bench::SuiteRow;
use ssp_core::SimResult;

/// A persisted workload answer: everything needed to reproduce the
/// response (and its diagnostic flags) without re-simulating.
#[derive(Clone, PartialEq, Debug)]
pub struct WorkloadEntry {
    /// Benchmark name.
    pub name: String,
    /// Builder seed.
    pub seed: u64,
    /// Structural digest of the emitted adaptation plan
    /// ([`ssp_core::AdaptReport::plan_digest`]).
    pub plan_digest: String,
    /// Slices the adaptation emitted (0 = no-op).
    pub slices: u64,
    /// Delinquent loads skipped with a reason.
    pub skipped: u64,
    /// Baseline, in-order.
    pub base_io: SimResult,
    /// Adapted, in-order.
    pub ssp_io: SimResult,
    /// Baseline, out-of-order.
    pub base_ooo: SimResult,
    /// Adapted, out-of-order.
    pub ssp_ooo: SimResult,
}

impl Record for WorkloadEntry {
    const FORMAT: &'static str = "ssp-serve-workload/1";

    fn write(&self, w: &mut RecordWriter) {
        w.field("name", &self.name);
        w.field("seed", self.seed);
        w.field("plan_digest", &self.plan_digest);
        w.field("slices", self.slices);
        w.field("skipped", self.skipped);
        for r in [&self.base_io, &self.ssp_io, &self.base_ooo, &self.ssp_ooo] {
            w.record(r);
        }
    }

    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
        Ok(WorkloadEntry {
            name: r.str("name")?.to_owned(),
            seed: r.parse("seed")?,
            plan_digest: r.str("plan_digest")?.to_owned(),
            slices: r.parse("slices")?,
            skipped: r.parse("skipped")?,
            base_io: r.record()?,
            ssp_io: r.record()?,
            base_ooo: r.record()?,
            ssp_ooo: r.record()?,
        })
    }
}

// The three entries keep inherent `encode`/`decode` one-liners because
// the benchmark's replayer (`perfbench/tracer`) takes them as plain
// `fn` values.
impl WorkloadEntry {
    /// Serialize as a versioned text payload ([`persist::encode`]).
    pub fn encode(&self) -> String {
        persist::encode(self)
    }

    /// Parse a payload produced by [`WorkloadEntry::encode`].
    pub fn decode(text: &str) -> Result<WorkloadEntry, PersistError> {
        persist::decode(text)
    }

    /// The suite row this entry answers with — same shape (and hence
    /// byte-identical JSON) as the one-shot harness's
    /// [`ssp_bench::BenchmarkRun::suite_row`].
    pub fn suite_row(&self) -> SuiteRow {
        SuiteRow {
            name: self.name.clone(),
            base_io: self.base_io.cycles,
            ssp_io: self.ssp_io.cycles,
            base_ooo: self.base_ooo.cycles,
            ssp_ooo: self.ssp_ooo.cycles,
            noop: self.slices == 0,
            regression_io: self.ssp_io.cycles > self.base_io.cycles,
            regression_ooo: self.ssp_ooo.cycles > self.base_ooo.cycles,
        }
    }
}

/// A persisted oracle verdict for one fuzz case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaseEntry {
    /// The case, in its reproducible one-line form.
    pub spec: String,
    /// Outcome wire name (`pass` / `baseline-capped` / `violations`).
    pub outcome: String,
    /// Deduplicated violation kinds (empty unless `violations`).
    pub kinds: Vec<String>,
    /// Slices the tool emitted.
    pub slices: u64,
    /// Speculative threads spawned across the adapted runs.
    pub threads_spawned: u64,
}

impl Record for CaseEntry {
    const FORMAT: &'static str = "ssp-serve-case/1";

    fn write(&self, w: &mut RecordWriter) {
        w.field("spec", &self.spec);
        w.field("outcome", &self.outcome);
        w.field("kinds", self.kinds.join(","));
        w.field("slices", self.slices);
        w.field("threads_spawned", self.threads_spawned);
    }

    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
        Ok(CaseEntry {
            spec: r.str("spec")?.to_owned(),
            outcome: r.str("outcome")?.to_owned(),
            kinds: match r.str("kinds")? {
                "" => Vec::new(),
                kinds => kinds.split(',').map(str::to_owned).collect(),
            },
            slices: r.parse("slices")?,
            threads_spawned: r.parse("threads_spawned")?,
        })
    }
}

impl CaseEntry {
    /// Serialize as a versioned text payload ([`persist::encode`]).
    pub fn encode(&self) -> String {
        persist::encode(self)
    }

    /// Parse a payload produced by [`CaseEntry::encode`].
    pub fn decode(text: &str) -> Result<CaseEntry, PersistError> {
        persist::decode(text)
    }

    /// Render via the canonical [`ssp_fuzz::oracle::case_json`] — the
    /// same function a cold answer uses, so warm answers are
    /// byte-identical.
    pub fn to_json(&self) -> String {
        ssp_fuzz::oracle::case_json(
            &self.spec,
            &self.outcome,
            &self.kinds,
            self.slices,
            self.threads_spawned,
        )
    }
}

/// A persisted auto-tune answer: both machine models' tuned rows.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TuneEntry {
    /// Benchmark name.
    pub name: String,
    /// Builder seed.
    pub seed: u64,
    /// Round cap the tuner ran under.
    pub rounds: u64,
    /// Tuned row targeting the in-order model.
    pub io_row: ssp_tune::TuneRow,
    /// Tuned row targeting the out-of-order model.
    pub ooo_row: ssp_tune::TuneRow,
}

impl Record for TuneEntry {
    const FORMAT: &'static str = "ssp-serve-tune/1";

    fn write(&self, w: &mut RecordWriter) {
        w.field("name", &self.name);
        w.field("seed", self.seed);
        w.field("rounds", self.rounds);
        w.record(&self.io_row);
        w.record(&self.ooo_row);
    }

    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
        Ok(TuneEntry {
            name: r.str("name")?.to_owned(),
            seed: r.parse("seed")?,
            rounds: r.parse("rounds")?,
            io_row: r.record()?,
            ooo_row: r.record()?,
        })
    }
}

impl TuneEntry {
    /// Serialize as a versioned text payload ([`persist::encode`]).
    pub fn encode(&self) -> String {
        persist::encode(self)
    }

    /// Parse a payload produced by [`TuneEntry::encode`].
    pub fn decode(text: &str) -> Result<TuneEntry, PersistError> {
        persist::decode(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_sim::MachineConfig;

    /// A workload entry of real (cycle-capped) mcf simulations.
    fn mcf_entry() -> WorkloadEntry {
        let w = ssp_workloads::mcf::build(11);
        let mut cfg = MachineConfig::in_order();
        cfg.max_cycles = 30_000;
        let r = ssp_core::simulate(&w.program, &cfg);
        WorkloadEntry {
            name: "mcf".to_owned(),
            seed: 11,
            plan_digest: "0123456789abcdef".to_owned(),
            slices: 2,
            skipped: 1,
            base_io: r.clone(),
            ssp_io: SimResult { cycles: r.cycles / 2, ..r.clone() },
            base_ooo: r.clone(),
            ssp_ooo: r,
        }
    }

    fn case_entries() -> [CaseEntry; 2] {
        [
            CaseEntry {
                spec: "seed=1 chase=48 loads=2".to_owned(),
                outcome: "pass".to_owned(),
                kinds: vec![],
                slices: 3,
                threads_spawned: 40,
            },
            CaseEntry {
                spec: "seed=9 chase=8 loads=1".to_owned(),
                outcome: "violations".to_owned(),
                kinds: vec!["reg-mismatch".to_owned(), "mem-mismatch".to_owned()],
                slices: 0,
                threads_spawned: 0,
            },
        ]
    }

    fn tune_entry() -> TuneEntry {
        let row = |model: &str, moves: Vec<(String, u64)>| ssp_tune::TuneRow {
            name: "em3d".to_owned(),
            model: model.to_owned(),
            base_cycles: 98634,
            default_cycles: 139867,
            default_noop: false,
            tuned_cycles: 98580,
            tuned_slices: 2,
            tuned_plan_digest: "ab12".to_owned(),
            tuned_opts: "ssp-adapt-options/1 coverage=0.99".to_owned(),
            verdict: "win".to_owned(),
            rounds: 3,
            candidates: 38,
            emitting_candidates: 30,
            best_candidate_cycles: 98580,
            timeliness: ssp_sim::TimelinessCounts { early: 1, timely: 2, late: 3, useless: 4 },
            moves,
        };
        TuneEntry {
            name: "em3d".to_owned(),
            seed: 11,
            rounds: 8,
            io_row: row("in-order", vec![]),
            ooo_row: row("out-of-order", vec![("force_model=basic".to_owned(), 99537)]),
        }
    }

    #[test]
    fn workload_entry_round_trips() {
        let entry = mcf_entry();
        let decoded = WorkloadEntry::decode(&entry.encode()).unwrap();
        assert_eq!(decoded, entry);
        let row = decoded.suite_row();
        assert!(!row.noop);
        assert!(!row.regression_io, "ssp_io is faster");

        // The exact bytes: the entry's fields, then its four results as
        // nested `ssp-sim-result/1` records, each pinned in `ssp-bench`.
        let small = WorkloadEntry {
            base_io: SimResult { cycles: 900, halted: true, ..SimResult::default() },
            ssp_io: SimResult { cycles: 450, halted: true, ..SimResult::default() },
            base_ooo: SimResult { cycles: 700, ..SimResult::default() },
            ssp_ooo: SimResult::default(),
            ..entry
        };
        let results: String = [&small.base_io, &small.ssp_io, &small.base_ooo, &small.ssp_ooo]
            .map(persist::encode)
            .concat();
        assert_eq!(
            small.encode(),
            format!(
                "ssp-serve-workload/1\nname=mcf\nseed=11\nplan_digest=0123456789abcdef\n\
                 slices=2\nskipped=1\n{results}"
            )
        );
    }

    #[test]
    fn case_entry_round_trips() {
        let texts = [
            "ssp-serve-case/1\nspec=seed=1 chase=48 loads=2\noutcome=pass\nkinds=\nslices=3\n\
             threads_spawned=40\n",
            "ssp-serve-case/1\nspec=seed=9 chase=8 loads=1\noutcome=violations\n\
             kinds=reg-mismatch,mem-mismatch\nslices=0\nthreads_spawned=0\n",
        ];
        for (entry, text) in case_entries().into_iter().zip(texts) {
            assert_eq!(CaseEntry::decode(&entry.encode()).unwrap(), entry);
            assert_eq!(entry.encode(), text);
        }
    }

    #[test]
    fn tune_entry_round_trips() {
        let entry = tune_entry();
        assert_eq!(TuneEntry::decode(&entry.encode()).unwrap(), entry);
        // The exact bytes: the entry's fields, then both rows as nested
        // `ssp-tune-row/1` records, each pinned in `ssp-tune`.
        let rows = persist::encode(&entry.io_row) + &persist::encode(&entry.ooo_row);
        assert_eq!(
            entry.encode(),
            format!("ssp-serve-tune/1\nname=em3d\nseed=11\nrounds=8\n{rows}")
        );
    }

    #[test]
    fn decode_rejects_foreign_headers() {
        assert!(matches!(
            WorkloadEntry::decode("ssp-serve-workload/999\n"),
            Err(PersistError::Header { .. })
        ));
        assert!(matches!(
            CaseEntry::decode("ssp-serve-workload/1\n"),
            Err(PersistError::Header { .. })
        ));
    }

    /// Every strict prefix of a payload of each of the eight formats
    /// fails to decode: a cut entry is a miss, never a shorter value.
    #[test]
    fn every_strict_prefix_of_a_payload_is_rejected() {
        fn check<R: Record>(value: &R) {
            let text = persist::encode(value);
            for cut in (0..text.len()).filter(|&n| text.is_char_boundary(n)) {
                let prefix = &text[..cut];
                assert!(
                    persist::decode::<R>(prefix).is_err(),
                    "{prefix:?} decoded as {}",
                    R::FORMAT
                );
            }
            assert!(persist::decode::<R>(&text).is_ok());
        }
        let workload = mcf_entry();
        check(&workload.base_io);
        check(&workload);
        for case in case_entries() {
            check(&case);
        }
        let tune = tune_entry();
        check(&tune.ooo_row);
        check(&tune);
        let candidate = ssp_tune::Candidate {
            eval: ssp_tune::Eval {
                adapt_error: None,
                slices: 2,
                skipped: 1,
                plan_digest: "ab12".to_owned(),
                violations: vec!["reg-mismatch".to_owned()],
                io_cycles: 98580,
                ooo_cycles: 193960,
            },
            io_telemetry: ssp_tune::TelemetrySummary {
                triggers_fired: 9,
                slices_spawned: 7,
                prefetches_issued: 40,
                per_load: vec![(
                    3,
                    ssp_sim::TimelinessCounts { early: 1, timely: 2, late: 3, useless: 40 },
                )],
            },
            ooo_telemetry: ssp_tune::TelemetrySummary::default(),
        };
        check(&candidate.eval);
        check(&candidate.io_telemetry);
        check(&candidate);
    }
}
