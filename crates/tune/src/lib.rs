//! Closed-loop feedback-directed auto-tuning of the SSP post-pass tool.
//!
//! The one-shot experiment pipeline runs every workload through
//! [`AdaptOptions::default`] and reports whatever falls out — including
//! the pinned dead rows: treeadd.df adapts to a no-op (every candidate
//! slice is rejected for insufficient slack) and em3d/health regress on
//! the out-of-order model under the default chaining plans. This crate
//! closes the loop: it reads the Figure-9 prefetch-timeliness telemetry
//! of the *current* plan, maps the dominant signal to a small menu of
//! knob moves, evaluates every candidate (adapt → oracle-check →
//! simulate on both machine models), and greedily accepts the best
//! strict cycle improvement until the search plateaus or the round cap
//! is hit.
//!
//! # Telemetry signals → move menus
//!
//! | signal | meaning | menu |
//! |---|---|---|
//! | `noop` | tool emitted nothing | relax the gates: `min_slack`, `coverage`, size/depth caps, force a model |
//! | `mostly-late` | prefetches arrive after the consuming load | hoist: deepen chaining, raise region depth, predict colder branches |
//! | `mostly-early-useless` | prefetches are wasted work | prune: walk `chain_budget` down a ladder, cut coverage, force basic |
//! | `timely-capped` | prefetches land well but wins are thin | widen coverage, drop `min_slack`, try the other model |
//!
//! Whenever the current plan *regresses* against its own baseline the
//! prune and recovery menus are appended regardless of signal, so a
//! mis-signaled regression can still reach the empirically winning
//! plans (em3d wants `force_model=basic` + wider coverage; health wants
//! a tiny `chain_budget`).
//!
//! # Safety gates
//!
//! Every candidate goes through [`PostPassTool::run_with_profile`]
//! (which rejects on `ssp-lint` diagnostics and emit-verify failures)
//! and then through the fuzz oracle's
//! [`ssp_fuzz::oracle::check_adapted`] invariants (one
//! [`ssp_fuzz::oracle::gated_run`] per model, which also collects the
//! telemetry, then [`ssp_fuzz::oracle::check_runs`]): baseline
//! architectural equivalence on both machine models plus the
//! SSP-specific spec-store and spawn-leak checks. A
//! candidate with any violation is never accepted, no matter its cycle
//! count.
//!
//! # Determinism and caching
//!
//! Move menus are generated in a fixed order, their simulations run
//! under [`parallel::map_indexed`] (order-preserving), and acceptance
//! breaks ties by menu position — so a tune run is byte-identical
//! across worker counts. Each candidate is memoized as one [`Candidate`]
//! in the tuner's own [`Memo`] (see its doc comment for the caching
//! contract): its evaluation and both models' telemetry, all taken from
//! the same gated runs, so a telemetry read is a lookup. Candidates are
//! grouped by the workload identity (both machine fingerprints
//! included) and keyed by it plus the candidate's
//! [`AdaptOptions::fingerprint`]; attach a [`Store`] and a warm restart
//! replays the whole search from disk without re-simulating.
//!
//! Below that memo, a second, memory-only one holds oracle-gate runs
//! by exact adapted binary: many moves emit the same program, so the
//! gate simulates each distinct binary once, with the telemetry
//! collector installed in the same runs ([`Tuner::gate_stats`] counts
//! it). The workload's profile and baseline snapshots are computed once
//! per tuner, for both rows.
//!
//! # One simulation, one job
//!
//! A round's menu is evaluated in three steps, and a single option set
//! (the default plan, [`Tuner::evaluate`]) is a one-item menu:
//!
//! 1. *Resolve.* [`Memo::probe`] checks each option set against the
//!    candidate memo and its store, without counting or filling a
//!    cell. Only the unresolved ones are adapted, and each emitting one
//!    names its binary; a binary the gate memo already holds needs no
//!    run.
//! 2. *Simulate.* Each distinct binary left gets two jobs, its gated
//!    in-order and out-of-order runs, and all jobs share one
//!    [`parallel::map_indexed`] over the tuner's workers, out-of-order
//!    first (a gated out-of-order run costs about 1.8× an in-order one).
//!    Every binary shares the workload's frozen data image, and a run
//!    copies only its words, so at most `workers` simulations are alive.
//! 3. *Fold.* The menu is walked in order through the candidate and
//!    gate memos, whose misses take the step-2 runs, so every counter,
//!    store entry and answer is what a serial evaluation gives. (If
//!    another process saves a candidate to the store between its probe
//!    and its fold, the fold reads it, and its binary's runs are
//!    dropped uncounted: [`Tuner::gate_stats`] is exact for one writer
//!    per store.)
//!
//! The profile and the two baseline snapshots are three such jobs too.

pub mod report;

use ssp_bench::cache::{Memo, MemoStats};
use ssp_bench::parallel;
use ssp_bench::persist::{self, PersistError, Record, RecordReader, RecordWriter, Store};
use ssp_core::{
    prefetch_targets, AdaptError, AdaptOptions, AdaptedBinary, MachineConfig, PostPassTool,
    Profile, SimTrace, SpModel,
};
use ssp_fuzz::oracle::{self, BaselineSnapshots};
use ssp_ir::{InstTag, Program};
use ssp_sim::SimRun;
use ssp_trace::TimelinessCounts;
use ssp_workloads::Workload;
use std::sync::{Arc, OnceLock};

pub use report::{render_report, TuneRow};

/// Workload builder seed shared with `ssp-bench`.
pub const SEED: u64 = ssp_bench::SEED;
/// Default cap on greedy rounds per (workload, model) pair.
pub const DEFAULT_MAX_ROUNDS: usize = 8;

/// Everything a [`Tuner`] is parameterized over. The default mirrors
/// the one-shot experiment pipeline: paper machine models, [`SEED`],
/// `SSP_THREADS` workers.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Workload builder seed.
    pub seed: u64,
    /// In-order machine model (also the tool's profiling machine).
    pub io: MachineConfig,
    /// Out-of-order machine model.
    pub ooo: MachineConfig,
    /// Greedy rounds per (workload, model) pair.
    pub max_rounds: usize,
    /// Worker threads candidate evaluation fans out across.
    pub workers: usize,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            seed: SEED,
            io: MachineConfig::in_order(),
            ooo: MachineConfig::out_of_order(),
            max_rounds: DEFAULT_MAX_ROUNDS,
            workers: parallel::threads(),
        }
    }
}

/// Which machine model the tuner is optimizing cycles on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TargetModel {
    /// Optimize in-order cycles.
    InOrder,
    /// Optimize out-of-order cycles.
    OutOfOrder,
}

impl TargetModel {
    /// Both models, in report order.
    pub const BOTH: [TargetModel; 2] = [TargetModel::InOrder, TargetModel::OutOfOrder];

    /// Stable name used in keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            TargetModel::InOrder => "in-order",
            TargetModel::OutOfOrder => "out-of-order",
        }
    }
}

/// Dominant Figure-9 telemetry signal of the current plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Signal {
    /// The tool emitted no slices — the plan IS the baseline.
    Noop,
    /// Late dominates: prefetches arrive after the consuming load.
    MostlyLate,
    /// Early + useless dominate: prefetched work is wasted.
    MostlyEarlyUseless,
    /// Timely dominates but the win is thin or negative.
    TimelyCapped,
}

impl Signal {
    /// Stable name used in docs and traces.
    pub fn name(self) -> &'static str {
        match self {
            Signal::Noop => "noop",
            Signal::MostlyLate => "mostly-late",
            Signal::MostlyEarlyUseless => "mostly-early-useless",
            Signal::TimelyCapped => "timely-capped",
        }
    }
}

/// Classify summed timeliness counts into the dominant [`Signal`].
/// Zero classified prefetches (slices ran but nothing was consumed or
/// even issued) reads as wasted work.
pub fn classify(t: &TimelinessCounts) -> Signal {
    let wasted = t.early + t.useless;
    if t.total() == 0 {
        return Signal::MostlyEarlyUseless;
    }
    if t.late >= wasted && t.late >= t.timely {
        Signal::MostlyLate
    } else if wasted >= t.timely {
        Signal::MostlyEarlyUseless
    } else {
        Signal::TimelyCapped
    }
}

fn mv(
    base: &AdaptOptions,
    label: &str,
    f: impl FnOnce(&mut AdaptOptions),
) -> (String, AdaptOptions) {
    let mut o = base.clone();
    f(&mut o);
    (label.to_owned(), o)
}

/// Descending `chain_budget` candidates: coarse divisions first, then
/// the absolute low end — health's win lives at budget 3, which plain
/// halving from 512 never reaches in one round.
fn budget_ladder(b: u64) -> Vec<u64> {
    let mut out = Vec::new();
    for c in [b / 2, b / 8, b / 32, 8, 6, 4, 3, 2] {
        if c >= 1 && c < b && !out.contains(&c) {
            out.push(c);
        }
    }
    out.truncate(6);
    out
}

fn enable_menu(o: &AdaptOptions) -> Vec<(String, AdaptOptions)> {
    vec![
        mv(o, "min_slack=0", |o| o.min_slack = 0),
        mv(o, "min_slack=-1000", |o| o.min_slack = -1000),
        mv(o, "coverage=0.99", |o| o.coverage = 0.99),
        mv(o, "max_slice_size=128", |o| o.max_slice_size = 128),
        mv(o, "max_region_depth=5", |o| o.max_region_depth = 5),
        mv(o, "force_model=basic", |o| o.force_model = Some(SpModel::Basic)),
        mv(o, "force_model=chaining", |o| o.force_model = Some(SpModel::Chaining)),
    ]
}

fn hoist_menu(o: &AdaptOptions) -> Vec<(String, AdaptOptions)> {
    let mut v = Vec::new();
    let b = (o.chain_budget * 2).min(4096);
    if b > o.chain_budget {
        v.push(mv(o, &format!("chain_budget={b}"), |o| o.chain_budget = b));
    }
    if o.max_region_depth < 8 {
        let d = o.max_region_depth + 1;
        v.push(mv(o, &format!("max_region_depth={d}"), |o| o.max_region_depth = d));
    }
    v.push(mv(o, "predict_threshold=0.7", |o| o.predict_threshold = 0.7));
    v.push(mv(o, "force_model=chaining", |o| o.force_model = Some(SpModel::Chaining)));
    v
}

fn prune_menu(o: &AdaptOptions) -> Vec<(String, AdaptOptions)> {
    let mut v = Vec::new();
    for b in budget_ladder(o.chain_budget) {
        v.push(mv(o, &format!("chain_budget={b}"), |o| o.chain_budget = b));
    }
    v.push(mv(o, "coverage=0.7", |o| o.coverage = 0.7));
    v.push(mv(o, "force_model=basic", |o| o.force_model = Some(SpModel::Basic)));
    v.push(mv(o, "predict_threshold=1.1", |o| o.predict_threshold = 1.1));
    v.push(mv(o, "min_block_count=8", |o| o.min_block_count = 8));
    v.push(mv(o, "max_slice_size=32", |o| o.max_slice_size = 32));
    v
}

fn recover_menu(o: &AdaptOptions) -> Vec<(String, AdaptOptions)> {
    let mut v = vec![
        mv(o, "coverage=0.99", |o| o.coverage = 0.99),
        mv(o, "min_slack=0", |o| o.min_slack = 0),
        mv(o, "force_model=basic", |o| o.force_model = Some(SpModel::Basic)),
    ];
    if o.max_region_depth < 8 {
        let d = o.max_region_depth + 1;
        v.push(mv(o, &format!("max_region_depth={d}"), |o| o.max_region_depth = d));
    }
    let b = o.chain_budget / 2;
    if b >= 1 {
        v.push(mv(o, &format!("chain_budget={b}"), |o| o.chain_budget = b));
    }
    v
}

/// The candidate menu for one greedy round: the signal's own menu,
/// plus — when the current plan regresses against baseline — the full
/// prune + recovery menus, so every known escape hatch stays reachable
/// regardless of which signal dominates. Deduplicated by
/// [`AdaptOptions::fingerprint`] with the current options excluded;
/// order is deterministic (menu order, first occurrence wins).
pub fn moves_for(
    signal: Signal,
    current: &AdaptOptions,
    regressing: bool,
) -> Vec<(String, AdaptOptions)> {
    let mut menu = match signal {
        Signal::Noop => enable_menu(current),
        Signal::MostlyLate => hoist_menu(current),
        Signal::MostlyEarlyUseless => prune_menu(current),
        Signal::TimelyCapped => recover_menu(current),
    };
    if regressing {
        menu.extend(prune_menu(current));
        menu.extend(recover_menu(current));
    }
    let mut seen = vec![current.fingerprint()];
    menu.retain(|(_, o)| {
        let f = o.fingerprint();
        if seen.contains(&f) {
            false
        } else {
            seen.push(f);
            true
        }
    });
    menu
}

/// Outcome of evaluating one candidate option set on one workload:
/// adapt (lint + verify gated), oracle invariants on both machine
/// models, and cycle counts. What the tuner's cache stores.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Eval {
    /// `Some("lint")` / `Some("verify")` when the tool itself rejected
    /// the candidate; such candidates are never accepted.
    pub adapt_error: Option<String>,
    /// Slices emitted (0 = no-op plan).
    pub slices: u64,
    /// Delinquent loads skipped.
    pub skipped: u64,
    /// `AdaptReport::plan_digest` of the emitted plan (`-` if no-op or
    /// the adapt failed).
    pub plan_digest: String,
    /// Deduplicated oracle violation kinds, detection order.
    pub violations: Vec<String>,
    /// Adapted cycles on the in-order model (baseline cycles if no-op).
    pub io_cycles: u64,
    /// Adapted cycles on the out-of-order model (baseline if no-op).
    pub ooo_cycles: u64,
}

impl Eval {
    /// Adapt succeeded and the oracle found nothing.
    pub fn clean(&self) -> bool {
        self.adapt_error.is_none() && self.violations.is_empty()
    }

    /// The plan emitted at least one slice.
    pub fn emitting(&self) -> bool {
        self.slices > 0
    }

    /// Cycles on the tuning target's model.
    pub fn cycles(&self, target: TargetModel) -> u64 {
        match target {
            TargetModel::InOrder => self.io_cycles,
            TargetModel::OutOfOrder => self.ooo_cycles,
        }
    }

    /// A plan that emits nothing: clean, at the baseline's cycles.
    fn baseline(base: &BaselineSnapshots) -> Eval {
        Eval {
            adapt_error: None,
            slices: 0,
            skipped: 0,
            plan_digest: "-".to_owned(),
            violations: Vec::new(),
            io_cycles: base.io.0.cycles,
            ooo_cycles: base.ooo.0.cycles,
        }
    }
}

impl Record for Eval {
    const FORMAT: &'static str = "ssp-tune-eval/1";

    fn write(&self, w: &mut RecordWriter) {
        w.field("adapt_error", self.adapt_error.as_deref().unwrap_or("-"));
        w.field("slices", self.slices);
        w.field("skipped", self.skipped);
        w.field("plan_digest", &self.plan_digest);
        let violations =
            if self.violations.is_empty() { "-".to_owned() } else { self.violations.join(",") };
        w.field("violations", violations);
        w.field("io_cycles", self.io_cycles);
        w.field("ooo_cycles", self.ooo_cycles);
    }

    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
        Ok(Eval {
            adapt_error: match r.str("adapt_error")? {
                "-" => None,
                e => Some(e.to_owned()),
            },
            slices: r.parse("slices")?,
            skipped: r.parse("skipped")?,
            plan_digest: r.str("plan_digest")?.to_owned(),
            violations: match r.str("violations")? {
                "-" => Vec::new(),
                v => v.split(',').map(str::to_owned).collect(),
            },
            io_cycles: r.parse("io_cycles")?,
            ooo_cycles: r.parse("ooo_cycles")?,
        })
    }
}

/// Traced-simulation summary of one plan on one machine model: the
/// Figure-9 ingredients the signal classifier feeds on.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TelemetrySummary {
    /// `chk.c` executions that fired.
    pub triggers_fired: u64,
    /// Speculative threads started.
    pub slices_spawned: u64,
    /// Prefetching accesses issued by speculative threads.
    pub prefetches_issued: u64,
    /// Per-load timeliness histograms (raw tag, counts), sorted.
    pub per_load: Vec<(u32, TimelinessCounts)>,
}

impl TelemetrySummary {
    fn of(trace: SimTrace) -> TelemetrySummary {
        TelemetrySummary {
            triggers_fired: trace.triggers_fired,
            slices_spawned: trace.slices_spawned,
            prefetches_issued: trace.prefetches_issued,
            per_load: trace.per_load,
        }
    }

    /// Sum of all per-load histograms.
    pub fn totals(&self) -> TimelinessCounts {
        let mut t = TimelinessCounts::default();
        for (_, h) in &self.per_load {
            t.merge(h);
        }
        t
    }
}

impl Record for TelemetrySummary {
    const FORMAT: &'static str = "ssp-tune-telemetry/1";

    fn write(&self, w: &mut RecordWriter) {
        w.field("triggers_fired", self.triggers_fired);
        w.field("slices_spawned", self.slices_spawned);
        w.field("prefetches_issued", self.prefetches_issued);
        let row = |(tag, h): &(u32, TimelinessCounts)| {
            format!("{tag} {} {} {} {}", h.early, h.timely, h.late, h.useless)
        };
        w.rows("loads", self.per_load.iter().map(row));
    }

    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
        Ok(TelemetrySummary {
            triggers_fired: r.parse("triggers_fired")?,
            slices_spawned: r.parse("slices_spawned")?,
            prefetches_issued: r.parse("prefetches_issued")?,
            per_load: r.rows("loads", |row| {
                let [tag, early, timely, late, useless] =
                    persist::split_parse("telemetry row", row, ' ')?;
                let tag = u32::try_from(tag)
                    .map_err(|_| PersistError::Malformed(format!("load tag {tag} too large")))?;
                Ok((tag, TimelinessCounts { early, timely, late, useless }))
            })?,
        })
    }
}

/// Everything the tuner learns about one candidate option set on one
/// workload: its [`Eval`] and each model's telemetry, taken from the
/// same oracle-gated runs (both telemetries are empty when the plan
/// emits nothing or the tool rejects it). The unit the tuner memoizes
/// and persists: one record, holding the evaluation and then the
/// in-order and out-of-order telemetry as nested records.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Candidate {
    /// The candidate's evaluation.
    pub eval: Eval,
    /// Telemetry of the gated in-order run.
    pub io_telemetry: TelemetrySummary,
    /// Telemetry of the gated out-of-order run.
    pub ooo_telemetry: TelemetrySummary,
}

impl Record for Candidate {
    const FORMAT: &'static str = "ssp-tune-candidate/1";

    fn write(&self, w: &mut RecordWriter) {
        w.record(&self.eval);
        w.record(&self.io_telemetry);
        w.record(&self.ooo_telemetry);
    }

    fn read(r: &mut RecordReader<'_>) -> Result<Self, PersistError> {
        Ok(Candidate { eval: r.record()?, io_telemetry: r.record()?, ooo_telemetry: r.record()? })
    }
}

/// One oracle-gated run of an adapted binary on both machine models:
/// the verdict, and the cycles and telemetry of each model's run.
#[derive(Clone)]
struct Gate {
    /// Deduplicated oracle violation kinds, detection order.
    violations: Vec<String>,
    io_cycles: u64,
    ooo_cycles: u64,
    io_telemetry: TelemetrySummary,
    ooo_telemetry: TelemetrySummary,
}

impl Gate {
    /// The gate's verdict on `program`'s gated runs, in-order first.
    fn of(program: &Program, base: &BaselineSnapshots, runs: [SimRun; 2]) -> Gate {
        let violations = oracle::kinds(&oracle::check_runs(program, base, &runs));
        let [io, ooo] = runs;
        Gate {
            violations,
            io_cycles: io.result.cycles,
            ooo_cycles: ooo.result.cycles,
            io_telemetry: TelemetrySummary::of(io.trace.expect("telemetry requested")),
            ooo_telemetry: TelemetrySummary::of(ooo.trace.expect("telemetry requested")),
        }
    }
}

/// An adapted binary on its way through the oracle gate.
struct Binary {
    /// Gate-memo key.
    key: String,
    /// The adapted program; its data image is the workload's.
    program: Program,
    /// Prefetch targets for the telemetry collected in the same runs.
    targets: Vec<(InstTag, InstTag)>,
}

impl Binary {
    /// This binary's gated run on `cfg`, telemetry included.
    fn run(&self, base: &BaselineSnapshots, cfg: &MachineConfig) -> SimRun {
        oracle::gated_run(&self.program, base, cfg, Some(&self.targets))
    }
}

/// `b`'s index in `binaries`, where it is added unless a binary with
/// its gate key is there already.
fn intern(binaries: &mut Vec<Binary>, b: Binary) -> usize {
    match binaries.iter().position(|k| k.key == b.key) {
        Some(i) => i,
        None => {
            binaries.push(b);
            binaries.len() - 1
        }
    }
}

/// Instance-based auto-tuner (the `ssp-serve` pattern: "restart the
/// tuner" in a test is a second `Tuner` on the same store directory).
pub struct Tuner {
    config: TuneConfig,
    /// Both machine fingerprints as they appear in every key.
    machines: String,
    memo: Memo<Candidate>,
    /// Oracle-gate runs by exact adapted binary; memory only.
    gates: Memo<Gate>,
    /// Profile and baseline snapshots by workload; memory only.
    inputs: Memo<Arc<(Profile, BaselineSnapshots)>>,
}

impl Tuner {
    /// A tuner with no persistent store (memory-only memoization).
    pub fn new(config: TuneConfig) -> Tuner {
        let machines = format!("io={} ooo={}", config.io.fingerprint(), config.ooo.fingerprint());
        Tuner {
            config,
            machines,
            memo: Memo::default(),
            gates: Memo::default(),
            inputs: Memo::default(),
        }
    }

    /// Attach a persistent store: memory misses probe it, computed
    /// candidates are written back.
    pub fn with_store(self, store: Store) -> Tuner {
        self.memo.attach_store(store);
        self
    }

    /// The configuration this instance tunes under.
    pub fn config(&self) -> &TuneConfig {
        &self.config
    }

    /// Current cache counters.
    pub fn stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Counters of the oracle-gate memo: `misses` is the number of
    /// distinct adapted binaries simulated, `hits` the candidates that
    /// reused one of those runs. Exact while this tuner is its store's
    /// only writer (see the crate docs).
    pub fn gate_stats(&self) -> MemoStats {
        self.gates.stats()
    }

    fn identity(&self, w: &Workload) -> String {
        format!("{} {}", w.identity(), self.machines)
    }

    /// `w`'s profile and baseline snapshots, computed once per workload
    /// and shared by both of its rows and by every gate miss. The three
    /// simulations are independent jobs, the costliest first.
    fn inputs(&self, w: &Workload) -> Arc<(Profile, BaselineSnapshots)> {
        let id = self.identity(w);
        self.inputs.get(
            &id,
            &id,
            |_| None,
            || {
                let (io, ooo) = (&self.config.io, &self.config.ooo);
                let jobs = [Some(ooo), None, Some(io)];
                let mut runs =
                    parallel::map_indexed(&jobs, self.config.workers, |_, job| match job {
                        Some(cfg) => (None, Some(oracle::baseline_run(&w.program, cfg))),
                        None => (Some(ssp_core::profile(&w.program, io)), None),
                    });
                let profile = runs[1].0.take().expect("job 1 profiles");
                let [ooo, io] = [0, 2].map(|j| runs[j].1.take().expect("jobs 0 and 2 snapshot"));
                let base = BaselineSnapshots::new(&w.program, io, ooo);
                (Arc::new((profile, base)), String::new())
            },
        )
    }

    /// `adapted` as a gate input. Its key is exact: workload identity,
    /// the binary's code and its prefetch targets. A plan digest would
    /// not do, since one digest can emit different code (a
    /// `chain_budget` change). Adaptation never writes the data image,
    /// and the adapted program shares the workload's, so the identity
    /// covers it.
    fn binary(&self, w: &Workload, adapted: AdaptedBinary) -> Binary {
        let targets = prefetch_targets(&adapted);
        let program = adapted.program;
        assert!(
            Arc::ptr_eq(&program.image, &w.program.image),
            "a binary shares its workload's image"
        );
        let key = format!(
            "tune-gate {} entry={} next_tag={} targets={:?} funcs={:?}",
            self.identity(w),
            program.entry,
            program.next_tag,
            targets,
            program.funcs
        );
        Binary { key, program, targets }
    }

    /// Run the oracle gate on `b` with telemetry collected in the same
    /// runs, once per distinct binary. A miss takes `runs` (in-order
    /// first) when the simulate step took them, and simulates both
    /// models itself otherwise.
    fn gate(
        &self,
        w: &Workload,
        b: &Binary,
        mut runs: Option<[SimRun; 2]>,
        base: &BaselineSnapshots,
    ) -> Gate {
        let compute = || {
            let runs = runs
                .take()
                .unwrap_or_else(|| [&self.config.io, &self.config.ooo].map(|cfg| b.run(base, cfg)));
            (Gate::of(&b.program, base, runs), String::new())
        };
        let gate = self.gates.get(&self.identity(w), &b.key, |_| None, compute);
        // Runs come only for a binary whose gate-memo probe missed, and
        // only this tuner fills that memory-only memo: while one thread
        // drives the tuner, as every caller does, they meet a miss here.
        debug_assert!(runs.is_none(), "a simulated binary's runs feed exactly one gate miss");
        gate
    }

    /// Evaluate one candidate option set: adapt with the shared
    /// profile, run the oracle gate, simulate on both models. Memoized
    /// as its [`Candidate`].
    pub fn evaluate(
        &self,
        w: &Workload,
        profile: &Profile,
        base: &BaselineSnapshots,
        opts: &AdaptOptions,
    ) -> Eval {
        self.candidate(w, profile, Some(base), opts).eval
    }

    /// Telemetry of `opts`'s plan on `target`, from the plan's
    /// [`Candidate`] (which [`Tuner::evaluate`] of the same plan has
    /// usually memoized already).
    pub fn telemetry(
        &self,
        w: &Workload,
        profile: &Profile,
        opts: &AdaptOptions,
        target: TargetModel,
    ) -> TelemetrySummary {
        let c = self.candidate(w, profile, None, opts);
        match target {
            TargetModel::InOrder => c.io_telemetry,
            TargetModel::OutOfOrder => c.ooo_telemetry,
        }
    }

    /// [`Tuner::candidates`] of a one-item menu.
    fn candidate(
        &self,
        w: &Workload,
        profile: &Profile,
        base: Option<&BaselineSnapshots>,
        opts: &AdaptOptions,
    ) -> Candidate {
        self.candidates(w, profile, base, &[opts]).pop().expect("one option set, one candidate")
    }

    /// The memoized [`Candidate`] of each of `menu`'s option sets on
    /// `w`, in menu order, grouped by the workload identity and keyed by
    /// it plus the options fingerprint; evaluated in the three steps of
    /// the crate docs. `base` is looked up only when an option set is
    /// unresolved; `None` takes the tuner's own baselines of `w`.
    fn candidates(
        &self,
        w: &Workload,
        profile: &Profile,
        base: Option<&BaselineSnapshots>,
        menu: &[&AdaptOptions],
    ) -> Vec<Candidate> {
        let id = self.identity(w);
        let decode = |text: &str| persist::decode(text).ok();
        let own = OnceLock::new();
        let base = || base.unwrap_or_else(|| &own.get_or_init(|| self.inputs(w)).1);

        // Resolve: adapt what the candidate memo cannot answer, one job
        // per option set, and number the distinct binaries. A probed
        // entry is decoded once: the fold's `get` takes the probed value
        // as its decoding.
        let keys: Vec<String> =
            menu.iter().map(|o| format!("tune-candidate {id} {}", o.fingerprint())).collect();
        let mut probed: Vec<Option<Candidate>> =
            keys.iter().map(|key| self.memo.probe(&id, key, decode)).collect();
        let unresolved: Vec<usize> = (0..menu.len()).filter(|&i| probed[i].is_none()).collect();
        let mut adapted: Vec<Option<Result<(Eval, usize), Eval>>> =
            menu.iter().map(|_| None).collect();
        let mut binaries = Vec::new();
        let mut runs: Vec<Option<[SimRun; 2]>> = Vec::new();
        if !unresolved.is_empty() {
            let base = base();
            let outcomes = parallel::map_indexed(&unresolved, self.config.workers, |_, &i| {
                self.adapt(w, profile, base, menu[i])
            });
            for (i, outcome) in unresolved.into_iter().zip(outcomes) {
                adapted[i] = Some(outcome.map(|(eval, b)| (eval, intern(&mut binaries, b))));
            }

            // Simulate the binaries the gate memo lacks, two jobs each:
            // every out-of-order run, then every in-order one.
            let pending: Vec<usize> = (0..binaries.len())
                .filter(|&i| self.gates.probe(&id, &binaries[i].key, |_| None).is_none())
                .collect();
            let jobs: Vec<(usize, &MachineConfig)> = [&self.config.ooo, &self.config.io]
                .into_iter()
                .flat_map(|cfg| pending.iter().map(move |&i| (i, cfg)))
                .collect();
            let mut done = parallel::map_indexed(&jobs, self.config.workers, |_, &(i, cfg)| {
                binaries[i].run(base, cfg)
            })
            .into_iter();
            runs.resize_with(binaries.len(), || None);
            let ooo: Vec<SimRun> = done.by_ref().take(pending.len()).collect();
            for ((i, ooo), io) in pending.into_iter().zip(ooo).zip(done) {
                runs[i] = Some([io, ooo]);
            }
        }

        // Fold.
        let candidates = menu
            .iter()
            .zip(&keys)
            .zip(adapted.iter_mut().zip(&mut probed))
            .map(|((opts, key), (adapted, probed))| {
                let decode = |text: &str| probed.take().or_else(|| decode(text));
                self.memo.get(&id, key, decode, || {
                    // Resolved, unless its entry vanished since the probe.
                    let adapted = adapted.take().unwrap_or_else(|| {
                        let outcome = self.adapt(w, profile, base(), opts);
                        outcome.map(|(eval, b)| (eval, intern(&mut binaries, b)))
                    });
                    let c = match adapted {
                        Err(eval) => Candidate {
                            eval,
                            io_telemetry: TelemetrySummary::default(),
                            ooo_telemetry: TelemetrySummary::default(),
                        },
                        Ok((eval, i)) => {
                            let runs = runs.get_mut(i).and_then(Option::take);
                            let gate = self.gate(w, &binaries[i], runs, base());
                            Candidate {
                                eval: Eval {
                                    violations: gate.violations,
                                    io_cycles: gate.io_cycles,
                                    ooo_cycles: gate.ooo_cycles,
                                    ..eval
                                },
                                io_telemetry: gate.io_telemetry,
                                ooo_telemetry: gate.ooo_telemetry,
                            }
                        }
                    };
                    let text = persist::encode(&c);
                    (c, text)
                })
            })
            .collect();
        // Runs go unused only when another writer of the store (another
        // process, say) saved a candidate between its probe and its fold,
        // which then reads it instead of computing: that work is dropped,
        // and `gate_stats` does not count it.
        debug_assert!(
            runs.iter().all(Option::is_none) || adapted.iter().any(Option::is_some),
            "a simulated binary went ungated, yet every unresolved candidate was computed"
        );
        candidates
    }

    /// Adapt `opts` with the shared profile: an emitting plan's
    /// evaluation, its gate verdict and cycles still empty, and its
    /// [`Binary`]; or, as the error, the whole evaluation of a plan that
    /// needs no gate (the tool rejected it, or it emits nothing).
    fn adapt(
        &self,
        w: &Workload,
        profile: &Profile,
        base: &BaselineSnapshots,
        opts: &AdaptOptions,
    ) -> Result<(Eval, Binary), Eval> {
        let tool = PostPassTool::new(self.config.io.clone()).with_options(opts.clone());
        let adapted = match tool.run_with_profile(&w.program, profile.clone()) {
            Ok(adapted) => adapted,
            Err(e) => {
                return Err(Eval {
                    adapt_error: Some(
                        match e {
                            AdaptError::Lint(_) => "lint",
                            AdaptError::EmitVerify(_) => "verify",
                        }
                        .to_owned(),
                    ),
                    slices: 0,
                    skipped: 0,
                    plan_digest: "-".to_owned(),
                    violations: Vec::new(),
                    io_cycles: 0,
                    ooo_cycles: 0,
                })
            }
        };
        let slices = adapted.report.slice_count() as u64;
        let skipped = adapted.report.skipped.len() as u64;
        if adapted.report.is_noop() {
            return Err(Eval { slices, skipped, ..Eval::baseline(base) });
        }
        let eval = Eval {
            adapt_error: None,
            slices,
            skipped,
            plan_digest: adapted.report.plan_digest(),
            violations: Vec::new(),
            io_cycles: 0,
            ooo_cycles: 0,
        };
        Ok((eval, self.binary(w, adapted)))
    }

    /// Run the closed loop for one workload on one target model.
    ///
    /// Guarantees encoded in the returned [`TuneRow`]:
    ///
    /// * the tuned plan is lint-clean and oracle-clean (only clean
    ///   candidates are ever accepted);
    /// * `verdict == "win"` iff `tuned_cycles < base_cycles`;
    /// * `verdict == "structural-cap"` implies
    ///   `best_candidate_cycles >= base_cycles`: *no* evaluated clean
    ///   candidate beat the baseline (checked, not asserted away).
    pub fn tune_workload(&self, w: &Workload, target: TargetModel) -> TuneRow {
        let inputs = self.inputs(w);
        let (profile, base) = &*inputs;
        let base_cycles = match target {
            TargetModel::InOrder => base.io.0.cycles,
            TargetModel::OutOfOrder => base.ooo.0.cycles,
        };
        let default_opts = AdaptOptions::default();
        let default_eval = self.evaluate(w, profile, base, &default_opts);

        let mut candidates = 1u64;
        let mut emitting = u64::from(default_eval.clean() && default_eval.emitting());
        let mut best_candidate =
            if default_eval.clean() { default_eval.cycles(target) } else { u64::MAX };

        // The search starts from the default plan; a dirty default
        // (tool bug) degrades to the baseline no-op so the loop still
        // has a clean current point.
        let mut cur_opts = default_opts.clone();
        let mut cur_eval =
            if default_eval.clean() { default_eval.clone() } else { Eval::baseline(base) };

        let mut moves: Vec<(String, u64)> = Vec::new();
        let mut rounds = 0u64;
        for _ in 0..self.config.max_rounds {
            rounds += 1;
            let improving = cur_eval.cycles(target) < base_cycles;
            let signal = if !cur_eval.emitting() {
                Signal::Noop
            } else {
                classify(&self.telemetry(w, profile, &cur_opts, target).totals())
            };
            let menu = moves_for(signal, &cur_opts, !improving);
            if menu.is_empty() {
                break;
            }
            let options: Vec<&AdaptOptions> = menu.iter().map(|(_, o)| o).collect();
            let evals: Vec<Eval> = self
                .candidates(w, profile, Some(base), &options)
                .into_iter()
                .map(|c| c.eval)
                .collect();
            let mut accepted: Option<usize> = None;
            for (i, e) in evals.iter().enumerate() {
                candidates += 1;
                if !e.clean() {
                    continue;
                }
                if e.emitting() {
                    emitting += 1;
                }
                best_candidate = best_candidate.min(e.cycles(target));
                let bar = match accepted {
                    None => cur_eval.cycles(target),
                    Some(j) => evals[j].cycles(target),
                };
                if e.cycles(target) < bar {
                    accepted = Some(i);
                }
            }
            match accepted {
                None => break,
                Some(i) => {
                    cur_opts = menu[i].1.clone();
                    cur_eval = evals[i].clone();
                    moves.push((menu[i].0.clone(), cur_eval.cycles(target)));
                }
            }
        }

        let tuned_cycles = cur_eval.cycles(target);
        let verdict = if tuned_cycles < base_cycles { "win" } else { "structural-cap" };
        // The machine-checked half of a structural-cap verdict: greedy
        // acceptance takes the round minimum, so any clean candidate
        // below baseline forces a win unless the loop is buggy.
        assert!(
            verdict == "win" || best_candidate >= base_cycles,
            "structural-cap verdict with a sub-baseline candidate ({best_candidate} < {base_cycles})"
        );
        let timeliness = if cur_eval.emitting() {
            self.telemetry(w, profile, &cur_opts, target).totals()
        } else {
            TimelinessCounts::default()
        };
        TuneRow {
            name: w.name.to_owned(),
            model: target.name().to_owned(),
            base_cycles,
            default_cycles: if default_eval.clean() {
                default_eval.cycles(target)
            } else {
                base_cycles
            },
            default_noop: !default_eval.emitting(),
            tuned_cycles,
            tuned_slices: cur_eval.slices,
            tuned_plan_digest: cur_eval.plan_digest.clone(),
            tuned_opts: cur_opts.fingerprint(),
            verdict: verdict.to_owned(),
            rounds,
            candidates,
            emitting_candidates: emitting,
            best_candidate_cycles: best_candidate,
            timeliness,
            moves,
        }
    }

    /// [`Tuner::tune_workload`] over every workload on both machine
    /// models, in suite order (rows: workload-major, in-order first).
    pub fn tune_suite(&self, ws: &[Workload]) -> Vec<TuneRow> {
        let mut rows = Vec::new();
        for w in ws {
            for t in TargetModel::BOTH {
                rows.push(self.tune_workload(w, t));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_bench::persist::{decode, encode};

    #[test]
    fn classify_maps_dominant_counts_to_signals() {
        let t = |early, timely, late, useless| TimelinessCounts { early, timely, late, useless };
        assert_eq!(classify(&t(0, 0, 0, 0)), Signal::MostlyEarlyUseless);
        assert_eq!(classify(&t(0, 1, 5, 0)), Signal::MostlyLate);
        assert_eq!(classify(&t(4, 1, 2, 3)), Signal::MostlyEarlyUseless);
        assert_eq!(classify(&t(1, 10, 2, 1)), Signal::TimelyCapped);
        // Ties lean toward acting on lateness first.
        assert_eq!(classify(&t(1, 1, 1, 0)), Signal::MostlyLate);
    }

    #[test]
    fn budget_ladder_reaches_the_small_budgets() {
        assert_eq!(budget_ladder(512), vec![256, 64, 16, 8, 6, 4]);
        assert_eq!(budget_ladder(4), vec![2, 3]);
        assert_eq!(budget_ladder(3), vec![1, 2]);
        assert_eq!(budget_ladder(1), Vec::<u64>::new());
    }

    #[test]
    fn moves_exclude_the_current_fingerprint_and_duplicates() {
        let cur = AdaptOptions::default();
        let menu = moves_for(Signal::Noop, &cur, true);
        let cur_fp = cur.fingerprint();
        let mut seen = Vec::new();
        for (_, o) in &menu {
            let f = o.fingerprint();
            assert_ne!(f, cur_fp);
            assert!(!seen.contains(&f), "duplicate candidate {f}");
            seen.push(f);
        }
        // The regression escape hatches are present regardless of menu.
        assert!(menu.iter().any(|(l, _)| l == "force_model=basic"));
        assert!(menu.iter().any(|(l, _)| l == "coverage=0.99"));
        assert!(menu.iter().any(|(l, _)| l == "chain_budget=4"));
    }

    #[test]
    fn every_move_changes_only_the_field_its_label_names() {
        let point = AdaptOptions {
            chain_budget: 4,
            force_model: Some(SpModel::Basic),
            predict_threshold: 1.1,
            ..AdaptOptions::default()
        };
        let signals =
            [Signal::Noop, Signal::MostlyLate, Signal::MostlyEarlyUseless, Signal::TimelyCapped];
        for cur in [AdaptOptions::default(), point] {
            let cur_fp = cur.fingerprint();
            for signal in signals {
                for regressing in [false, true] {
                    for (label, o) in moves_for(signal, &cur, regressing) {
                        let fp = o.fingerprint();
                        assert!(fp.split(' ').any(|t| t == label), "{label} is not in {fp}");
                        let changed: Vec<&str> = cur_fp
                            .split(' ')
                            .zip(fp.split(' '))
                            .filter(|(was, now)| was != now)
                            .map(|(_, now)| now)
                            .collect();
                        assert_eq!(changed, [label.as_str()], "{label} from {cur_fp}");
                    }
                }
            }
        }
    }

    #[test]
    fn eval_roundtrips_through_the_codec() {
        let e = Eval {
            adapt_error: None,
            slices: 3,
            skipped: 2,
            plan_digest: "ab12".to_owned(),
            violations: vec!["reg-mismatch".to_owned(), "spec-store".to_owned()],
            io_cycles: 1234,
            ooo_cycles: 987,
        };
        assert_eq!(decode(&encode(&e)), Ok(e.clone()));
        assert_eq!(
            encode(&e),
            "ssp-tune-eval/1\nadapt_error=-\nslices=3\nskipped=2\nplan_digest=ab12\n\
             violations=reg-mismatch,spec-store\nio_cycles=1234\nooo_cycles=987\n"
        );
        let err = Eval { adapt_error: Some("lint".to_owned()), violations: Vec::new(), ..e };
        assert_eq!(decode(&encode(&err)), Ok(err.clone()));
        assert_eq!(
            encode(&err),
            "ssp-tune-eval/1\nadapt_error=lint\nslices=3\nskipped=2\nplan_digest=ab12\n\
             violations=-\nio_cycles=1234\nooo_cycles=987\n"
        );
        assert!(decode::<Eval>("garbage").is_err());
    }

    #[test]
    fn telemetry_roundtrips_through_the_codec() {
        let t = TelemetrySummary {
            triggers_fired: 9,
            slices_spawned: 7,
            prefetches_issued: 40,
            per_load: vec![
                (3, TimelinessCounts { early: 1, timely: 2, late: 3, useless: 4 }),
                (9, TimelinessCounts { early: 0, timely: 5, late: 0, useless: 1 }),
            ],
        };
        let decoded = decode::<TelemetrySummary>(&encode(&t)).expect("roundtrip");
        assert_eq!(decoded, t);
        assert_eq!(decoded.totals().total(), 16);
        assert_eq!(
            encode(&t),
            "ssp-tune-telemetry/1\ntriggers_fired=9\nslices_spawned=7\nprefetches_issued=40\n\
             loads=2\n3 1 2 3 4\n9 0 5 0 1\n"
        );
        assert!(decode::<TelemetrySummary>("").is_err());
    }

    #[test]
    fn candidate_roundtrips_through_the_codec() {
        let c = Candidate {
            eval: Eval {
                adapt_error: None,
                slices: 1,
                skipped: 0,
                plan_digest: "ab12".to_owned(),
                violations: Vec::new(),
                io_cycles: 1234,
                ooo_cycles: 987,
            },
            io_telemetry: TelemetrySummary {
                triggers_fired: 9,
                slices_spawned: 7,
                prefetches_issued: 4,
                per_load: vec![(3, TimelinessCounts { early: 1, timely: 2, late: 0, useless: 1 })],
            },
            ooo_telemetry: TelemetrySummary::default(),
        };
        assert_eq!(decode(&encode(&c)), Ok(c.clone()));
        // The header, then the evaluation and both telemetries as nested
        // records with their own bytes.
        assert_eq!(
            encode(&c),
            "ssp-tune-candidate/1\n\
             ssp-tune-eval/1\nadapt_error=-\nslices=1\nskipped=0\nplan_digest=ab12\n\
             violations=-\nio_cycles=1234\nooo_cycles=987\n\
             ssp-tune-telemetry/1\ntriggers_fired=9\nslices_spawned=7\nprefetches_issued=4\n\
             loads=1\n3 1 2 0 1\n\
             ssp-tune-telemetry/1\ntriggers_fired=0\nslices_spawned=0\nprefetches_issued=0\n\
             loads=0\n"
        );
    }

    /// A cycle-capped tuner (tier-1 runs these in a debug build) and
    /// mcf, whose default plan emits chaining slices.
    fn capped_mcf() -> (Tuner, Workload) {
        let mut config = TuneConfig { max_rounds: 1, workers: 1, ..TuneConfig::default() };
        config.io.max_cycles = 60_000;
        config.ooo.max_cycles = 60_000;
        (Tuner::new(config), ssp_workloads::mcf::build(SEED))
    }

    fn with(f: impl FnOnce(&mut AdaptOptions)) -> AdaptOptions {
        let mut o = AdaptOptions::default();
        f(&mut o);
        o
    }

    fn adapt(tuner: &Tuner, w: &Workload, opts: &AdaptOptions) -> AdaptedBinary {
        let tool = PostPassTool::new(tuner.config.io.clone()).with_options(opts.clone());
        tool.run_with_profile(&w.program, tuner.inputs(w).0.clone()).expect("mcf adapts")
    }

    #[test]
    fn moves_that_emit_one_binary_share_one_gate_run() {
        let (tuner, w) = capped_mcf();
        let inputs = tuner.inputs(&w);
        let (profile, base) = &*inputs;
        let default = tuner.evaluate(&w, profile, base, &AdaptOptions::default());
        assert!(default.clean() && default.emitting(), "{default:?}");
        for opts in [
            with(|o| o.coverage = 0.99),
            with(|o| o.max_slice_size = 128),
            with(|o| o.min_slack = 0),
        ] {
            let e = tuner.evaluate(&w, profile, base, &opts);
            assert_eq!((e.io_cycles, e.ooo_cycles), (default.io_cycles, default.ooo_cycles));
        }
        assert_eq!(tuner.gate_stats(), MemoStats { hits: 3, disk_hits: 0, misses: 1 });
        assert_eq!(tuner.stats().misses, 4, "each candidate is still its own evaluation");

        // A smaller chain budget keeps the plan, and so its digest, but
        // the stubs load a different budget: a new binary, its own run.
        let budget = tuner.evaluate(&w, profile, base, &with(|o| o.chain_budget = 256));
        assert_eq!(budget.plan_digest, default.plan_digest);
        assert_eq!(tuner.gate_stats(), MemoStats { hits: 3, disk_hits: 0, misses: 2 });
    }

    #[test]
    fn telemetry_of_a_gated_plan_equals_a_traced_run() {
        let (tuner, w) = capped_mcf();
        let inputs = tuner.inputs(&w);
        let opts = AdaptOptions::default();
        tuner.evaluate(&w, &inputs.0, &inputs.1, &opts);
        let adapted = adapt(&tuner, &w, &opts);
        let targets = prefetch_targets(&adapted);
        for (target, cfg) in
            [(TargetModel::InOrder, &tuner.config.io), (TargetModel::OutOfOrder, &tuner.config.ooo)]
        {
            let (_, trace) = ssp_core::simulate_traced(&adapted.program, cfg, &targets);
            let t = tuner.telemetry(&w, &inputs.0, &opts, target);
            assert!(t.totals().total() > 0, "{} classified no prefetch", target.name());
            assert_eq!(t, TelemetrySummary::of(trace), "{}", target.name());
        }
        // Both reads come from the evaluation's candidate entry: memo
        // hits, with no second gate lookup.
        assert_eq!(tuner.gate_stats(), MemoStats { hits: 0, disk_hits: 0, misses: 1 });
        assert_eq!(tuner.stats(), MemoStats { hits: 2, disk_hits: 0, misses: 1 });
    }

    #[test]
    fn a_truncated_eval_entry_is_recomputed_and_repaired() {
        let root = std::env::temp_dir().join(format!("ssp-tune-truncated-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let mut config = TuneConfig { max_rounds: 1, workers: 1, ..TuneConfig::default() };
        config.io.max_cycles = 60_000;
        config.ooo.max_cycles = 60_000;
        let tuner = || Tuner::new(config.clone()).with_store(Store::open(&root).unwrap());
        let w = ssp_workloads::mcf::build(SEED);
        let profile = ssp_core::profile(&w.program, &config.io);
        let base = oracle::baseline_snapshots(&w.program, &config.io, &config.ooo);
        let opts = AdaptOptions::default();
        let first = tuner();
        let cold = encode(&first.evaluate(&w, &profile, &base, &opts));

        // Keep the entry's key header; cut its payload in half, then by
        // just its last two bytes (the out-of-order telemetry's last line
        // loses a digit).
        let id = first.identity(&w);
        let key = format!("tune-candidate {id} {}", opts.fingerprint());
        let (store, shard) = (first.memo.store().unwrap(), Store::shard_of(&id));
        let payload = store.load(&shard, &key).expect("the cold run wrote its entry");
        for cut in [payload.len() / 2, payload.len() - 2] {
            store.save(&shard, &key, &payload[..cut]).unwrap();
            let repaired = tuner();
            assert_eq!(encode(&repaired.evaluate(&w, &profile, &base, &opts)), cold);
            assert_eq!(repaired.stats(), MemoStats { hits: 0, disk_hits: 0, misses: 1 });
            let warm = tuner();
            assert_eq!(encode(&warm.evaluate(&w, &profile, &base, &opts)), cold);
            assert_eq!(warm.stats(), MemoStats { hits: 0, disk_hits: 1, misses: 0 });
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn an_oversized_row_count_in_a_telemetry_entry_is_a_miss() {
        let root = std::env::temp_dir().join(format!("ssp-tune-oversized-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let tuner = || capped_mcf().0.with_store(Store::open(&root).unwrap());
        let w = ssp_workloads::mcf::build(SEED);
        let opts = AdaptOptions::default();
        let read =
            |t: &Tuner| encode(&t.telemetry(&w, &t.inputs(&w).0, &opts, TargetModel::InOrder));
        let first = tuner();
        let cold = read(&first);

        // An 11-digit row count must not size an allocation: the entry
        // is one counted miss, and the recompute answers the cold bytes.
        // The first `loads=` line is the nested in-order telemetry's.
        let id = first.identity(&w);
        let key = format!("tune-candidate {id} {}", opts.fingerprint());
        let (store, shard) = (first.memo.store().unwrap(), Store::shard_of(&id));
        let payload = store.load(&shard, &key).expect("the cold run wrote its entry");
        let loads = decode::<Candidate>(&payload).unwrap().io_telemetry.per_load.len();
        let forged = payload.replacen(&format!("\nloads={loads}\n"), "\nloads=99999999999\n", 1);
        assert_ne!(forged, payload);
        store.save(&shard, &key, &forged).unwrap();

        let repaired = tuner();
        assert_eq!(read(&repaired), cold);
        assert_eq!(repaired.stats(), MemoStats { hits: 0, disk_hits: 0, misses: 1 });
        let _ = std::fs::remove_dir_all(&root);
    }
}
