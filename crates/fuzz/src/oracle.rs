//! The differential adaptation oracle.
//!
//! [`run_case`] generates one program from a [`CaseSpec`], adapts it with
//! the post-pass tool, and runs baseline and adapted binaries on *both*
//! machine models ([`MachineConfig::in_order`] and
//! [`MachineConfig::out_of_order`]), asserting the adaptation is
//! semantically transparent. The adapted binary goes through one gate,
//! a [`gated_run`] per model and [`check_runs`] against the program's
//! [`baseline_snapshots`]; the `ssp-tune` auto-tuner runs every
//! candidate plan through the same gate. The checks:
//!
//! * identical final architectural state — registers the original
//!   program mentions, the memory image, and the trap status;
//! * an identical main-thread committed-instruction stream once
//!   tool-synthesized instructions (fresh tags) are filtered out;
//! * the SSP invariants — speculative threads execute no stores to
//!   program-visible memory, every spawned thread is killed or still in
//!   flight at the end, and no stub is reachable from more than one
//!   static trigger;
//! * static/dynamic agreement — a dynamic invariant violation on a
//!   binary the `ssp-lint` gate inside adaptation passed clean is
//!   reported as a `lint-blind-spot` meta-bug in its own right
//!   (`run_case` only);
//! * engine agreement — each of the case's four simulations is also
//!   replayed on the stepped (fast-forward-disabled) engine, and any
//!   difference in statistics or architectural snapshot is an
//!   `engine-divergence` violation, so the fuzzer hammers the
//!   clock-skip logic with the same random programs it uses against the
//!   adapter (`run_case` only).
//!
//! A case's violation kinds are reported once each, in first-seen order
//! ([`kinds`]).
//!
//! [`run_case`] takes its eight simulations as two job lists on the
//! workers it is given: the baseline's two fast runs, then, once both
//! halted, one list whose first job adapts the program and whose other
//! jobs take the baseline's stepped replays and the adapted binary's
//! runs, so the adaptation overlaps a baseline replay. The checks run on
//! the finished runs in one fixed order, so no verdict depends on the
//! worker count.
//!
//! Nothing in this path panics on a bad case: generator, tool, and
//! checker failures all become [`Violation`]s in the returned
//! [`CaseResult`], so a batch run always completes and reports.

use crate::gen;
use crate::spec::CaseSpec;
use ssp_core::{parallel, PostPassTool};
use ssp_ir::reg::{conv, NUM_REGS};
use ssp_ir::{InstTag, Op, Program};
use ssp_sim::{
    simulate_snapshot, simulate_with, ArchSnapshot, MachineConfig, SimMode, SimOptions, SimResult,
    SimRun, TrapKind,
};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Oracle knobs.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Cycle cap for every simulation. Generated programs finish far
    /// below this; a baseline that still caps is reported separately
    /// (not as a violation), while an adapted binary that caps when its
    /// baseline halted is an equivalence violation.
    pub max_cycles: u64,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { max_cycles: 2_000_000 }
    }
}

/// One equivalence or invariant failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    /// Stable machine-readable kind (e.g. `reg-mismatch`).
    pub kind: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

/// The distinct kinds of `violations`, in first-seen order: the kind
/// list every verdict reports (case answers, batch summaries and the
/// tuner's evaluations).
pub fn kinds(violations: &[Violation]) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for v in violations {
        if !out.iter().any(|k| k == v.kind) {
            out.push(v.kind.to_owned());
        }
    }
    out
}

/// How one case ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CaseOutcome {
    /// All checks passed on both machine models.
    Pass,
    /// A baseline run hit the cycle cap, so equivalence could not be
    /// evaluated. Counted separately: not a pass, not a violation.
    BaselineCapped,
    /// At least one check failed.
    Violations(Vec<Violation>),
}

/// The oracle's verdict on one case.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaseResult {
    /// The case, in its reproducible one-line form.
    pub spec: CaseSpec,
    /// Verdict.
    pub outcome: CaseOutcome,
    /// Slices the tool emitted (0 when adaptation failed early).
    pub slices: usize,
    /// Speculative threads spawned across the adapted runs.
    pub threads_spawned: u64,
}

/// Render one case verdict as a single-line deterministic JSON object —
/// the canonical per-case shape shared by the fuzz harness and the
/// `ssp-serve` daemon (which reconstructs the same line from persisted
/// store entries, so serving a case is byte-identical to running it).
///
/// `kinds` is the deduplicated violation-kind list; empty for `pass`
/// and `baseline-capped` outcomes.
pub fn case_json(
    spec: &str,
    outcome: &str,
    kinds: &[String],
    slices: u64,
    threads_spawned: u64,
) -> String {
    let kinds: Vec<String> = kinds.iter().map(|k| format!("\"{k}\"")).collect();
    format!(
        concat!(
            "{{\"spec\": \"{}\", \"outcome\": \"{}\", \"kinds\": [{}], ",
            "\"slices\": {}, \"threads_spawned\": {}}}"
        ),
        spec,
        outcome,
        kinds.join(", "),
        slices,
        threads_spawned,
    )
}

impl CaseResult {
    /// The outcome's stable wire name (`pass` / `baseline-capped` /
    /// `violations`).
    pub fn outcome_name(&self) -> &'static str {
        match self.outcome {
            CaseOutcome::Pass => "pass",
            CaseOutcome::BaselineCapped => "baseline-capped",
            CaseOutcome::Violations(_) => "violations",
        }
    }

    /// Deduplicated violation kinds, in first-seen order (empty unless
    /// the outcome is `violations`); see [`kinds`].
    pub fn violation_kinds(&self) -> Vec<String> {
        match &self.outcome {
            CaseOutcome::Violations(vs) => kinds(vs),
            _ => Vec::new(),
        }
    }

    /// Render via [`case_json`].
    pub fn to_json(&self) -> String {
        case_json(
            &self.spec.to_string(),
            self.outcome_name(),
            &self.violation_kinds(),
            self.slices as u64,
            self.threads_spawned,
        )
    }

    /// A verdict reached before any adapted run: no slices, no threads.
    fn early(spec: &CaseSpec, outcome: CaseOutcome) -> Self {
        CaseResult { spec: spec.clone(), outcome, slices: 0, threads_spawned: 0 }
    }

    fn failed(spec: &CaseSpec, kind: &'static str, detail: String) -> Self {
        Self::early(spec, CaseOutcome::Violations(vec![Violation { kind, detail }]))
    }
}

/// Registers the program mentions (reads or writes) anywhere, plus the
/// stack pointer the engine initializes. Final-state comparison is
/// restricted to these: stub scratch registers are picked from the
/// never-mentioned set and legitimately differ after adaptation.
pub fn mentioned_regs(prog: &Program) -> Vec<bool> {
    let mut m = vec![false; NUM_REGS];
    m[conv::SP.index()] = true;
    for (_, f) in prog.iter_funcs() {
        for (_, b) in f.iter_blocks() {
            for inst in &b.insts {
                if let Some(d) = inst.op.def() {
                    m[d.index()] = true;
                }
                inst.op.for_each_use(|r| m[r.index()] = true);
            }
        }
    }
    m
}

/// Static SSP invariant: no stub block is the target of more than one
/// `chk.c`. A shared stub would let one hot path fire another's trigger,
/// breaking the one-trigger-per-hot-path discipline.
fn check_single_trigger(adapted: &Program, out: &mut Vec<Violation>) {
    for (fid, f) in adapted.iter_funcs() {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for (_, b) in f.iter_blocks() {
            for inst in &b.insts {
                if let Op::ChkC { stub } = inst.op {
                    *counts.entry(stub.0).or_insert(0) += 1;
                }
            }
        }
        let mut dups: Vec<(u32, u32)> = counts.into_iter().filter(|&(_, c)| c > 1).collect();
        dups.sort_unstable();
        for (stub, c) in dups {
            out.push(Violation {
                kind: "multi-trigger",
                detail: format!("{fid}: stub block b{stub} targeted by {c} chk.c triggers"),
            });
        }
    }
}

/// The architectural-equivalence half of the per-model checks: trap
/// status, tag-filtered commit stream, mentioned registers, memory
/// digest. Meaningless when the baseline hit the cycle cap (the baseline
/// never reached its final state), so [`check_runs`] skips it there.
fn check_equivalence(
    model: &str,
    base: &ArchSnapshot,
    adapted: &ArchSnapshot,
    mentioned: &[bool],
    out: &mut Vec<Violation>,
) {
    if adapted.trap != base.trap {
        let kind =
            if adapted.trap == TrapKind::CycleCap { "timeout-divergence" } else { "trap-mismatch" };
        out.push(Violation {
            kind,
            detail: format!(
                "{model}: baseline ended {} but adapted ended {}",
                base.trap.name(),
                adapted.trap.name()
            ),
        });
    }
    if (adapted.commit_digest, adapted.commit_len) != (base.commit_digest, base.commit_len) {
        out.push(Violation {
            kind: "commit-mismatch",
            detail: format!(
                "{model}: main-thread committed stream diverged \
                 (baseline {} insts digest {:#x}, adapted {} insts digest {:#x})",
                base.commit_len, base.commit_digest, adapted.commit_len, adapted.commit_digest
            ),
        });
    }
    for (i, m) in mentioned.iter().enumerate() {
        if *m && adapted.regs[i] != base.regs[i] {
            out.push(Violation {
                kind: "reg-mismatch",
                detail: format!(
                    "{model}: r{i} = {:#x} baseline vs {:#x} adapted",
                    base.regs[i], adapted.regs[i]
                ),
            });
        }
    }
    if adapted.mem_digest != base.mem_digest {
        out.push(Violation {
            kind: "mem-mismatch",
            detail: format!(
                "{model}: memory digest {:#x} baseline vs {:#x} adapted",
                base.mem_digest, adapted.mem_digest
            ),
        });
    }
}

/// The dynamic SSP-invariant half of the per-model checks: spec-store
/// freedom and spawn balance. Valid on any run, capped or not.
fn check_ssp_invariants(
    model: &str,
    adapted: &ArchSnapshot,
    adapted_res: &SimResult,
    out: &mut Vec<Violation>,
) {
    if adapted.spec_store_attempts != 0 {
        out.push(Violation {
            kind: "spec-store",
            detail: format!(
                "{model}: speculative threads attempted {} stores",
                adapted.spec_store_attempts
            ),
        });
    }
    if !adapted.spawns_balanced(adapted_res.threads_spawned) {
        out.push(Violation {
            kind: "spawn-leak",
            detail: format!(
                "{model}: {} threads spawned but {} killed + {} live at end",
                adapted_res.threads_spawned, adapted.spec_kills, adapted.spec_live_at_end
            ),
        });
    }
}

/// Compare one simulation's fast run with its stepped
/// (fast-forward-disabled) replay, and report any difference in
/// statistics or architectural snapshot as an `engine-divergence`
/// violation.
fn check_engines(
    model: &str,
    binary: &str,
    fast: &SimRun,
    stepped: &SimRun,
    out: &mut Vec<Violation>,
) {
    let (fast_snap, stepped_snap) = (snapshot_of(fast), snapshot_of(stepped));
    if fast.result != stepped.result || fast_snap != stepped_snap {
        out.push(Violation {
            kind: "engine-divergence",
            detail: format!(
                "{model}/{binary}: fast-forward engine diverged from stepped \
                 (cycles {} vs {}, trap {} vs {})",
                fast.result.total_cycles,
                stepped.result.total_cycles,
                fast_snap.trap.name(),
                stepped_snap.trap.name()
            ),
        });
    }
}

/// The snapshot of a run the oracle asked to record one.
fn snapshot_of(run: &SimRun) -> &ArchSnapshot {
    run.snapshot.as_ref().expect("snapshot requested")
}

/// The binary one simulation of a case runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Binary {
    /// The generated program.
    Baseline,
    /// Its adaptation.
    Adapted,
}

/// One simulation of a case: the binary, how the clock advances, and
/// the model, an index into `[in-order, out-of-order]`.
type Job = (Binary, SimMode, usize);

/// A case's first job list: the baseline's fast runs, out-of-order (the
/// longer) first.
const FAST_BASELINES: [Job; 2] =
    [(Binary::Baseline, SimMode::Fast, 1), (Binary::Baseline, SimMode::Fast, 0)];

/// The second job list of a case whose baselines both halted, in the
/// order the workers take it. The first job adapts the program, then
/// takes the adapted binary's stepped out-of-order replay; a baseline
/// replay comes second, so a second worker starts on it and never waits
/// on the adaptation. The stepped replays take several times as long as
/// a fast run, so they come before the fast runs, and an out-of-order
/// fast run takes about 1.6 times an in-order one.
const CASE_JOBS: [Job; 6] = [
    (Binary::Adapted, SimMode::Stepped, 1),
    (Binary::Baseline, SimMode::Stepped, 1),
    (Binary::Baseline, SimMode::Stepped, 0),
    (Binary::Adapted, SimMode::Stepped, 0),
    (Binary::Adapted, SimMode::Fast, 1),
    (Binary::Adapted, SimMode::Fast, 0),
];

/// The second job list of a case with a capped baseline, which is never
/// adapted: the baseline's stepped replays alone.
const CAPPED_JOBS: [Job; 2] =
    [(Binary::Baseline, SimMode::Stepped, 1), (Binary::Baseline, SimMode::Stepped, 0)];

/// Baseline snapshots of one *original* program on both machine models,
/// for use with [`check_adapted`]. Computed once per program and reused
/// across every candidate adaptation of it — the auto-tuner gates
/// dozens of candidate plans per workload against the same baselines.
#[derive(Clone, PartialEq, Debug)]
pub struct BaselineSnapshots {
    /// Tag bound separating original from tool-synthesized instructions
    /// (`prog.next_tag` of the original binary).
    pub bound: u32,
    /// Mentioned-register mask of the original program.
    pub mentioned: Vec<bool>,
    /// Baseline result + snapshot, in-order model.
    pub io: (SimResult, ArchSnapshot),
    /// Baseline result + snapshot, out-of-order model.
    pub ooo: (SimResult, ArchSnapshot),
}

impl BaselineSnapshots {
    /// Assemble `prog`'s snapshots from its [`baseline_run`] on each
    /// model.
    pub fn new(
        prog: &Program,
        io: (SimResult, ArchSnapshot),
        ooo: (SimResult, ArchSnapshot),
    ) -> BaselineSnapshots {
        BaselineSnapshots { bound: prog.next_tag, mentioned: mentioned_regs(prog), io, ooo }
    }
}

/// Simulate `prog` unadapted on both models and capture everything
/// [`check_adapted`] needs.
pub fn baseline_snapshots(
    prog: &Program,
    io: &MachineConfig,
    ooo: &MachineConfig,
) -> BaselineSnapshots {
    BaselineSnapshots::new(prog, baseline_run(prog, io), baseline_run(prog, ooo))
}

/// One model's half of [`baseline_snapshots`]: `prog` unadapted on
/// `cfg`, its snapshot's commit digest bounded by `prog.next_tag`.
pub fn baseline_run(prog: &Program, cfg: &MachineConfig) -> (SimResult, ArchSnapshot) {
    simulate_snapshot(prog, cfg, prog.next_tag)
}

/// Run the oracle's invariant and equivalence checks on one
/// already-adapted binary — the gate [`run_case`] runs its generated
/// programs through, exposed for harnesses that adapt real workloads
/// with non-default options and must prove every candidate plan
/// transparent before trusting its cycle count:
///
/// * static spec-store freedom (`verify_speculative`) and the
///   one-trigger-per-stub discipline;
/// * on each model, the dynamic SSP invariants (no speculative stores,
///   spawn balance) — always — and full architectural equivalence
///   (trap, commit stream, registers, memory) whenever that model's
///   baseline halted below the cycle cap (a capped baseline never
///   reached its final state, so equivalence is unevaluable there, as
///   in [`run_case`]'s `baseline-capped` verdict).
///
/// Returns the violations plus the adapted binary's results on both
/// models, so callers steering on cycle counts pay no extra simulation.
pub fn check_adapted(
    adapted: &Program,
    base: &BaselineSnapshots,
    io: &MachineConfig,
    ooo: &MachineConfig,
) -> (Vec<Violation>, SimResult, SimResult) {
    let runs = [io, ooo].map(|cfg| gated_run(adapted, base, cfg, None));
    let violations = check_runs(adapted, base, &runs);
    let [a_io, a_ooo] = runs;
    (violations, a_io.result, a_ooo.result)
}

/// One model's simulation of the gate: `adapted` on `cfg`, with the
/// architectural snapshot the equivalence checks compare against `base`
/// and, when `targets` is given, the telemetry trace (see
/// [`ssp_sim::simulate_traced`] for what `targets` maps), so a caller
/// that steers on Figure-9 signals pays one simulation per model for
/// the gate and the telemetry together.
pub fn gated_run(
    adapted: &Program,
    base: &BaselineSnapshots,
    cfg: &MachineConfig,
    targets: Option<&[(InstTag, InstTag)]>,
) -> SimRun {
    simulate_with(
        adapted,
        cfg,
        SimOptions { snapshot: Some(base.bound), telemetry: targets, ..Default::default() },
    )
}

/// The checks of [`check_adapted`] on runs already taken: `runs` holds
/// `adapted`'s [`gated_run`] on the in-order and then the out-of-order
/// model, so a caller that schedules the two simulations itself, or
/// collects telemetry in them (the `ssp-tune` optimizer), checks them
/// here. The static checks read only `adapted`'s code.
pub fn check_runs(
    adapted: &Program,
    base: &BaselineSnapshots,
    runs: &[SimRun; 2],
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if let Err(e) = ssp_ir::verify::verify_speculative(adapted) {
        violations.push(Violation { kind: "store-in-slice", detail: e.to_string() });
    }
    check_single_trigger(adapted, &mut violations);
    for (model, b_snap, run) in
        [("in-order", &base.io.1, &runs[0]), ("out-of-order", &base.ooo.1, &runs[1])]
    {
        let a_snap = snapshot_of(run);
        if b_snap.trap != TrapKind::CycleCap {
            check_equivalence(model, b_snap, a_snap, &base.mentioned, &mut violations);
        }
        check_ssp_invariants(model, a_snap, &run.result, &mut violations);
    }
    violations
}

/// Run the full differential check for one case on up to `workers`
/// threads: generate the program, take its two fast baseline runs, then
/// its two stepped baseline replays and, if both baselines halted, its
/// adaptation against the in-order profile (as the paper does) and the
/// adapted binary's four simulations, as a second job list. The first
/// job of that list adapts the program, into a cell the adapted jobs
/// share and wait on, so the adaptation overlaps a baseline replay. The
/// adapted binary's fast runs are its [`gated_run`]s, gated by
/// [`check_runs`] against the program's [`BaselineSnapshots`]; every
/// fast run is checked against its stepped replay; and a dynamic
/// violation of an invariant the static linter claims to prove is a
/// linter blind spot.
///
/// The checks run on the finished runs in one order whatever `workers`
/// is (baseline engine agreement, `baseline-capped`, `adapt-error`, the
/// gate, adapted engine agreement, the linter blind spot), so the
/// verdict and its violation order are too. When the baseline's engines
/// disagree, the adapted runs already taken are dropped. The fuzz
/// harness, which fans out over cases, and the shrinker pass 1; the
/// `ssp-serve` daemon passes a lone request's worker share.
pub fn run_case(spec: &CaseSpec, ocfg: &OracleConfig, workers: usize) -> CaseResult {
    let prog = match gen::generate(spec) {
        Ok(p) => p,
        Err(e) => return CaseResult::failed(spec, "generate-verify", e.to_string()),
    };
    let mut io = MachineConfig::in_order();
    io.max_cycles = ocfg.max_cycles;
    let mut ooo = MachineConfig::out_of_order();
    ooo.max_cycles = ocfg.max_cycles;
    let models = ["in-order", "out-of-order"];
    // Every snapshot's commit digest is bounded by the original
    // program's tags, so baseline and adapted digests compare.
    let bound = prog.next_tag;
    let simulate = |binary: &Program, &(_, mode, model): &Job| {
        let opts = SimOptions { mode, snapshot: Some(bound), ..Default::default() };
        simulate_with(binary, [&io, &ooo][model], opts)
    };

    let fast = parallel::map_indexed(&FAST_BASELINES, workers, |_, job| simulate(&prog, job));
    let [fast_ooo, fast_io]: [SimRun; 2] = fast.try_into().expect("one run per job");
    let base_fast = [fast_io, fast_ooo];
    // Only a program both baselines ran to a halt is adapted: the
    // profiler would run a capped one for up to 500M instructions.
    let capped = base_fast.iter().any(|r| snapshot_of(r).trap == TrapKind::CycleCap);
    let adaptation = OnceLock::new();
    let jobs: &[Job] = if capped { &CAPPED_JOBS } else { &CASE_JOBS };
    let mut runs = parallel::map_indexed(jobs, workers, |_, job| match job.0 {
        Binary::Baseline => Some(simulate(&prog, job)),
        Binary::Adapted => adaptation
            .get_or_init(|| PostPassTool::new(io.clone()).run(&prog))
            .as_ref()
            .ok()
            .map(|adapted| simulate(&adapted.program, job)),
    });
    // One binary's finished runs in one mode, in-order first; `None`
    // for an adapted run when the adaptation failed.
    let mut take = |binary, mode| {
        [0, 1].map(|model| {
            let at = jobs.iter().position(|&j| j == (binary, mode, model));
            runs[at.expect("the job is listed")].take()
        })
    };

    // Engine agreement is checked even on capped baselines — a capped
    // run is exactly where a fast-forward jump could overshoot the cap.
    let stepped = take(Binary::Baseline, SimMode::Stepped).map(|r| r.expect("a baseline run"));
    let mut violations = Vec::new();
    for (i, model) in models.into_iter().enumerate() {
        check_engines(model, "baseline", &base_fast[i], &stepped[i], &mut violations);
    }
    if !violations.is_empty() {
        return CaseResult::early(spec, CaseOutcome::Violations(violations));
    }
    if capped {
        return CaseResult::early(spec, CaseOutcome::BaselineCapped);
    }
    let [base_io, base_ooo] =
        base_fast.map(|r| (r.result, r.snapshot.expect("snapshot requested")));
    let base = BaselineSnapshots::new(&prog, base_io, base_ooo);

    let adapted = match adaptation.into_inner().expect("the first job adapted the program") {
        Ok(a) => a,
        Err(e) => return CaseResult::failed(spec, "adapt-error", e.to_string()),
    };
    let fast = take(Binary::Adapted, SimMode::Fast).map(|r| r.expect("an adapted run"));
    let stepped = take(Binary::Adapted, SimMode::Stepped).map(|r| r.expect("an adapted run"));
    let mut violations = check_runs(&adapted.program, &base, &fast);
    for (i, model) in models.into_iter().enumerate() {
        check_engines(model, "adapted", &fast[i], &stepped[i], &mut violations);
    }

    // Cross-check static vs dynamic verdicts: every invariant the
    // `ssp-lint` static verifier claims to prove also has a dynamic
    // detector in the gate. The adaptation above returned, so its lint
    // gate passed this binary clean (a dirty lint is `AdaptError::Lint`,
    // reported as `adapt-error`, and never reaches simulation). A dynamic
    // violation of one of those invariants is therefore a linter blind
    // spot — itself a reported meta-bug.
    const LINTED_KINDS: [&str; 4] = ["store-in-slice", "multi-trigger", "spec-store", "spawn-leak"];
    if violations.iter().any(|v| LINTED_KINDS.contains(&v.kind)) {
        violations.push(Violation {
            kind: "lint-blind-spot",
            detail: "dynamic SSP invariant violation on a binary the static linter passed clean"
                .to_owned(),
        });
    }

    CaseResult {
        spec: spec.clone(),
        outcome: if violations.is_empty() {
            CaseOutcome::Pass
        } else {
            CaseOutcome::Violations(violations)
        },
        slices: adapted.report.slice_count(),
        threads_spawned: fast.iter().map(|r| r.result.threads_spawned).sum(),
    }
}

/// Deterministic aggregate over a batch of [`CaseResult`]s, in input
/// order. Rendering is plain manual JSON so the summary is byte-stable
/// across worker counts and runs.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Summary {
    /// Total cases evaluated.
    pub cases: usize,
    /// Cases with every check green.
    pub passed: usize,
    /// Cases whose baseline hit the cycle cap (equivalence skipped).
    pub baseline_capped: usize,
    /// Cases with at least one violation.
    pub violations: usize,
    /// Slices emitted across all cases.
    pub slices_emitted: u64,
    /// Speculative threads spawned across all adapted runs.
    pub threads_spawned: u64,
    /// One line per violating case: the spec plus its violation kinds.
    pub failures: Vec<(String, Vec<String>)>,
}

/// Fold a batch (in input order) into a [`Summary`].
pub fn summarize<'a>(results: impl IntoIterator<Item = &'a CaseResult>) -> Summary {
    let mut s = Summary::default();
    for r in results {
        s.cases += 1;
        s.slices_emitted += r.slices as u64;
        s.threads_spawned += r.threads_spawned;
        match &r.outcome {
            CaseOutcome::Pass => s.passed += 1,
            CaseOutcome::BaselineCapped => s.baseline_capped += 1,
            CaseOutcome::Violations(vs) => {
                s.violations += 1;
                s.failures.push((r.spec.to_string(), kinds(vs)));
            }
        }
    }
    s
}

impl Summary {
    /// Render as deterministic JSON (stable field order, no timestamps,
    /// no float formatting) so batch output is byte-comparable.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"cases\": {},\n", self.cases));
        out.push_str(&format!("  \"passed\": {},\n", self.passed));
        out.push_str(&format!("  \"baseline_capped\": {},\n", self.baseline_capped));
        out.push_str(&format!("  \"violations\": {},\n", self.violations));
        out.push_str(&format!("  \"slices_emitted\": {},\n", self.slices_emitted));
        out.push_str(&format!("  \"threads_spawned\": {},\n", self.threads_spawned));
        out.push_str("  \"failures\": [");
        for (i, (spec, kinds)) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"spec\": \"");
            out.push_str(spec);
            out.push_str("\", \"kinds\": [");
            for (j, k) in kinds.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push('"');
                out.push_str(k);
                out.push('"');
            }
            out.push_str("]}");
        }
        if !self.failures.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn a_plain_chase_case_passes() {
        let spec = CaseSpec::parse("seed=1 chase=48 loads=2").unwrap();
        let r = run_case(&spec, &OracleConfig::default(), 1);
        assert_eq!(r.outcome, CaseOutcome::Pass, "{:?}", r.outcome);
    }

    #[test]
    fn decorated_cases_pass_too() {
        let spec =
            CaseSpec::parse("seed=3 chase=32 loads=3 diamond=1 call=1 stores=1 arith=3").unwrap();
        let r = run_case(&spec, &OracleConfig::default(), 1);
        assert_eq!(r.outcome, CaseOutcome::Pass, "{:?}", r.outcome);
    }

    /// The worker count changes only how a case's simulations are
    /// scheduled: every corpus verdict and those of 40 seeded random
    /// specs come out the same on one worker and two, and so does a
    /// `baseline-capped` one, which is never adapted.
    #[test]
    fn a_case_answers_the_same_on_one_worker_and_two() {
        let corpus = include_str!("../../../tests/corpus/adaptation_oracle.corpus");
        let mut rng = TestRng::from_seed(424242);
        let random = (0..40).map(|_| CaseSpec::random(&mut rng));
        let ocfg = OracleConfig::default();
        for spec in
            crate::corpus::parse(corpus).expect("the corpus parses").into_iter().chain(random)
        {
            assert_eq!(run_case(&spec, &ocfg, 2), run_case(&spec, &ocfg, 1), "{spec}");
        }
        let capped = OracleConfig { max_cycles: 500 };
        let spec = CaseSpec::parse("seed=1 chase=48 loads=2").unwrap();
        let serial = run_case(&spec, &capped, 1);
        assert_eq!(serial.outcome, CaseOutcome::BaselineCapped);
        assert_eq!(run_case(&spec, &capped, 2), serial);
    }

    #[test]
    fn summary_json_is_deterministic_and_counts_add_up() {
        let mut rng = TestRng::from_seed(4);
        let specs: Vec<CaseSpec> = (0..6)
            .map(|_| {
                let mut s = CaseSpec::random(&mut rng);
                s.chase = s.chase.min(24);
                s
            })
            .collect();
        let cfg = OracleConfig::default();
        let results: Vec<CaseResult> = specs.iter().map(|s| run_case(s, &cfg, 1)).collect();
        let a = summarize(&results);
        let b = summarize(&results);
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.cases, 6);
        assert_eq!(a.passed + a.baseline_capped + a.violations, a.cases);
    }

    /// A binary that corrupts a register and memory on both models: the
    /// equivalence checks run model by model, so the kinds repeat
    /// non-adjacently, and every kind list keeps each one once.
    #[test]
    fn violation_kinds_are_distinct_in_first_seen_order() {
        let v = |kind, model| Violation { kind, detail: format!("{model}: differs") };
        let result = CaseResult {
            spec: CaseSpec::parse("seed=9 chase=8 loads=1").unwrap(),
            outcome: CaseOutcome::Violations(vec![
                v("reg-mismatch", "in-order"),
                v("mem-mismatch", "in-order"),
                v("reg-mismatch", "out-of-order"),
                v("mem-mismatch", "out-of-order"),
            ]),
            slices: 1,
            threads_spawned: 2,
        };
        let want = vec!["reg-mismatch".to_owned(), "mem-mismatch".to_owned()];
        assert_eq!(result.violation_kinds(), want);
        assert_eq!(summarize([&result]).failures, vec![(result.spec.to_string(), want)]);
    }

    #[test]
    fn mentioned_regs_are_a_strict_subset() {
        let spec = CaseSpec::parse("seed=8 chase=8 loads=1").unwrap();
        let prog = gen::generate(&spec).unwrap();
        let m = mentioned_regs(&prog);
        let count = m.iter().filter(|&&x| x).count();
        assert!(count > 4, "loop state is mentioned");
        assert!(count < NUM_REGS / 2, "plenty of scratch room remains");
    }
}
