//! SSP-enabled binary adaptation: the code-generation half of the
//! post-pass tool (§3.4).
//!
//! [`adapt`] takes an original program, its profile, and a machine model,
//! and produces the SSP-enhanced binary: for every delinquent load it
//! selects a region and precomputation model ([`select`]), schedules the
//! p-slice (via [`ssp_sched`]), places a trigger (via [`ssp_trigger`]),
//! and rewrites the binary with stub and slice attachments ([`emit`]).
//! [`AdaptOptions`] holds the eight values a caller turns, and each
//! layer gets only the ones it reads.
//!
//! Each emitted slice is one [`EmittedSlice`] record (defined in
//! `ssp-lint`, re-exported here), from emission through trigger
//! insertion, the lint gate, [`AdaptReport::plan_digest`] and Table 2.
//! The gate's lint is the only lint of a binary: a dirty one is
//! [`AdaptError::Lint`].

#![warn(missing_docs)]

pub mod emit;
pub mod select;

pub use emit::SkipReason;
pub use select::{plan_for_load, plan_for_load_traced, SlicePlan};
pub use ssp_lint::EmittedSlice;

use ssp_ir::verify::VerifyError;
use ssp_ir::{InstTag, Program};
use ssp_lint::LintReport;
use ssp_sim::{MachineConfig, Profile};
use ssp_slicing::Slicer;
use ssp_trace::{Stopwatch, ToolTrace};
use ssp_trigger::TriggerPoint;
use std::fmt;

/// Why a whole adaptation failed.
///
/// Per-load problems (unusable slices, no scratch registers, too many
/// live-ins) never surface here — they degrade into
/// [`AdaptReport::skipped`] entries so one bad load cannot kill a batch
/// run. `AdaptError` is reserved for failures that invalidate the whole
/// output binary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AdaptError {
    /// The emitted binary failed re-verification. This is a bug in the
    /// tool (not in the input program); the diagnostic is preserved so
    /// fuzzing harnesses can report and minimize the offending case
    /// instead of aborting the process.
    EmitVerify(VerifyError),
    /// The emitted binary failed the static SSP linter (`ssp-lint`):
    /// trigger coverage, live-in completeness, slice hygiene, or
    /// stub well-formedness. Like [`AdaptError::EmitVerify`], this is a
    /// tool bug, and the full report is preserved for harnesses.
    Lint(LintReport),
}

impl fmt::Display for AdaptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdaptError::EmitVerify(e) => write!(f, "adapted binary failed verification: {e}"),
            AdaptError::Lint(r) => write!(f, "adapted binary failed the static linter: {r}"),
        }
    }
}

impl std::error::Error for AdaptError {}

/// The eight values a caller (the `ssp-tune` menus, an ablation) turns.
///
/// The rest of the paper's method is fixed: slicing always prunes
/// speculatively and follows control dependences (§3.1.2), the chaining
/// scheduler always rotates loops and considers condition prediction
/// (§3.2.1.1), and region selection uses [`select::CUTOFF_PCT`] and
/// [`select::SMALL_TRIP_COUNT`] (§3.4.1). A `predict_threshold` above 1
/// turns prediction off, because a branch's bias is at most 1.
#[derive(Clone, Debug)]
pub struct AdaptOptions {
    /// Fraction of total miss cycles the delinquent-load set must cover
    /// (the paper uses "at least 90% of the cache misses").
    pub coverage: f64,
    /// Speculative slicing treats definitions and branches in blocks
    /// the profile counts fewer than this many times as on unexecuted
    /// paths (0 prunes nothing).
    pub min_block_count: u64,
    /// Stop walking outward after this many nesting levels ("we also
    /// stop the traversal when it is nested several levels deep").
    pub max_region_depth: usize,
    /// Slices bigger than this are rejected ("to avoid a slice becoming
    /// too big that often leads to wrong address calculations").
    pub max_slice_size: usize,
    /// Minimum estimated first-iteration slack for a plan to be worth
    /// its trigger/flush overhead ("slices that contain large enough
    /// slack", §3). Marginal slices whose speculative thread would run
    /// neck-and-neck with the main thread are rejected.
    pub min_slack: i64,
    /// Force one model for ablation studies.
    pub force_model: Option<ssp_sched::SpModel>,
    /// Minimum bias (taken-ratio) for the chaining scheduler to predict
    /// a spawn condition.
    pub predict_threshold: f64,
    /// Chaining threads stop re-spawning after this many links (the
    /// chain budget passed through the live-in buffer).
    pub chain_budget: u64,
}

impl Default for AdaptOptions {
    fn default() -> Self {
        AdaptOptions {
            coverage: 0.9,
            min_block_count: 1,
            max_region_depth: 3,
            max_slice_size: 64,
            min_slack: 100,
            force_model: None,
            predict_threshold: 0.9,
            chain_budget: 512,
        }
    }
}

impl AdaptOptions {
    /// Versioned field-explicit canonical encoding of the options — the
    /// adaptation-side half of a cache key, alongside
    /// [`MachineConfig::fingerprint`] for the machine-side half.
    ///
    /// Two option sets that compare field-equal always fingerprint
    /// identically, and the encoding never goes through `Debug`
    /// formatting (whose output is not stable across field reorders or
    /// rustc versions — which disk-persistent cache layers could not
    /// tolerate). Floats are rendered with `Display`, whose
    /// shortest-round-trip output is pinned by the golden test below.
    ///
    /// The fixed behaviours still render, as `speculative=true`,
    /// `control_deps=true`, `loop_rotation=true` and
    /// `condition_prediction=true`, and the two selection constants
    /// render their values: persisted keys keep their bytes, and an
    /// edit to a constant changes the key by itself.
    ///
    /// The full-struct destructuring is deliberate: adding a knob
    /// breaks this function at compile time, forcing the encoding — and
    /// the `ssp-adapt-options` version, if the change is semantic — to be
    /// updated. This is what lets tuned and default plans coexist in the
    /// `ssp-bench`/`ssp-serve` caches: before this encoding existed,
    /// adapted results could only be keyed by workload+seed+machine, so
    /// non-default options could not participate in a stable key at all.
    pub fn fingerprint(&self) -> String {
        let AdaptOptions {
            coverage,
            min_block_count,
            max_region_depth,
            max_slice_size,
            min_slack,
            force_model,
            predict_threshold,
            chain_budget,
        } = self;
        let (cutoff_pct, small_trip_count) = (select::CUTOFF_PCT, select::SMALL_TRIP_COUNT);
        let force = match force_model {
            None => "none",
            Some(ssp_sched::SpModel::Basic) => "basic",
            Some(ssp_sched::SpModel::Chaining) => "chaining",
        };
        format!(
            "ssp-adapt-options/1 coverage={coverage} speculative=true \
             min_block_count={min_block_count} control_deps=true \
             cutoff_pct={cutoff_pct} max_region_depth={max_region_depth} \
             max_slice_size={max_slice_size} small_trip_count={small_trip_count} \
             min_slack={min_slack} force_model={force} loop_rotation=true \
             condition_prediction=true predict_threshold={predict_threshold} \
             chain_budget={chain_budget}"
        )
    }
}

/// What the adaptation did — the source of Table 2.
#[derive(Clone, Debug, Default)]
pub struct AdaptReport {
    /// Delinquent loads identified from the profile.
    pub delinquent: Vec<InstTag>,
    /// Emitted slices.
    pub slices: Vec<EmittedSlice>,
    /// Loads that could not be adapted, with reasons.
    pub skipped: Vec<(InstTag, SkipReason)>,
}

impl AdaptReport {
    /// Number of emitted slices.
    pub fn slice_count(&self) -> usize {
        self.slices.len()
    }

    /// Whether the adaptation was a no-op: no slice was emitted, so the
    /// output binary is byte-identical to the input. A no-op is not an
    /// error — a program with no delinquent loads needs no adaptation —
    /// but a no-op on a load-bound workload deserves a diagnostic, which
    /// is why every skipped delinquent load carries a [`SkipReason`]
    /// and the suite harnesses surface this flag per row.
    pub fn is_noop(&self) -> bool {
        self.slices.is_empty()
    }

    /// Structural digest of the emitted plan: a 64-bit FNV-1a hash (hex)
    /// over a field-explicit canonical encoding of every emitted slice,
    /// plus the delinquent and skipped sets. Two adaptations that placed
    /// the same slices, triggers, and live-ins digest identically; the
    /// encoding never goes through `Debug` formatting, so the digest is
    /// stable across rustc versions — it is persisted in the `ssp-serve`
    /// on-disk store as the identity of a cached adaptation.
    pub fn plan_digest(&self) -> String {
        let mut text = String::from("ssp-plan/1");
        for tag in &self.delinquent {
            text.push_str(&format!(" d{}", tag.0));
        }
        for s in &self.slices {
            // Full destructuring: adding a field to `EmittedSlice`
            // breaks this at compile time, forcing the encoding to
            // cover it (and the `ssp-plan` version to be bumped if the
            // change is semantic).
            let EmittedSlice {
                root_tags,
                trigger,
                stub,
                slice_entry,
                model,
                live_ins,
                slice_len,
                interprocedural,
            } = s;
            let roots: Vec<String> = root_tags.iter().map(|t| t.0.to_string()).collect();
            let lives: Vec<String> = live_ins.iter().map(|r| r.0.to_string()).collect();
            let model = match model {
                ssp_sched::SpModel::Chaining => "chaining",
                ssp_sched::SpModel::Basic => "basic",
            };
            let after = trigger.after.map_or_else(|| "-".to_string(), |i| i.to_string());
            text.push_str(&format!(
                " slice roots={} trigger={}:{}:{after} stub={} entry={} model={model} \
                 live_ins={} len={slice_len} interproc={interprocedural}",
                roots.join(","),
                trigger.func.0,
                trigger.block.0,
                stub.0,
                slice_entry.0,
                lives.join(","),
            ));
        }
        for (tag, reason) in &self.skipped {
            let reason = match reason {
                SkipReason::NoScratchRegisters => "no-scratch".to_string(),
                SkipReason::TooManyLiveIns(n) => format!("live-ins-{n}"),
                SkipReason::EmptySlice => "empty".to_string(),
                SkipReason::SliceFailed(_) => "slice-failed".to_string(),
                SkipReason::UnknownTag => "unknown-tag".to_string(),
            };
            text.push_str(&format!(" skip{}={reason}", tag.0));
        }
        format!("{:016x}", ssp_ir::fnv64(&text))
    }

    /// Number of interprocedural slices.
    pub fn interprocedural_count(&self) -> usize {
        self.slices.iter().filter(|s| s.interprocedural).count()
    }

    /// Average slice size in instructions.
    pub fn average_size(&self) -> f64 {
        if self.slices.is_empty() {
            return 0.0;
        }
        self.slices.iter().map(|s| s.slice_len as f64).sum::<f64>() / self.slices.len() as f64
    }

    /// Average number of live-in values.
    pub fn average_live_ins(&self) -> f64 {
        if self.slices.is_empty() {
            return 0.0;
        }
        self.slices.iter().map(|s| s.live_ins.len() as f64).sum::<f64>() / self.slices.len() as f64
    }
}

/// Adapt `prog` for software-based speculative precomputation.
///
/// Returns the enhanced binary and a report. The input program is not
/// modified; the result is re-verified (structure + no stores in slices),
/// and a verification failure is returned as [`AdaptError::EmitVerify`]
/// rather than aborting the process. Per-load failures never abort the
/// adaptation: they become [`AdaptReport::skipped`] entries.
pub fn adapt(
    prog: &Program,
    profile: &Profile,
    mc: &MachineConfig,
    opts: &AdaptOptions,
) -> Result<(Program, AdaptReport), AdaptError> {
    adapt_traced(prog, profile, mc, opts, None)
}

/// [`adapt`] with optional tracing: when `trace` is set, the `slicing`,
/// `sched`, `trigger`, and `codegen` phase spans accrue wall time and
/// counters (slice sizes, SCC counts, triggers placed, live-ins per
/// trigger, instructions added). With `trace == None` the behaviour and
/// cost are exactly those of [`adapt`], including its error surface.
pub fn adapt_traced(
    prog: &Program,
    profile: &Profile,
    mc: &MachineConfig,
    opts: &AdaptOptions,
    mut trace: Option<&mut ToolTrace>,
) -> Result<(Program, AdaptReport), AdaptError> {
    let mut report = AdaptReport {
        delinquent: profile.delinquent_loads(opts.coverage),
        ..AdaptReport::default()
    };
    if let Some(t) = trace.as_deref_mut() {
        t.add("profile", "delinquent_loads", report.delinquent.len() as u64);
    }
    let index = prog.tag_index();

    let mut slicer = Slicer::new(prog, profile, opts.min_block_count);
    let mut plans = Vec::new();
    for &tag in &report.delinquent {
        let Some(&root) = index.get(&tag) else {
            report.skipped.push((tag, SkipReason::UnknownTag));
            continue;
        };
        let plan = select::plan_for_load_traced(
            &mut slicer,
            prog,
            profile,
            mc,
            root,
            opts,
            trace.as_deref_mut(),
        );
        match plan {
            Ok(Some(plan)) => plans.push(plan),
            Ok(None) => report.skipped.push((tag, SkipReason::EmptySlice)),
            Err(e) => report.skipped.push((tag, SkipReason::SliceFailed(e))),
        }
    }

    // Combine slices sharing dependence-graph nodes in the same region
    // (§3.4.1), union-merging the instruction sets and rescheduling.
    let mut groups: Vec<(SlicePlan, bool)> = Vec::new();
    'next: for plan in plans {
        for (g, dirty) in &mut groups {
            if g.func == plan.func
                && g.blocks == plan.blocks
                && g.slice.insts.iter().any(|i| plan.slice.insts.contains(i))
            {
                g.extra_roots.push(plan.root);
                g.extra_roots.extend(plan.extra_roots.iter().copied());
                g.slice.insts.extend(plan.slice.insts.iter().copied());
                g.slice.callee_insts.extend(plan.slice.callee_insts.iter().copied());
                g.slice.live_ins.extend(plan.slice.live_ins.iter().copied());
                g.slice.speculative_values |= plan.slice.speculative_values;
                g.reduced = g.reduced.max(plan.reduced);
                *dirty = true;
                continue 'next;
            }
        }
        groups.push((plan, false));
    }
    let merged: Vec<SlicePlan> = groups
        .into_iter()
        .map(|(plan, dirty)| {
            if dirty {
                let slice = plan.slice.clone();
                select::reschedule(&mut slicer, prog, profile, mc, &plan, slice, opts)
            } else {
                plan
            }
        })
        .collect();

    // Trigger placement on the *original* program: chaining triggers
    // re-fire per iteration; basic triggers fire once per region entry.
    let mut placed: Vec<(SlicePlan, TriggerPoint)> = Vec::new();
    for plan in merged {
        let style = match plan.model {
            ssp_sched::SpModel::Chaining => ssp_trigger::TriggerStyle::PerIteration,
            ssp_sched::SpModel::Basic => ssp_trigger::TriggerStyle::PerRegionEntry,
        };
        let sw = trace.is_some().then(Stopwatch::start);
        let fa = slicer.analyses.get(prog, plan.func);
        let tp = ssp_trigger::place_trigger(prog, fa, profile, &plan.slice, style);
        if let Some(t) = trace.as_deref_mut() {
            t.add_wall("trigger", sw.map_or(0, |s| s.elapsed_nanos()));
            t.add("trigger", "triggers_placed", 1);
            t.add("trigger", "trigger_live_ins", plan.slice.live_in_count() as u64);
        }
        placed.push((plan, tp));
    }

    // Phase 1: append slice + stub blocks. Phase 2: insert triggers.
    let sw = trace.is_some().then(Stopwatch::start);
    let mut out = prog.clone();
    for (plan, tp) in placed {
        match emit::emit_slice(&mut out, &plan, tp, opts.chain_budget) {
            Ok(slice) => report.slices.push(slice),
            Err(reason) => report.skipped.push((prog.inst(plan.root).tag, reason)),
        }
    }
    emit::insert_triggers(&mut out, &report.slices);

    emit::verify_emitted(&out).map_err(AdaptError::EmitVerify)?;
    let lint_report = ssp_lint::lint(prog, &out, profile, &report.slices);
    if !lint_report.is_clean() {
        return Err(AdaptError::Lint(lint_report));
    }
    if let Some(t) = trace {
        t.add_wall("codegen", sw.map_or(0, |s| s.elapsed_nanos()));
        t.add("codegen", "slices_emitted", report.slices.len() as u64);
        t.add("codegen", "slices_skipped", report.skipped.len() as u64);
        t.add("codegen", "insts_added", (out.inst_count() - prog.inst_count()) as u64);
    }
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_ir::{CmpKind, Operand, ProgramBuilder, Reg};
    use ssp_sim::{simulate, MemoryMode};

    /// The pointer-chase program used throughout: arcs -> scattered nodes.
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
        let (arc, k, t, u, v, sum, p) =
            (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70));
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

    #[test]
    fn adapt_produces_verified_binary_with_slices() {
        let prog = pointer_chase(400);
        let mc = MachineConfig::in_order();
        let profile = ssp_sim::profile(&prog, &mc);
        let (adapted, report) = adapt(&prog, &profile, &mc, &AdaptOptions::default()).unwrap();
        assert!(!report.delinquent.is_empty());
        assert!(report.slice_count() >= 1, "skipped: {:?}", report.skipped);
        assert!(adapted.inst_count() > prog.inst_count());
        // Original instructions keep their tags.
        let orig_tags: std::collections::HashSet<_> = prog.tag_index().keys().copied().collect();
        let new_tags: std::collections::HashSet<_> = adapted.tag_index().keys().copied().collect();
        assert!(orig_tags.is_subset(&new_tags));
    }

    #[test]
    fn adapted_binary_speeds_up_in_order_machine() {
        let prog = pointer_chase(400);
        let mc = MachineConfig::in_order();
        let profile = ssp_sim::profile(&prog, &mc);
        let (adapted, report) = adapt(&prog, &profile, &mc, &AdaptOptions::default()).unwrap();
        assert!(report.slice_count() >= 1);
        let base = simulate(&prog, &mc);
        let ssp = simulate(&adapted, &mc);
        assert!(ssp.halted);
        assert!(ssp.threads_spawned > 0, "speculative threads must run");
        assert!(
            ssp.cycles * 10 < base.cycles * 9,
            "automatic SSP must save at least 10%: base={} ssp={}",
            base.cycles,
            ssp.cycles
        );
    }

    #[test]
    fn adapted_binary_preserves_semantics() {
        // The main thread must execute the same loop: per-tag main-thread
        // load counts must match under perfect memory.
        let prog = pointer_chase(300);
        let mc = MachineConfig::in_order();
        let profile = ssp_sim::profile(&prog, &mc);
        let (adapted, _) = adapt(&prog, &profile, &mc, &AdaptOptions::default()).unwrap();
        let base = simulate(&prog, &mc.clone().with_memory_mode(MemoryMode::PerfectAll));
        let ssp = simulate(&adapted, &mc.clone().with_memory_mode(MemoryMode::PerfectAll));
        for (tag, stats) in &base.loads {
            let ssp_stats = ssp.loads.get(tag).map(|s| s.accesses).unwrap_or(0);
            assert_eq!(stats.accesses, ssp_stats, "load {tag} executes equally often");
        }
        assert!(ssp.halted && base.halted);
    }

    #[test]
    fn plan_digest_identifies_the_plan() {
        let prog = pointer_chase(200);
        let mc = MachineConfig::in_order();
        let profile = ssp_sim::profile(&prog, &mc);
        let (_, a) = adapt(&prog, &profile, &mc, &AdaptOptions::default()).unwrap();
        let (_, b) = adapt(&prog, &profile, &mc, &AdaptOptions::default()).unwrap();
        assert_eq!(a.plan_digest(), b.plan_digest(), "adaptation is deterministic");
        assert!(!a.is_noop());
        let empty = AdaptReport::default();
        assert!(empty.is_noop());
        assert_ne!(a.plan_digest(), empty.plan_digest());
    }

    #[test]
    fn adapt_options_fingerprint_is_golden_pinned() {
        // The exact default encoding is pinned: a drift here means every
        // persisted tuned/default entry silently re-keys, so any change
        // must be deliberate (and bump the ssp-adapt-options version if
        // the meaning of a knob changed).
        assert_eq!(
            AdaptOptions::default().fingerprint(),
            "ssp-adapt-options/1 coverage=0.9 speculative=true min_block_count=1 \
             control_deps=true cutoff_pct=0.1 max_region_depth=3 max_slice_size=64 \
             small_trip_count=6 min_slack=100 force_model=none loop_rotation=true \
             condition_prediction=true predict_threshold=0.9 chain_budget=512"
        );
    }

    #[test]
    fn adapt_options_fingerprint_separates_tuned_from_default() {
        let base = AdaptOptions::default();
        let mut tuned = base.clone();
        tuned.chain_budget = 3;
        assert_ne!(base.fingerprint(), tuned.fingerprint());
        let mut forced = base.clone();
        forced.force_model = Some(ssp_sched::SpModel::Basic);
        assert_ne!(base.fingerprint(), forced.fingerprint());
        assert_ne!(tuned.fingerprint(), forced.fingerprint());
        assert_eq!(base.fingerprint(), AdaptOptions::default().fingerprint());
    }

    #[test]
    fn report_metrics_are_consistent() {
        let prog = pointer_chase(200);
        let mc = MachineConfig::in_order();
        let profile = ssp_sim::profile(&prog, &mc);
        let (_, report) = adapt(&prog, &profile, &mc, &AdaptOptions::default()).unwrap();
        assert_eq!(report.slice_count(), report.slices.len());
        assert!(report.average_size() > 0.0);
        assert!(report.average_live_ins() >= 1.0, "arc and K are live-ins");
        assert!(report.interprocedural_count() <= report.slice_count());
    }
}
