//! # Post-pass binary adaptation for software-based speculative precomputation
//!
//! A reproduction of Liao, Wang, Wang, Hoflehner, Lavery & Shen,
//! *"Post-Pass Binary Adaptation for Software-Based Speculative
//! Precomputation"* (PLDI 2002).
//!
//! The entry point is [`PostPassTool`]: given a program (standing in for
//! an Itanium binary — see [`ssp_ir`]) it
//!
//! 1. profiles the program on the modeled memory hierarchy
//!    ([`ssp_sim::profile()`]) to find the *delinquent loads* that cause at
//!    least 90% of cache-miss cycles,
//! 2. extracts *p-slices* for their addresses with context-sensitive,
//!    region-based, speculative slicing ([`ssp_slicing`]),
//! 3. schedules each slice for basic or chaining speculative
//!    precomputation ([`ssp_sched`]),
//! 4. places `chk.c` triggers ([`ssp_trigger`]), and
//! 5. emits the SSP-enhanced binary with stub and slice attachments
//!    ([`ssp_codegen`]).
//!
//! The result runs on the bundled SMT research-Itanium simulator
//! ([`ssp_sim`]) where speculative threads prefetch on otherwise idle
//! hardware contexts.
//!
//! # Quickstart
//!
//! ```
//! use ssp_core::{PostPassTool, MachineConfig};
//! use ssp_ir::{ProgramBuilder, Reg, CmpKind, Operand};
//!
//! // A pointer-chasing loop over scattered nodes (the data image plays
//! // the role of a binary's initialized .data section).
//! let mut pb = ProgramBuilder::new();
//! for i in 0..200u64 {
//!     let perm = (i * 7919) % 200;
//!     pb.data_word(0x0100_0000 + 64 * i, 0x0800_0000 + 64 * perm);
//! }
//! let mut f = pb.function("main");
//! let (e, body, exit) = (f.entry_block(), f.new_block(), f.new_block());
//! let (p_, k, u, v, c) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68));
//! f.at(e).movi(p_, 0x0100_0000).movi(k, 0x0100_0000 + 64 * 200).br(body);
//! f.at(body)
//!     .ld(u, p_, 0)
//!     .ld(v, u, 0)
//!     .add(p_, p_, 64)
//!     .cmp(CmpKind::Lt, c, p_, Operand::Reg(k))
//!     .br_cond(c, body, exit);
//! f.at(exit).halt();
//! let main = f.finish();
//! let prog = pb.finish_with(main);
//!
//! let tool = PostPassTool::new(MachineConfig::in_order());
//! let adapted = tool.run(&prog).expect("adaptation succeeds");
//! assert!(adapted.report.slice_count() >= 1);
//!
//! // The SSP-enhanced binary is faster on the in-order machine.
//! let base = ssp_sim::simulate(&prog, &MachineConfig::in_order());
//! let ssp = ssp_sim::simulate(&adapted.program, &MachineConfig::in_order());
//! assert!(ssp.cycles < base.cycles);
//! ```
//!
//! # Observability
//!
//! [`PostPassTool::run_traced`] additionally returns a
//! [`ToolTrace`] with per-phase wall times and counters, and
//! [`prefetch_targets`] plus [`ssp_sim::simulate_traced`] classify every
//! speculative prefetch by timeliness. See `ARCHITECTURE.md` at the
//! repository root for how the trace layer hooks each pipeline stage.

#![warn(missing_docs)]

pub mod parallel;

pub use ssp_codegen::{AdaptError, AdaptOptions, AdaptReport, SkipReason};
pub use ssp_ir::{Program, ProgramBuilder};
pub use ssp_lint::{Diagnostic, LintReport};
pub use ssp_sched::SpModel;
pub use ssp_sim::{
    profile, simulate, simulate_stepped, simulate_traced, speedup, CycleBreakdown, LoadStats,
    MachineConfig, MemoryMode, PipelineKind, Profile, SimResult, SimTrace, Timeliness,
    TimelinessCounts,
};
pub use ssp_trace::{PhaseSpan, Stopwatch, ToolTrace, TOOL_PHASES};

/// The output of the post-pass tool.
#[derive(Clone, Debug)]
pub struct AdaptedBinary {
    /// The SSP-enhanced program.
    pub program: Program,
    /// What the tool did.
    pub report: AdaptReport,
    /// The profile it worked from.
    pub profile: Profile,
}

/// The post-pass compilation tool (Figure 1): profile feedback in,
/// SSP-enhanced binary out.
#[derive(Clone, Debug)]
pub struct PostPassTool {
    machine: MachineConfig,
    options: AdaptOptions,
}

impl PostPassTool {
    /// A tool targeting the given machine model with default options.
    pub fn new(machine: MachineConfig) -> Self {
        PostPassTool { machine, options: AdaptOptions::default() }
    }

    /// Override the adaptation options.
    pub fn with_options(mut self, options: AdaptOptions) -> Self {
        self.options = options;
        self
    }

    /// The machine model the tool targets.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The adaptation options in use.
    pub fn options(&self) -> &AdaptOptions {
        &self.options
    }

    /// Profile `prog` and adapt it (the full two-pass flow of Figure 1).
    ///
    /// The whole pipeline is panic-free: per-load failures degrade into
    /// [`AdaptReport::skipped`] entries, and an output that fails
    /// re-verification is reported as [`AdaptError`].
    pub fn run(&self, prog: &Program) -> Result<AdaptedBinary, AdaptError> {
        let profile = ssp_sim::profile(prog, &self.machine);
        self.run_with_profile(prog, profile)
    }

    /// Adapt `prog` using an existing profile (e.g. shared across
    /// machine models, as the paper does between in-order and OOO runs).
    pub fn run_with_profile(
        &self,
        prog: &Program,
        profile: Profile,
    ) -> Result<AdaptedBinary, AdaptError> {
        let (program, report) = ssp_codegen::adapt(prog, &profile, &self.machine, &self.options)?;
        Ok(AdaptedBinary { program, report, profile })
    }

    /// [`PostPassTool::run`] with tool-phase tracing: the returned
    /// [`ToolTrace`] holds one span per phase (`profile`, `slicing`,
    /// `sched`, `trigger`, `codegen`) with accumulated wall time and
    /// counters.
    pub fn run_traced(&self, prog: &Program) -> Result<(AdaptedBinary, ToolTrace), AdaptError> {
        let mut trace = ToolTrace::standard();
        let sw = Stopwatch::start();
        let profile = ssp_sim::profile(prog, &self.machine);
        trace.add_wall("profile", sw.elapsed_nanos());
        trace.add("profile", "profiled_loads", profile.loads.len() as u64);
        let adapted = self.run_with_profile_traced(prog, profile, &mut trace)?;
        Ok((adapted, trace))
    }

    /// [`PostPassTool::run_with_profile`] with tool-phase tracing
    /// accumulated into an existing [`ToolTrace`] (so callers timing the
    /// profile phase themselves, like [`PostPassTool::run_traced`], can
    /// pass theirs in).
    pub fn run_with_profile_traced(
        &self,
        prog: &Program,
        profile: Profile,
        trace: &mut ToolTrace,
    ) -> Result<AdaptedBinary, AdaptError> {
        let (program, report) =
            ssp_codegen::adapt_traced(prog, &profile, &self.machine, &self.options, Some(trace))?;
        Ok(AdaptedBinary { program, report, profile })
    }
}

/// Re-run the static SSP linter over an already-adapted binary.
///
/// [`PostPassTool::run`] already gates its output on a clean lint (a
/// diagnostic surfaces as [`AdaptError::Lint`]), so on an `Ok` result
/// this always returns a clean report, and no program in the workspace
/// calls it. `perfbench/tracer` times the lint layer of a request with
/// it, re-running the lint on the same inputs (`perfbench/README.md`),
/// and the `pipeline_properties` tests check that it agrees with the
/// gate.
pub fn lint_binary(original: &Program, adapted: &AdaptedBinary) -> LintReport {
    ssp_lint::lint(original, &adapted.program, &adapted.profile, &adapted.report.slices)
}

/// Map every prefetching instruction of the adapted binary — the loads
/// and `lfetch`es inside each emitted slice (including its stub) — to
/// the first delinquent load its slice targets.
///
/// The result feeds [`simulate_traced`], which uses it to attribute
/// never-consumed ("useless") prefetches to the right static load in
/// the per-load timeliness histograms.
pub fn prefetch_targets(adapted: &AdaptedBinary) -> Vec<(ssp_ir::InstTag, ssp_ir::InstTag)> {
    let mut out = Vec::new();
    for s in &adapted.report.slices {
        let Some(&root) = s.root_tags.first() else { continue };
        let f = adapted.program.func(s.trigger.func);
        // Emitted blocks are contiguous: slice entry first, stub last.
        for b in s.slice_entry.0..=s.stub.0 {
            for inst in &f.block(ssp_ir::BlockId(b)).insts {
                if matches!(inst.op, ssp_ir::Op::Ld { .. } | ssp_ir::Op::Lfetch { .. }) {
                    out.push((inst.tag, root));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_ir::{CmpKind, Operand, Reg};

    fn chase(n: u64) -> Program {
        let mut pb = ProgramBuilder::new();
        for i in 0..n {
            let perm = (i * 7919) % n;
            pb.data_word(0x0100_0000 + 64 * i, 0x0800_0000 + 64 * perm);
            pb.data_word(0x0800_0000 + 64 * perm, perm);
        }
        let mut f = pb.function("main");
        let (e, body, exit) = (f.entry_block(), f.new_block(), f.new_block());
        let (p_, k, u, v, c) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68));
        f.at(e).movi(p_, 0x0100_0000).movi(k, 0x0100_0000 + (64 * n) as i64).br(body);
        f.at(body)
            .ld(u, p_, 0)
            .ld(v, u, 0)
            .add(p_, p_, 64)
            .cmp(CmpKind::Lt, c, p_, Operand::Reg(k))
            .br_cond(c, body, exit);
        f.at(exit).halt();
        let main = f.finish();
        pb.finish_with(main)
    }

    #[test]
    fn end_to_end_tool_flow() {
        let prog = chase(300);
        let tool = PostPassTool::new(MachineConfig::in_order());
        let adapted = tool.run(&prog).unwrap();
        assert!(adapted.report.slice_count() >= 1);
        assert!(adapted.report.average_size() > 0.0);
        let base = simulate(&prog, tool.machine());
        let ssp = simulate(&adapted.program, tool.machine());
        assert!(ssp.cycles < base.cycles, "base={} ssp={}", base.cycles, ssp.cycles);
    }

    #[test]
    fn profile_reuse_between_models() {
        let prog = chase(200);
        let io = PostPassTool::new(MachineConfig::in_order());
        let adapted_io = io.run(&prog).unwrap();
        // Same profile, different machine — the paper evaluates the same
        // binaries on both models.
        let ooo = PostPassTool::new(MachineConfig::out_of_order());
        let adapted_ooo = ooo.run_with_profile(&prog, adapted_io.profile.clone()).unwrap();
        assert_eq!(
            adapted_io.report.slice_count(),
            adapted_ooo.report.slice_count(),
            "identical profile gives identical slices"
        );
    }

    #[test]
    fn traced_run_reports_phases_and_timeliness() {
        let prog = chase(300);
        let tool = PostPassTool::new(MachineConfig::in_order());
        let (adapted, trace) = tool.run_traced(&prog).unwrap();
        assert!(adapted.report.slice_count() >= 1);
        // Every standard phase is present, in order, and the ones the
        // pipeline exercised carry counters.
        let names: Vec<&str> = trace.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, TOOL_PHASES.to_vec());
        assert!(trace.phase("profile").unwrap().counter("delinquent_loads") >= 1);
        assert!(trace.phase("slicing").unwrap().counter("slice_insts") >= 1);
        assert!(trace.phase("sched").unwrap().counter("schedules") >= 2);
        assert_eq!(
            trace.phase("trigger").unwrap().counter("triggers_placed"),
            adapted.report.slice_count() as u64
        );
        assert!(trace.phase("codegen").unwrap().counter("insts_added") >= 1);

        // Traced simulation classifies every accepted prefetch, and the
        // adapted pointer chase prefetches usefully.
        let targets = prefetch_targets(&adapted);
        assert!(!targets.is_empty(), "slices contain prefetching instructions");
        let (result, sim) = simulate_traced(&adapted.program, tool.machine(), &targets);
        assert!(result.halted);
        assert!(sim.slices_spawned > 0);
        assert!(sim.prefetches_issued > 0);
        assert_eq!(sim.totals().total(), sim.prefetches_issued, "every prefetch classified");
        let t = sim.totals();
        assert!(t.timely + t.late > 0, "some prefetches reach their consumer: {t:?}");

        // Tracing never changes timing.
        let plain = simulate(&adapted.program, tool.machine());
        assert_eq!(plain, result);
    }

    #[test]
    fn options_are_respected() {
        let prog = chase(200);
        let opts = AdaptOptions { force_model: Some(SpModel::Basic), ..AdaptOptions::default() };
        let tool = PostPassTool::new(MachineConfig::in_order()).with_options(opts);
        let adapted = tool.run(&prog).unwrap();
        assert!(adapted.report.slices.iter().all(|s| s.model == SpModel::Basic));
    }
}
