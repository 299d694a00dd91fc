//! Static verification of SSP-adapted binaries.
//!
//! The adaptation's correctness argument (paper §3.3–§3.4) rests on
//! structural invariants of the rewritten binary. The fuzz oracle checks
//! them *dynamically* — run the binary, watch for violations — which
//! only covers programs the generator reaches. [`lint`] proves (or
//! reports typed [`Diagnostic`]s against) the same invariants
//! *statically*, without simulation:
//!
//! * **Trigger-path coverage** — on the profile-hot sub-CFG, every
//!   acyclic path from the function entry to each delinquent load
//!   crosses its slice's trigger `chk.c` exactly once, established with
//!   dominator-ordered path counting ([`ssp_ir::paths`]).
//! * **Live-in completeness** — backward dataflow over the slice body
//!   ([`ssp_ir::dataflow::upward_exposed_uses`]) proves every
//!   upward-exposed register is written by the live-in copy prefix, the
//!   copy prefix matches the plan's live-in layout, every spawn site
//!   stores exactly the words the slice reads, and no copy is dead.
//! * **Slice hygiene** — slices are store-free, every slice exit is a
//!   `KillThread` (a speculative thread may never `Ret` or `Halt`), a
//!   basic slice spawns nothing, and a chaining slice's single re-spawn
//!   is gated on a strictly decremented chain budget, which bounds
//!   runahead by the spawn counter.
//! * **Stub/slice well-formedness** — attachment layout, stub shape
//!   (alloc → copies → spawn → resume), trigger fallthrough consistency,
//!   fresh tags on every synthesized instruction, and no stub write to a
//!   register the main thread still reads at the resume point.
//!
//! [`lint`] reads the adapted binary and the [`EmittedSlice`] records the
//! code generator returns for it. The pipeline runs it once per binary,
//! as a post-emit gate (see `ssp_codegen::adapt`): the `lint` binary in
//! `ssp-bench` reports that gate's verdict over the workload suite as
//! deterministic JSON, and the fuzz oracle reports a dynamic violation
//! of an invariant the gate proved as a linter blind spot. [`mutate`]
//! seeds known defects into adapted programs so tests can prove each
//! check actually kills its mutant class.

#![warn(missing_docs)]

pub mod mutate;

use ssp_ir::cfg::Cfg;
use ssp_ir::dataflow::upward_exposed_uses;
use ssp_ir::dom::DomTree;
use ssp_ir::loops::LoopForest;
use ssp_ir::paths::{PathClasses, PathCounts};
use ssp_ir::reg::conv;
use ssp_ir::{AluKind, BlockId, CmpKind, FuncId, InstTag, Op, Operand, Program, Reg};
use ssp_sched::SpModel;
use ssp_sim::Profile;
use ssp_trigger::TriggerPoint;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// What the tool emitted for one p-slice (§3.3–§3.4, Figure 7): the
/// slice blocks, the stub that copies live-ins and spawns, and the
/// `chk.c` trigger. The code generator returns one per slice, Table 2
/// counts them, and [`lint`] verifies the adapted binary against them.
#[derive(Clone, Debug)]
pub struct EmittedSlice {
    /// Tags of the delinquent loads this slice covers.
    pub root_tags: Vec<InstTag>,
    /// Where the trigger was placed (original-program coordinates; the
    /// block id is stable across the trigger split).
    pub trigger: TriggerPoint,
    /// Stub block id in the adapted program.
    pub stub: BlockId,
    /// Slice entry block id in the adapted program.
    pub slice_entry: BlockId,
    /// Precomputation model.
    pub model: SpModel,
    /// Live-in registers in buffer-slot order.
    pub live_ins: Vec<Reg>,
    /// Instructions in the emitted slice body (excluding live-in copies
    /// and spawn machinery).
    pub slice_len: usize,
    /// Whether callee instructions were inlined.
    pub interprocedural: bool,
}

/// One statically detected invariant violation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DiagKind {
    /// No `chk.c` names the plan's stub block.
    TriggerNotFound,
    /// More than one `chk.c` names the same stub block.
    MultiTrigger {
        /// How many triggers target the stub.
        count: usize,
    },
    /// The trigger site does not match Figure 7's layout (`chk.c`
    /// followed by the fallthrough branch the stub resumes at).
    TriggerMalformed {
        /// What is wrong.
        reason: String,
    },
    /// A profile-hot acyclic path reaches a delinquent load without
    /// crossing the slice's trigger.
    TriggerMissPath {
        /// The uncovered delinquent load.
        root: InstTag,
        /// Number of trigger-free hot paths (saturating).
        paths: u64,
    },
    /// A profile-hot acyclic path crosses the slice's trigger more than
    /// once before reaching the load.
    TriggerDupPath {
        /// The over-covered delinquent load.
        root: InstTag,
        /// Number of multiply-covered hot paths (saturating).
        paths: u64,
    },
    /// A block in the emitted stub/slice range is not marked as an
    /// attachment block.
    NotAttachment {
        /// The offending block.
        block: BlockId,
    },
    /// A synthesized instruction carries an original-program tag (or an
    /// attachment block contains a stale instruction).
    StaleTag {
        /// The stale tag.
        tag: InstTag,
        /// The block holding it.
        block: BlockId,
    },
    /// The stub block does not match the emitted shape
    /// (alloc → live-in copies → spawn → resume branch).
    StubMalformed {
        /// What is wrong.
        reason: String,
    },
    /// The stub writes a register the main thread still reads at the
    /// trigger's resume point.
    StubClobbersLive {
        /// The clobbered register.
        reg: Reg,
    },
    /// The slice entry's live-in copy prefix disagrees with the plan's
    /// live-in layout.
    LiveInLayout {
        /// What is wrong.
        reason: String,
    },
    /// The slice body reads a register no live-in copy (or in-slice
    /// definition) writes — the child context starts zeroed, so the
    /// slice would compute addresses from garbage.
    UpwardExposed {
        /// The exposed register.
        reg: Reg,
    },
    /// A spawn site does not store a live-in word the slice reads.
    CopyMissing {
        /// The missing buffer index.
        idx: u8,
        /// The spawn site's block.
        spawn_block: BlockId,
    },
    /// A spawn site stores a live-in word the slice never reads.
    DeadCopy {
        /// The dead buffer index.
        idx: u8,
        /// The spawn site's block.
        spawn_block: BlockId,
    },
    /// A store instruction inside the speculative slice.
    StoreInSlice {
        /// Block containing the store.
        block: BlockId,
        /// Instruction index within the block.
        idx: usize,
    },
    /// A slice exit terminator other than `KillThread`.
    SliceExitNotKill {
        /// The offending block.
        block: BlockId,
    },
    /// No path through the slice reaches a `KillThread`.
    SliceNeverKills,
    /// A basic-model slice contains an in-slice spawn.
    SpawnInBasicSlice {
        /// Block containing the spawn.
        block: BlockId,
    },
    /// A chaining slice's spawn structure is broken (wrong spawn count,
    /// wrong target, or no buffer allocation at a spawn site).
    ChainMalformed {
        /// What is wrong.
        reason: String,
    },
    /// A chaining slice's re-spawn is not provably bounded by a strictly
    /// decremented chain budget.
    ChainUnbounded {
        /// What is wrong.
        reason: String,
    },
}

impl DiagKind {
    /// Stable machine-readable code for this diagnostic.
    pub fn code(&self) -> &'static str {
        match self {
            DiagKind::TriggerNotFound => "trigger-not-found",
            DiagKind::MultiTrigger { .. } => "multi-trigger",
            DiagKind::TriggerMalformed { .. } => "trigger-malformed",
            DiagKind::TriggerMissPath { .. } => "trigger-miss-path",
            DiagKind::TriggerDupPath { .. } => "trigger-dup-path",
            DiagKind::NotAttachment { .. } => "not-attachment",
            DiagKind::StaleTag { .. } => "stale-tag",
            DiagKind::StubMalformed { .. } => "stub-malformed",
            DiagKind::StubClobbersLive { .. } => "stub-clobbers-live",
            DiagKind::LiveInLayout { .. } => "live-in-layout",
            DiagKind::UpwardExposed { .. } => "upward-exposed",
            DiagKind::CopyMissing { .. } => "live-in-copy-missing",
            DiagKind::DeadCopy { .. } => "dead-live-in-copy",
            DiagKind::StoreInSlice { .. } => "store-in-slice",
            DiagKind::SliceExitNotKill { .. } => "slice-exit-not-kill",
            DiagKind::SliceNeverKills => "slice-never-kills",
            DiagKind::SpawnInBasicSlice { .. } => "spawn-in-basic-slice",
            DiagKind::ChainMalformed { .. } => "chain-malformed",
            DiagKind::ChainUnbounded { .. } => "chain-unbounded",
        }
    }
}

impl fmt::Display for DiagKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagKind::TriggerNotFound => write!(f, "no chk.c targets the stub"),
            DiagKind::MultiTrigger { count } => {
                write!(f, "{count} chk.c instructions target the stub")
            }
            DiagKind::TriggerMalformed { reason } => write!(f, "trigger site malformed: {reason}"),
            DiagKind::TriggerMissPath { root, paths } => {
                write!(f, "{paths} hot path(s) reach load {root} without firing the trigger")
            }
            DiagKind::TriggerDupPath { root, paths } => {
                write!(f, "{paths} hot path(s) fire the trigger more than once before load {root}")
            }
            DiagKind::NotAttachment { block } => {
                write!(f, "emitted block {block} is not marked as an attachment")
            }
            DiagKind::StaleTag { tag, block } => {
                write!(f, "instruction in attachment block {block} reuses original tag {tag}")
            }
            DiagKind::StubMalformed { reason } => write!(f, "stub malformed: {reason}"),
            DiagKind::StubClobbersLive { reg } => {
                write!(f, "stub writes {reg}, which the main thread reads after resuming")
            }
            DiagKind::LiveInLayout { reason } => write!(f, "live-in layout mismatch: {reason}"),
            DiagKind::UpwardExposed { reg } => {
                write!(f, "slice reads {reg} before any definition (not a copied live-in)")
            }
            DiagKind::CopyMissing { idx, spawn_block } => {
                write!(f, "spawn in {spawn_block} never stores live-in word {idx}")
            }
            DiagKind::DeadCopy { idx, spawn_block } => {
                write!(f, "spawn in {spawn_block} stores word {idx}, which the slice never reads")
            }
            DiagKind::StoreInSlice { block, idx } => {
                write!(f, "store at {block}[{idx}] inside a speculative slice")
            }
            DiagKind::SliceExitNotKill { block } => {
                write!(f, "slice exit {block} does not end in kill_thread")
            }
            DiagKind::SliceNeverKills => write!(f, "no slice path reaches a kill_thread"),
            DiagKind::SpawnInBasicSlice { block } => {
                write!(f, "basic-model slice spawns a thread in {block}")
            }
            DiagKind::ChainMalformed { reason } => write!(f, "chain spawn malformed: {reason}"),
            DiagKind::ChainUnbounded { reason } => {
                write!(f, "chain not provably bounded: {reason}")
            }
        }
    }
}

/// One diagnostic, attributed to the slice plan that failed the check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Index of the offending slice in the slice list passed to [`lint`].
    pub slice: usize,
    /// Function the slice lives in.
    pub func: FuncId,
    /// What went wrong.
    pub kind: DiagKind,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice {} in {}: [{}] {}", self.slice, self.func, self.kind.code(), self.kind)
    }
}

/// Everything the linter found. Empty means all invariants are proved.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct LintReport {
    /// All diagnostics, in slice order then check order (deterministic).
    pub diags: Vec<Diagnostic>,
}

impl LintReport {
    /// Whether every invariant held.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Whether the report is empty (alias of [`LintReport::is_clean`]).
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Whether any diagnostic carries the given stable code.
    pub fn has(&self, code: &str) -> bool {
        self.diags.iter().any(|d| d.kind.code() == code)
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diags.is_empty() {
            return write!(f, "clean");
        }
        write!(f, "{} diagnostic(s)", self.diags.len())?;
        for d in &self.diags {
            write!(f, "; {d}")?;
        }
        Ok(())
    }
}

/// Per-function context shared by all of a function's slice checks.
struct FuncCtx {
    cfg: Cfg,
    loops: LoopForest,
    /// Raw upward-exposed registers at each block entry over the
    /// main-thread (entry-reachable) subgraph, computed lazily.
    exposed_main: HashMap<BlockId, Vec<Reg>>,
}

/// Statically verify the SSP invariants of `adapted` against the
/// `slices` emitted into it.
///
/// `original` supplies the tag bound (tags at or above
/// `original.next_tag` are synthesized) and the pre-adaptation block
/// counts used to separate profiled blocks from split continuations;
/// `profile` defines the hot sub-CFG for trigger-path coverage.
pub fn lint(
    original: &Program,
    adapted: &Program,
    profile: &Profile,
    slices: &[EmittedSlice],
) -> LintReport {
    let mut report = LintReport::default();
    let tag_bound = original.next_tag;
    let index = adapted.tag_index();
    let mut ctxs: HashMap<FuncId, FuncCtx> = HashMap::new();

    for (si, plan) in slices.iter().enumerate() {
        let fid = plan.trigger.func;
        let diag = |kind: DiagKind| Diagnostic { slice: si, func: fid, kind };
        let func = adapted.func(fid);
        let nb = func.blocks.len();
        if plan.stub.index() >= nb
            || plan.slice_entry.index() >= nb
            || plan.slice_entry.index() > plan.stub.index()
        {
            report.diags.push(diag(DiagKind::StubMalformed {
                reason: format!(
                    "slice range {}..={} out of bounds ({nb} blocks)",
                    plan.slice_entry, plan.stub
                ),
            }));
            continue;
        }
        let ctx = ctxs.entry(fid).or_insert_with(|| {
            let cfg = Cfg::new(func);
            let dom = DomTree::dominators(func, &cfg);
            let loops = LoopForest::new(func, &cfg, &dom);
            FuncCtx { cfg, loops, exposed_main: HashMap::new() }
        });

        // ---- (d) Layout, tags, trigger/stub shape ----
        for b in plan.slice_entry.0..=plan.stub.0 {
            let bid = BlockId(b);
            if !func.block(bid).attachment {
                report.diags.push(diag(DiagKind::NotAttachment { block: bid }));
            }
            for inst in &func.block(bid).insts {
                if inst.tag.0 < tag_bound {
                    report.diags.push(diag(DiagKind::StaleTag { tag: inst.tag, block: bid }));
                }
            }
        }

        // Every chk.c naming this stub, anywhere in the function.
        let mut sites: Vec<(BlockId, usize)> = Vec::new();
        for (bid, block) in func.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                if inst.op == (Op::ChkC { stub: plan.stub }) {
                    sites.push((bid, i));
                }
            }
        }
        if sites.is_empty() {
            report.diags.push(diag(DiagKind::TriggerNotFound));
        } else if sites.len() > 1 {
            report.diags.push(diag(DiagKind::MultiTrigger { count: sites.len() }));
        }

        // The primary trigger site must be `chk.c; br resume` and the
        // stub must resume at the same fallthrough block.
        let resume = sites.first().and_then(|&(bid, i)| {
            match func.block(bid).insts.get(i + 1).map(|inst| &inst.op) {
                Some(&Op::Br { target }) => Some(target),
                _ => {
                    report.diags.push(diag(DiagKind::TriggerMalformed {
                        reason: format!("chk.c at {bid}[{i}] is not followed by its resume branch"),
                    }));
                    None
                }
            }
        });
        let stub_resume = check_stub_shape(func, plan, &mut report, si);
        if let (Some(r), Some(sr)) = (resume, stub_resume) {
            if r != sr {
                report.diags.push(diag(DiagKind::TriggerMalformed {
                    reason: format!("stub resumes at {sr} but the trigger falls through to {r}"),
                }));
            }
        }

        // ---- (a) Trigger-path coverage on the hot sub-CFG ----
        if !sites.is_empty() {
            let site = sites[0].0;
            let orig_nb = original.funcs.get(fid.0 as usize).map_or(0, |f| f.blocks.len()) as u32;
            let hot = |b: BlockId| b.0 >= orig_nb || profile.block_count(fid, b) > 0;
            let marks = |b: BlockId| sites.iter().filter(|&&(sb, _)| sb == b).count() as u32;
            let roots_at: Vec<(InstTag, BlockId)> = plan
                .root_tags
                .iter()
                .filter_map(|&root| {
                    let at = *index.get(&root)?;
                    (at.func == fid).then_some((root, at.block))
                })
                .collect();
            if let Some(lid) = ctx.loops.innermost(site) {
                // The trigger sits inside a loop and re-fires every time
                // around it, so the first iteration's entry prefix
                // legitimately precedes the trigger (the fired slice
                // prefetches for the *next* iteration). The invariant is
                // per iteration: every hot path of one full trip —
                // header to latch, back edges removed — crosses the
                // trigger exactly once, for every latch.
                let l = ctx.loops.get(lid);
                let counts =
                    PathCounts::from_source(&ctx.cfg, l.header, |b| l.contains(b) && hot(b), marks);
                // A trigger behind the load (the latch-resident
                // induction-update case) is crossed by every iteration
                // and prefetches the *next* iteration's instances; one
                // ahead of the load must be crossed by every in-iteration
                // path that reaches the load. Either discharges coverage.
                let latch_classes: Vec<PathClasses> =
                    l.latches.iter().filter_map(|&b| counts.at(b)).collect();
                let latch_miss: u64 = latch_classes.iter().map(|c| c.zero).sum();
                let latch_dup: u64 = latch_classes.iter().map(|c| c.many).sum();
                for &(root, at) in &roots_at {
                    if !l.contains(at) {
                        // A load the looping trigger can never cover.
                        report.diags.push(diag(DiagKind::TriggerMissPath { root, paths: 1 }));
                        continue;
                    }
                    let root_classes = counts.at(at);
                    let root_miss = root_classes.map_or(0, |c| c.zero);
                    if latch_miss > 0 && root_miss > 0 {
                        report.diags.push(diag(DiagKind::TriggerMissPath {
                            root,
                            paths: latch_miss.min(root_miss),
                        }));
                    }
                    let dup = latch_dup.max(root_classes.map_or(0, |c| c.many));
                    if dup > 0 {
                        report.diags.push(diag(DiagKind::TriggerDupPath { root, paths: dup }));
                    }
                }
            } else {
                // A straight-line trigger must lie on every hot acyclic
                // path from the function entry to each covered load.
                let counts = PathCounts::new(&ctx.cfg, hot, marks);
                for &(root, at) in &roots_at {
                    let Some(classes) = counts.at(at) else { continue };
                    if classes.zero > 0 {
                        report
                            .diags
                            .push(diag(DiagKind::TriggerMissPath { root, paths: classes.zero }));
                    }
                    if classes.many > 0 {
                        report
                            .diags
                            .push(diag(DiagKind::TriggerDupPath { root, paths: classes.many }));
                    }
                }
            }
        }

        // ---- Slice subgraph ----
        let slice_blocks = reachable_from(func, plan.slice_entry);

        // ---- (b) Live-in completeness ----
        let copy_prefix = entry_copy_prefix(func, plan.slice_entry);
        check_live_in_layout(plan, &copy_prefix, &mut report, si);
        let needed: BTreeSet<u8> = copy_prefix.iter().map(|&(idx, _)| idx).collect();

        for &r in &upward_exposed_uses(func, plan.slice_entry, &slice_blocks) {
            if r != conv::SLOT && r != conv::ZERO {
                report.diags.push(diag(DiagKind::UpwardExposed { reg: r }));
            }
        }

        // Every spawn site targeting this slice must store exactly the
        // buffer words the entry prefix reads.
        for (bid, block) in func.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let Op::Spawn { entry, slot } = inst.op else { continue };
                if entry != plan.slice_entry {
                    continue;
                }
                let stored: BTreeSet<u8> = block.insts[..i]
                    .iter()
                    .filter_map(|x| match x.op {
                        Op::LibSt { slot: s, idx, .. } if s == slot => Some(idx),
                        _ => None,
                    })
                    .collect();
                let allocated = block.insts[..i]
                    .iter()
                    .any(|x| matches!(x.op, Op::LibAlloc { dst } if dst == slot));
                if !allocated {
                    report.diags.push(diag(DiagKind::ChainMalformed {
                        reason: format!("spawn in {bid} passes {slot} with no lib_alloc before it"),
                    }));
                }
                for &idx in needed.difference(&stored) {
                    report.diags.push(diag(DiagKind::CopyMissing { idx, spawn_block: bid }));
                }
                for &idx in stored.difference(&needed) {
                    report.diags.push(diag(DiagKind::DeadCopy { idx, spawn_block: bid }));
                }
            }
        }

        // ---- (c) Slice hygiene ----
        let mut kills = 0usize;
        let mut in_slice_spawns: Vec<(BlockId, Reg)> = Vec::new();
        for &bid in &slice_blocks {
            let block = func.block(bid);
            for (i, inst) in block.insts.iter().enumerate() {
                match inst.op {
                    Op::St { .. } => {
                        report.diags.push(diag(DiagKind::StoreInSlice { block: bid, idx: i }));
                    }
                    Op::Spawn { slot, .. } => in_slice_spawns.push((bid, slot)),
                    Op::KillThread => kills += 1,
                    _ => {}
                }
            }
            let term = block.terminator();
            if term.branch_targets().is_empty() && !matches!(term, Op::KillThread) {
                report.diags.push(diag(DiagKind::SliceExitNotKill { block: bid }));
            }
        }
        if kills == 0 {
            report.diags.push(diag(DiagKind::SliceNeverKills));
        }
        match plan.model {
            SpModel::Basic => {
                for &(bid, _) in &in_slice_spawns {
                    report.diags.push(diag(DiagKind::SpawnInBasicSlice { block: bid }));
                }
            }
            SpModel::Chaining => {
                if in_slice_spawns.len() != 1 {
                    report.diags.push(diag(DiagKind::ChainMalformed {
                        reason: format!(
                            "chaining slice has {} in-slice spawns (want 1)",
                            in_slice_spawns.len()
                        ),
                    }));
                } else {
                    check_chain_bounded(
                        func,
                        plan,
                        &copy_prefix,
                        in_slice_spawns[0].0,
                        &mut report,
                        si,
                    );
                }
            }
        }

        // ---- Stub scratch vs main-thread liveness ----
        if let Some(resume) = stub_resume {
            let main_blocks: Vec<BlockId> = ctx.cfg.rpo().to_vec();
            let exposed = ctx
                .exposed_main
                .entry(resume)
                .or_insert_with(|| upward_exposed_uses(func, resume, &main_blocks));
            for inst in &func.block(plan.stub).insts {
                if let Some(d) = inst.op.def() {
                    if exposed.contains(&d) {
                        report.diags.push(Diagnostic {
                            slice: si,
                            func: fid,
                            kind: DiagKind::StubClobbersLive { reg: d },
                        });
                    }
                }
            }
        }
    }
    report
}

/// Blocks reachable from `entry` through terminator edges (`ChkC` and
/// `Spawn` are not control-flow edges), ascending.
fn reachable_from(func: &ssp_ir::Function, entry: BlockId) -> Vec<BlockId> {
    let mut seen = vec![false; func.blocks.len()];
    let mut stack = vec![entry];
    seen[entry.index()] = true;
    while let Some(b) = stack.pop() {
        for t in func.block(b).terminator().branch_targets() {
            if t.index() < seen.len() && !seen[t.index()] {
                seen[t.index()] = true;
                stack.push(t);
            }
        }
    }
    (0..func.blocks.len() as u32).map(BlockId).filter(|b| seen[b.index()]).collect()
}

/// The slice entry's live-in copy prefix: leading `lib_ld`s from the
/// child's slot register, as `(buffer index, destination)` pairs.
fn entry_copy_prefix(func: &ssp_ir::Function, entry: BlockId) -> Vec<(u8, Reg)> {
    let mut out = Vec::new();
    for inst in &func.block(entry).insts {
        match inst.op {
            Op::LibLd { dst, slot, idx } if slot == conv::SLOT => out.push((idx, dst)),
            _ => break,
        }
    }
    out
}

/// Check the copy prefix against the plan's live-in layout: word `i`
/// loads `live_ins[i]`, chaining adds exactly one budget word after.
fn check_live_in_layout(
    plan: &EmittedSlice,
    prefix: &[(u8, Reg)],
    report: &mut LintReport,
    si: usize,
) {
    let n = plan.live_ins.len();
    let expect_len = n + usize::from(plan.model == SpModel::Chaining);
    let mut problem: Option<String> = None;
    if prefix.len() != expect_len {
        problem = Some(format!("{} copies for {} planned words", prefix.len(), expect_len));
    } else {
        for (i, &r) in plan.live_ins.iter().enumerate() {
            let (idx, dst) = prefix[i];
            if idx != i as u8 || dst != r {
                problem = Some(format!("word {i} loads index {idx} into {dst}, plan wants {r}"));
                break;
            }
        }
        if problem.is_none() && plan.model == SpModel::Chaining && prefix[n].0 != n as u8 {
            problem = Some(format!("budget word loads index {} (want {n})", prefix[n].0));
        }
    }
    if let Some(reason) = problem {
        report.diags.push(Diagnostic {
            slice: si,
            func: plan.trigger.func,
            kind: DiagKind::LiveInLayout { reason },
        });
    }
}

/// Stub shape per Figure 7: `lib_alloc` first, `lib_st`s into that slot,
/// the spawn of the slice entry second-to-last, and the resume branch
/// last. Returns the resume target when the tail is intact.
fn check_stub_shape(
    func: &ssp_ir::Function,
    plan: &EmittedSlice,
    report: &mut LintReport,
    si: usize,
) -> Option<BlockId> {
    let fid = plan.trigger.func;
    let mut fail = |reason: String| {
        report.diags.push(Diagnostic {
            slice: si,
            func: fid,
            kind: DiagKind::StubMalformed { reason },
        });
    };
    let insts = &func.block(plan.stub).insts;
    let Some(Op::LibAlloc { dst: slot }) = insts.first().map(|i| &i.op) else {
        fail("stub does not start with lib_alloc".to_owned());
        return None;
    };
    for inst in insts.iter() {
        if let Op::LibSt { slot: s, .. } = inst.op {
            if s != *slot {
                fail(format!("stub stores into {s} instead of the allocated {slot}"));
            }
        }
    }
    let n = insts.len();
    if n < 3 {
        fail(format!("stub has only {n} instructions"));
        return None;
    }
    match (&insts[n - 2].op, &insts[n - 1].op) {
        (&Op::Spawn { entry, slot: s }, &Op::Br { target }) => {
            if entry != plan.slice_entry {
                fail(format!("stub spawns {entry} instead of the slice entry"));
            }
            if s != *slot {
                fail(format!("stub spawn passes {s} instead of the allocated {slot}"));
            }
            Some(target)
        }
        _ => {
            fail("stub does not end with spawn + resume branch".to_owned());
            None
        }
    }
}

/// Prove the chaining re-spawn is bounded: the entry loads a budget
/// counter, the spawn block is only entered when a `cmp.gt counter, 0`
/// result (conjunctively) holds, and the re-spawned budget is the
/// counter strictly decremented. Together with the child reloading the
/// stored word this bounds runahead by the spawn counter.
fn check_chain_bounded(
    func: &ssp_ir::Function,
    plan: &EmittedSlice,
    copy_prefix: &[(u8, Reg)],
    spawn_block: BlockId,
    report: &mut LintReport,
    si: usize,
) {
    let mut fail = |reason: String| {
        report.diags.push(Diagnostic {
            slice: si,
            func: plan.trigger.func,
            kind: DiagKind::ChainUnbounded { reason },
        });
    };
    let budget_idx = plan.live_ins.len() as u8;
    let Some(&(_, counter)) = copy_prefix.iter().find(|&&(idx, _)| idx == budget_idx) else {
        // Already reported as a live-in layout mismatch.
        return;
    };

    // The slice entry must gate the spawn block on its terminator...
    let entry_insts = &func.block(plan.slice_entry).insts;
    let Some(&Op::BrCond { pred, if_true, .. }) = entry_insts.last().map(|i| &i.op) else {
        fail("slice entry does not end in the spawn gate branch".to_owned());
        return;
    };
    if if_true != spawn_block {
        fail(format!("spawn block {spawn_block} is not the gate's taken target"));
        return;
    }
    // ...and the gate predicate must conjunctively include `counter > 0`:
    // walking the entry backwards, the predicate may be and-combined or
    // re-derived, but some `cmp.gt counter, 0` must feed it.
    let mut needed: BTreeSet<Reg> = BTreeSet::from([pred]);
    let mut guarded = false;
    for inst in entry_insts.iter().rev() {
        let Some(d) = inst.op.def() else { continue };
        if !needed.remove(&d) {
            continue;
        }
        match inst.op {
            Op::Alu { kind: AluKind::And, a, b, .. } => {
                needed.insert(a);
                if let Operand::Reg(r) = b {
                    needed.insert(r);
                }
            }
            Op::Cmp { kind: CmpKind::Gt, a, b: Operand::Imm(0), .. } if a == counter => {
                guarded = true;
            }
            Op::Cmp { kind: CmpKind::Eq, a, b: Operand::Imm(0), .. } => {
                // Inverted latch polarity folded into the gate.
                needed.insert(a);
            }
            _ => {}
        }
    }
    if !guarded {
        fail(format!("spawn gate does not test the chain budget {counter} > 0"));
    }

    // The re-spawned budget word must be `counter - k`, k >= 1.
    let spawn_insts = &func.block(spawn_block).insts;
    let stored = spawn_insts.iter().find_map(|inst| match inst.op {
        Op::LibSt { idx, src, .. } if idx == budget_idx => Some(src),
        _ => None,
    });
    let Some(stored) = stored else {
        // Already reported as a missing live-in copy.
        return;
    };
    let decremented = spawn_insts.iter().any(|inst| {
        matches!(inst.op,
            Op::Alu { kind: AluKind::Sub, dst, a, b: Operand::Imm(k) }
                if dst == stored && a == counter && k >= 1)
    });
    if !decremented {
        fail(format!("re-spawned budget {stored} is not {counter} strictly decremented"));
    }
}
