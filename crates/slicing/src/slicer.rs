//! Backward program slicing for speculative precomputation (§3.1).
//!
//! Given a delinquent load and a code region, [`Slicer::slice_in_region`]
//! computes the p-slice: the minimal instruction set producing the load's
//! address, restricted to the region. Values defined outside the region
//! become *live-ins*, to be copied through the live-in buffer at spawn.
//! The slice always follows control dependences, so a loop slice keeps
//! its loop condition and branch and can run as a loop of its own.
//!
//! Three refinements from the paper are implemented:
//!
//! * **Context-sensitive descent** — a value produced by a call is traced
//!   into the callee via [`crate::summary::Summaries`] with matched
//!   parameter bindings, avoiding the unrealizable-path imprecision of
//!   Weiser-style slicing.
//! * **Speculative (control-flow) slicing**, always on (§3.1.2) — block
//!   profiles filter out definitions and branches in blocks run fewer
//!   than `min_block_count` times ([`Slicer::new`]), and the profiled
//!   dynamic call graph resolves indirect calls; both shrink slices at a
//!   (profiled) risk of wrong addresses, which SSP tolerates by
//!   construction.
//! * **Region-based growth** — the slice is computed against an explicit
//!   block set; the region walker (§3.4.1) re-slices against successively
//!   larger regions until the slack is big enough.

use crate::analysis::Analyses;
use crate::summary::Summaries;
use ssp_ir::reg::conv;
use ssp_ir::{BlockId, FuncId, InstRef, Op, Program, Reg};
use std::collections::{BTreeSet, HashSet};
use std::fmt;

/// Why a slice request could not be satisfied.
///
/// Slicing failures are expected inputs for batch drivers (the fuzz
/// oracle feeds the slicer arbitrary roots), so they are surfaced as
/// values instead of panics and degrade into per-load `skipped` entries
/// in `ssp_codegen::AdaptReport`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SliceError {
    /// The requested slice root is not a load instruction.
    RootNotLoad(InstRef),
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceError::RootNotLoad(at) => write!(f, "slice root {at} is not a load"),
        }
    }
}

impl std::error::Error for SliceError {}

/// A p-slice: the precomputation content for one delinquent load.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Slice {
    /// The delinquent load being precomputed.
    pub root: InstRef,
    /// Function the region lives in.
    pub func: FuncId,
    /// The region's blocks.
    pub region: Vec<BlockId>,
    /// Slice instructions inside the region (program locations; codegen
    /// clones them with fresh tags).
    pub insts: BTreeSet<InstRef>,
    /// Instructions pulled in from callees (interprocedural slices).
    pub callee_insts: BTreeSet<InstRef>,
    /// Registers whose values must be captured at spawn time.
    pub live_ins: BTreeSet<Reg>,
    /// Dependence edges pruned by speculative slicing.
    pub pruned: u64,
    /// Whether summary descent marked any contributing value impure
    /// (its use is a speculation).
    pub speculative_values: bool,
}

impl Slice {
    /// Slice size in instructions (region + callee parts), excluding the
    /// root load itself.
    pub fn size(&self) -> usize {
        self.insts.len() + self.callee_insts.len() - usize::from(self.insts.contains(&self.root))
    }

    /// Whether the slice crosses procedure boundaries.
    pub fn interprocedural(&self) -> bool {
        !self.callee_insts.is_empty()
    }

    /// Number of live-in values to copy at spawn.
    pub fn live_in_count(&self) -> usize {
        self.live_ins.len()
    }
}

/// The slicing engine. Holds the analysis and summary caches across
/// requests, "exploiting redundancy in slice computation".
#[derive(Debug)]
pub struct Slicer<'p> {
    prog: &'p Program,
    profile: &'p ssp_sim::Profile,
    /// Analysis cache (public so co-operating passes can share it).
    pub analyses: Analyses,
    summaries: Summaries,
    min_block_count: u64,
}

impl<'p> Slicer<'p> {
    /// Create a slicer for `prog` with profile feedback. Definitions and
    /// controlling branches in blocks the profile counts fewer than
    /// `min_block_count` times are treated as on unexecuted paths and
    /// pruned (0 prunes nothing).
    pub fn new(prog: &'p Program, profile: &'p ssp_sim::Profile, min_block_count: u64) -> Self {
        Slicer {
            prog,
            profile,
            analyses: Analyses::new(),
            summaries: Summaries::new(),
            min_block_count,
        }
    }

    /// The program being sliced.
    pub fn program(&self) -> &'p Program {
        self.prog
    }

    /// Compute the backward slice of `root`'s address within the region
    /// `blocks` (all in `root.func`).
    ///
    /// Returns [`SliceError::RootNotLoad`] when `root` is not a load
    /// instruction (p-slices precompute load addresses; any other root is
    /// a caller bug or an adversarial input, not a reason to abort).
    pub fn slice_in_region(
        &mut self,
        root: InstRef,
        blocks: &[BlockId],
    ) -> Result<Slice, SliceError> {
        let Op::Ld { base, .. } = self.prog.inst(root).op else {
            return Err(SliceError::RootNotLoad(root));
        };
        let fid = root.func;
        let region: HashSet<BlockId> = blocks.iter().copied().collect();
        let mut slice = Slice {
            root,
            func: fid,
            region: blocks.to_vec(),
            insts: BTreeSet::new(),
            callee_insts: BTreeSet::new(),
            live_ins: BTreeSet::new(),
            pruned: 0,
            speculative_values: false,
        };
        slice.insts.insert(root);

        let mut work: Vec<(InstRef, Reg)> = vec![(root, base)];
        let mut seen: HashSet<(InstRef, Reg)> = HashSet::new();
        // Control dependences of the root itself.
        self.queue_control_deps(root, &region, &mut slice, &mut work);

        while let Some((at, r)) = work.pop() {
            if r.is_zero() || !seen.insert((at, r)) {
                continue;
            }
            let defs = {
                let fa = self.analyses.get(self.prog, fid);
                fa.rd.reaching(at.block, at.idx, r)
            };
            if defs.is_empty() {
                slice.live_ins.insert(r);
                continue;
            }
            let mut outside = false;
            for d in &defs {
                if !region.contains(&d.at.block) {
                    outside = true;
                    continue;
                }
                // Speculative slicing: ignore defs on unexecuted paths.
                if self.profile.block_count(fid, d.at.block) < self.min_block_count {
                    slice.pruned += 1;
                    continue;
                }
                let dop = self.prog.inst(d.at).op.clone();
                match dop {
                    Op::Call { callee, .. } if r == conv::RV => {
                        self.descend(d.at, callee, &mut slice, &mut work);
                    }
                    Op::CallInd { .. } if r == conv::RV => {
                        // Resolve via the dynamic call graph; take the
                        // most frequent profiled target.
                        let target = self
                            .profile
                            .indirect_targets
                            .get(&d.at)
                            .and_then(|m| m.iter().max_by_key(|(_, c)| **c))
                            .map(|(f, _)| *f);
                        match target {
                            Some(t) => {
                                slice.speculative_values = true;
                                self.descend(d.at, t, &mut slice, &mut work);
                            }
                            None => {
                                slice.speculative_values = true;
                                slice.live_ins.insert(r);
                            }
                        }
                    }
                    Op::Call { .. } | Op::CallInd { .. } => {
                        // A clobber (or unresolvable result): capture the
                        // main thread's value at spawn instead —
                        // speculative, SSP tolerates staleness.
                        slice.speculative_values = true;
                        slice.live_ins.insert(r);
                    }
                    _ => {
                        if slice.insts.insert(d.at) {
                            self.queue_control_deps(d.at, &region, &mut slice, &mut work);
                        }
                        let mut uses = Vec::new();
                        dop.uses_into(&mut uses);
                        for u in uses {
                            work.push((d.at, u));
                        }
                    }
                }
            }
            if outside {
                slice.live_ins.insert(r);
            }
        }
        Ok(slice)
    }

    /// Pull a callee's value computation into the slice via its summary.
    fn descend(
        &mut self,
        call_at: InstRef,
        callee: FuncId,
        slice: &mut Slice,
        work: &mut Vec<(InstRef, Reg)>,
    ) {
        let sum = self.summaries.get(self.prog, &mut self.analyses, callee, conv::RV);
        slice.speculative_values |= sum.impure;
        slice.insts.insert(call_at);
        slice.callee_insts.extend(sum.insts.iter().copied());
        // contextmap: the callee's needs are actual registers at the call
        // site — resolve them in the caller, before the call.
        for n in sum.needs {
            work.push((call_at, n));
        }
    }

    /// Add the branches `at`'s block is control dependent on (within the
    /// region) and queue their operands.
    fn queue_control_deps(
        &mut self,
        at: InstRef,
        region: &HashSet<BlockId>,
        slice: &mut Slice,
        work: &mut Vec<(InstRef, Reg)>,
    ) {
        let fid = at.func;
        let func = self.prog.func(fid);
        let cdep_blocks: Vec<BlockId> = {
            let fa = self.analyses.get(self.prog, fid);
            fa.cdeps[at.block.index()].clone()
        };
        for cb in cdep_blocks {
            if !region.contains(&cb) {
                continue;
            }
            if self.profile.block_count(fid, cb) < self.min_block_count {
                slice.pruned += 1;
                continue;
            }
            let idx = func.block(cb).insts.len() - 1;
            let bat = InstRef { func: fid, block: cb, idx };
            if bat == at {
                continue;
            }
            if slice.insts.insert(bat) {
                let mut uses = Vec::new();
                func.block(cb).insts[idx].op.uses_into(&mut uses);
                for u in uses {
                    work.push((bat, u));
                }
                // Branches have their own control deps.
                self.queue_control_deps(bat, region, slice, work);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_ir::{CmpKind, Operand, ProgramBuilder};
    use ssp_sim::{MachineConfig, Profile};

    /// Figure 3's loop, with an extra non-address computation that must
    /// NOT land in the slice.
    fn mcf_like() -> (Program, BlockId, InstRef) {
        let mut pb = ProgramBuilder::new();
        // arcs: each arc's tail pointer; make the loop actually run.
        for i in 0..64u64 {
            pb.data_word(0x1000 + 64 * i, 0x9000 + 64 * i);
            pb.data_word(0x9000 + 64 * i, i);
        }
        let mut f = pb.function("main");
        let e = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        let (arc, k, t, u, v, sum, p) =
            (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70));
        f.at(e).movi(arc, 0x1000).movi(k, 0x1000 + 64 * 64).movi(sum, 0).br(body);
        let root_tag_idx = 2; // index of the delinquent load in `body`
        f.at(body)
            .mov(t, arc) // 0: A
            .ld(u, t, 0) // 1: B
            .ld(v, u, 0) // 2: C   <- delinquent
            .add(sum, sum, Operand::Reg(v)) // 3: not address-relevant
            .add(arc, t, 64) // 4: D
            .cmp(CmpKind::Lt, p, arc, Operand::Reg(k)) // 5: E
            .br_cond(p, body, exit); // 6
        f.at(exit).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let root = InstRef { func: prog.entry, block: body, idx: root_tag_idx };
        (prog, body, root)
    }

    fn run_profile(prog: &Program) -> Profile {
        ssp_sim::profile(prog, &MachineConfig::in_order())
    }

    #[test]
    fn slice_excludes_non_address_computation() {
        let (prog, body, root) = mcf_like();
        let profile = run_profile(&prog);
        let mut s = Slicer::new(&prog, &profile, 1);
        let slice = s.slice_in_region(root, &[body]).unwrap();
        let idxs: Vec<usize> =
            slice.insts.iter().filter(|r| r.block == body).map(|r| r.idx).collect();
        // A(0), B(1), C(2=root), D(4), E(5), branch(6) — but not sum(3).
        assert!(idxs.contains(&0));
        assert!(idxs.contains(&1));
        assert!(idxs.contains(&2));
        assert!(!idxs.contains(&3), "sum accumulation must be sliced away");
        assert!(idxs.contains(&4));
        assert!(idxs.contains(&5));
        assert!(idxs.contains(&6));
    }

    #[test]
    fn live_ins_are_region_inputs() {
        let (prog, body, root) = mcf_like();
        let profile = run_profile(&prog);
        let mut s = Slicer::new(&prog, &profile, 1);
        let slice = s.slice_in_region(root, &[body]).unwrap();
        // arc and k flow in from outside the loop.
        assert!(slice.live_ins.contains(&Reg(64)), "arc is a live-in");
        assert!(slice.live_ins.contains(&Reg(65)), "K is a live-in");
        assert!(!slice.live_ins.contains(&Reg(69)), "sum is not address-relevant");
        assert!(!slice.interprocedural());
    }

    #[test]
    fn speculative_slicing_prunes_cold_paths() {
        // Loop whose body has a cold error path redefining the pointer.
        let mut pb = ProgramBuilder::new();
        for i in 0..64u64 {
            pb.data_word(0x1000 + 64 * i, 0x9000 + 64 * i);
        }
        let mut f = pb.function("main");
        let e = f.entry_block();
        let body = f.new_block();
        let cold = f.new_block();
        let join = f.new_block();
        let exit = f.new_block();
        let (ptr, i, u, p, zero) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68));
        f.at(e).movi(ptr, 0x1000).movi(i, 0).movi(zero, 0).br(body);
        f.at(body)
            .cmp(CmpKind::Eq, p, zero, 1) // never true
            .br_cond(p, cold, join);
        f.at(cold)
            .movi(ptr, 0x7777_0000) // cold redefinition of ptr
            .br(join);
        f.at(join)
            .ld(u, ptr, 0) // the delinquent load
            .add(ptr, ptr, 64)
            .add(i, i, 1)
            .cmp(CmpKind::Lt, p, i, 64)
            .br_cond(p, body, exit);
        f.at(exit).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let profile = run_profile(&prog);
        let root = InstRef { func: prog.entry, block: join, idx: 0 };
        let region = [body, cold, join];

        let mut spec = Slicer::new(&prog, &profile, 1);
        let spec_slice = spec.slice_in_region(root, &region).unwrap();
        let mut stat = Slicer::new(&prog, &profile, 0);
        let stat_slice = stat.slice_in_region(root, &region).unwrap();

        assert!(spec_slice.pruned > 0, "cold def was pruned");
        let cold_def = InstRef { func: prog.entry, block: cold, idx: 0 };
        assert!(!spec_slice.insts.contains(&cold_def));
        assert!(stat_slice.insts.contains(&cold_def), "static slicing keeps it");
        assert!(spec_slice.size() < stat_slice.size());
    }

    #[test]
    fn interprocedural_descent_through_call() {
        // next = advance(cur); u = ld(next)  — advance returns ld(cur+8).
        let mut pb = ProgramBuilder::new();
        for i in 0..32u64 {
            pb.data_word(0x1000 + 64 * i + 8, 0x1000 + 64 * (i + 1));
        }
        let main_id = pb.declare();
        let adv_id = pb.declare();
        let mut m = pb.define(main_id, "main");
        let e = m.entry_block();
        let body = m.new_block();
        let exit = m.new_block();
        let (cur, i, u, p) = (Reg(64), Reg(65), Reg(66), Reg(67));
        m.at(e).movi(cur, 0x1000).movi(i, 0).br(body);
        m.at(body)
            .mov(conv::arg(0), cur)
            .call(adv_id, 1)
            .mov(cur, conv::RV)
            .ld(u, cur, 0) // delinquent
            .add(i, i, 1)
            .cmp(CmpKind::Lt, p, i, 30)
            .br_cond(p, body, exit);
        m.at(exit).halt();
        let m = m.finish();
        let mut a = pb.define(adv_id, "advance");
        let e2 = a.entry_block();
        a.at(e2).ld(conv::RV, conv::arg(0), 8).ret();
        let a = a.finish();
        pb.install(m);
        pb.install(a);
        let prog = pb.finish(main_id);
        let profile = run_profile(&prog);
        let root = InstRef { func: main_id, block: body, idx: 3 };
        let mut s = Slicer::new(&prog, &profile, 1);
        let slice = s.slice_in_region(root, &[body]).unwrap();
        assert!(slice.interprocedural(), "slice crosses into advance()");
        assert_eq!(slice.callee_insts.len(), 1, "the callee's load");
        assert!(
            slice.insts.iter().any(|r| prog.inst(*r).op.is_call()),
            "the call site anchors the descent"
        );
        assert!(slice.live_ins.contains(&cur) || slice.live_ins.contains(&conv::arg(0)));
    }

    #[test]
    fn non_load_root_is_a_typed_error() {
        let (prog, body, _) = mcf_like();
        let profile = run_profile(&prog);
        let mut s = Slicer::new(&prog, &profile, 1);
        // idx 0 is `mov t, arc` — not a load.
        let root = InstRef { func: prog.entry, block: body, idx: 0 };
        let err = s.slice_in_region(root, &[body]).unwrap_err();
        assert_eq!(err, SliceError::RootNotLoad(root));
        assert!(err.to_string().contains("is not a load"));
    }
}
