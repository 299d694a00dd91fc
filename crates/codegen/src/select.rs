//! Region and precomputation-model selection (§3.4.1).
//!
//! For each delinquent load the selector walks the function's loop
//! forest outward from the innermost region containing the load — loop
//! body, enclosing loop bodies, finally the procedure — and picks "the
//! first region in which the reduced miss cycles for basic or chaining
//! SP is greater than a threshold value", where the threshold is a
//! cutoff percentage of the load's profiled miss cycles. If no region
//! qualifies, the region with the largest reduction wins; inner regions
//! are preferred on ties. The cutoff percentage and the trip count
//! below which a loop gets basic SP are the fixed [`CUTOFF_PCT`] and
//! [`SMALL_TRIP_COUNT`]; the tunable gates (region depth, slice size,
//! slack floor, forced model) come from [`AdaptOptions`].

use crate::AdaptOptions;
use ssp_ir::loops::LoopId;
use ssp_ir::{BlockId, FuncId, InstRef, Op, Program};
use ssp_sched::{
    reduced_miss_cycles, schedule_basic, schedule_chaining, slack_basic, slack_chaining,
    spawn_copy_latency, ScheduledSlice, SpModel,
};
use ssp_sim::{MachineConfig, Profile};
use ssp_slicing::{RegionDepGraph, Slice, SliceError, Slicer};
use ssp_trace::{Stopwatch, ToolTrace};

/// Fraction of the load's miss cycles a region must recover to be
/// selected outright ("the cutoff percentage").
pub const CUTOFF_PCT: f64 = 0.10;

/// Loops with fewer expected iterations use basic SP.
pub const SMALL_TRIP_COUNT: f64 = 6.0;

/// The chosen region/model/schedule for one delinquent load.
#[derive(Clone, Debug)]
pub struct SlicePlan {
    /// The delinquent load.
    pub root: InstRef,
    /// Further delinquent loads folded into this slice by merging
    /// (§3.4.1: "different slices are combined if they share nodes").
    pub extra_roots: Vec<InstRef>,
    /// Function holding the region.
    pub func: FuncId,
    /// Region blocks.
    pub blocks: Vec<BlockId>,
    /// The loop whose iterations the prefetching loop follows, if the
    /// region is a loop body.
    pub loop_id: Option<LoopId>,
    /// Loop header (spawn hand-off point for chaining), if a loop region.
    pub header: Option<BlockId>,
    /// The latch branch instruction (the spawn condition), if any.
    pub latch_branch: Option<InstRef>,
    /// Expected iterations per region entry.
    pub trip_count: f64,
    /// Chosen model.
    pub model: SpModel,
    /// The p-slice.
    pub slice: Slice,
    /// The scheduled execution slice.
    pub sched: ScheduledSlice,
    /// Estimated reduced miss cycles for the chosen model.
    pub reduced: u64,
    /// Estimated slack at the first iteration.
    pub slack_1: i64,
}

/// Walk the region chain for `root` and plan its precomputation.
/// Returns `Ok(None)` when no region yields a usable slice (e.g. every
/// slice exceeds the size limit or recovers nothing), and `Err` when the
/// slicer rejects the root outright (e.g. it is not a load).
pub fn plan_for_load(
    slicer: &mut Slicer<'_>,
    prog: &Program,
    profile: &Profile,
    mc: &MachineConfig,
    root: InstRef,
    opts: &AdaptOptions,
) -> Result<Option<SlicePlan>, SliceError> {
    plan_for_load_traced(slicer, prog, profile, mc, root, opts, None)
}

/// [`plan_for_load`] with optional tracing: when `trace` is set, the
/// `slicing` span accrues wall time plus slice-size/live-in counters and
/// the `sched` span accrues wall time plus schedule/SCC counters for
/// every candidate region examined. With `trace == None` no clock is
/// read and no SCC partition is computed.
pub fn plan_for_load_traced(
    slicer: &mut Slicer<'_>,
    prog: &Program,
    profile: &Profile,
    mc: &MachineConfig,
    root: InstRef,
    opts: &AdaptOptions,
    mut trace: Option<&mut ToolTrace>,
) -> Result<Option<SlicePlan>, SliceError> {
    let fid = root.func;
    // Candidate regions: innermost loop body outward, then the procedure.
    #[derive(Clone)]
    struct Cand {
        blocks: Vec<BlockId>,
        loop_id: Option<LoopId>,
        header: Option<BlockId>,
        trips: f64,
    }
    let mut cands: Vec<Cand> = Vec::new();
    {
        let fa = slicer.analyses.get(prog, fid);
        let mut lid = fa.loops.innermost(root.block);
        while let Some(l) = lid {
            let lp = fa.loops.get(l);
            let outside: Vec<BlockId> =
                fa.cfg.preds(lp.header).iter().copied().filter(|p| !lp.contains(*p)).collect();
            cands.push(Cand {
                blocks: lp.blocks.clone(),
                loop_id: Some(l),
                header: Some(lp.header),
                trips: profile.trip_count(fid, lp.header, &outside).max(1.0),
            });
            lid = lp.parent;
        }
        cands.push(Cand { blocks: fa.cfg.rpo().to_vec(), loop_id: None, header: None, trips: 1.0 });
    }
    cands.truncate(opts.max_region_depth.max(1));

    let Some(lp) = profile.loads.get(&prog.inst(root).tag) else {
        return Ok(None);
    };
    if lp.accesses == 0 || lp.miss_cycles == 0 {
        return Ok(None);
    }
    let avg_miss = lp.miss_cycles / lp.accesses;

    let mut best: Option<SlicePlan> = None;
    for cand in &cands {
        let sw = trace.is_some().then(Stopwatch::start);
        let slice = slicer.slice_in_region(root, &cand.blocks)?;
        if let Some(t) = trace.as_deref_mut() {
            t.add_wall("slicing", sw.map_or(0, |s| s.elapsed_nanos()));
            t.add("slicing", "slices_extracted", 1);
            t.add("slicing", "slice_insts", slice.size() as u64);
            t.add("slicing", "slice_live_ins", slice.live_in_count() as u64);
        }
        if slice.size() > opts.max_slice_size {
            continue;
        }
        let sw = trace.is_some().then(Stopwatch::start);
        let g = {
            let fa = slicer.analyses.get(prog, fid);
            RegionDepGraph::build_with_header(prog, fid, &cand.blocks, cand.header, fa, profile, mc)
        };
        let keep: std::collections::HashSet<InstRef> = slice.insts.iter().copied().collect();
        // Inner-loop-carried dependences serialize the nested loop, not
        // the chain; the schedulers see the per-region-iteration view.
        let sg = g.induced(&keep).without_inner_carried();
        if sg.nodes.is_empty() {
            if let Some(t) = trace.as_deref_mut() {
                t.add_wall("sched", sw.map_or(0, |s| s.elapsed_nanos()));
            }
            continue;
        }
        let region_height = g.critical_path(profile, prog, mc);

        let chain = schedule_chaining(&sg, prog, profile, mc, opts.predict_threshold);
        let basic = schedule_basic(&sg, prog, profile, mc);
        if let Some(t) = trace.as_deref_mut() {
            t.add_wall("sched", sw.map_or(0, |s| s.elapsed_nanos()));
            t.add("sched", "schedules", 2); // one chaining + one basic
            let sccs = ssp_sched::SccPartition::new(&sg);
            t.add("sched", "sccs", sccs.components.len() as u64);
            let cyclic = sccs.components.iter().enumerate().filter(|(i, _)| sccs.is_cycle(*i));
            t.add("sched", "cyclic_sccs", cyclic.count() as u64);
        }
        let copy_cost = spawn_copy_latency(slice.live_in_count(), mc.lib_latency, mc.spawn_latency);
        let trips = cand.trips.round().max(1.0) as u64;

        let mut slack_c1 = slack_chaining(region_height, chain.critical_height, copy_cost, 1);
        let mut slack_b1 = slack_basic(region_height, basic.slice_height, 1);
        if cand.loop_id.is_none() || trips <= 1 {
            // Non-loop region: the load runs once per entry, at its depth
            // from the region entry — the region's total height is not
            // main-thread work that the speculative thread can hide
            // behind.
            let depth = g.node_of(root).map(|n| g.depth_to(n, profile, prog, mc)).unwrap_or(0);
            slack_c1 = depth as i64 - chain.critical_height as i64 - copy_cost as i64;
            slack_b1 = depth as i64 - basic.slice_height as i64;
        }

        // Model choice: small trip counts or better basic slack — basic;
        // chaining otherwise. Chaining also requires a loop region.
        let model = match opts.force_model {
            Some(m) => m,
            None => {
                if cand.loop_id.is_none() || cand.trips < SMALL_TRIP_COUNT || slack_b1 > slack_c1 {
                    SpModel::Basic
                } else {
                    SpModel::Chaining
                }
            }
        };
        let (sched, slack_1) = match model {
            SpModel::Chaining if cand.loop_id.is_some() => (chain, slack_c1),
            _ => (basic, slack_b1),
        };
        let reduced = match sched.model {
            SpModel::Chaining => reduced_miss_cycles(avg_miss, trips, |i| {
                slack_chaining(region_height, sched.critical_height, copy_cost, i)
            }),
            SpModel::Basic => reduced_miss_cycles(avg_miss, trips, |i| {
                slack_basic(region_height, sched.slice_height, i)
            }),
        };
        // The loop's *exit branch* — the conditional branch with one
        // successor inside the region and one outside — is the spawn
        // condition. (A loop's latch may be unconditional, e.g. a
        // bottom `br header` with the exit test at the top.) Prefer an
        // exit branch that the slice already contains.
        let exit_branches: Vec<InstRef> = cand
            .blocks
            .iter()
            .filter_map(|&b| {
                let idx = prog.func(fid).block(b).insts.len() - 1;
                let at = InstRef { func: fid, block: b, idx };
                if let Op::BrCond { if_true, if_false, .. } = prog.inst(at).op {
                    let t_in = cand.blocks.contains(&if_true);
                    let f_in = cand.blocks.contains(&if_false);
                    (t_in != f_in).then_some(at)
                } else {
                    None
                }
            })
            .collect();
        let latch_branch = exit_branches
            .iter()
            .copied()
            .find(|at| slice.insts.contains(at))
            .or_else(|| exit_branches.first().copied());

        let plan = SlicePlan {
            root,
            extra_roots: Vec::new(),
            func: fid,
            blocks: cand.blocks.clone(),
            loop_id: cand.loop_id,
            header: cand.header,
            latch_branch,
            trip_count: cand.trips,
            model: sched.model,
            slice,
            sched,
            reduced,
            slack_1,
        };
        if plan.slack_1 < opts.min_slack {
            // Not enough slack to outrun the main thread: keep walking
            // outward for a bigger region.
            continue;
        }
        let threshold = (CUTOFF_PCT * (avg_miss * trips) as f64) as u64;
        if reduced > threshold && reduced > 0 {
            // First (innermost) region clearing the cutoff wins.
            return Ok(Some(plan));
        }
        let better = match &best {
            None => reduced > 0,
            // Prefer the inner region when "about the same" (within 10%).
            Some(b) => reduced as f64 > b.reduced as f64 * 1.1,
        };
        if better {
            best = Some(plan);
        }
    }
    Ok(best)
}

/// Re-derive the schedule and slack for a (possibly merged) slice against
/// the same region and model as `base`. Used after slice combining.
pub fn reschedule(
    slicer: &mut Slicer<'_>,
    prog: &Program,
    profile: &Profile,
    mc: &MachineConfig,
    base: &SlicePlan,
    slice: Slice,
    opts: &AdaptOptions,
) -> SlicePlan {
    let g = {
        let fa = slicer.analyses.get(prog, base.func);
        RegionDepGraph::build_with_header(
            prog,
            base.func,
            &base.blocks,
            base.header,
            fa,
            profile,
            mc,
        )
    };
    let keep: std::collections::HashSet<InstRef> = slice.insts.iter().copied().collect();
    let sg = g.induced(&keep).without_inner_carried();
    let region_height = g.critical_path(profile, prog, mc);
    let copy_cost = spawn_copy_latency(slice.live_in_count(), mc.lib_latency, mc.spawn_latency);
    let sched = match base.model {
        SpModel::Chaining => schedule_chaining(&sg, prog, profile, mc, opts.predict_threshold),
        SpModel::Basic => schedule_basic(&sg, prog, profile, mc),
    };
    let slack_1 = match sched.model {
        SpModel::Chaining => slack_chaining(region_height, sched.critical_height, copy_cost, 1),
        SpModel::Basic => slack_basic(region_height, sched.slice_height, 1),
    };
    SlicePlan { slice, sched, slack_1, ..base.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_ir::{CmpKind, Operand, ProgramBuilder, Reg};

    /// The mcf-style loop with scattered pointers: chaining SP over the
    /// loop body should be chosen.
    fn pointer_chase() -> (Program, BlockId, InstRef) {
        let mut pb = ProgramBuilder::new();
        for i in 0..400u64 {
            let perm = (i * 7919) % 400;
            pb.data_word(0x0100_0000 + 64 * i, 0x0800_0000 + 64 * perm);
            pb.data_word(0x0800_0000 + 64 * perm, perm);
        }
        let mut f = pb.function("main");
        let e = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        let (arc, k, t, u, v, sum, p) =
            (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69), Reg(70));
        f.at(e).movi(arc, 0x0100_0000).movi(k, 0x0100_0000 + 64 * 400).movi(sum, 0).br(body);
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
        let prog = pb.finish_with(main);
        let root = InstRef { func: prog.entry, block: body, idx: 2 };
        (prog, body, root)
    }

    #[test]
    fn selects_loop_body_with_chaining() {
        let (prog, body, root) = pointer_chase();
        let mc = MachineConfig::in_order();
        let profile = ssp_sim::profile(&prog, &mc);
        let mut slicer = Slicer::new(&prog, &profile, 1);
        let plan = plan_for_load(&mut slicer, &prog, &profile, &mc, root, &AdaptOptions::default())
            .expect("slicing succeeds")
            .expect("a plan is found");
        assert_eq!(plan.model, SpModel::Chaining);
        assert!(plan.loop_id.is_some());
        assert!(plan.blocks.contains(&body));
        assert!(plan.trip_count > 100.0);
        assert!(plan.reduced > 0);
        assert!(plan.slack_1 > 0, "chaining must produce positive slack: {}", plan.slack_1);
        assert!(plan.latch_branch.is_some());
    }

    #[test]
    fn force_model_override() {
        let (prog, _, root) = pointer_chase();
        let mc = MachineConfig::in_order();
        let profile = ssp_sim::profile(&prog, &mc);
        let mut slicer = Slicer::new(&prog, &profile, 1);
        let opts = AdaptOptions {
            force_model: Some(SpModel::Basic),
            min_slack: i64::MIN, // ablation mode: accept whatever basic SP gives
            ..Default::default()
        };
        let plan = plan_for_load(&mut slicer, &prog, &profile, &mc, root, &opts).unwrap().unwrap();
        assert_eq!(plan.model, SpModel::Basic);
    }

    #[test]
    fn no_plan_for_unprofiled_load() {
        let (prog, body, _) = pointer_chase();
        let mc = MachineConfig::in_order();
        let profile = Profile::default(); // empty: load never profiled
        let mut slicer = Slicer::new(&prog, &profile, 1);
        let root = InstRef { func: prog.entry, block: body, idx: 2 };
        assert!(plan_for_load(&mut slicer, &prog, &profile, &mc, root, &AdaptOptions::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn slice_size_limit_rejects() {
        let (prog, _, root) = pointer_chase();
        let mc = MachineConfig::in_order();
        let profile = ssp_sim::profile(&prog, &mc);
        let mut slicer = Slicer::new(&prog, &profile, 1);
        let opts = AdaptOptions { max_slice_size: 1, ..Default::default() };
        assert!(plan_for_load(&mut slicer, &prog, &profile, &mc, root, &opts).unwrap().is_none());
    }
}
