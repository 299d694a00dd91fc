//! The profiling pass: a fast functional run with cache simulation.
//!
//! The post-pass tool's first step (Figure 1) runs the original binary to
//! collect (a) cache profiles per static load, used to identify delinquent
//! loads and annotate dependence edges with latencies, (b) basic-block and
//! edge frequencies, used by speculative slicing and trigger placement,
//! and (c) the dynamic call graph from instrumented indirect calls.
//!
//! Time advances by one unit per executed instruction — a cheap proxy for
//! cycles that preserves the reuse-distance structure the cache model
//! needs (the timed engine is an order of magnitude slower and is not
//! needed for profiling).

use crate::cache::{Hierarchy, HitWhere};
use crate::config::MachineConfig;
use crate::exec::{alu_eval, cmp_eval, falu_eval, RegFile};
use crate::mem::Memory;
use crate::stats::LoadStats;
use ssp_ir::reg::conv;
use ssp_ir::{BlockId, FuncId, InstRef, InstTag, Op, Program};
use std::collections::HashMap;
use std::sync::Arc;

/// Cache behaviour of one static load.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LoadProfile {
    /// Dynamic executions.
    pub accesses: u64,
    /// L1 misses.
    pub misses: u64,
    /// Total cycles beyond an L1 hit spent servicing this load's misses —
    /// the "miss cycles" of §3.4.1's region selection.
    pub miss_cycles: u64,
    /// Full hit-level breakdown.
    pub stats: LoadStats,
}

/// Result of a profiling run.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-static-load cache behaviour.
    pub loads: HashMap<InstTag, LoadProfile>,
    /// Basic-block execution counts.
    pub block_freq: HashMap<(FuncId, BlockId), u64>,
    /// Taken CFG edge counts `(func, from, to)`.
    pub edge_freq: HashMap<(FuncId, BlockId, BlockId), u64>,
    /// Observed targets of indirect call sites, with counts.
    pub indirect_targets: HashMap<InstRef, HashMap<FuncId, u64>>,
    /// Per call site: total dynamic instructions executed between the
    /// call and its return (nested work included) and invocation count —
    /// the latency estimate for `Call` nodes in dependence graphs.
    pub call_cost: HashMap<InstRef, (u64, u64)>,
    /// Instructions executed (inside the ROI).
    pub insts: u64,
}

impl Profile {
    /// The delinquent loads: the smallest set of static loads covering at
    /// least `coverage` (e.g. 0.9) of all miss cycles, ordered by
    /// decreasing contribution. Loads with zero misses never qualify.
    pub fn delinquent_loads(&self, coverage: f64) -> Vec<InstTag> {
        let total: u64 = self.loads.values().map(|l| l.miss_cycles).sum();
        if total == 0 {
            return Vec::new();
        }
        let mut entries: Vec<(InstTag, u64)> = self
            .loads
            .iter()
            .filter(|(_, l)| l.miss_cycles > 0)
            .map(|(t, l)| (*t, l.miss_cycles))
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = Vec::new();
        let mut acc = 0u64;
        let target = (coverage * total as f64).ceil() as u64;
        for (tag, mc) in entries {
            if acc >= target {
                break;
            }
            out.push(tag);
            acc += mc;
        }
        out
    }

    /// Execution count of block `b` in `f`.
    pub fn block_count(&self, f: FuncId, b: BlockId) -> u64 {
        self.block_freq.get(&(f, b)).copied().unwrap_or(0)
    }

    /// Average dynamic instructions per invocation of the call at `site`
    /// (nested calls included), if it was profiled.
    pub fn avg_call_cost(&self, site: InstRef) -> Option<f64> {
        self.call_cost.get(&site).and_then(|&(total, n)| (n > 0).then(|| total as f64 / n as f64))
    }

    /// Average trip count of a loop given its header and preheader
    /// predecessors: header executions divided by entries from outside.
    pub fn trip_count(&self, f: FuncId, header: BlockId, outside_preds: &[BlockId]) -> f64 {
        let h = self.block_count(f, header) as f64;
        let entries: u64 = outside_preds
            .iter()
            .map(|&p| self.edge_freq.get(&(f, p, header)).copied().unwrap_or(0))
            .sum();
        if entries == 0 {
            if h > 0.0 {
                h
            } else {
                0.0
            }
        } else {
            h / entries as f64
        }
    }
}

/// Run the profiler over `prog` with the cache geometry of `cfg`.
///
/// Execution is purely functional (no pipeline); SSP operations behave as
/// no-ops (`chk.c` never raises, `spawn` never spawns), matching a profile
/// of the *original* binary.
///
/// # Panics
///
/// Panics if the program executes more than `limit` instructions
/// (runaway guard), with `limit = 500_000_000`.
pub fn profile(prog: &Program, cfg: &MachineConfig) -> Profile {
    let mut mem = Memory::new(Arc::clone(&prog.image));
    let mut hier = Hierarchy::new(cfg);
    let mut rf = RegFile::new();
    rf.write(conv::SP, 0x7FFF_FF00_0000);
    let mut stack: Vec<(InstRef, InstRef, u64)> = Vec::new(); // (ret to, site, insts at entry)
    let entry_block = prog.func(prog.entry).entry;
    let mut pc = InstRef { func: prog.entry, block: entry_block, idx: 0 };
    let mut out = Profile::default();

    let mut in_roi = !prog.has_roi();

    let mut t: u64 = 0;
    let limit: u64 = 500_000_000;
    let mut executed: u64 = 0;
    // Count block entry for the entry block.
    if in_roi {
        *out.block_freq.entry((pc.func, pc.block)).or_insert(0) += 1;
    }

    loop {
        executed += 1;
        assert!(executed < limit, "profiler runaway: >{limit} instructions");
        t += 1;
        if in_roi {
            out.insts += 1;
        }
        let inst = prog.inst(pc);
        let next = InstRef { idx: pc.idx + 1, ..pc };
        let enter =
            |out: &mut Profile, in_roi: bool, f: FuncId, from: Option<BlockId>, b: BlockId| {
                if in_roi {
                    *out.block_freq.entry((f, b)).or_insert(0) += 1;
                    if let Some(fr) = from {
                        *out.edge_freq.entry((f, fr, b)).or_insert(0) += 1;
                    }
                }
            };
        match inst.op {
            Op::Movi { dst, imm } => {
                rf.write(dst, imm as u64);
                pc = next;
            }
            Op::Mov { dst, src } => {
                let v = rf.read(src);
                rf.write(dst, v);
                pc = next;
            }
            Op::Alu { kind, dst, a, b } => {
                let v = alu_eval(kind, rf.read(a), rf.operand(b));
                rf.write(dst, v);
                pc = next;
            }
            Op::Cmp { kind, dst, a, b } => {
                let v = cmp_eval(kind, rf.read(a), rf.operand(b));
                rf.write(dst, v);
                pc = next;
            }
            Op::FAlu { kind, dst, a, b } => {
                let v = falu_eval(kind, rf.read(a), rf.read(b));
                rf.write(dst, v);
                pc = next;
            }
            Op::Ld { dst, base, off } => {
                let addr = rf.read(base).wrapping_add(off as u64);
                rf.write(dst, mem.read(addr));
                let r = hier.access_load(addr, t);
                if in_roi {
                    let lp = out.loads.entry(inst.tag).or_default();
                    lp.accesses += 1;
                    lp.stats.record(r.hit);
                    if r.hit != HitWhere::L1 {
                        lp.misses += 1;
                        lp.miss_cycles += (r.ready_at - t).saturating_sub(cfg.l1d.latency);
                    }
                }
                pc = next;
            }
            Op::St { src, base, off } => {
                let addr = rf.read(base).wrapping_add(off as u64);
                mem.write(addr, rf.read(src));
                hier.access_store(addr, t);
                pc = next;
            }
            Op::Lfetch { base, off } => {
                let addr = rf.read(base).wrapping_add(off as u64);
                hier.access_prefetch(addr, t);
                pc = next;
            }
            Op::Br { target } => {
                enter(&mut out, in_roi, pc.func, Some(pc.block), target);
                pc = InstRef { func: pc.func, block: target, idx: 0 };
            }
            Op::BrCond { pred, if_true, if_false } => {
                let target = if rf.read(pred) != 0 { if_true } else { if_false };
                enter(&mut out, in_roi, pc.func, Some(pc.block), target);
                pc = InstRef { func: pc.func, block: target, idx: 0 };
            }
            Op::Call { callee, .. } => {
                stack.push((next, pc, executed));
                let eb = prog.func(callee).entry;
                enter(&mut out, in_roi, callee, None, eb);
                pc = InstRef { func: callee, block: eb, idx: 0 };
            }
            Op::CallInd { target, .. } => {
                let v = rf.read(target);
                match FuncId::from_value(v) {
                    Some(f) if (f.0 as usize) < prog.funcs.len() => {
                        if in_roi {
                            *out.indirect_targets.entry(pc).or_default().entry(f).or_insert(0) += 1;
                        }
                        stack.push((next, pc, executed));
                        let eb = prog.func(f).entry;
                        enter(&mut out, in_roi, f, None, eb);
                        pc = InstRef { func: f, block: eb, idx: 0 };
                    }
                    _ => break, // wild indirect call ends the run
                }
            }
            Op::Ret => match stack.pop() {
                Some((r, site, at_entry)) => {
                    let c = out.call_cost.entry(site).or_insert((0, 0));
                    c.0 += executed - at_entry;
                    c.1 += 1;
                    pc = r;
                }
                None => break,
            },
            // SSP operations are inert during profiling.
            Op::ChkC { .. }
            | Op::Spawn { .. }
            | Op::LibAlloc { .. }
            | Op::LibSt { .. }
            | Op::LibLd { .. }
            | Op::LibFree { .. }
            | Op::Nop => {
                pc = next;
            }
            Op::KillThread | Op::Halt => break,
            Op::RoiBegin => {
                in_roi = true;
                // Attribute the current block so frequencies line up.
                *out.block_freq.entry((pc.func, pc.block)).or_insert(0) += 1;
                pc = next;
            }
            Op::RoiEnd => {
                in_roi = false;
                pc = next;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_ir::{CmpKind, ProgramBuilder, Reg};

    /// A loop reading a large array with 64B stride: every load misses.
    fn missy_loop(n: i64) -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.at(b0).movi(Reg(1), 0x10_0000).movi(Reg(2), 0).movi(Reg(3), n).br(body);
        f.at(body)
            .ld(Reg(4), Reg(1), 0)
            .add(Reg(1), Reg(1), 64)
            .add(Reg(2), Reg(2), 1)
            .cmp(CmpKind::Lt, Reg(5), Reg(2), ssp_ir::Operand::Reg(Reg(3)))
            .br_cond(Reg(5), body, exit);
        f.at(exit).halt();
        let main = f.finish();
        pb.finish_with(main)
    }

    #[test]
    fn profiles_block_frequencies() {
        let prog = missy_loop(100);
        let p = profile(&prog, &MachineConfig::in_order());
        let f = prog.entry;
        assert_eq!(p.block_count(f, BlockId(0)), 1);
        assert_eq!(p.block_count(f, BlockId(1)), 100);
        assert_eq!(p.block_count(f, BlockId(2)), 1);
        assert_eq!(p.edge_freq[&(f, BlockId(1), BlockId(1))], 99);
    }

    #[test]
    fn identifies_delinquent_load() {
        let prog = missy_loop(200);
        let p = profile(&prog, &MachineConfig::in_order());
        let del = p.delinquent_loads(0.9);
        assert_eq!(del.len(), 1, "the strided load dominates misses");
        let lp = &p.loads[&del[0]];
        assert_eq!(lp.accesses, 200);
        assert_eq!(lp.misses, 200, "64B stride = one miss per access");
        assert!(lp.miss_cycles > 200 * 200, "each miss costs ~memory latency");
    }

    #[test]
    fn no_delinquent_loads_without_misses() {
        // Tiny loop over one cached word.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.at(b0).movi(Reg(1), 0x1000).movi(Reg(2), 0).br(body);
        f.at(body)
            .ld(Reg(4), Reg(1), 0)
            .add(Reg(2), Reg(2), 1)
            .cmp(CmpKind::Lt, Reg(5), Reg(2), 200)
            .br_cond(Reg(5), body, exit);
        f.at(exit).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let p = profile(&prog, &MachineConfig::in_order());
        // One compulsory miss to memory; iterations arriving while the
        // line is in transit are partial hits (still L1 misses), and once
        // the fill lands everything hits L1.
        let del = p.delinquent_loads(0.9);
        assert!(del.len() <= 1);
        let lp = p.loads.values().next().unwrap();
        assert_eq!(lp.stats.mem, 1, "exactly one access went all the way to memory");
        assert_eq!(lp.stats.mem + lp.stats.mem_partial + lp.stats.l1, lp.accesses);
        assert!(lp.stats.l1 > 0, "post-fill iterations hit L1");
    }

    #[test]
    fn trip_count_estimation() {
        let prog = missy_loop(40);
        let p = profile(&prog, &MachineConfig::in_order());
        let f = prog.entry;
        let tc = p.trip_count(f, BlockId(1), &[BlockId(0)]);
        assert!((tc - 40.0).abs() < 1e-9, "tc = {tc}");
    }

    #[test]
    fn roi_markers_scope_the_profile() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        // Pre-ROI load, then ROI with a small loop.
        f.at(b0).movi(Reg(1), 0x2000).ld(Reg(4), Reg(1), 0).roi_begin().movi(Reg(2), 0).br(body);
        f.at(body).add(Reg(2), Reg(2), 1).cmp(CmpKind::Lt, Reg(5), Reg(2), 10).br_cond(
            Reg(5),
            body,
            exit,
        );
        f.at(exit).roi_end().halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let p = profile(&prog, &MachineConfig::in_order());
        assert!(p.loads.is_empty(), "pre-ROI load not profiled");
        assert_eq!(p.block_count(prog.entry, BlockId(1)), 10);
    }
}
