//! The conservative dominator-based trigger placement (§3.3).
//!
//! "We only consider the nodes that control-dominate the delinquent loads
//! as potential trigger points … the tool would first place the trigger
//! after the instruction that produces the last live-in to the slice, and
//! then move the trigger points to the immediate control dominant nodes
//! if the slack value of the immediate dominant node remains the same.
//! By moving the triggers to a control dominance point, several triggers
//! may be combined and thus reduce the number of trigger placements."
//!
//! Minimizing live-in copying takes precedence over increasing slack: the
//! chosen point always postdates every live-in producer, so the stub can
//! copy values straight from registers.

use ssp_ir::{BlockId, FuncId, InstRef, Program, Reg};
use ssp_sim::Profile;
use ssp_slicing::{FuncAnalyses, Slice};

/// Where a `chk.c` trigger should be inserted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TriggerPoint {
    /// Containing function.
    pub func: FuncId,
    /// Containing block.
    pub block: BlockId,
    /// Insert after this instruction index; `None` = at block start.
    pub after: Option<usize>,
}

/// How live-in values are consumed, which decides where the trigger may
/// sit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TriggerStyle {
    /// Chaining SP: each fired trigger seeds one chain link with the main
    /// thread's *current* values, so in-region producers are fair game —
    /// the trigger re-fires each iteration (suppressed while the chain
    /// keeps the contexts busy).
    PerIteration,
    /// Basic SP: the slice is a loop that starts from the region-entry
    /// values, so only producers outside the region qualify and the
    /// trigger fires once per region entry.
    PerRegionEntry,
}

/// Choose the trigger point for `slice` using the dominator heuristic.
///
/// The point is the latest live-in-producing instruction compatible with
/// `style` (see [`TriggerStyle`]); with no eligible producer the load
/// block's start is used. The point is then hoisted to immediate
/// dominators while the hoist keeps the execution frequency — our
/// stand-in for "the slack value remains the same" — and stays below
/// every live-in producer.
pub fn place_trigger(
    prog: &Program,
    fa: &FuncAnalyses,
    profile: &Profile,
    slice: &Slice,
    style: TriggerStyle,
) -> TriggerPoint {
    let fid = slice.func;
    let load = slice.root;
    let depth = |b: BlockId| fa.dom.ancestors(b).len();
    let in_region = |b: BlockId| slice.region.contains(&b);

    // The region's loop skeleton: its header is the region block that
    // dominates all the others, its latches the region blocks that
    // branch back to the header. A block dominating every latch lies on
    // every iteration of the region loop.
    let header = slice
        .region
        .iter()
        .copied()
        .find(|&h| slice.region.iter().all(|&b| fa.dom.dominates(h, b)));
    let latches: Vec<BlockId> = header
        .map(|h| {
            slice
                .region
                .iter()
                .copied()
                .filter(|&b| prog.func(fid).block(b).terminator().branch_targets().contains(&h))
                .collect()
        })
        .unwrap_or_default();
    let every_iteration =
        |b: BlockId| !latches.is_empty() && latches.iter().all(|&l| fa.dom.dominates(b, l));

    // Candidate producers: defs of live-in registers that reach the load.
    let mut best: Option<InstRef> = None;
    for &r in &slice.live_ins {
        for d in defs_reaching_root(fa, load, r) {
            let eligible = match style {
                // Only points that control-dominate the loads qualify
                // (§3.3) — with the per-iteration refinement that a
                // point crossed by *every* iteration of the region loop
                // (it dominates all latches, e.g. the induction update
                // in a single latch) also covers the loads: it fires for
                // the next iteration's instances. A producer in a
                // conditional arm or deeper loop satisfies neither, and
                // would leave hot paths to the loads uncovered.
                TriggerStyle::PerIteration => {
                    d.block == load.block
                        || fa.dom.dominates(d.block, load.block)
                        || (in_region(d.block) && every_iteration(d.block))
                }
                // Outside the region, dominating the load: the values the
                // basic slice loops from.
                TriggerStyle::PerRegionEntry => {
                    !in_region(d.block) && fa.dom.dominates(d.block, load.block)
                }
            };
            if !eligible {
                continue;
            }
            let better = match best {
                None => true,
                Some(cur) => {
                    // Prefer in-region producers for per-iteration
                    // triggers, then dominator depth, then block position.
                    let (ir_c, ir_d) = (in_region(cur.block), in_region(d.block));
                    if style == TriggerStyle::PerIteration && ir_c != ir_d {
                        ir_d
                    } else {
                        let (dc, db) = (depth(cur.block), depth(d.block));
                        db > dc || (db == dc && d.block == cur.block && d.idx > cur.idx)
                    }
                }
            };
            if better {
                best = Some(d);
            }
        }
    }

    let (mut block, after) = match best {
        Some(d) => (d.block, Some(d.idx)),
        None => match style {
            TriggerStyle::PerIteration => (load.block, None),
            // No outside producer: fall back to the nearest dominator
            // outside the region (the region-entry point).
            TriggerStyle::PerRegionEntry => {
                let mut b = load.block;
                while in_region(b) {
                    match fa.dom.idom(b) {
                        Some(p) => b = p,
                        None => break,
                    }
                }
                (b, None)
            }
        },
    };

    // Hoist block-start triggers up the dominator tree while frequency is
    // unchanged (same-slack hoist) — this is what lets several loads'
    // triggers combine at one dominance point.
    if after.is_none() {
        while let Some(up) = fa.dom.idom(block) {
            if profile.block_count(fid, up) != profile.block_count(fid, block) {
                break;
            }
            // Never hoist above a live-in producer.
            let producers_ok = slice.live_ins.iter().all(|&r| {
                defs_reaching_root(fa, load, r).iter().all(|d| {
                    d.block != up && fa.dom.dominates(d.block, up) || d.block == load.block
                })
            });
            if !producers_ok {
                break;
            }
            block = up;
        }
    }
    TriggerPoint { func: fid, block, after }
}

/// Definitions of `r` reaching the slice root.
fn defs_reaching_root(fa: &FuncAnalyses, load: InstRef, r: Reg) -> Vec<InstRef> {
    fa.rd.reaching(load.block, load.idx, r).into_iter().map(|d| d.at).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_ir::{CmpKind, Operand, ProgramBuilder, Reg};
    use ssp_sim::MachineConfig;
    use ssp_slicing::{Analyses, Slicer};

    /// The mcf-like loop; the trigger must land right after `arc`'s
    /// in-loop update (the last live-in producer), i.e. per iteration.
    #[test]
    fn trigger_after_last_live_in_producer_in_loop() {
        let mut pb = ProgramBuilder::new();
        for i in 0..64u64 {
            pb.data_word(0x1000 + 64 * i, 0x9000 + 64 * i);
        }
        let mut f = pb.function("main");
        let e = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        let (arc, k, t, u, v, p) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(70));
        f.at(e).movi(arc, 0x1000).movi(k, 0x1000 + 64 * 64).br(body);
        f.at(body)
            .mov(t, arc) // 0
            .ld(u, t, 0) // 1
            .ld(v, u, 0) // 2 root
            .add(arc, t, 64) // 3  <- last live-in (arc) producer
            .cmp(CmpKind::Lt, p, arc, Operand::Reg(k)) // 4
            .br_cond(p, body, exit); // 5
        f.at(exit).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let profile = ssp_sim::profile(&prog, &MachineConfig::in_order());
        let root = InstRef { func: prog.entry, block: body, idx: 2 };
        let mut slicer = Slicer::new(&prog, &profile, 1);
        let slice = slicer.slice_in_region(root, &[body]).unwrap();
        let mut an = Analyses::new();
        let fa = an.get(&prog, prog.entry);
        let tp = place_trigger(&prog, fa, &profile, &slice, TriggerStyle::PerIteration);
        assert_eq!(tp.block, body, "trigger stays in the loop (refires per iteration)");
        assert_eq!(tp.after, Some(3), "right after the arc update");
        // Basic SP wants region-entry values instead: the trigger moves
        // out of the loop, after the outside producer of `arc`.
        let tp = place_trigger(&prog, fa, &profile, &slice, TriggerStyle::PerRegionEntry);
        assert_eq!(tp.block, ssp_ir::BlockId(0));
        assert_eq!(tp.after, Some(1), "after `movi k`, the last outside producer");
    }

    /// A straight-line region: live-ins defined in the entry; trigger
    /// after the last producer there.
    #[test]
    fn trigger_in_dominating_block_for_straightline_load() {
        let mut pb = ProgramBuilder::new();
        pb.data_word(0x2000, 0x3000);
        let mut f = pb.function("main");
        let e = f.entry_block();
        let mid = f.new_block();
        let (a, b, u) = (Reg(64), Reg(65), Reg(66));
        f.at(e).movi(a, 0x2000).movi(b, 8).br(mid);
        f.at(mid)
            .ld(u, a, 0) // root: needs a only
            .add(Reg(67), u, Operand::Reg(b))
            .halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let profile = ssp_sim::profile(&prog, &MachineConfig::in_order());
        let root = InstRef { func: prog.entry, block: mid, idx: 0 };
        let mut slicer = Slicer::new(&prog, &profile, 1);
        let slice = slicer.slice_in_region(root, &[mid]).unwrap();
        assert!(slice.live_ins.contains(&a));
        let mut an = Analyses::new();
        let fa = an.get(&prog, prog.entry);
        let tp = place_trigger(&prog, fa, &profile, &slice, TriggerStyle::PerIteration);
        assert_eq!(tp.block, e);
        assert_eq!(tp.after, Some(0), "after `movi a` — the only producer of a live-in");
    }
}
