//! Natural-loop detection.
//!
//! Loops are the code regions the region-based slicer (§3.1.1) and the
//! chaining-SP scheduler (§3.2) care most about: a region is "a loop, a
//! loop body, or a procedure".

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::program::{BlockId, Function};

/// Index of a loop in a [`LoopForest`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LoopId(pub u32);

/// One natural loop.
#[derive(Clone, Debug)]
pub struct Loop {
    /// The loop header (target of the back edge, dominates all members).
    pub header: BlockId,
    /// All member blocks, header included.
    pub blocks: Vec<BlockId>,
    /// Blocks with a back edge to [`Loop::header`].
    pub latches: Vec<BlockId>,
    /// The immediately enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Loops immediately nested inside this one.
    pub children: Vec<LoopId>,
    /// Nesting depth; outermost loops have depth 1.
    pub depth: u32,
}

impl Loop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// All natural loops of one function, organized as a forest by nesting.
#[derive(Clone, Debug)]
pub struct LoopForest {
    loops: Vec<Loop>,
    /// Innermost loop containing each block, if any.
    innermost: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Detect loops using back edges `latch -> header` where `header`
    /// dominates `latch`, merging loops sharing a header.
    pub fn new(func: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        let n = func.blocks.len();
        // Find back edges and group latches by header.
        let mut latches_by_header: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for &b in cfg.rpo() {
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    latches_by_header[s.index()].push(b);
                }
            }
        }
        let mut loops = Vec::new();
        for h in 0..n {
            if latches_by_header[h].is_empty() {
                continue;
            }
            let header = BlockId(h as u32);
            // Natural loop body: header plus all blocks that reach a latch
            // without going through the header.
            let mut in_loop = vec![false; n];
            in_loop[h] = true;
            let mut work: Vec<BlockId> = latches_by_header[h].clone();
            while let Some(b) = work.pop() {
                if in_loop[b.index()] {
                    continue;
                }
                in_loop[b.index()] = true;
                for &p in cfg.preds(b) {
                    if !in_loop[p.index()] && cfg.is_reachable(p) {
                        work.push(p);
                    }
                }
            }
            let blocks: Vec<BlockId> =
                (0..n).filter(|&i| in_loop[i]).map(|i| BlockId(i as u32)).collect();
            loops.push(Loop {
                header,
                blocks,
                latches: latches_by_header[h].clone(),
                parent: None,
                children: Vec::new(),
                depth: 0,
            });
        }
        // Nesting: loop A is nested in B iff B contains A's header and
        // A != B and B's block set is a strict superset. Choose the
        // smallest enclosing loop as parent.
        let ids: Vec<LoopId> = (0..loops.len()).map(|i| LoopId(i as u32)).collect();
        for &a in &ids {
            let mut best: Option<LoopId> = None;
            for &b in &ids {
                if a == b {
                    continue;
                }
                let la = &loops[a.0 as usize];
                let lb = &loops[b.0 as usize];
                if lb.contains(la.header) && lb.blocks.len() > la.blocks.len() {
                    match best {
                        None => best = Some(b),
                        Some(cur) => {
                            if loops[b.0 as usize].blocks.len() < loops[cur.0 as usize].blocks.len()
                            {
                                best = Some(b);
                            }
                        }
                    }
                }
            }
            loops[a.0 as usize].parent = best;
        }
        for &a in &ids {
            if let Some(p) = loops[a.0 as usize].parent {
                loops[p.0 as usize].children.push(a);
            }
        }
        // Depths.
        for &a in &ids {
            let mut d = 1;
            let mut cur = loops[a.0 as usize].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.0 as usize].parent;
            }
            loops[a.0 as usize].depth = d;
        }
        // Innermost loop per block = containing loop of greatest depth.
        let mut innermost: Vec<Option<LoopId>> = vec![None; n];
        for &a in &ids {
            for &b in &loops[a.0 as usize].blocks {
                let better = match innermost[b.index()] {
                    None => true,
                    Some(cur) => loops[a.0 as usize].depth > loops[cur.0 as usize].depth,
                };
                if better {
                    innermost[b.index()] = Some(a);
                }
            }
        }
        LoopForest { loops, innermost }
    }

    /// The loop with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.0 as usize]
    }

    /// Iterate over all loops.
    pub fn iter(&self) -> impl Iterator<Item = (LoopId, &Loop)> {
        self.loops.iter().enumerate().map(|(i, l)| (LoopId(i as u32), l))
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// Whether the function has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost(&self, b: BlockId) -> Option<LoopId> {
        self.innermost.get(b.index()).copied().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::CmpKind;
    use crate::program::Program;
    use crate::reg::Reg;

    /// Nested loops:
    /// 0 -> 1; 1(outer hdr) -> 2; 2(inner hdr) -> 2,3; 3 -> 1,4; 4: halt
    fn nested() -> Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.entry_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        let b3 = f.new_block();
        let b4 = f.new_block();
        f.at(b0).movi(Reg(1), 0).br(b1);
        f.at(b1).movi(Reg(2), 0).br(b2);
        f.at(b2).add(Reg(2), Reg(2), 1).cmp(CmpKind::Lt, Reg(3), Reg(2), 4).br_cond(Reg(3), b2, b3);
        f.at(b3).add(Reg(1), Reg(1), 1).cmp(CmpKind::Lt, Reg(3), Reg(1), 4).br_cond(Reg(3), b1, b4);
        f.at(b4).halt();
        let main = f.finish();
        pb.finish_with(main)
    }

    fn forest(prog: &Program) -> (LoopForest, Cfg) {
        let func = prog.func(prog.entry);
        let cfg = Cfg::new(func);
        let dom = DomTree::dominators(func, &cfg);
        (LoopForest::new(func, &cfg, &dom), cfg)
    }

    #[test]
    fn finds_two_nested_loops() {
        let prog = nested();
        let (lf, _) = forest(&prog);
        assert_eq!(lf.len(), 2);
        let outer = lf.iter().find(|(_, l)| l.header == BlockId(1)).unwrap();
        let inner = lf.iter().find(|(_, l)| l.header == BlockId(2)).unwrap();
        assert_eq!(outer.1.depth, 1);
        assert_eq!(inner.1.depth, 2);
        assert_eq!(inner.1.parent, Some(outer.0));
        assert!(outer.1.children.contains(&inner.0));
        assert!(outer.1.contains(BlockId(2)));
        assert!(outer.1.contains(BlockId(3)));
        assert!(!inner.1.contains(BlockId(3)));
    }

    #[test]
    fn innermost_maps_blocks_correctly() {
        let prog = nested();
        let (lf, _) = forest(&prog);
        let inner_id = lf.iter().find(|(_, l)| l.header == BlockId(2)).unwrap().0;
        let outer_id = lf.iter().find(|(_, l)| l.header == BlockId(1)).unwrap().0;
        assert_eq!(lf.innermost(BlockId(2)), Some(inner_id));
        assert_eq!(lf.innermost(BlockId(3)), Some(outer_id));
        assert_eq!(lf.innermost(BlockId(0)), None);
        assert_eq!(lf.innermost(BlockId(4)), None);
    }

    #[test]
    fn no_loops_in_straightline_code() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.at(e).movi(Reg(1), 1).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let (lf, _) = forest(&prog);
        assert!(lf.is_empty());
    }
}
