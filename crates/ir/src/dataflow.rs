//! Register dataflow over machine code: reaching definitions (giving
//! def-use chains) and the upward-exposed uses of a block subgraph.
//!
//! A post-pass tool sees physical registers, so dependences are recovered
//! with classic bit-vector dataflow rather than read off SSA. Call
//! instructions define every scratch register (the convention clobbers of
//! [`crate::reg::conv`]), which is exactly how a binary analyzer must treat
//! them.

use crate::cfg::Cfg;
use crate::program::{BlockId, FuncId, Function, InstRef};
use crate::reg::{Reg, NUM_REGS};
use std::collections::HashMap;

/// A definition site: which instruction, which register.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DefSite {
    /// The defining instruction.
    pub at: InstRef,
    /// The register defined.
    pub reg: Reg,
}

/// A plain growable bitset.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set sized for `n` elements.
    pub fn new(n: usize) -> Self {
        BitSet { words: vec![0; n.div_ceil(64)] }
    }

    /// Insert `i`; returns whether the set changed.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        let old = self.words[w];
        self.words[w] |= 1 << b;
        self.words[w] != old
    }

    /// Remove `i`.
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        self.words[w] &= !(1 << b);
    }

    /// Whether `i` is present.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        self.words.get(w).is_some_and(|x| x & (1 << b) != 0)
    }

    /// `self |= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Iterate over set members.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter(move |b| w & (1 << b) != 0).map(move |b| wi * 64 + b)
        })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Reaching definitions for one function, exposing def-use chains.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    /// All definition sites, densely numbered.
    defs: Vec<DefSite>,
    /// Reaching-def set at each instruction's *input*, per block then
    /// instruction index. Only reachable blocks are populated.
    reach_in: HashMap<(BlockId, usize), BitSet>,
    /// Defs of each register, as indices into `defs`.
    defs_of_reg: Vec<Vec<usize>>,
}

impl ReachingDefs {
    /// Run the analysis on `func` (identified by `fid` for [`InstRef`]s).
    pub fn new(fid: FuncId, func: &Function, cfg: &Cfg) -> Self {
        // Enumerate definition sites.
        let mut defs: Vec<DefSite> = Vec::new();
        let mut defs_of_reg: Vec<Vec<usize>> = vec![Vec::new(); NUM_REGS];
        for (bid, block) in func.iter_blocks() {
            for (i, inst) in block.insts.iter().enumerate() {
                let at = InstRef { func: fid, block: bid, idx: i };
                if let Some(r) = inst.op.def() {
                    defs_of_reg[r.index()].push(defs.len());
                    defs.push(DefSite { at, reg: r });
                }
                for r in inst.op.extra_defs() {
                    defs_of_reg[r.index()].push(defs.len());
                    defs.push(DefSite { at, reg: r });
                }
            }
        }
        let nd = defs.len();
        // Per-block GEN/KILL.
        let nb = func.blocks.len();
        let mut gen = vec![BitSet::new(nd); nb];
        let mut kill = vec![BitSet::new(nd); nb];
        let mut def_idx = 0usize;
        for (bid, block) in func.iter_blocks() {
            for inst in &block.insts {
                let mut regs: Vec<Reg> = Vec::new();
                if let Some(r) = inst.op.def() {
                    regs.push(r);
                }
                regs.extend(inst.op.extra_defs());
                for r in regs {
                    let this = def_idx;
                    def_idx += 1;
                    // Kill all other defs of r; gen this one.
                    for &d in &defs_of_reg[r.index()] {
                        if d != this {
                            kill[bid.index()].insert(d);
                        }
                        gen[bid.index()].remove(d);
                    }
                    gen[bid.index()].insert(this);
                }
            }
        }
        // Iterate to a fixed point over reachable blocks.
        let mut inn = vec![BitSet::new(nd); nb];
        let mut out = vec![BitSet::new(nd); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo() {
                let mut new_in = BitSet::new(nd);
                for &p in cfg.preds(b) {
                    new_in.union_with(&out[p.index()]);
                }
                let mut new_out = new_in.clone();
                new_out.subtract(&kill[b.index()]);
                new_out.union_with(&gen[b.index()]);
                if new_in != inn[b.index()] || new_out != out[b.index()] {
                    inn[b.index()] = new_in;
                    out[b.index()] = new_out;
                    changed = true;
                }
            }
        }
        // Per-instruction reaching sets by walking each block.
        let mut reach_in = HashMap::new();
        // Index defs per instruction for the walk.
        let mut defs_at: HashMap<InstRef, Vec<usize>> = HashMap::new();
        for (i, d) in defs.iter().enumerate() {
            defs_at.entry(d.at).or_default().push(i);
        }
        for &bid in cfg.rpo() {
            let mut cur = inn[bid.index()].clone();
            for (i, _inst) in func.block(bid).insts.iter().enumerate() {
                reach_in.insert((bid, i), cur.clone());
                let at = InstRef { func: fid, block: bid, idx: i };
                if let Some(ds) = defs_at.get(&at) {
                    for &d in ds {
                        for &other in &defs_of_reg[defs[d].reg.index()] {
                            cur.remove(other);
                        }
                        cur.insert(d);
                    }
                }
            }
        }
        ReachingDefs { defs, reach_in, defs_of_reg }
    }

    /// The definitions of register `r` that reach the input of the
    /// instruction at `(block, idx)`.
    pub fn reaching(&self, block: BlockId, idx: usize, r: Reg) -> Vec<DefSite> {
        let Some(set) = self.reach_in.get(&(block, idx)) else {
            return Vec::new();
        };
        self.defs_of_reg[r.index()]
            .iter()
            .filter(|&&d| set.contains(d))
            .map(|&d| self.defs[d])
            .collect()
    }
}

/// Registers read before being written on some path from `entry` through
/// `blocks` — the upward-exposed uses of that subgraph.
///
/// This is raw register liveness at `entry` restricted to the given
/// block set (successor edges leaving the set are ignored), with no
/// calling-convention uses added at `Ret`: the caller gets exactly the
/// registers some instruction reads without a prior in-subgraph
/// definition. The SSP linter uses it to prove a speculative slice reads
/// nothing beyond its live-in buffer slot: the child context starts
/// zeroed, so every upward-exposed register of the slice body must be
/// copied in by the stub, and to find which registers the main thread
/// still reads after a trigger's resume point.
pub fn upward_exposed_uses(func: &Function, entry: BlockId, blocks: &[BlockId]) -> Vec<Reg> {
    let in_sub = {
        let mut v = vec![false; func.blocks.len()];
        for b in blocks {
            v[b.index()] = true;
        }
        v
    };
    if !in_sub[entry.index()] {
        return Vec::new();
    }
    // Per-block upward-exposed uses and definitions.
    let nb = func.blocks.len();
    let mut use_set = vec![BitSet::new(NUM_REGS); nb];
    let mut def_set = vec![BitSet::new(NUM_REGS); nb];
    for &bid in blocks {
        for inst in &func.block(bid).insts {
            for u in inst.op.uses() {
                if !def_set[bid.index()].contains(u.index()) {
                    use_set[bid.index()].insert(u.index());
                }
            }
            if let Some(d) = inst.op.def() {
                def_set[bid.index()].insert(d.index());
            }
            for d in inst.op.extra_defs() {
                def_set[bid.index()].insert(d.index());
            }
        }
    }
    // Backward fixpoint over the subgraph.
    let mut live_in = vec![BitSet::new(NUM_REGS); nb];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in blocks.iter().rev() {
            let mut new_in = BitSet::new(NUM_REGS);
            for t in func.block(b).terminator().branch_targets() {
                if in_sub[t.index()] {
                    new_in.union_with(&live_in[t.index()]);
                }
            }
            new_in.subtract(&def_set[b.index()]);
            new_in.union_with(&use_set[b.index()]);
            if new_in != live_in[b.index()] {
                live_in[b.index()] = new_in;
                changed = true;
            }
        }
    }
    live_in[entry.index()].iter().map(|i| Reg(i as u16)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::inst::CmpKind;
    use crate::program::Program;
    use crate::reg::{conv, Reg};

    fn simple_loop() -> Program {
        // b0: r1=0; r2=100        -> b1
        // b1: r1=r1+1; r3=ld[r2]; p=r1<10 -> b1 | b2
        // b2: halt
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let b0 = f.entry_block();
        let b1 = f.new_block();
        let b2 = f.new_block();
        f.at(b0).movi(Reg(1), 0).movi(Reg(2), 100).br(b1);
        f.at(b1)
            .add(Reg(1), Reg(1), 1)
            .ld(Reg(3), Reg(2), 0)
            .cmp(CmpKind::Lt, Reg(4), Reg(1), 10)
            .br_cond(Reg(4), b1, b2);
        f.at(b2).halt();
        let main = f.finish();
        pb.finish_with(main)
    }

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
        s.remove(0);
        assert!(!s.contains(0));
        let mut t = BitSet::new(130);
        t.insert(5);
        assert!(s.union_with(&t));
        assert!(s.contains(5));
        s.subtract(&t);
        assert!(!s.contains(5));
    }

    #[test]
    fn reaching_defs_through_loop() {
        let prog = simple_loop();
        let fid = prog.entry;
        let func = prog.func(fid);
        let cfg = Cfg::new(func);
        let rd = ReachingDefs::new(fid, func, &cfg);
        // At the add in b1 (idx 0), r1 is reached by both the movi in b0
        // and the add itself (loop-carried).
        let reaching = rd.reaching(BlockId(1), 0, Reg(1));
        assert_eq!(reaching.len(), 2);
        let blocks: Vec<BlockId> = reaching.iter().map(|d| d.at.block).collect();
        assert!(blocks.contains(&BlockId(0)));
        assert!(blocks.contains(&BlockId(1)));
        // r2 at the load: only the movi in b0.
        let reaching = rd.reaching(BlockId(1), 1, Reg(2));
        assert_eq!(reaching.len(), 1);
        assert_eq!(reaching[0].at.block, BlockId(0));
    }

    #[test]
    fn call_clobbers_are_defs() {
        let mut pb = ProgramBuilder::new();
        let main_id = pb.declare();
        let h_id = pb.declare();
        let mut m = pb.define(main_id, "main");
        let e = m.entry_block();
        // r8 = 1; call h; use r8 -> the call's clobber def must reach.
        m.at(e).movi(conv::RV, 1).call(h_id, 0).mov(Reg(20), conv::RV).halt();
        let m = m.finish();
        let mut h = pb.define(h_id, "h");
        let e2 = h.entry_block();
        h.at(e2).ret();
        let h = h.finish();
        pb.install(m);
        pb.install(h);
        let prog = pb.finish(main_id);
        let func = prog.func(main_id);
        let cfg = Cfg::new(func);
        let rd = ReachingDefs::new(main_id, func, &cfg);
        // At the mov (idx 2), only the call (idx 1) reaches for r8.
        let reaching = rd.reaching(BlockId(0), 2, conv::RV);
        assert_eq!(reaching.len(), 1);
        assert_eq!(reaching[0].at.idx, 1);
    }

    #[test]
    fn upward_exposed_uses_in_loop_subgraph() {
        let prog = simple_loop();
        let func = prog.func(prog.entry);
        // Over the loop body alone: r1 (incremented), r2 (load base) and
        // nothing else are read before written; r3 and r4 are defined
        // before any use.
        let exposed = upward_exposed_uses(func, BlockId(1), &[BlockId(1)]);
        assert_eq!(exposed, vec![Reg(1), Reg(2)]);
        // From the entry over the whole function nothing is exposed: b0
        // defines r1 and r2 first.
        let all = [BlockId(0), BlockId(1), BlockId(2)];
        assert_eq!(upward_exposed_uses(func, BlockId(0), &all), Vec::<Reg>::new());
        // Entry outside the subgraph: nothing to report.
        assert_eq!(upward_exposed_uses(func, BlockId(2), &[BlockId(1)]), Vec::<Reg>::new());
    }
}
