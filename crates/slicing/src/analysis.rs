//! Cached per-function analysis bundles shared by the slicer, scheduler,
//! and trigger placer.

use ssp_ir::cfg::Cfg;
use ssp_ir::dataflow::ReachingDefs;
use ssp_ir::dom::{control_deps, DomTree};
use ssp_ir::loops::LoopForest;
use ssp_ir::{BlockId, FuncId, Program};
use std::collections::HashMap;

/// All the derived views of one function the post-pass tool needs.
#[derive(Debug)]
pub struct FuncAnalyses {
    /// Control-flow graph.
    pub cfg: Cfg,
    /// Dominator tree.
    pub dom: DomTree,
    /// Per-block control dependences (which branch blocks decide whether
    /// each block runs).
    pub cdeps: Vec<Vec<BlockId>>,
    /// Natural loops.
    pub loops: LoopForest,
    /// Reaching definitions over physical registers.
    pub rd: ReachingDefs,
}

impl FuncAnalyses {
    /// Analyse function `fid` of `prog`.
    pub fn new(prog: &Program, fid: FuncId) -> Self {
        let func = prog.func(fid);
        let cfg = Cfg::new(func);
        let dom = DomTree::dominators(func, &cfg);
        let cdeps = control_deps(func, &cfg);
        let loops = LoopForest::new(func, &cfg, &dom);
        let rd = ReachingDefs::new(fid, func, &cfg);
        FuncAnalyses { cfg, dom, cdeps, loops, rd }
    }
}

/// Lazy program-wide analysis cache.
#[derive(Debug, Default)]
pub struct Analyses {
    cache: HashMap<FuncId, FuncAnalyses>,
}

impl Analyses {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The analyses for `fid`, computing them on first use.
    pub fn get(&mut self, prog: &Program, fid: FuncId) -> &FuncAnalyses {
        self.cache.entry(fid).or_insert_with(|| FuncAnalyses::new(prog, fid))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_ir::{CmpKind, ProgramBuilder, Reg};

    #[test]
    fn bundle_builds_for_looped_function() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        f.at(e).movi(Reg(1), 0).br(body);
        f.at(body).add(Reg(1), Reg(1), 1).cmp(CmpKind::Lt, Reg(2), Reg(1), 5).br_cond(
            Reg(2),
            body,
            exit,
        );
        f.at(exit).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let mut a = Analyses::new();
        let fa = a.get(&prog, prog.entry);
        assert_eq!(fa.loops.len(), 1);
        assert_eq!(fa.cfg.rpo().len(), 3);
        // Cache hit returns the same analysis.
        let again = a.get(&prog, prog.entry);
        assert_eq!(again.loops.len(), 1);
    }
}
