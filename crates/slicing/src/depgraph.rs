//! Instruction-level dependence graphs over a code region.
//!
//! The slice and its "annotated dependence edges between the nodes in the
//! slice form the dependence graph of the slice" (§3.2); the scheduler
//! partitions it into strongly connected components and list-schedules the
//! result. Edges carry latencies: "the latency of a memory operation is
//! determined by cache profiling, and the machine model provides latency
//! estimates for other instructions".

use crate::analysis::FuncAnalyses;
use ssp_ir::{BlockId, FuncId, InstRef, Op, Program, Reg};
use ssp_sim::{MachineConfig, Profile};
use std::collections::{HashMap, HashSet};

/// Kind of a dependence edge.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum DepKind {
    /// Register flow dependence through `Reg`.
    Data(Reg),
    /// Control dependence on a branch.
    Control,
}

/// A dependence edge `from -> to`: `to` consumes what `from` produces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DepEdge {
    /// Producer node index.
    pub from: usize,
    /// Consumer node index.
    pub to: usize,
    /// What kind of dependence.
    pub kind: DepKind,
    /// True when the value flows around a back edge (iteration i
    /// produces, iteration i+1 consumes).
    pub carried: bool,
    /// For carried edges: true when the flow stays inside a *nested*
    /// loop (it never passes the region header). Inner-carried
    /// dependences serialize iterations of the inner loop, not the
    /// chaining threads that each execute one region iteration — the
    /// scheduler drops them (the emitted slice is the straight-line
    /// speculative body of one region iteration).
    pub inner: bool,
    /// Latency of the producer, in cycles.
    pub latency: u64,
}

/// The dependence graph of the instructions in one region (a set of blocks
/// of one function, typically a loop body).
#[derive(Clone, Debug)]
pub struct RegionDepGraph {
    /// Nodes in program order (block RPO, then instruction index).
    pub nodes: Vec<InstRef>,
    /// Edges; `from`/`to` index into [`RegionDepGraph::nodes`].
    pub edges: Vec<DepEdge>,
    index: HashMap<InstRef, usize>,
}

/// Latency estimate for one operation: cache profile average for loads,
/// machine-model estimates otherwise (§3.2.1).
pub fn latency_of(op: &Op, tag: ssp_ir::InstTag, profile: &Profile, mc: &MachineConfig) -> u64 {
    match op {
        Op::Ld { .. } => match profile.loads.get(&tag) {
            Some(lp) if lp.accesses > 0 => mc.l1d.latency + lp.miss_cycles / lp.accesses,
            _ => mc.l1d.latency,
        },
        Op::Alu { kind: ssp_ir::AluKind::Mul, .. } => mc.mul_latency,
        Op::FAlu { .. } => mc.fp_latency,
        Op::LibAlloc { .. } | Op::LibLd { .. } | Op::LibSt { .. } | Op::LibFree { .. } => {
            mc.lib_latency
        }
        _ => mc.int_latency,
    }
}

/// Location-aware latency estimate: like [`latency_of`], but `Call`
/// instructions cost their profiled per-invocation dynamic instruction
/// count (a cheap proxy for cycles) — region heights through calls would
/// otherwise pretend callees are free.
pub fn latency_of_at(prog: &Program, at: InstRef, profile: &Profile, mc: &MachineConfig) -> u64 {
    let inst = prog.inst(at);
    if inst.op.is_call() {
        return profile.avg_call_cost(at).map_or(mc.int_latency, |c| (c as u64).clamp(1, 100_000));
    }
    latency_of(&inst.op, inst.tag, profile, mc)
}

impl RegionDepGraph {
    /// Build the dependence graph for the given `blocks` of function
    /// `fid`. Data edges come from reaching definitions restricted to the
    /// region; an edge is *carried* when the definition cannot reach the
    /// use without following a back edge of the region. Control edges
    /// connect each instruction to the in-region branches its block is
    /// control dependent on. Loop-carried anti and output dependences are
    /// not represented at all, matching §3.1's "our slicing tool also
    /// ignores loop-carried anti dependences and output dependences".
    pub fn build(
        prog: &Program,
        fid: FuncId,
        blocks: &[BlockId],
        fa: &FuncAnalyses,
        profile: &Profile,
        mc: &MachineConfig,
    ) -> Self {
        Self::build_with_header(prog, fid, blocks, None, fa, profile, mc)
    }

    /// [`RegionDepGraph::build`] with the region's loop header, enabling
    /// the inner-carried classification (carried flows that can reach
    /// their consumer without passing `header`).
    pub fn build_with_header(
        prog: &Program,
        fid: FuncId,
        blocks: &[BlockId],
        header: Option<BlockId>,
        fa: &FuncAnalyses,
        profile: &Profile,
        mc: &MachineConfig,
    ) -> Self {
        let func = prog.func(fid);
        let in_region: HashSet<BlockId> = blocks.iter().copied().collect();
        // Whether block `from` can reach block `to` inside the region
        // without entering `hdr` (i.e. along a nested loop's back edge).
        let reaches_without_header = |from: BlockId, to: BlockId, hdr: BlockId| -> bool {
            if to == hdr {
                return false;
            }
            let mut seen: HashSet<BlockId> = HashSet::new();
            let mut work: Vec<BlockId> = fa
                .cfg
                .succs(from)
                .iter()
                .copied()
                .filter(|b| in_region.contains(b) && *b != hdr)
                .collect();
            while let Some(b) = work.pop() {
                if b == to {
                    return true;
                }
                if !seen.insert(b) {
                    continue;
                }
                work.extend(
                    fa.cfg.succs(b).iter().copied().filter(|x| in_region.contains(x) && *x != hdr),
                );
            }
            false
        };
        let inner_of = |carried: bool, from: BlockId, to: BlockId| -> bool {
            carried && header.is_some_and(|h| reaches_without_header(from, to, h))
        };
        // Nodes in program order: region blocks sorted by RPO position.
        let mut ordered: Vec<BlockId> = blocks.to_vec();
        ordered.sort_by_key(|b| fa.cfg.rpo_pos(*b).unwrap_or(usize::MAX));
        let mut nodes = Vec::new();
        let mut index = HashMap::new();
        for &b in &ordered {
            for i in 0..func.block(b).insts.len() {
                let at = InstRef { func: fid, block: b, idx: i };
                index.insert(at, nodes.len());
                nodes.push(at);
            }
        }
        let rpo_pos = |b: BlockId| fa.cfg.rpo_pos(b).unwrap_or(usize::MAX);

        // Intra-region forward reachability between blocks without using
        // back edges: simple RPO-order comparison (an edge from a later
        // RPO position to an earlier one must take a back edge).
        let mut edges = Vec::new();
        let mut uses_buf = Vec::new();
        for (&at, &ni) in &index {
            let inst = &func.block(at.block).insts[at.idx];
            uses_buf.clear();
            inst.op.uses_into(&mut uses_buf);
            for &u in &uses_buf {
                if u.is_zero() {
                    continue;
                }
                for d in fa.rd.reaching(at.block, at.idx, u) {
                    let Some(&pi) = index.get(&d.at) else { continue };
                    let lat = latency_of_at(prog, d.at, profile, mc);
                    // Same block: carried iff the def comes at or after
                    // the use. Different blocks: carried iff the def's
                    // block is at or after the use's block in RPO.
                    let carried = if d.at.block == at.block {
                        d.at.idx >= at.idx
                    } else {
                        rpo_pos(d.at.block) >= rpo_pos(at.block)
                    };
                    edges.push(DepEdge {
                        from: pi,
                        to: ni,
                        kind: DepKind::Data(u),
                        carried,
                        inner: inner_of(carried, d.at.block, at.block),
                        latency: lat,
                    });
                }
            }
            // Control dependences: on the terminator of each controlling
            // block that lies inside the region.
            for &cb in &fa.cdeps[at.block.index()] {
                if !in_region.contains(&cb) {
                    continue;
                }
                let term_idx = func.block(cb).insts.len() - 1;
                let cat = InstRef { func: fid, block: cb, idx: term_idx };
                if cat == at {
                    continue;
                }
                let Some(&pi) = index.get(&cat) else { continue };
                let carried =
                    rpo_pos(cb) > rpo_pos(at.block) || (cb == at.block && term_idx >= at.idx);
                edges.push(DepEdge {
                    from: pi,
                    to: ni,
                    kind: DepKind::Control,
                    carried,
                    inner: inner_of(carried, cb, at.block),
                    latency: mc.int_latency,
                });
            }
        }
        edges.sort_by_key(|e| (e.from, e.to));
        edges.dedup_by_key(|e| (e.from, e.to, e.kind, e.carried));
        RegionDepGraph { nodes, edges, index }
    }

    /// The node index of `at`, if it is in the region.
    pub fn node_of(&self, at: InstRef) -> Option<usize> {
        self.index.get(&at).copied()
    }

    /// Drop inner-carried edges: the view the chaining/basic schedulers
    /// use, where nested-loop serialization is intra-link work.
    pub fn without_inner_carried(&self) -> RegionDepGraph {
        let edges = self.edges.iter().filter(|e| !e.inner).copied().collect();
        RegionDepGraph { nodes: self.nodes.clone(), edges, index: self.index.clone() }
    }

    /// The subgraph induced by a set of instructions (e.g. a slice):
    /// nodes keep their relative program order; edges between retained
    /// nodes survive.
    pub fn induced(&self, keep: &HashSet<InstRef>) -> RegionDepGraph {
        let mut nodes = Vec::new();
        let mut remap: HashMap<usize, usize> = HashMap::new();
        for (i, at) in self.nodes.iter().enumerate() {
            if keep.contains(at) {
                remap.insert(i, nodes.len());
                nodes.push(*at);
            }
        }
        let edges = self
            .edges
            .iter()
            .filter_map(|e| {
                let (&f, &t) = (remap.get(&e.from)?, remap.get(&e.to)?);
                Some(DepEdge { from: f, to: t, ..*e })
            })
            .collect();
        let index = nodes.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        RegionDepGraph { nodes, edges, index }
    }

    /// Rebuild the graph with nodes in a new order (`new_order[i]` is the
    /// old index of the node now at position `i`), re-deriving every
    /// edge's `carried` flag from the new positions: a dependence whose
    /// producer now sits at or after its consumer must flow around the
    /// back edge. Loop rotation (§3.2.1.1) is exactly such a reordering.
    ///
    /// # Panics
    ///
    /// Panics if `new_order` is not a permutation of `0..nodes.len()`.
    pub fn reordered(&self, new_order: &[usize]) -> RegionDepGraph {
        assert_eq!(new_order.len(), self.nodes.len(), "order must cover all nodes");
        let mut pos_of_old = vec![usize::MAX; self.nodes.len()];
        for (new_pos, &old) in new_order.iter().enumerate() {
            assert!(pos_of_old[old] == usize::MAX, "duplicate node in order");
            pos_of_old[old] = new_pos;
        }
        let nodes: Vec<InstRef> = new_order.iter().map(|&o| self.nodes[o]).collect();
        let edges = self
            .edges
            .iter()
            .map(|e| {
                let from = pos_of_old[e.from];
                let to = pos_of_old[e.to];
                DepEdge { from, to, carried: from >= to, ..*e }
            })
            .collect();
        let index = nodes.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        RegionDepGraph { nodes, edges, index }
    }

    /// Drop every edge in `remove` (matched by `(from, to)` pairs in
    /// current indices). Condition prediction (§3.2.1.1) "breaks the
    /// dependences leading to the spawn condition" this way.
    pub fn without_edges(&self, remove: &HashSet<(usize, usize)>) -> RegionDepGraph {
        let edges =
            self.edges.iter().filter(|e| !remove.contains(&(e.from, e.to))).copied().collect();
        RegionDepGraph { nodes: self.nodes.clone(), edges, index: self.index.clone() }
    }

    /// Longest latency path (over non-carried edges) from any region
    /// entry to the *input* of node `n` — how long the main thread takes
    /// to reach `n` after entering the region. Zero for nodes with no
    /// in-region producers (e.g. a load at the region top).
    pub fn depth_to(&self, n: usize, profile: &Profile, prog: &Program, mc: &MachineConfig) -> u64 {
        let mut depth = vec![0u64; self.nodes.len()];
        // Non-carried edges point forward in node order: forward scan.
        for i in 0..self.nodes.len() {
            for e in self.edges.iter().filter(|e| e.to == i && !e.carried) {
                let plat = latency_of_at(prog, self.nodes[e.from], profile, mc);
                depth[i] = depth[i].max(depth[e.from] + plat);
            }
        }
        depth.get(n).copied().unwrap_or(0)
    }

    /// Longest path through the acyclic (non-carried) edges, by latency.
    pub fn critical_path(&self, profile: &Profile, prog: &Program, mc: &MachineConfig) -> u64 {
        let n = self.nodes.len();
        let mut memo: Vec<Option<u64>> = vec![None; n];
        // Nodes are in program order, and non-carried edges always point
        // forward in that order, so a reverse scan is a topological order.
        let mut best = 0;
        for i in (0..n).rev() {
            let own = latency_of_at(prog, self.nodes[i], profile, mc);
            let succ_max = self
                .edges
                .iter()
                .filter(|e| e.from == i && !e.carried)
                .filter_map(|e| memo[e.to])
                .max()
                .unwrap_or(0);
            memo[i] = Some(own + succ_max);
            best = best.max(own + succ_max);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analyses;
    use ssp_ir::{CmpKind, Operand, ProgramBuilder, Reg};
    use ssp_sim::MachineConfig;

    /// The Figure 3 loop: A: t=arc; B: u=ld(t); C: ld(u); D: arc=t+64;
    /// E: while (arc<K).
    fn mcf_like() -> (ssp_ir::Program, BlockId) {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        let body = f.new_block();
        let exit = f.new_block();
        let (arc, k, t, u, v, p) = (Reg(64), Reg(65), Reg(66), Reg(67), Reg(68), Reg(69));
        f.at(e).movi(arc, 0x1000).movi(k, 0x5000).br(body);
        f.at(body)
            .mov(t, arc) // A
            .ld(u, t, 0) // B
            .ld(v, u, 0) // C
            .add(arc, t, 64) // D
            .cmp(CmpKind::Lt, p, arc, Operand::Reg(k)) // E (cmp)
            .br_cond(p, body, exit); // E (branch)
        f.at(exit).halt();
        let main = f.finish();
        (pb.finish_with(main), body)
    }

    fn graph_for(prog: &ssp_ir::Program, body: BlockId) -> RegionDepGraph {
        let mut an = Analyses::new();
        let fa = an.get(prog, prog.entry);
        let profile = Profile::default();
        RegionDepGraph::build(prog, prog.entry, &[body], fa, &profile, &MachineConfig::in_order())
    }

    #[test]
    fn figure3_dependences() {
        let (prog, body) = mcf_like();
        let g = graph_for(&prog, body);
        assert_eq!(g.nodes.len(), 6);
        let at = |idx: usize| InstRef { func: prog.entry, block: body, idx };
        let n = |idx: usize| g.node_of(at(idx)).unwrap();
        let has = |from: usize, to: usize, carried: bool| {
            g.edges.iter().any(|e| e.from == n(from) && e.to == n(to) && e.carried == carried)
        };
        // A -> B (t), intra.
        assert!(has(0, 1, false));
        // B -> C (u), intra.
        assert!(has(1, 2, false));
        // A -> D (t), intra; D -> A (arc), carried.
        assert!(has(0, 3, false));
        assert!(has(3, 0, true));
        // D -> E(cmp), intra; cmp -> branch intra.
        assert!(has(3, 4, false));
        assert!(has(4, 5, false));
        // No false loop-carried dependences from B or C to anything.
        assert!(!g.edges.iter().any(|e| e.from == n(2)), "C has no users");
    }

    #[test]
    fn control_dependence_on_loop_branch_is_carried() {
        let (prog, body) = mcf_like();
        let g = graph_for(&prog, body);
        let at = |idx: usize| InstRef { func: prog.entry, block: body, idx };
        let n = |idx: usize| g.node_of(at(idx)).unwrap();
        // Every instruction in the body is control dependent on the
        // body's own branch (carried: it decides the *next* iteration).
        let branch = n(5);
        for i in 0..5 {
            assert!(
                g.edges.iter().any(|e| e.from == branch
                    && e.to == n(i)
                    && e.kind == DepKind::Control
                    && e.carried),
                "instruction {i} control-depends on the loop branch"
            );
        }
    }

    #[test]
    fn induced_subgraph_keeps_slice_edges() {
        let (prog, body) = mcf_like();
        let g = graph_for(&prog, body);
        let at = |idx: usize| InstRef { func: prog.entry, block: body, idx };
        // Slice {A, B, D}: drop C and E.
        let keep: HashSet<InstRef> = [at(0), at(1), at(3)].into_iter().collect();
        let sub = g.induced(&keep);
        assert_eq!(sub.nodes.len(), 3);
        let n = |idx: usize| sub.node_of(at(idx)).unwrap();
        assert!(sub.edges.iter().any(|e| e.from == n(0) && e.to == n(1)));
        assert!(sub.edges.iter().any(|e| e.from == n(3) && e.to == n(0) && e.carried));
        assert!(sub.node_of(at(2)).is_none());
    }

    #[test]
    fn load_latency_comes_from_profile() {
        let (prog, body) = mcf_like();
        let at = InstRef { func: prog.entry, block: body, idx: 1 };
        let tag = prog.inst(at).tag;
        let mut profile = Profile::default();
        profile.loads.insert(
            tag,
            ssp_sim::LoadProfile {
                accesses: 10,
                misses: 10,
                miss_cycles: 2300,
                ..Default::default()
            },
        );
        let mc = MachineConfig::in_order();
        let lat = latency_of(&prog.inst(at).op, tag, &profile, &mc);
        assert_eq!(lat, mc.l1d.latency + 230);
    }
}
