//! Simulation statistics: cycle accounting (Figure 10), per-load hit
//! breakdowns (Figure 9), and spawn/thread counters.

use crate::cache::HitWhere;
use ssp_ir::InstTag;
use std::collections::HashMap;

/// Where accesses of one static load were satisfied (Figure 9's bars).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoadStats {
    /// Total executions of the load.
    pub accesses: u64,
    /// L1 hits.
    pub l1: u64,
    /// Satisfied by L2.
    pub l2: u64,
    /// Line in transit from L2.
    pub l2_partial: u64,
    /// Satisfied by L3.
    pub l3: u64,
    /// Line in transit from L3.
    pub l3_partial: u64,
    /// Satisfied by memory.
    pub mem: u64,
    /// Line in transit from memory.
    pub mem_partial: u64,
}

impl LoadStats {
    /// Record one access.
    pub fn record(&mut self, hit: HitWhere) {
        self.accesses += 1;
        match hit {
            HitWhere::L1 => self.l1 += 1,
            HitWhere::L2 => self.l2 += 1,
            HitWhere::L2Partial => self.l2_partial += 1,
            HitWhere::L3 => self.l3 += 1,
            HitWhere::L3Partial => self.l3_partial += 1,
            HitWhere::Mem => self.mem += 1,
            HitWhere::MemPartial => self.mem_partial += 1,
        }
    }

    /// L1 misses (everything that wasn't an L1 hit).
    pub fn l1_misses(&self) -> u64 {
        self.accesses - self.l1
    }

    /// L1 miss rate in [0, 1].
    pub fn l1_miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.l1_misses() as f64 / self.accesses as f64
        }
    }

    /// Merge another load's stats into this one.
    pub fn merge(&mut self, other: &LoadStats) {
        self.accesses += other.accesses;
        self.l1 += other.l1;
        self.l2 += other.l2;
        self.l2_partial += other.l2_partial;
        self.l3 += other.l3;
        self.l3_partial += other.l3_partial;
        self.mem += other.mem;
        self.mem_partial += other.mem_partial;
    }
}

/// Per-cycle classification of the main thread's progress — the six
/// categories of Figure 10.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CycleBreakdown {
    /// No issue; blocked on a load being serviced from memory (an L3 miss).
    pub l3_miss: u64,
    /// No issue; blocked on a load being serviced from L3 (an L2 miss).
    pub l2_miss: u64,
    /// No issue; blocked on a load being serviced from L2 (an L1 miss).
    pub l1_miss: u64,
    /// Issued while cache misses were outstanding.
    pub cache_exec: u64,
    /// Issued with no outstanding misses.
    pub exec: u64,
    /// Everything else: branch bubbles, fetch stalls, spawn flushes,
    /// structural stalls.
    pub other: u64,
}

impl CycleBreakdown {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.l3_miss + self.l2_miss + self.l1_miss + self.cache_exec + self.exec + self.other
    }
}

/// Complete result of one timed simulation.
///
/// `PartialEq` compares every field, so two results are equal only when
/// the runs were cycle-for-cycle identical — what the differential and
/// determinism tests assert.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SimResult {
    /// Cycles spent inside the region of interest (whole run if the
    /// program has no ROI markers).
    pub cycles: u64,
    /// Total cycles including any pre/post-ROI execution.
    pub total_cycles: u64,
    /// Main-thread instructions executed inside the ROI.
    pub main_insts: u64,
    /// Speculative-thread instructions executed inside the ROI.
    pub spec_insts: u64,
    /// Per-cycle classification (ROI only).
    pub breakdown: CycleBreakdown,
    /// Per-static-load hit statistics (ROI only).
    pub loads: HashMap<InstTag, LoadStats>,
    /// `chk.c` executions that found a free context and fired.
    pub spawns_fired: u64,
    /// `chk.c` executions that found no free context (behaved as a nop).
    pub spawns_suppressed: u64,
    /// `spawn` instructions that actually started a thread.
    pub threads_spawned: u64,
    /// `spawn` instructions dropped for want of a free context.
    pub spawns_dropped: u64,
    /// Speculative threads killed by the runaway cap.
    pub runaway_kills: u64,
    /// Conditional-branch executions in the main thread.
    pub branches: u64,
    /// Mispredicted conditional branches in the main thread.
    pub mispredicts: u64,
    /// Whether the program reached `halt` (vs. the cycle cap).
    pub halted: bool,
}

impl SimResult {
    /// Aggregate load stats over a set of tags (e.g. the delinquent set).
    pub fn load_stats_for(&self, tags: &[InstTag]) -> LoadStats {
        let mut agg = LoadStats::default();
        for t in tags {
            if let Some(s) = self.loads.get(t) {
                agg.merge(s);
            }
        }
        agg
    }

    /// Aggregate load stats over every static load.
    pub fn load_stats_all(&self) -> LoadStats {
        let mut agg = LoadStats::default();
        for s in self.loads.values() {
            agg.merge(s);
        }
        agg
    }
}

/// Speedup of `new` over `base` as a ratio of ROI cycles.
pub fn speedup(base: &SimResult, new: &SimResult) -> f64 {
    base.cycles as f64 / new.cycles as f64
}

/// Number of power-of-two buckets in a [`WindowStats`] length histogram:
/// bucket `i` counts windows of length in `[2^i, 2^(i+1))`, with the last
/// bucket open-ended.
pub const WINDOW_HIST_BUCKETS: usize = 24;

/// How a run spent its simulated cycles — the per-window
/// instrumentation behind `ssp-perf-report/5`'s `windows` object, which
/// `perf_report` takes from its timed fast runs.
///
/// Two regimes are distinguished:
///
/// * **busy windows** — spans in which the main thread issued alone
///   because every speculative context was proven blocked;
/// * **stepped cycles** — everything else, simulated one cycle at a time
///   with every context allowed to issue.
///
/// The histogram buckets window lengths by power of two (bucket `i`
/// counts lengths in `[2^i, 2^(i+1))`), so a glance shows whether the
/// residual bottleneck is many short windows (per-window entry/exit
/// overhead) or a few long ones.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct WindowStats {
    /// Busy windows the batcher completed.
    pub busy_windows: u64,
    /// Cycles simulated inside busy windows.
    pub busy_cycles: u64,
    /// Cycles simulated one at a time by the full cycle loop.
    pub stepped_cycles: u64,
    /// Busy-window lengths, bucketed by power of two.
    pub busy_len_hist: [u64; WINDOW_HIST_BUCKETS],
}

/// The histogram bucket for a window of `len` cycles.
fn hist_bucket(len: u64) -> usize {
    (63 - u64::leading_zeros(len.max(1)) as usize).min(WINDOW_HIST_BUCKETS - 1)
}

impl WindowStats {
    /// Total cycles the regimes account for. The accounting invariant —
    /// asserted by every `simulate_with` run and by `perf_report` — is
    /// that this equals the run's `total_cycles`: every simulated cycle,
    /// the halting one included, lands in exactly one regime.
    pub fn simulated(&self) -> u64 {
        self.busy_cycles + self.stepped_cycles
    }

    /// Record one completed busy window of `len` cycles.
    pub fn record_busy(&mut self, len: u64) {
        self.busy_windows += 1;
        self.busy_cycles += len;
        self.busy_len_hist[hist_bucket(len)] += 1;
    }

    /// Merge another run's window statistics into this one (used by
    /// `perf_report` to aggregate a whole workload suite into one row).
    pub fn merge(&mut self, other: &WindowStats) {
        self.busy_windows += other.busy_windows;
        self.busy_cycles += other.busy_cycles;
        self.stepped_cycles += other.stepped_cycles;
        for i in 0..WINDOW_HIST_BUCKETS {
            self.busy_len_hist[i] += other.busy_len_hist[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_stats_record_and_rate() {
        let mut s = LoadStats::default();
        s.record(HitWhere::L1);
        s.record(HitWhere::Mem);
        s.record(HitWhere::MemPartial);
        s.record(HitWhere::L2);
        assert_eq!(s.accesses, 4);
        assert_eq!(s.l1_misses(), 3);
        assert!((s.l1_miss_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn breakdown_total() {
        let b =
            CycleBreakdown { l3_miss: 1, l2_miss: 2, l1_miss: 3, cache_exec: 4, exec: 5, other: 6 };
        assert_eq!(b.total(), 21);
    }

    #[test]
    fn speedup_ratio() {
        let base = SimResult { cycles: 200, ..Default::default() };
        let new = SimResult { cycles: 100, ..Default::default() };
        assert!((speedup(&base, &new) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn window_hist_buckets_are_pow2() {
        let mut w = WindowStats::default();
        w.record_busy(1); // bucket 0
        w.record_busy(3); // bucket 1
        w.record_busy(4); // bucket 2
        w.record_busy(1 << 30); // clamps into the last bucket
        assert_eq!(w.busy_windows, 4);
        assert_eq!(w.busy_cycles, 8 + (1 << 30));
        assert_eq!(w.busy_len_hist[0], 1);
        assert_eq!(w.busy_len_hist[1], 1);
        assert_eq!(w.busy_len_hist[2], 1);
        assert_eq!(w.busy_len_hist[WINDOW_HIST_BUCKETS - 1], 1);
        assert_eq!(w.simulated(), 8 + (1 << 30));
    }

    #[test]
    fn window_stats_merge_is_fieldwise() {
        let mut a = WindowStats::default();
        a.record_busy(4);
        a.stepped_cycles = 2;
        let mut b = WindowStats::default();
        b.record_busy(1);
        b.stepped_cycles = 10;
        a.merge(&b);
        assert_eq!(a.busy_windows, 2);
        assert_eq!(a.busy_cycles, 5);
        assert_eq!(a.stepped_cycles, 12);
        assert_eq!(a.busy_len_hist[0], 1);
        assert_eq!(a.busy_len_hist[2], 1);
    }

    #[test]
    fn merge_aggregates() {
        let mut a = LoadStats { accesses: 2, l1: 1, mem: 1, ..Default::default() };
        let b = LoadStats { accesses: 3, l2: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.accesses, 5);
        assert_eq!(a.l2, 3);
        assert_eq!(a.l1_misses(), 4);
    }
}
