//! Structured tracing for the SSP pipeline.
//!
//! The post-pass tool and the simulator both expose only end-of-run
//! aggregates by default. This crate provides the *observability layer*
//! threaded through the whole workspace:
//!
//! * **Tool phase spans** ([`ToolTrace`], [`PhaseSpan`]): per-phase wall
//!   time plus named counters for the five tool phases (`profile`,
//!   `slicing`, `sched`, `trigger`, `codegen`) — slice sizes, SCC
//!   counts, triggers placed, live-ins per trigger.
//! * **Simulator traces** ([`SimTrace`], [`TimelinessCounts`]): event
//!   totals (triggers fired, slices spawned/killed, live-in copies,
//!   prefetches issued/dropped) and the per-load *timeliness*
//!   classification ([`Timeliness`]) of every SSP prefetch relative to
//!   the consuming delinquent load, as plain data that merges by value,
//!   so parallel experiment runs collected by input index are
//!   byte-identical to serial runs.
//!
//! Tracing is strictly opt-in and zero-cost when disabled: the
//! instrumented call sites in `ssp-sim` and `ssp-codegen` take an
//! `Option` and do nothing (no allocation, no time query) when it
//! is `None`. The simulator's built-in collector additionally
//! pre-allocates every structure it needs (dense per-tag histograms and
//! a fixed-capacity prefetch table, extending the decoded-side-table
//! pattern), so even *enabled* tracing allocates nothing inside the
//! cycle loop.
//!
//! # Example
//!
//! ```
//! use ssp_trace::{SimTrace, TimelinessCounts};
//!
//! let mut suite = SimTrace {
//!     triggers_fired: 1,
//!     per_load: vec![(7, TimelinessCounts { timely: 1, ..Default::default() })],
//!     ..Default::default()
//! };
//! let run = SimTrace {
//!     triggers_fired: 2,
//!     per_load: vec![(7, TimelinessCounts { late: 1, ..Default::default() })],
//!     ..Default::default()
//! };
//! suite.merge(&run);
//! assert_eq!(suite.triggers_fired, 3);
//! assert_eq!(suite.histogram(7).total(), 2);
//! ```

#![warn(missing_docs)]

/// How an SSP prefetch relates, in time, to the demand load that
/// consumes the prefetched cache line.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Timeliness {
    /// The prefetch completed so far ahead that the line left L1 (or
    /// was only ever useful at an outer level) before the consuming
    /// load arrived: the load still missed L1.
    Early,
    /// The prefetched line was resident and valid in L1 when the
    /// consuming load arrived: the full miss latency was hidden.
    Timely,
    /// The line was still in transit when the consuming load arrived
    /// (a *partial* hit): some, but not all, of the latency was hidden.
    Late,
    /// The prefetch did no work: the line was already present or in
    /// flight when it issued, it was displaced before anyone used it,
    /// or no demand load ever touched the line.
    Useless,
}

/// Early/timely/late/useless counts for one static load (or one
/// aggregate), mergeable by field-wise addition.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TimelinessCounts {
    /// Prefetches that completed but whose line left L1 before use.
    pub early: u64,
    /// Prefetches whose line was valid in L1 at the consuming load.
    pub timely: u64,
    /// Prefetches whose line was still in transit at the consuming load.
    pub late: u64,
    /// Prefetches that were redundant or never consumed.
    pub useless: u64,
}

impl TimelinessCounts {
    /// Record one classified prefetch.
    pub fn record(&mut self, class: Timeliness) {
        match class {
            Timeliness::Early => self.early += 1,
            Timeliness::Timely => self.timely += 1,
            Timeliness::Late => self.late += 1,
            Timeliness::Useless => self.useless += 1,
        }
    }

    /// Total classified prefetches.
    pub fn total(&self) -> u64 {
        self.early + self.timely + self.late + self.useless
    }

    /// Field-wise accumulation of another histogram.
    pub fn merge(&mut self, other: &TimelinessCounts) {
        self.early += other.early;
        self.timely += other.timely;
        self.late += other.late;
        self.useless += other.useless;
    }
}

/// Deterministic per-run simulator trace: event totals plus per-load
/// prefetch-timeliness histograms.
///
/// `PartialEq` compares every field, so determinism tests can assert
/// two runs produced identical traces.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SimTrace {
    /// `chk.c` executions that fired (redirected to the stub).
    pub triggers_fired: u64,
    /// `chk.c` executions that found no free resources.
    pub triggers_suppressed: u64,
    /// Speculative threads started.
    pub slices_spawned: u64,
    /// Speculative threads ended (voluntary kill, runaway, or fault).
    pub slices_killed: u64,
    /// Live-in-buffer words copied (stub stores plus slice loads).
    pub live_in_copies: u64,
    /// Prefetching accesses issued by speculative threads.
    pub prefetches_issued: u64,
    /// Speculative `lfetch`es dropped because the fill buffer was full.
    pub prefetches_dropped: u64,
    /// Prefetches whose fill completed before consumption (or run end).
    pub prefetches_completed: u64,
    /// Prefetch-table entries displaced before classification (the
    /// displaced prefetch is counted useless); nonzero values mean the
    /// fixed-capacity tracking table overflowed.
    pub prefetch_table_evictions: u64,
    /// Per-load timeliness histograms, keyed by raw tag value, sorted
    /// ascending, only loads with at least one classified prefetch.
    pub per_load: Vec<(u32, TimelinessCounts)>,
}

impl SimTrace {
    /// The histogram for raw tag value `load` (zeroes if absent).
    pub fn histogram(&self, load: u32) -> TimelinessCounts {
        match self.per_load.binary_search_by_key(&load, |e| e.0) {
            Ok(i) => self.per_load[i].1,
            Err(_) => TimelinessCounts::default(),
        }
    }

    /// Sum of all per-load histograms.
    pub fn totals(&self) -> TimelinessCounts {
        let mut t = TimelinessCounts::default();
        for (_, h) in &self.per_load {
            t.merge(h);
        }
        t
    }

    /// Field-wise accumulation of another trace (histograms merge by
    /// tag). Used to aggregate a whole suite deterministically.
    pub fn merge(&mut self, other: &SimTrace) {
        self.triggers_fired += other.triggers_fired;
        self.triggers_suppressed += other.triggers_suppressed;
        self.slices_spawned += other.slices_spawned;
        self.slices_killed += other.slices_killed;
        self.live_in_copies += other.live_in_copies;
        self.prefetches_issued += other.prefetches_issued;
        self.prefetches_dropped += other.prefetches_dropped;
        self.prefetches_completed += other.prefetches_completed;
        self.prefetch_table_evictions += other.prefetch_table_evictions;
        for &(load, h) in &other.per_load {
            let i = match self.per_load.binary_search_by_key(&load, |e| e.0) {
                Ok(i) => i,
                Err(i) => {
                    self.per_load.insert(i, (load, TimelinessCounts::default()));
                    i
                }
            };
            self.per_load[i].1.merge(&h);
        }
    }
}

/// The five tool phases, in pipeline order. [`ToolTrace::standard`]
/// pre-seeds spans in this order so traced reports always have the same
/// shape, slices or not.
pub const TOOL_PHASES: [&str; 5] = ["profile", "slicing", "sched", "trigger", "codegen"];

/// One tool phase's span: accumulated wall time plus named counters.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PhaseSpan {
    /// Phase name (one of [`TOOL_PHASES`] for the standard pipeline).
    pub name: &'static str,
    /// Accumulated wall time across every visit to the phase.
    pub wall_nanos: u64,
    /// Named counters in first-touch order (additive across visits).
    pub counters: Vec<(&'static str, u64)>,
}

impl PhaseSpan {
    /// An empty span named `name`.
    pub fn new(name: &'static str) -> Self {
        PhaseSpan { name, wall_nanos: 0, counters: Vec::new() }
    }

    /// Add `v` to counter `name`, creating it at zero if absent.
    pub fn add(&mut self, name: &'static str, v: u64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += v,
            None => self.counters.push((name, v)),
        }
    }

    /// The value of counter `name` (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, c)| *c)
    }
}

/// Per-adaptation tool trace: one [`PhaseSpan`] per phase.
///
/// Counters are deterministic (pure functions of the input program and
/// options); `wall_nanos` is wall-clock and varies run to run, which is
/// why machine-readable reports omit it unless explicitly asked
/// (see `trace_report`'s schema notes).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ToolTrace {
    /// Phase spans in first-touch order.
    pub phases: Vec<PhaseSpan>,
}

impl ToolTrace {
    /// A trace pre-seeded with the five standard phases ([`TOOL_PHASES`])
    /// so reports have a stable shape even when a phase never runs.
    pub fn standard() -> Self {
        ToolTrace { phases: TOOL_PHASES.iter().map(|n| PhaseSpan::new(n)).collect() }
    }

    /// The span named `name`, created empty if absent.
    pub fn phase_mut(&mut self, name: &'static str) -> &mut PhaseSpan {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            return &mut self.phases[i];
        }
        self.phases.push(PhaseSpan::new(name));
        self.phases.last_mut().expect("just pushed")
    }

    /// The span named `name`, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseSpan> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Add `v` to counter `counter` of phase `phase`.
    pub fn add(&mut self, phase: &'static str, counter: &'static str, v: u64) {
        self.phase_mut(phase).add(counter, v);
    }

    /// Add wall time to phase `phase`.
    pub fn add_wall(&mut self, phase: &'static str, nanos: u64) {
        self.phase_mut(phase).wall_nanos += nanos;
    }

    /// Accumulate another tool trace (spans merge by name, counters by
    /// counter name).
    pub fn merge(&mut self, other: &ToolTrace) {
        for p in &other.phases {
            let span = self.phase_mut(p.name);
            span.wall_nanos += p.wall_nanos;
            for &(n, v) in &p.counters {
                span.add(n, v);
            }
        }
    }
}

/// A minimal wall-clock stopwatch for phase spans.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Nanoseconds since [`Stopwatch::start`], saturating.
    pub fn elapsed_nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace holding only the given per-load histograms and
    /// `issued` prefetches.
    fn trace(per_load: &[(u32, TimelinessCounts)], issued: u64) -> SimTrace {
        SimTrace { prefetches_issued: issued, per_load: per_load.to_vec(), ..SimTrace::default() }
    }

    fn counts(early: u64, timely: u64, late: u64, useless: u64) -> TimelinessCounts {
        TimelinessCounts { early, timely, late, useless }
    }

    #[test]
    fn traces_merge_by_tag() {
        let mut a = trace(&[(2, counts(0, 1, 0, 0)), (9, counts(0, 0, 1, 0))], 1);
        let b = trace(
            &[
                (1, counts(1, 0, 0, 0)),
                (2, counts(1, 0, 0, 0)),
                (7, counts(0, 0, 0, 1)),
                (12, counts(0, 1, 0, 0)),
            ],
            1,
        );
        a.merge(&b);
        assert_eq!(a.prefetches_issued, 2);
        assert_eq!(a.histogram(2).timely, 1);
        assert_eq!(a.histogram(2).early, 1);
        assert_eq!(a.histogram(7).useless, 1);
        // New tags are inserted in order, before, between and after the
        // existing ones, so `histogram`'s binary search stays valid.
        let tags: Vec<u32> = a.per_load.iter().map(|e| e.0).collect();
        assert_eq!(tags, vec![1, 2, 7, 9, 12]);
        assert_eq!(a.histogram(1).early, 1);
        assert_eq!(a.histogram(9).late, 1);
        assert_eq!(a.histogram(12).timely, 1);
        assert_eq!(a.histogram(3).total(), 0);
        assert_eq!(a.totals().total(), 6);
    }

    #[test]
    fn tool_trace_counters_and_merge() {
        let mut t = ToolTrace::standard();
        assert_eq!(t.phases.len(), TOOL_PHASES.len());
        t.add("slicing", "slice_insts", 7);
        t.add("slicing", "slice_insts", 3);
        t.add("sched", "sccs", 4);
        assert_eq!(t.phase("slicing").unwrap().counter("slice_insts"), 10);
        let mut u = ToolTrace::standard();
        u.add("slicing", "slice_insts", 5);
        u.merge(&t);
        assert_eq!(u.phase("slicing").unwrap().counter("slice_insts"), 15);
        assert_eq!(u.phase("sched").unwrap().counter("sccs"), 4);
        // Phase order is stable under merge.
        let names: Vec<&str> = u.phases.iter().map(|p| p.name).collect();
        assert_eq!(names, TOOL_PHASES.to_vec());
    }

    #[test]
    fn stopwatch_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a);
    }
}
