//! The cycle-stepped SMT execution engine.
//!
//! Both research Itanium models share one engine. Instructions execute
//! *functionally* in program order per thread at dispatch (so the machine
//! always follows the correct path), while a timing model decides when
//! their results become available:
//!
//! * **In-order** (12-stage): an instruction issues only when its sources
//!   are ready — the pipeline stalls on *use* of the destination register
//!   of an outstanding load miss, exactly the behaviour §4.3 highlights.
//! * **Out-of-order** (16-stage): dispatch fills a per-thread 255-entry
//!   ROB and 18-entry reservation station; an instruction's start time is
//!   the max of its operands' ready times (perfect renaming), commit is
//!   in order. Branch mispredictions redirect fetch at branch *resolve*
//!   time plus the deeper front-end penalty.
//!
//! SMT fetch/issue bandwidth follows Table 1: two bundles from one thread
//! or one bundle each from two threads per cycle. The main thread has
//! fetch priority; speculative threads round-robin for the rest.
//!
//! Spawning follows §3.4.2: `chk.c` redirects the main thread to its stub
//! block when a context is free (charged like an exception flush), the
//! stub's `spawn` binds a free context to the slice block and passes the
//! live-in-buffer slot, and speculative threads never modify main-thread
//! architectural state (the verifier bans stores in slices; the engine
//! additionally drops any store a speculative thread tries to execute).

use crate::branch::{Btb, Gshare};
use crate::cache::{Hierarchy, HitWhere};
use crate::config::{MachineConfig, MemoryMode, PipelineKind};
use crate::decode::{DecodedInst, DecodedProgram, FuClass};
use crate::exec::{alu_eval, cmp_eval, falu_eval, RegFile, Scoreboard};
use crate::mem::{LiveInBuffer, Memory, LIB_NO_SLOT};
use crate::snapshot::{ArchSnapshot, SnapshotRec, TrapKind};
use crate::stats::{LoadStats, SimResult, WindowStats};
use crate::stride::StridePrefetcher;
use crate::telemetry::Telemetry;
use crate::window::Issuers;
use ssp_ir::reg::{conv, NUM_REGS};
use ssp_ir::{FuncId, Op, Program};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Why a thread could not issue/dispatch this cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum StallReason {
    /// Waiting on a source register; payload is the producing load's hit
    /// level if the producer was a load.
    SrcNotReady(Option<HitWhere>),
    /// No functional unit of the needed class.
    Structural,
    /// Front end redirecting (mispredict, BTB miss, spawn flush).
    FetchWait,
    /// OOO: reorder buffer full; payload is the commit-blocking load's
    /// hit level, if the blocker is a load.
    RobFull(Option<HitWhere>),
    /// OOO: reservation station full; payload is the oldest outstanding
    /// load's hit level, if one is pending (the RS is usually what backs
    /// up behind long misses, since it is far smaller than the ROB).
    RsFull(Option<HitWhere>),
}

impl StallReason {
    /// The cache level of the load behind the stall, which picks the
    /// Figure-10 bucket of a zero-issue cycle.
    pub(crate) fn hit(self) -> Option<HitWhere> {
        match self {
            StallReason::SrcNotReady(h) | StallReason::RobFull(h) | StallReason::RsFull(h) => h,
            StallReason::Structural | StallReason::FetchWait => None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct RobEntry {
    /// When the instruction leaves the reservation station (issues).
    pub(crate) start_at: u64,
    pub(crate) complete_at: u64,
    pub(crate) is_load: bool,
    pub(crate) hit: Option<HitWhere>,
}

#[derive(Clone, Debug)]
pub(crate) struct Thread {
    pub(crate) rf: RegFile,
    /// Flat index into the [`DecodedProgram`] of the next instruction;
    /// `None` for a free context.
    pub(crate) pc: Option<u32>,
    /// Flat return addresses.
    pub(crate) call_stack: Vec<u32>,
    pub(crate) sb: Scoreboard,
    pub(crate) fetch_ready: u64,
    pub(crate) speculative: bool,
    pub(crate) insts: u64,
    pub(crate) owned_slot: Option<u64>,
    pub(crate) rob: VecDeque<RobEntry>,
    /// In-order bookkeeping: outstanding load misses `(ready_at, level)`.
    pub(crate) outstanding: Vec<(u64, HitWhere)>,
    /// Fast-engine event queue: reservation-station leave times
    /// (`start_at`) of dispatched instructions that were still waiting
    /// for operands when they entered the ROB. Times only move forward,
    /// so entries at or before the present are popped lazily, on query
    /// and before a push (which keeps each of the three queues no longer
    /// than the ROB), and each dispatch is amortised O(log RS) instead
    /// of the O(ROB) occupancy rescan the stepped oracle performs.
    /// Maintained only by the fast engine; the stepped twin keeps the
    /// scans.
    pub(crate) rs_waiting: BinaryHeap<Reverse<u64>>,
    /// Fast-engine event queue: `(complete_at, hit)` of every dispatched
    /// load, in program order. The front (after lazily dropping
    /// completed entries) is the oldest outstanding load — the
    /// reservation-station stall payload.
    pub(crate) loads_q: VecDeque<(u64, HitWhere)>,
    /// Fast-engine event queue: completion times of dispatched loads
    /// that missed L1, in program order; non-empty after lazy popping
    /// means a miss is outstanding (the Figure-10 `cache_exec` test).
    pub(crate) missload_q: VecDeque<u64>,
    /// Fast-engine wakeup cache: a proven lower bound on the next cycle
    /// this thread could issue, set when an issue attempt stalls on an
    /// event with a known time ([`Engine::spec_blocked_until`]). While
    /// `blocked_until > cycle` the scheduler skips the thread with one
    /// compare instead of re-deriving the stall from the scoreboard or
    /// occupancy queues every cycle. The bound stays valid while the
    /// thread sleeps because everything it waits on is thread-local and
    /// monotone: its scoreboard and queues are written only by its own
    /// dispatch, and ready/completion times never move. Maintained only
    /// by the fast engine; the stepped oracle re-derives every stall.
    pub(crate) blocked_until: u64,
}

impl Thread {
    fn new() -> Self {
        Thread {
            rf: RegFile::new(),
            pc: None,
            call_stack: Vec::new(),
            sb: Scoreboard::new(),
            fetch_ready: 0,
            speculative: false,
            insts: 0,
            owned_slot: None,
            rob: VecDeque::new(),
            outstanding: Vec::new(),
            rs_waiting: BinaryHeap::new(),
            loads_q: VecDeque::new(),
            missload_q: VecDeque::new(),
            blocked_until: 0,
        }
    }

    /// Free the context: no pc, no call stack, no live-in slot, an empty
    /// ROB and empty event queues, their capacity kept so the next spawn
    /// reuses the buffers this thread grew and the cycle loop allocates
    /// nothing.
    ///
    /// The register file, scoreboard and per-thread scalars are left as
    /// they are. That is sound because every reader of a context checks
    /// [`Thread::active`] first, so a free context's registers are never
    /// read, and [`Thread::start`] writes all of them before the context
    /// runs again.
    fn free(&mut self) {
        self.pc = None;
        self.call_stack.clear();
        self.owned_slot = None;
        self.rob.clear();
        self.outstanding.clear();
        self.rs_waiting.clear();
        self.loads_q.clear();
        self.missload_q.clear();
    }

    /// Start a free context as a speculative thread at flat index `pc`,
    /// holding live-in slot `slot`: a zeroed register file but for
    /// [`conv::SLOT`], and the whole scoreboard available at `ready`,
    /// when the spawn hand-off materialises the register file at once.
    fn start(&mut self, pc: u32, slot: u64, ready: u64) {
        debug_assert!(!self.active() && self.rob.is_empty() && self.call_stack.is_empty());
        self.rf = RegFile::new();
        self.rf.write(conv::SLOT, slot);
        self.sb.fill(ready);
        self.pc = Some(pc);
        self.fetch_ready = ready;
        self.speculative = true;
        self.insts = 0;
        self.owned_slot = Some(slot);
        self.blocked_until = 0;
    }

    pub(crate) fn active(&self) -> bool {
        self.pc.is_some()
    }

    /// Reference implementation of the outstanding-miss test: O(ROB)
    /// rescan, used by the stepped oracle.
    fn has_outstanding_miss(&self, now: u64) -> bool {
        self.outstanding.iter().any(|&(r, h)| r > now && h.is_l1_miss())
            || self.rob.iter().any(|e| {
                e.is_load && e.complete_at > now && e.hit.is_some_and(HitWhere::is_l1_miss)
            })
    }

    /// Fast-engine outstanding-miss test: pops expired miss completions
    /// and answers from queue emptiness — amortised O(1). Agrees with
    /// [`Thread::has_outstanding_miss`] by construction (entries are
    /// popped exactly when the rescan would stop counting them; a load
    /// cannot commit before it completes, so a queue entry never
    /// outlives its ROB entry observably).
    pub(crate) fn has_miss_fast(&mut self, now: u64) -> bool {
        self.pop_completed_misses(now);
        !self.missload_q.is_empty()
            || self.outstanding.iter().any(|&(r, h)| r > now && h.is_l1_miss())
    }

    /// Drop the miss completions at or before `now` from the front of
    /// the monotone miss queue.
    fn pop_completed_misses(&mut self, now: u64) {
        while let Some(&c) = self.missload_q.front() {
            if c > now {
                break;
            }
            self.missload_q.pop_front();
        }
    }

    /// Number of dispatched instructions still waiting for operands
    /// (reservation-station occupancy), via the monotone event queue.
    pub(crate) fn rs_waiting_count(&mut self, now: u64) -> usize {
        while let Some(&Reverse(t)) = self.rs_waiting.peek() {
            if t > now {
                break;
            }
            self.rs_waiting.pop();
        }
        self.rs_waiting.len()
    }

    /// The oldest dispatched load still outstanding at `now`, via the
    /// monotone event queue: `(complete_at, hit)`.
    pub(crate) fn first_outstanding_load(&mut self, now: u64) -> Option<(u64, HitWhere)> {
        while let Some(&(c, _)) = self.loads_q.front() {
            if c > now {
                break;
            }
            self.loads_q.pop_front();
        }
        self.loads_q.front().copied()
    }
}

/// The OOO in-order commit of one thread over the cycles `[from, to]`
/// (both inclusive), in one pass: entry `k` pops at the later of its
/// completion time and the cycle commit bandwidth (`width` per cycle)
/// reaches it. `from == to` is one cycle's commit phase; a longer span
/// replays the commits of cycles no one observed (a skip, or a blocked
/// context's share of a busy window).
fn drain_thread(t: &mut Thread, width: usize, from: u64, to: u64) {
    let mut at_cycle = from;
    let mut used = 0usize;
    while let Some(e) = t.rob.front() {
        if e.complete_at > to {
            break;
        }
        if e.complete_at > at_cycle {
            at_cycle = e.complete_at;
            used = 0;
        }
        if used == width {
            at_cycle += 1;
            used = 0;
            if at_cycle > to {
                break;
            }
        }
        t.rob.pop_front();
        used += 1;
    }
}

/// What one simulated cycle did — the inputs to the skip decision of a
/// busy window ([`Engine::run_window`]).
struct StepOutcome {
    /// The program halted this cycle.
    halt: bool,
    /// Instructions issued across the contexts allowed to issue. Zero
    /// in a main-only cycle means the whole machine is gated on known
    /// future timestamps, which is exactly when the clock may jump.
    issued: usize,
    /// The main thread's stall classification (`None` when it issued or
    /// is inactive). Constant across a legal skip, so skipped cycles
    /// are bulk-accounted under the same Figure-10 bucket.
    main_stall: Option<StallReason>,
}

/// What the engine should do after executing one instruction.
enum Flow {
    /// Keep issuing from this thread (fallthrough).
    Continue,
    /// Control transferred: end this thread's issue group.
    Redirect,
    /// The thread ended (kill/ret-from-empty-stack).
    ThreadDone,
    /// The whole simulation ends.
    Halt,
}

/// Initial length of the OOO functional-unit ring (a power of two); it
/// doubles whenever a booking lands beyond it.
const FU_RING_MIN: usize = 64;

/// The simulation engine, built and run only by [`simulate_with`].
pub(crate) struct Engine<'a> {
    /// The decoded program: every instruction the engine fetches, by
    /// flat index. Borrowed, so an entry stays usable across `&mut self`
    /// calls.
    pub(crate) decode: &'a DecodedProgram,
    /// How the clock advances. [`SimMode::Fast`] and
    /// [`SimMode::Crosschecked`] run busy windows on the incremental
    /// event queues; [`SimMode::Stepped`] keeps the original O(ROB)
    /// scans as the semantic oracle.
    pub(crate) mode: SimMode,
    pub(crate) cfg: &'a MachineConfig,
    pub(crate) mem: Memory,
    pub(crate) lib: LiveInBuffer,
    pub(crate) hier: Hierarchy,
    pub(crate) gshare: Gshare,
    pub(crate) btb: Btb,
    pub(crate) threads: Vec<Thread>,
    pub(crate) cycle: u64,
    pub(crate) in_roi: bool,
    /// Whether the program contains ROI markers at all; if not, the whole
    /// run is the region of interest.
    pub(crate) has_roi: bool,
    pub(crate) result: SimResult,
    /// Per-load statistics of the run, one row per
    /// [`DecodedProgram::load_tags`] entry; folded into
    /// `result.loads` when the run ends.
    pub(crate) load_stats: Vec<LoadStats>,
    /// Per-cycle FU use (in-order); OOO books into `fu_ring`.
    pub(crate) fu_used: [usize; 4],
    pub(crate) fu_limits: [usize; 4],
    /// OOO functional-unit bookings, a power-of-two ring indexed by
    /// cycle: slot `c & (len - 1)` holds cycle `c`'s count per class for
    /// every cycle in `[fu_ring_base, fu_ring_base + len)`. A booking
    /// beyond that span doubles the ring ([`Engine::book_fu`]); slots
    /// are zeroed as the clock passes them ([`Engine::advance_fu_ring`]).
    pub(crate) fu_ring: Vec<[u16; 4]>,
    pub(crate) fu_ring_base: u64,
    pub(crate) rr_next: usize,
    pub(crate) stride: Option<StridePrefetcher>,
    /// Structured-trace collector, present only when
    /// [`SimOptions::telemetry`] asks for it. `None` (the default) keeps
    /// every telemetry hook to a single branch — no allocation, no time
    /// query — so the untraced cycle loop is unchanged.
    pub(crate) telemetry: Option<Box<Telemetry>>,
    /// Architectural-state recorder, present only when
    /// [`SimOptions::snapshot`] asks for it. Same side-structure
    /// discipline as `telemetry`: `None` keeps every hook to a single
    /// branch.
    pub(crate) snap: Option<Box<SnapshotRec>>,
    /// How the run's cycles split between busy windows and stepped
    /// cycles; never feeds back into timing.
    pub(crate) windows: WindowStats,
    /// Fast-engine cache of the main thread's stall classification while
    /// it sleeps on an in-order source stall (`blocked_until > cycle`).
    /// The payload is stable for the whole sleep: the thread's
    /// scoreboard is written only by its own execution, so the first
    /// unready source — and the cache level that produced it — cannot
    /// change before the cached wakeup, which is exactly that source's
    /// ready time.
    pub(crate) main_sleep_stall: Option<StallReason>,
}

impl<'a> Engine<'a> {
    /// Set up a machine to run `prog`, decoded as `decode`, with the
    /// recorders `opts` asks for.
    fn new(
        prog: &Program,
        decode: &'a DecodedProgram,
        cfg: &'a MachineConfig,
        opts: SimOptions<'_>,
    ) -> Self {
        let mem = Memory::new(Arc::clone(&prog.image));
        let mut threads = vec![Thread::new(); cfg.num_contexts];
        // The main thread starts at the program entry with SP set.
        threads[0].pc = Some(decode.entry(prog.entry).expect("the entry function exists"));
        threads[0].rf.write(conv::SP, 0x7FFF_FF00_0000);
        Engine {
            decode,
            mode: opts.mode,
            cfg,
            mem,
            lib: LiveInBuffer::new(cfg.lib_slots, cfg.lib_slot_words),
            hier: Hierarchy::new(cfg),
            gshare: Gshare::new(cfg.gshare_entries),
            btb: Btb::new(cfg.btb_entries, cfg.btb_assoc),
            threads,
            cycle: 0,
            in_roi: false,
            has_roi: prog.has_roi(),
            result: SimResult::default(),
            load_stats: vec![LoadStats::default(); decode.load_tags().len()],
            fu_used: [0; 4],
            fu_limits: [cfg.int_units, cfg.fp_units, cfg.branch_units, cfg.mem_ports],
            fu_ring: vec![[0; 4]; FU_RING_MIN],
            fu_ring_base: 0,
            rr_next: 1,
            stride: cfg.stride_prefetcher.then(|| StridePrefetcher::new(cfg.stride_degree)),
            telemetry: opts.telemetry.map(|targets| Box::new(Telemetry::new(prog, cfg, targets))),
            snap: opts.snapshot.map(|bound| Box::new(SnapshotRec::new(bound))),
            windows: WindowStats::default(),
            main_sleep_stall: None,
        }
    }

    /// Run to `halt` (or the cycle cap), leaving the statistics in
    /// `result` and the regime split in `windows`.
    ///
    /// Each turn of the loop runs the entry proof ([`Engine::issuers`])
    /// and then either one cycle in which every context may issue, or a
    /// busy window in which the main thread issues alone up to a proven
    /// horizon ([`Engine::run_window`]). Both run the one cycle
    /// protocol, [`Engine::step_cycle`]. Under [`SimMode::Stepped`]
    /// every turn is one all-contexts cycle: the oracle the equivalence
    /// suites pit the windows against, byte for byte.
    fn run(&mut self) {
        let max = if self.cfg.max_cycles == 0 { u64::MAX } else { self.cfg.max_cycles };
        let mut halted = false;
        while self.cycle < max && !halted {
            halted = match self.issuers(max) {
                Issuers::All => {
                    // The halting cycle counts like any other: the clock
                    // moves past it, so `total_cycles` includes it and
                    // the regimes partition exactly the cycles it counts.
                    let halt = self.step_cycle(Issuers::All).halt;
                    self.windows.stepped_cycles += 1;
                    self.cycle += 1;
                    halt
                }
                Issuers::MainUntil(horizon) => self.run_window(horizon),
            };
        }
        self.result.halted = halted;
        self.result.total_cycles = self.cycle;
        let rows = self.decode.load_tags().iter().zip(&self.load_stats);
        self.result.loads = rows.filter(|(_, s)| s.accesses > 0).map(|(&t, &s)| (t, s)).collect();
    }

    /// Run a busy window: main-only cycles from the current one up to
    /// `horizon`, before which every speculative context is proven
    /// blocked. Returns whether the program halted.
    ///
    /// The window closes at its horizon, on a spawn (which activates a
    /// context the entry proof does not cover), or after the halting
    /// cycle, so it always covers at least one cycle. After a
    /// cycle in which the main thread issued nothing, the clock jumps
    /// to its next event ([`Engine::skip_to_main_event`]). The blocked
    /// contexts' OOO commits, which nothing observes mid-window, are
    /// replayed in one pass at exit.
    fn run_window(&mut self, horizon: u64) -> bool {
        let entry = self.cycle;
        let spawned = self.result.threads_spawned;
        let mut halted = false;
        while self.cycle < horizon {
            let step = self.step_cycle(Issuers::MainUntil(horizon));
            self.cycle += 1;
            if step.halt {
                halted = true;
                break;
            }
            if step.issued == 0 {
                self.skip_to_main_event(step.main_stall, horizon);
            } else if self.result.threads_spawned != spawned {
                break;
            }
        }
        if self.cfg.pipeline == PipelineKind::OutOfOrder {
            let (width, last) = (self.commit_width(), self.cycle - 1);
            for t in &mut self.threads[1..] {
                drain_thread(t, width, entry, last);
            }
        }
        self.windows.record_busy(self.cycle - entry);
        halted
    }

    /// After main-only cycle `self.cycle - 1` issued nothing, jump to the
    /// main thread's next event ([`Engine::thread_event_fast`]), clamped
    /// to the window's `horizon`. Until then the whole machine repeats
    /// that cycle, so the skipped cycles land in the same Figure-10
    /// bucket, the round-robin pointer rotates in closed form, and the
    /// main thread's ROB drains in one pass. A fetch redirect is the
    /// same jump, to `fetch_ready`.
    ///
    /// Under [`SimMode::Crosschecked`] the event is verified against
    /// the brute-force rescan ([`Engine::thread_event_brute`]).
    fn skip_to_main_event(&mut self, stall: Option<StallReason>, horizon: u64) {
        let now = self.cycle - 1;
        let event = self.thread_event_fast(0, now);
        if self.mode == SimMode::Crosschecked {
            let brute = self.thread_event_brute(0, now);
            assert_eq!(
                event, brute,
                "event-queue divergence: main thread, now {now}: fast {event} != brute {brute}"
            );
            assert!(event > now, "main thread: event {event} not after now {now}");
        }
        let target = event.min(horizon);
        if target <= self.cycle {
            return;
        }
        let skipped = target - self.cycle;
        if self.cfg.pipeline == PipelineKind::OutOfOrder {
            let width = self.commit_width();
            drain_thread(&mut self.threads[0], width, self.cycle, target - 1);
        }
        self.rotate_rr(skipped);
        if self.effective_roi() {
            self.result.cycles += skipped;
            self.result.account_stalled(stall.and_then(StallReason::hit), skipped);
        }
        self.cycle = target;
    }

    /// Whether the clock runs on the incremental event queues (every
    /// mode but [`SimMode::Stepped`]).
    fn fast(&self) -> bool {
        self.mode != SimMode::Stepped
    }

    /// OOO commit bandwidth: instructions retired per thread per cycle.
    fn commit_width(&self) -> usize {
        self.cfg.bundles_per_cycle * self.cfg.bundle_width
    }

    fn effective_roi(&self) -> bool {
        !self.has_roi || self.in_roi
    }

    /// Per-thread next-event query backed by the incremental structures:
    /// the earliest cycle strictly after `now` at which thread `tid`'s
    /// issue eligibility or stall classification could change. Between
    /// `now + 1` and this cycle a blocked thread would repeat cycle `now`
    /// exactly: it issues nothing and its stall reason (including the
    /// cache-level payload) is unchanged. O(1) amortised, not O(ROB).
    ///
    /// The events, per pipeline:
    ///
    /// * inactive → `u64::MAX` (nothing will ever change);
    /// * front end redirecting → `fetch_ready` (its ROB keeps draining,
    ///   which the skip replays with [`drain_thread`]);
    /// * **in-order** → the earliest ready time among the current
    ///   instruction's unready sources (bitset scoreboard query); if all
    ///   are ready the thread was gated on something same-cycle-stable
    ///   (e.g. a structural hazard), so `now + 1` guards the skip;
    /// * **out-of-order** → the minimum of the head-commit event (the
    ///   head's `complete_at`, or `now + 1` if it already completed and
    ///   pops at the very next commit), the earliest future
    ///   reservation-station leave time (`rs_waiting`), and the oldest
    ///   outstanding load's completion (`loads_q`, which re-evaluates
    ///   the RS-full stall payload). Interior non-load completions are
    ///   *not* events: commit is in order, so no entry pops before the
    ///   head completes, and occupancy counts only change at `start_at`
    ///   boundaries.
    fn thread_event_fast(&mut self, tid: usize, now: u64) -> u64 {
        if !self.threads[tid].active() {
            return u64::MAX;
        }
        if self.threads[tid].fetch_ready > now {
            return self.threads[tid].fetch_ready;
        }
        let soonest = match self.cfg.pipeline {
            PipelineKind::InOrder => {
                let at = self.threads[tid].pc.expect("active thread has a pc");
                let mask = self.decode.get(at).use_mask;
                self.threads[tid].sb.min_ready(&mask, now)
            }
            PipelineKind::OutOfOrder => {
                let t = &mut self.threads[tid];
                match t.rob.front().copied() {
                    None => u64::MAX,
                    Some(head) => {
                        let mut ev =
                            if head.complete_at <= now { now + 1 } else { head.complete_at };
                        while let Some(&Reverse(s)) = t.rs_waiting.peek() {
                            if s > now {
                                ev = ev.min(s);
                                break;
                            }
                            t.rs_waiting.pop();
                        }
                        if let Some((c, _)) = t.first_outstanding_load(now) {
                            ev = ev.min(c);
                        }
                        ev
                    }
                }
            }
        };
        if soonest == u64::MAX {
            // No future event found for a thread that just failed to
            // issue — never skip past it.
            now + 1
        } else {
            soonest
        }
    }

    /// Brute-force O(ROB) rescan computing exactly the same per-thread
    /// event as [`Engine::thread_event_fast`], straight from the
    /// architectural bookkeeping with no incremental state. The
    /// crosscheck harness ([`simulate_crosschecked`]) asserts the two
    /// agree on every query of a run.
    fn thread_event_brute(&self, tid: usize, now: u64) -> u64 {
        let t = &self.threads[tid];
        if !t.active() {
            return u64::MAX;
        }
        if t.fetch_ready > now {
            return t.fetch_ready;
        }
        let soonest = match self.cfg.pipeline {
            PipelineKind::InOrder => {
                let at = t.pc.expect("active thread has a pc");
                let mut soonest = u64::MAX;
                for &u in self.decode.get(at).uses() {
                    let r = t.sb.ready_at(u);
                    if r > now {
                        soonest = soonest.min(r);
                    }
                }
                soonest
            }
            PipelineKind::OutOfOrder => match t.rob.front() {
                None => u64::MAX,
                Some(head) => {
                    let mut ev = if head.complete_at <= now { now + 1 } else { head.complete_at };
                    for e in &t.rob {
                        if e.start_at > now {
                            ev = ev.min(e.start_at);
                        }
                    }
                    if let Some(e) = t.rob.iter().find(|e| e.is_load && e.complete_at > now) {
                        ev = ev.min(e.complete_at);
                    }
                    ev
                }
            },
        };
        if soonest == u64::MAX {
            now + 1
        } else {
            soonest
        }
    }

    /// Apply `k` cycles' worth of speculative round-robin rotation in
    /// closed form (equal to `k` applications of the per-cycle
    /// `rr_next = 1 + rr_next % (n - 1)` step).
    fn rotate_rr(&mut self, k: u64) {
        let n = self.threads.len();
        if n > 1 && k > 0 {
            let m = (n - 1) as u64;
            self.rr_next = 1 + ((self.rr_next as u64 - 1 + k % m) % m) as usize;
        }
    }

    /// Simulate one cycle in which the contexts `issuers` names may
    /// issue: the one cycle protocol every mode and regime runs. Under
    /// [`Issuers::MainUntil`] no speculative context issues or commits,
    /// but the round-robin pointer still rotates; the busy window
    /// replays their commits at exit.
    fn step_cycle(&mut self, issuers: Issuers) -> StepOutcome {
        let main_only = issuers != Issuers::All;
        self.fu_used = [0; 4];
        if self.cfg.pipeline == PipelineKind::OutOfOrder {
            self.advance_fu_ring();
        }

        let width = self.cfg.bundle_width; // instructions per bundle
        let mut main_issued = 0usize;
        let mut spec_issued = 0usize;
        let mut main_stall: Option<StallReason> = None;
        let mut halt = false;

        // Thread selection, per Table 1 ("2 bundles from 1 thread or
        // 1 bundle each from 2 threads") with main-thread priority: the
        // main thread always gets the first bundle; the second goes to a
        // speculative thread (round-robin), falling back to whichever
        // side can use it when the other cannot.
        let n = self.threads.len();
        let mut bundles_left = self.cfg.bundles_per_cycle;
        let main_ready = self.threads[0].active() && self.threads[0].fetch_ready <= self.cycle;
        if self.threads[0].active() && !main_ready {
            main_stall = Some(StallReason::FetchWait);
        }
        if main_ready {
            if self.fast() && self.threads[0].blocked_until > self.cycle {
                // Sleeping on an in-order source stall: reuse the cached
                // classification instead of re-deriving it — the payload
                // is provably constant until the cached wakeup.
                main_stall = self.main_sleep_stall;
            } else {
                let (count, stall, halted) = self.issue_thread(0, width);
                main_issued = count;
                if count == 0 {
                    main_stall = stall;
                    if self.fast()
                        && self.cfg.pipeline == PipelineKind::InOrder
                        && matches!(stall, Some(StallReason::SrcNotReady(_)))
                    {
                        self.threads[0].blocked_until = self.spec_blocked_until(0);
                        self.main_sleep_stall = stall;
                    }
                }
                halt = halted;
                if count > 0 {
                    bundles_left -= 1;
                }
            }
        }
        // Speculative threads, round-robin, one bundle each. The pointer
        // rotates every cycle, even when none of them may issue.
        if !halt && n > 1 {
            let start = self.rr_next;
            self.rr_next = if start + 1 < n { start + 1 } else { 1 };
            let turns = if main_only { 0 } else { n - 1 };
            let mut tid = start;
            for _ in 0..turns {
                if bundles_left == 0 {
                    break;
                }
                let cur = tid;
                tid = if tid + 1 < n { tid + 1 } else { 1 };
                let tid = cur;
                if !self.threads[tid].active() || self.threads[tid].fetch_ready > self.cycle {
                    continue;
                }
                // Fast engine: a sleeping context (wakeup cached at stall
                // time) is skipped with one compare. The stepped oracle
                // re-attempts the issue, which has no side effects when
                // it stalls — the equivalence suite pins that down.
                if self.fast() && self.threads[tid].blocked_until > self.cycle {
                    continue;
                }
                let (count, _, halted) = self.issue_thread(tid, width);
                spec_issued += count;
                if halted {
                    halt = true;
                    break;
                }
                if count > 0 {
                    bundles_left -= 1;
                } else if self.fast() {
                    // Stalled: cache the proven wakeup so the next cycles
                    // skip this context without re-deriving the stall.
                    self.threads[tid].blocked_until = self.spec_blocked_until(tid);
                }
            }
        }
        // Leftover bundle back to the main thread ("2 bundles from 1") —
        // unless its front end was redirected by the first pass.
        if !halt
            && main_ready
            && bundles_left > 0
            && main_issued > 0
            && self.threads[0].active()
            && self.threads[0].fetch_ready <= self.cycle
        {
            let (count, _, halted) = self.issue_thread(0, bundles_left * width);
            main_issued += count;
            halt = halted;
        }

        // OOO commit, by the contexts allowed to issue.
        if self.cfg.pipeline == PipelineKind::OutOfOrder {
            let (width, now) = (self.commit_width(), self.cycle);
            let committers = if main_only { 1 } else { n };
            for t in &mut self.threads[..committers] {
                drain_thread(t, width, now, now);
            }
        }

        // Cycle accounting for the main thread (Figure 10 categories).
        if self.effective_roi() {
            let has_miss = main_issued > 0 && self.main_has_miss();
            self.result.cycles_account(main_issued, main_stall, has_miss);
            self.result.cycles += 1;
        }
        StepOutcome { halt, issued: main_issued + spec_issued, main_stall }
    }

    /// Whether the main thread has an L1-missing load outstanding — the
    /// `exec` vs `cache_exec` test of Figure 10. The fast engine answers
    /// from the miss-completion queue; the stepped oracle rescans.
    fn main_has_miss(&mut self) -> bool {
        let now = self.cycle;
        if self.fast() {
            self.threads[0].has_miss_fast(now)
        } else {
            self.threads[0].has_outstanding_miss(now)
        }
    }

    /// Zero the FU-ring slots of the cycles the clock has passed since
    /// the last call (at most the whole ring, after a long jump), so the
    /// ring covers `[cycle, cycle + len)`.
    fn advance_fu_ring(&mut self) {
        let len = self.fu_ring.len() as u64;
        let passed = (self.cycle - self.fu_ring_base).min(len);
        for c in self.fu_ring_base..self.fu_ring_base + passed {
            self.fu_ring[(c & (len - 1)) as usize] = [0; 4];
        }
        self.fu_ring_base = self.cycle;
    }

    /// Book a functional unit of `class` at or after `earliest` (OOO).
    fn book_fu(&mut self, class: FuClass, earliest: u64) -> u64 {
        let (c, limit) = (class as usize, self.fu_limits[class as usize]);
        let mut t = earliest.max(self.cycle);
        loop {
            if t - self.fu_ring_base >= self.fu_ring.len() as u64 {
                self.grow_fu_ring(t);
            }
            let mask = self.fu_ring.len() as u64 - 1;
            let slot = &mut self.fu_ring[(t & mask) as usize];
            if (slot[c] as usize) < limit {
                slot[c] += 1;
                return t;
            }
            t += 1;
        }
    }

    /// Double the FU ring until cycle `t` fits, moving every booking to
    /// its cycle's slot in the larger ring.
    fn grow_fu_ring(&mut self, t: u64) {
        let (base, old) = (self.fu_ring_base, self.fu_ring.len() as u64);
        let mut len = old * 2;
        while t - base >= len {
            len *= 2;
        }
        let mut ring = vec![[0; 4]; len as usize];
        for c in base..base + old {
            ring[(c & (len - 1)) as usize] = self.fu_ring[(c & (old - 1)) as usize];
        }
        self.fu_ring = ring;
    }

    /// Issue (in-order) or dispatch (OOO) up to `max` instructions from
    /// thread `tid`. Returns `(issued, stall, halted)`.
    fn issue_thread(&mut self, tid: usize, max: usize) -> (usize, Option<StallReason>, bool) {
        let mut count = 0usize;
        let ooo = self.cfg.pipeline == PipelineKind::OutOfOrder;
        // The table reference is copied out of `self`, so `d` borrows the
        // decoded program (not the engine) and stays usable across the
        // `&mut self` calls below.
        let decode = self.decode;
        while count < max {
            let Some(pc) = self.threads[tid].pc else {
                return (count, None, false);
            };
            let d = decode.get(pc);

            if ooo {
                if self.threads[tid].rob.len() >= self.cfg.rob_entries {
                    let head = self.threads[tid].rob.front().copied();
                    let r = head.map(|e| {
                        if e.is_load && e.complete_at > self.cycle {
                            StallReason::RobFull(e.hit)
                        } else {
                            StallReason::RobFull(None)
                        }
                    });
                    return (count, r.or(Some(StallReason::RobFull(None))), false);
                }
                // RS entries are freed at issue, not completion: only
                // instructions still waiting for operands occupy one.
                // The fast engine answers from the monotone event queue;
                // the stepped oracle keeps the O(ROB) occupancy rescan.
                let now = self.cycle;
                let waiting = if self.fast() {
                    self.threads[tid].rs_waiting_count(now)
                } else {
                    self.threads[tid].rob.iter().filter(|e| e.start_at > now).count()
                };
                if waiting >= self.cfg.rs_entries {
                    let h = if self.fast() {
                        self.threads[tid].first_outstanding_load(now).map(|(_, h)| h)
                    } else {
                        self.threads[tid]
                            .rob
                            .iter()
                            .find(|e| e.is_load && e.complete_at > now)
                            .and_then(|e| e.hit)
                    };
                    return (count, Some(StallReason::RsFull(h)), false);
                }
            } else {
                // In-order: all sources must be ready now. The stall
                // payload reports the *first* unready source in use
                // order, which the decoded table preserves. Use lists
                // are short (≤3), so a direct walk beats the bitset
                // filter here; the pending-bitset queries earn their
                // keep in the event computations (`min_ready` /
                // `max_ready`), where the *unready subset* is needed.
                let mut stall = None;
                for &u in d.uses() {
                    if self.threads[tid].sb.ready_at(u) > self.cycle {
                        stall = Some(self.threads[tid].sb.src_of(u));
                        break;
                    }
                }
                if let Some(src) = stall {
                    return (count, Some(StallReason::SrcNotReady(src)), false);
                }
            }

            // Functional-unit check (in-order uses per-cycle counters;
            // OOO books at the computed start time inside exec).
            if !ooo {
                let class = d.fu;
                if self.fu_used[class as usize] >= self.fu_limits[class as usize] {
                    return (count, Some(StallReason::Structural), false);
                }
                self.fu_used[class as usize] += 1;
            }

            let flow = self.exec_inst(tid, pc, d);
            count += 1;
            if tid == 0 {
                if let Some(s) = self.snap.as_deref_mut() {
                    // Per-thread dispatch is in program order and every
                    // dispatched instruction retires (the machine always
                    // follows the correct path), so the main thread's
                    // dispatch stream *is* its committed stream.
                    s.record_commit(d.tag);
                }
            }
            if tid == 0 && self.effective_roi() {
                self.result.main_insts += 1;
            } else if tid != 0 && self.effective_roi() {
                self.result.spec_insts += 1;
            }
            // The instruction may have killed its own thread, leaving a
            // free context: `active()` first, as for every context read.
            let t = &mut self.threads[tid];
            if t.active() && t.speculative {
                t.insts += 1;
                if t.insts > self.cfg.spec_inst_cap {
                    self.kill_thread(tid);
                    self.result.runaway_kills += 1;
                    return (count, None, false);
                }
            }
            match flow {
                Flow::Continue => {}
                Flow::Redirect | Flow::ThreadDone => return (count, None, false),
                Flow::Halt => return (count, None, true),
            }
        }
        (count, None, false)
    }

    /// Start time of an instruction: current cycle (in-order) or the max
    /// of its operands' ready times (OOO, perfect renaming). The fast
    /// engine computes the max through the scoreboard bitset (order-free,
    /// so `trailing_zeros` iteration over the pending intersection is
    /// enough); the stepped oracle walks the use list.
    fn start_time(&mut self, tid: usize, d: &DecodedInst) -> u64 {
        if self.cfg.pipeline == PipelineKind::InOrder {
            return self.cycle;
        }
        if self.fast() {
            let now = self.cycle;
            self.threads[tid].sb.max_ready(&d.use_mask, now)
        } else {
            let mut t = self.cycle;
            for &u in d.uses() {
                t = t.max(self.threads[tid].sb.ready_at(u));
            }
            t
        }
    }

    fn finish_write(
        &mut self,
        tid: usize,
        dst: ssp_ir::Reg,
        value: u64,
        ready: u64,
        src: Option<HitWhere>,
    ) {
        let now = self.cycle;
        let t = &mut self.threads[tid];
        t.rf.write(dst, value);
        t.sb.set(dst, ready, src, now);
    }

    /// Dispatch an entry into the ROB (OOO only). The fast engine also
    /// feeds the incremental event queues here — the only place entries
    /// are born, so each queue stays a monotone image of the ROB.
    fn push_rob(
        &mut self,
        tid: usize,
        start_at: u64,
        complete_at: u64,
        is_load: bool,
        hit: Option<HitWhere>,
    ) {
        if self.cfg.pipeline == PipelineKind::OutOfOrder {
            let now = self.cycle;
            let fast = self.fast();
            let t = &mut self.threads[tid];
            t.rob.push_back(RobEntry { start_at, complete_at, is_load, hit });
            if fast {
                // Drop what every query would drop at `now` before each
                // push, so a queue no query reads for a while stays no
                // longer than the ROB. Time only moves forward: no
                // answer changes. `issue_thread`'s occupancy query has
                // already pruned `rs_waiting` at `now`.
                if start_at > now {
                    t.rs_waiting.push(Reverse(start_at));
                    debug_assert!(t.rs_waiting.len() <= t.rob.len(), "RS queue outgrew the ROB");
                }
                if let (true, Some(h)) = (is_load, hit) {
                    t.first_outstanding_load(now);
                    t.loads_q.push_back((complete_at, h));
                    debug_assert!(t.loads_q.len() <= t.rob.len(), "load queue outgrew the ROB");
                    if h.is_l1_miss() {
                        t.pop_completed_misses(now);
                        t.missload_q.push_back(complete_at);
                        debug_assert!(
                            t.missload_q.len() <= t.rob.len(),
                            "miss queue outgrew the ROB"
                        );
                    }
                }
            }
        }
    }

    fn free_context(&self) -> Option<usize> {
        self.threads.iter().position(|t| !t.active())
    }

    /// End the whole simulation, recording why for the snapshot layer.
    fn halt_with(&mut self, kind: TrapKind) -> Flow {
        if let Some(s) = self.snap.as_deref_mut() {
            s.note_trap(kind);
        }
        Flow::Halt
    }

    fn kill_thread(&mut self, tid: usize) {
        if let Some(tel) = self.telemetry.as_deref_mut() {
            tel.slices_killed += 1;
        }
        if let Some(s) = self.snap.as_deref_mut() {
            s.spec_kills += 1;
        }
        if let Some(slot) = self.threads[tid].owned_slot {
            self.lib.free(slot);
        }
        self.threads[tid].free();
    }

    /// Timed load path honouring the perfect-memory modes.
    fn load_access(&mut self, tag: ssp_ir::InstTag, addr: u64, start: u64) -> (u64, HitWhere) {
        let perfect = match &self.cfg.memory_mode {
            MemoryMode::Normal => false,
            MemoryMode::PerfectAll => true,
            MemoryMode::PerfectDelinquent(set) => set.contains(&tag),
        };
        if perfect {
            (start + self.cfg.l1d.latency, HitWhere::L1)
        } else {
            let r = self.hier.access_load(addr, start);
            (r.ready_at, r.hit)
        }
    }

    /// Execute the instruction `d` at flat index `pc` functionally and
    /// apply its timing.
    fn exec_inst(&mut self, tid: usize, pc: u32, d: &DecodedInst) -> Flow {
        let ooo = self.cfg.pipeline == PipelineKind::OutOfOrder;
        let start0 = self.start_time(tid, d);
        let start = if ooo { self.book_fu(d.fu, start0) } else { start0 };
        let next = pc + 1;
        let spec = self.threads[tid].speculative;

        match d.op {
            Op::Movi { dst, imm } => {
                let done = start + self.cfg.int_latency;
                self.finish_write(tid, dst, imm as u64, done, None);
                self.push_rob(tid, start, done, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::Mov { dst, src } => {
                let v = self.threads[tid].rf.read(src);
                let done = start + self.cfg.int_latency;
                self.finish_write(tid, dst, v, done, None);
                self.push_rob(tid, start, done, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::Alu { kind, dst, a, b } => {
                let (x, y) = {
                    let rf = &self.threads[tid].rf;
                    (rf.read(a), rf.operand(b))
                };
                let lat = if kind == ssp_ir::AluKind::Mul {
                    self.cfg.mul_latency
                } else {
                    self.cfg.int_latency
                };
                let done = start + lat;
                self.finish_write(tid, dst, alu_eval(kind, x, y), done, None);
                self.push_rob(tid, start, done, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::Cmp { kind, dst, a, b } => {
                let (x, y) = {
                    let rf = &self.threads[tid].rf;
                    (rf.read(a), rf.operand(b))
                };
                let done = start + self.cfg.int_latency;
                self.finish_write(tid, dst, cmp_eval(kind, x, y), done, None);
                self.push_rob(tid, start, done, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::FAlu { kind, dst, a, b } => {
                let (x, y) = {
                    let rf = &self.threads[tid].rf;
                    (rf.read(a), rf.read(b))
                };
                let done = start + self.cfg.fp_latency;
                self.finish_write(tid, dst, falu_eval(kind, x, y), done, None);
                self.push_rob(tid, start, done, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::Ld { dst, base, off } => {
                let addr = self.threads[tid].rf.read(base).wrapping_add(off as u64);
                let v = self.mem.read(addr);
                let tag = d.tag;
                let (ready, hit) = self.load_access(tag, addr, start);
                // Hardware stride prefetcher observes demand loads.
                if self.cfg.memory_mode == MemoryMode::Normal {
                    if let Some(sp) = self.stride.as_mut() {
                        for pa in sp.observe(tag, addr) {
                            self.hier.access_prefetch(pa, start);
                        }
                    }
                }
                self.finish_write(tid, dst, v, ready, Some(hit));
                self.push_rob(tid, start, ready, true, Some(hit));
                if hit.is_l1_miss() && !ooo {
                    self.threads[tid].outstanding.retain(|&(r, _)| r > self.cycle);
                    self.threads[tid].outstanding.push((ready, hit));
                }
                let roi = self.effective_roi();
                if roi {
                    self.load_stats[d.load_slot as usize].record(hit);
                }
                if let Some(tel) = self.telemetry.as_deref_mut() {
                    if spec {
                        // A slice load warms the hierarchy exactly like
                        // an lfetch: track it as a prefetch.
                        tel.record_prefetch(tag, addr, ready, hit);
                    } else if roi {
                        tel.record_demand(tag, addr, hit, self.cycle);
                    }
                }
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::St { src, base, off } => {
                // Speculative threads must never modify memory; the
                // verifier bans these, and the hardware drops them.
                if !spec {
                    let addr = self.threads[tid].rf.read(base).wrapping_add(off as u64);
                    let v = self.threads[tid].rf.read(src);
                    self.mem.write(addr, v);
                    if self.cfg.memory_mode == MemoryMode::Normal {
                        self.hier.access_store(addr, start);
                    }
                } else if let Some(s) = self.snap.as_deref_mut() {
                    // The store was dropped, but the oracle wants to know
                    // a speculative thread tried: slices must be
                    // store-free, so any attempt is a codegen bug.
                    s.spec_store_attempts += 1;
                }
                self.push_rob(tid, start, start + 1, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::Lfetch { base, off } => {
                let addr = self.threads[tid].rf.read(base).wrapping_add(off as u64);
                if self.cfg.memory_mode == MemoryMode::Normal {
                    let r = self.hier.access_prefetch(addr, start);
                    if spec {
                        if let Some(tel) = self.telemetry.as_deref_mut() {
                            match r {
                                Some(r) => tel.record_prefetch(d.tag, addr, r.ready_at, r.hit),
                                None => tel.prefetches_dropped += 1,
                            }
                        }
                    }
                }
                self.push_rob(tid, start, start + 1, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::Br { .. } => {
                self.push_rob(tid, start, start + 1, false, None);
                self.threads[tid].pc = Some(d.target);
                Flow::Redirect
            }
            Op::BrCond { pred, if_true, .. } => {
                let taken = self.threads[tid].rf.read(pred) != 0;
                let pc_key = d.branch_key;
                let predicted = self.gshare.predict(pc_key);
                self.gshare.update(pc_key, taken);
                let resolve = start + 1;
                self.push_rob(tid, start, resolve, false, None);
                if tid == 0 && self.effective_roi() {
                    self.result.branches += 1;
                }
                self.threads[tid].pc = Some(if taken { d.target } else { d.else_target });
                if predicted != taken {
                    if tid == 0 && self.effective_roi() {
                        self.result.mispredicts += 1;
                    }
                    self.threads[tid].fetch_ready = resolve + self.cfg.mispredict_penalty;
                } else if taken {
                    // Correct direction, but the front end still needs the
                    // target: a BTB miss costs a short redirect bubble.
                    let tkey = u64::from(if_true.0);
                    if !self.btb.lookup(pc_key, tkey, self.cycle) {
                        self.btb.record(pc_key, tkey, self.cycle);
                        self.threads[tid].fetch_ready = self.cycle + 2;
                    }
                }
                Flow::Redirect
            }
            Op::Call { .. } => {
                self.push_rob(tid, start, start + 1, false, None);
                self.threads[tid].call_stack.push(next);
                self.threads[tid].pc = Some(d.target);
                Flow::Redirect
            }
            Op::CallInd { target, .. } => {
                self.push_rob(tid, start, start + 1, false, None);
                let v = self.threads[tid].rf.read(target);
                match FuncId::from_value(v).and_then(|f| self.decode.entry(f)) {
                    Some(entry) => {
                        self.threads[tid].call_stack.push(next);
                        self.threads[tid].pc = Some(entry);
                        Flow::Redirect
                    }
                    // A wild indirect call: fatal for the main thread,
                    // silently fatal for a speculative one.
                    _ if spec => {
                        self.kill_thread(tid);
                        Flow::ThreadDone
                    }
                    _ => self.halt_with(TrapKind::WildIndirectCall),
                }
            }
            Op::Ret => {
                self.push_rob(tid, start, start + 1, false, None);
                match self.threads[tid].call_stack.pop() {
                    Some(r) => {
                        self.threads[tid].pc = Some(r);
                        Flow::Redirect
                    }
                    None if spec => {
                        self.kill_thread(tid);
                        Flow::ThreadDone
                    }
                    None => self.halt_with(TrapKind::MainExit),
                }
            }
            Op::ChkC { .. } => {
                self.push_rob(tid, start, start + 1, false, None);
                // The context check also requires a free live-in-buffer
                // slot — a raise whose stub cannot allocate a slot would
                // flush the pipe for a spawn that must be dropped.
                let resources_free =
                    self.free_context().is_some() && self.lib.busy() < self.cfg.lib_slots;
                if !spec && resources_free {
                    // Raise: pipeline flush, recovery code = stub block.
                    self.result.spawns_fired += 1;
                    self.threads[tid].fetch_ready = start + self.cfg.spawn_flush_penalty;
                    self.threads[tid].pc = Some(d.target);
                    Flow::Redirect
                } else {
                    if !spec {
                        self.result.spawns_suppressed += 1;
                    }
                    self.threads[tid].pc = Some(next);
                    Flow::Continue
                }
            }
            Op::Spawn { slot, .. } => {
                self.push_rob(tid, start, start + 1, false, None);
                let slot_val = self.threads[tid].rf.read(slot);
                if slot_val != LIB_NO_SLOT {
                    if let Some(child) = self.free_context() {
                        let ready = start + self.cfg.spawn_latency;
                        self.threads[child].start(d.target, slot_val, ready);
                        self.result.threads_spawned += 1;
                    } else {
                        self.lib.free(slot_val);
                        self.result.spawns_dropped += 1;
                    }
                } else {
                    self.result.spawns_dropped += 1;
                }
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::LibAlloc { dst } => {
                let s = self.lib.alloc();
                let done = start + self.cfg.lib_latency;
                self.finish_write(tid, dst, s, done, None);
                self.push_rob(tid, start, done, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::LibSt { slot, idx, src } => {
                let (s, v) = {
                    let rf = &self.threads[tid].rf;
                    (rf.read(slot), rf.read(src))
                };
                self.lib.write(s, idx, v);
                if let Some(tel) = self.telemetry.as_deref_mut() {
                    tel.live_in_copies += 1;
                }
                self.push_rob(tid, start, start + self.cfg.lib_latency, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::LibLd { dst, slot, idx } => {
                let s = self.threads[tid].rf.read(slot);
                let v = self.lib.read(s, idx);
                if let Some(tel) = self.telemetry.as_deref_mut() {
                    tel.live_in_copies += 1;
                }
                let done = start + self.cfg.lib_latency;
                self.finish_write(tid, dst, v, done, None);
                self.push_rob(tid, start, done, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::LibFree { slot } => {
                let s = self.threads[tid].rf.read(slot);
                self.lib.free(s);
                if self.threads[tid].owned_slot == Some(s) {
                    self.threads[tid].owned_slot = None;
                }
                self.push_rob(tid, start, start + self.cfg.lib_latency, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::KillThread => {
                if spec {
                    self.kill_thread(tid);
                    Flow::ThreadDone
                } else {
                    // The main thread ending via kill ends the run.
                    self.halt_with(TrapKind::MainExit)
                }
            }
            Op::RoiBegin => {
                self.in_roi = true;
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::RoiEnd => {
                self.in_roi = false;
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
            Op::Halt => self.halt_with(TrapKind::Halted),
            Op::Nop => {
                self.push_rob(tid, start, start + 1, false, None);
                self.threads[tid].pc = Some(next);
                Flow::Continue
            }
        }
    }
}

impl SimResult {
    /// Classify one cycle of main-thread progress. `has_miss` is the
    /// outstanding-L1-miss test, computed by the caller (only consulted
    /// when the thread issued) so the fast engine can answer it from its
    /// event queues while the stepped oracle rescans.
    pub(crate) fn cycles_account(
        &mut self,
        main_issued: usize,
        main_stall: Option<StallReason>,
        has_miss: bool,
    ) {
        let b = &mut self.breakdown;
        if main_issued > 0 {
            if has_miss {
                b.cache_exec += 1;
            } else {
                b.exec += 1;
            }
            return;
        }
        self.account_stalled(main_stall.and_then(StallReason::hit), 1);
    }

    /// Charge `n` zero-issue cycles to the Figure-10 stall bucket for a
    /// main thread blocked on a load that hit at `hit`. Used per-cycle by
    /// [`SimResult::cycles_account`] and in bulk by a busy window's skip.
    pub(crate) fn account_stalled(&mut self, hit: Option<HitWhere>, n: u64) {
        let b = &mut self.breakdown;
        match hit {
            Some(HitWhere::Mem) | Some(HitWhere::MemPartial) => b.l3_miss += n,
            Some(HitWhere::L3) | Some(HitWhere::L3Partial) => b.l2_miss += n,
            Some(HitWhere::L2) | Some(HitWhere::L2Partial) => b.l1_miss += n,
            _ => b.other += n,
        }
    }
}

/// Run `prog` on the machine described by `cfg`.
pub fn simulate(prog: &Program, cfg: &MachineConfig) -> SimResult {
    simulate_with(prog, cfg, SimOptions::default()).result
}

/// Run `prog` in [`SimMode::Stepped`]: every cycle stepped individually
/// with the O(ROB) rescans, as the engine did before busy windows and
/// event queues existed.
///
/// This exists so differential tests (and the `perf_report` timing
/// comparison) can pit the fast engine against the stepped one; the two
/// must produce byte-identical [`SimResult`]s.
pub fn simulate_stepped(prog: &Program, cfg: &MachineConfig) -> SimResult {
    simulate_with(prog, cfg, SimOptions { mode: SimMode::Stepped, ..Default::default() }).result
}

/// Run `prog` in [`SimMode::Crosschecked`]: the fast engine with every
/// incremental next-event computation checked against a brute-force
/// O(ROB) rescan of the same event definition, panicking on the first
/// divergence or on any event not strictly in the future.
///
/// This is the property-test harness behind the event-queue regression
/// suite; it is not meant for regular use.
pub fn simulate_crosschecked(prog: &Program, cfg: &MachineConfig) -> SimResult {
    simulate_with(prog, cfg, SimOptions { mode: SimMode::Crosschecked, ..Default::default() })
        .result
}

/// Run `prog` on the fast engine and also return how its cycles split
/// between busy windows and individually stepped cycles, with
/// per-window length histograms ([`WindowStats`]). The returned
/// [`SimResult`] is identical to what [`simulate`] produces.
pub fn simulate_windowed(prog: &Program, cfg: &MachineConfig) -> (SimResult, WindowStats) {
    let run = simulate_with(prog, cfg, SimOptions::default());
    (run.result, run.windows)
}

/// How [`simulate_with`] advances the clock. Every mode produces the
/// same bytes; the equivalence suites assert exactly that.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SimMode {
    /// Busy windows on the incremental event queues (the default).
    #[default]
    Fast,
    /// Every cycle stepped through the full protocol with the O(ROB)
    /// rescans: the oracle the differential tests compare against.
    Stepped,
    /// [`SimMode::Fast`] with every event query checked against the
    /// brute-force rescan (see [`simulate_crosschecked`]).
    Crosschecked,
}

/// How one [`simulate_with`] run steps and what it records besides its
/// statistics. The default is the plain fast run of [`simulate`].
#[derive(Clone, Copy, Debug, Default)]
pub struct SimOptions<'t> {
    /// How the clock advances.
    pub mode: SimMode,
    /// Capture the final [`ArchSnapshot`], its commit digest restricted
    /// to tags below this bound (see [`simulate_snapshot`]).
    pub snapshot: Option<u32>,
    /// Collect a [`ssp_trace::SimTrace`], attributing unconsumed
    /// prefetches through these `(prefetching tag, targeted load tag)`
    /// pairs (see [`simulate_traced`]).
    pub telemetry: Option<&'t [(ssp_ir::InstTag, ssp_ir::InstTag)]>,
}

/// Everything one [`simulate_with`] run produced.
#[derive(Clone, Debug)]
pub struct SimRun {
    /// The statistics, identical to what [`simulate`] returns.
    pub result: SimResult,
    /// The final architectural state, if [`SimOptions::snapshot`] asked
    /// for it.
    pub snapshot: Option<ArchSnapshot>,
    /// The telemetry trace, if [`SimOptions::telemetry`] asked for it.
    pub trace: Option<ssp_trace::SimTrace>,
    /// How the run's cycles split between busy windows and stepped
    /// cycles.
    pub windows: WindowStats,
}

/// Run `prog` once in the mode `opts` names, with every recorder it asks
/// for installed together, so a caller that needs both the architectural
/// snapshot and the telemetry of one binary pays for one simulation.
/// Every other `simulate_*` function is a wrapper over this one.
///
/// Neither the mode nor the recorders change timing: the returned
/// [`SimResult`] is identical to what [`simulate`] produces for the same
/// inputs. Every run asserts the window accounting invariant
/// ([`WindowStats::simulated`] equals `total_cycles`).
pub fn simulate_with(prog: &Program, cfg: &MachineConfig, opts: SimOptions<'_>) -> SimRun {
    let decode = DecodedProgram::new(prog);
    let mut e = Engine::new(prog, &decode, cfg, opts);
    e.run();
    let w = &e.windows;
    assert_eq!(
        w.simulated(),
        e.result.total_cycles,
        "window accounting: busy {} + stepped {} must equal total_cycles {}",
        w.busy_cycles,
        w.stepped_cycles,
        e.result.total_cycles,
    );
    let trace = e.telemetry.take().map(|tel| tel.finish(&e.result, e.cycle));
    let snapshot = e.snap.take().map(|rec| ArchSnapshot {
        regs: (0..NUM_REGS).map(|r| e.threads[0].rf.read(ssp_ir::Reg(r as u16))).collect(),
        mem_digest: e.mem.digest(),
        // `run` ends either at a Flow::Halt site (all of which record a
        // trap) or at the cycle cap.
        trap: rec.trap.unwrap_or(TrapKind::CycleCap),
        commit_digest: rec.commit_digest,
        commit_len: rec.commit_len,
        spec_store_attempts: rec.spec_store_attempts,
        spec_kills: rec.spec_kills,
        spec_live_at_end: e.threads[1..].iter().filter(|t| t.active()).count() as u64,
    });
    SimRun { result: e.result, snapshot, trace, windows: e.windows }
}

/// Run `prog` with structured tracing enabled, returning the usual
/// statistics plus a [`ssp_trace::SimTrace`] that classifies every
/// speculative prefetch as early / timely / late / useless relative to
/// the main-thread load that consumed it.
///
/// `targets` maps prefetching instruction tags (slice loads and
/// `lfetch`es, as reported by `ssp_core::prefetch_targets`) to the
/// delinquent load their slice targets, so unconsumed prefetches are
/// attributed to the right static load. An empty slice is fine:
/// unconsumed prefetches then credit their own tag.
///
/// Tracing never changes timing: the returned [`SimResult`] is
/// identical to what [`simulate`] produces for the same inputs.
pub fn simulate_traced(
    prog: &Program,
    cfg: &MachineConfig,
    targets: &[(ssp_ir::InstTag, ssp_ir::InstTag)],
) -> (SimResult, ssp_trace::SimTrace) {
    let run =
        simulate_with(prog, cfg, SimOptions { telemetry: Some(targets), ..Default::default() });
    (run.result, run.trace.expect("telemetry requested"))
}

/// [`simulate_traced`] in [`SimMode::Stepped`]; for differential tests
/// that the telemetry classification is skip-proof.
pub fn simulate_traced_stepped(
    prog: &Program,
    cfg: &MachineConfig,
    targets: &[(ssp_ir::InstTag, ssp_ir::InstTag)],
) -> (SimResult, ssp_trace::SimTrace) {
    let opts =
        SimOptions { mode: SimMode::Stepped, telemetry: Some(targets), ..Default::default() };
    let run = simulate_with(prog, cfg, opts);
    (run.result, run.trace.expect("telemetry requested"))
}

/// Run `prog` and additionally capture its final architectural state —
/// main-thread registers, a memory digest, the trap kind, and a digest of
/// the main thread's committed-instruction stream restricted to tags
/// below `tag_bound` — for differential baseline-vs-adapted checks.
///
/// Pass the *original* program's `next_tag` as `tag_bound` when
/// snapshotting an adapted binary (adaptation preserves original tags and
/// mints fresh ones above that bound), and the program's own `next_tag`
/// when snapshotting the baseline; the two commit digests are then
/// directly comparable.
///
/// Like tracing, snapshotting never changes timing: the returned
/// [`SimResult`] is identical to what [`simulate`] produces.
pub fn simulate_snapshot(
    prog: &Program,
    cfg: &MachineConfig,
    tag_bound: u32,
) -> (SimResult, ArchSnapshot) {
    let run =
        simulate_with(prog, cfg, SimOptions { snapshot: Some(tag_bound), ..Default::default() });
    (run.result, run.snapshot.expect("snapshot requested"))
}

/// [`simulate_snapshot`] in [`SimMode::Stepped`]; for differential tests
/// that skips preserve final architectural state.
pub fn simulate_snapshot_stepped(
    prog: &Program,
    cfg: &MachineConfig,
    tag_bound: u32,
) -> (SimResult, ArchSnapshot) {
    let opts =
        SimOptions { mode: SimMode::Stepped, snapshot: Some(tag_bound), ..Default::default() };
    let run = simulate_with(prog, cfg, opts);
    (run.result, run.snapshot.expect("snapshot requested"))
}
