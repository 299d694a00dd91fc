//! The busy-window entry proof: which contexts may issue.
//!
//! Most adapted-simulation cycles have exactly one context that can
//! issue: the main thread running while every slice waits on a load or
//! its spawn latency, or — the paper's chaining-SP picture — one slice
//! running while the main thread stalls on a miss. Those cycles can't
//! be skipped (architectural state changes every cycle), but the cycle
//! loop need not visit the provably blocked contexts. [`Engine::issuers`]
//! decides, once at window entry, whether the next cycles run with every
//! context allowed to issue or with one context alone up to a proven
//! horizon; both run the one cycle protocol, `Engine::step_cycle`.
//!
//! **The proof.** Every context has a proven bound: the earliest cycle
//! it could issue again, read from state the engine already caches (a
//! front-end redirect, or the wake-up `blocked_until` recorded when the
//! context last stalled). The context with the earliest bound issues
//! alone until the earliest bound among the others, which must lie more
//! than one cycle away. The main thread's bound is also its next event
//! (`Engine::thread_event_fast`), so while a speculative context issues
//! alone the main thread's stall classification, payload included, is
//! constant and each cycle lands in the same Figure-10 bucket. The
//! window loop (`Engine::run_window`) closes it early the moment the
//! proof could be invalidated (a spawn activates a context, a kill frees
//! one) or the program halts. Inside it the issuer runs the full
//! issue-group protocol, and the other contexts' commits are replayed at
//! exit, so every statistic, snapshot, and telemetry byte matches the
//! stepped engine; the equivalence suite asserts exactly that.

use crate::engine::{Engine, SimMode};

/// The contexts allowed to issue, chosen once by [`Engine::issuers`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Issuers {
    /// Every context, for one cycle.
    All,
    /// Context `tid` alone (the main thread is `tid` 0), for a busy
    /// window up to `horizon`: every other context is proven unable to
    /// issue before it.
    Alone {
        /// The one context allowed to issue and commit.
        tid: usize,
        /// The first cycle outside the window.
        horizon: u64,
    },
}

impl<const OOO: bool> Engine<'_, OOO> {
    /// The earliest cycle at which speculative context `tid` could
    /// possibly issue again, or `u64::MAX` for an inactive context. A
    /// return equal to `self.cycle` means "not provably blocked".
    ///
    /// The proof obligations, per pipeline:
    ///
    /// * front end redirecting → blocked before `fetch_ready`;
    /// * **in-order** → some source of the thread's current instruction
    ///   is unready; blocked until the earliest such source's ready
    ///   time (bitset scoreboard query);
    /// * **out-of-order**, ROB at capacity → the head pops at the
    ///   commit phase of cycle `max(head.complete_at, now)`, so
    ///   dispatch resumes no earlier than the following cycle;
    /// * **out-of-order**, reservation station at capacity → a slot
    ///   frees when the earliest future `start_at` passes (the
    ///   reservation-station buffer's minimum).
    ///
    /// Nothing a blocked context waits on can be accelerated by other
    /// threads (its scoreboard, ROB and queues are written only by its
    /// own dispatch), so the bound stays valid for the whole window —
    /// except across a successful `spawn`, which the window loop
    /// treats as a window-closing event.
    pub(crate) fn spec_blocked_until(&mut self, tid: usize) -> u64 {
        let now = self.cycle;
        if !self.threads[tid].active() {
            return u64::MAX;
        }
        if self.threads[tid].fetch_ready > now {
            return self.threads[tid].fetch_ready;
        }
        if OOO {
            let t = &mut self.threads[tid];
            if t.rob.len() >= self.cfg.rob_entries {
                let head = t.rob.front().expect("full ROB has a head");
                head.complete_at.max(now) + 1
            } else if t.rs_waiting.full(now, self.cfg.rs_entries) {
                t.rs_waiting.next_after(now).unwrap_or(now)
            } else {
                now // room to dispatch: could issue this cycle
            }
        } else {
            let at = self.threads[tid].pc.expect("active thread has a pc");
            let mask = self.decode.get(at).use_mask;
            let ev = self.threads[tid].sb.min_ready(&mask, now);
            if ev == u64::MAX {
                now // every source ready: could issue this cycle
            } else {
                ev
            }
        }
    }

    /// The proven bound of context `tid` at window entry: the earliest
    /// cycle it could issue, `self.cycle` when it is not provably
    /// blocked. The main thread's bound is read from cache alone (its
    /// redirect, or the next event recorded when it last stalled); a
    /// speculative context whose cached wake-up has lapsed is re-proven
    /// ([`Engine::spec_blocked_until`]) and re-cached, so the next entry
    /// is one compare again.
    fn entry_bound(&mut self, tid: usize) -> u64 {
        let now = self.cycle;
        let t = &self.threads[tid];
        if !t.active() {
            u64::MAX
        } else if t.fetch_ready > now {
            t.fetch_ready
        } else if t.blocked_until > now || tid == 0 {
            t.blocked_until.max(now)
        } else {
            let b = self.spec_blocked_until(tid);
            self.threads[tid].blocked_until = b;
            b
        }
    }

    /// The entry proof: the contexts allowed to issue from the current
    /// cycle on. The context with the earliest bound (the main thread on
    /// a tie) issues alone until the earliest bound among the others,
    /// clamped to the cycle cap `max`, if that horizon is more than one
    /// cycle away; otherwise every context steps one cycle.
    /// [`SimMode::Stepped`] always steps.
    pub(crate) fn issuers(&mut self, max: u64) -> Issuers {
        if self.mode == SimMode::Stepped {
            return Issuers::All;
        }
        let floor = self.cycle + 1;
        let (mut tid, mut first) = (0, self.entry_bound(0));
        let mut horizon = max;
        for t in 1..self.threads.len() {
            let b = self.entry_bound(t);
            if b < first {
                horizon = horizon.min(first);
                (tid, first) = (t, b);
            } else {
                horizon = horizon.min(b);
            }
            if horizon <= floor {
                // Too small for a window to pay off (and `<= cycle`
                // means a second context can issue right now).
                return Issuers::All;
            }
        }
        if horizon <= floor {
            return Issuers::All;
        }
        Issuers::Alone { tid, horizon }
    }
}
