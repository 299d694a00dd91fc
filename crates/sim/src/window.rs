//! The busy-window entry proof: which contexts may issue.
//!
//! After the adaptation pass, most simulation time goes to *busy*
//! windows: the main thread issuing steadily while every speculative
//! context is dead, blocked on a slice load, or waiting out its spawn
//! latency. Those cycles can't be skipped (architectural state changes
//! every cycle), but the cycle loop need not visit provably blocked
//! contexts. [`Engine::issuers`] decides, once at window entry, whether
//! the next cycles run with every context allowed to issue or with the
//! main thread alone up to a proven horizon; both run the one cycle
//! protocol, `Engine::step_cycle`.
//!
//! **The proof.** A window may only start when every speculative
//! context is provably unable to issue before its horizon
//! ([`Engine::spec_blocked_until`]). The window loop (`Engine::run_window`)
//! closes it early the moment the proof could be invalidated (a
//! successful spawn activates a new context) or the program halts.
//! Inside it the main thread runs the full issue-group protocol, and the
//! blocked contexts' commits are replayed at exit, so every statistic,
//! snapshot, and telemetry byte matches the stepped engine; the
//! equivalence suite asserts exactly that.

use crate::config::PipelineKind;
use crate::engine::{Engine, SimMode};

/// The contexts allowed to issue, chosen once by [`Engine::issuers`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Issuers {
    /// Every context, for one cycle.
    All,
    /// The main thread alone, for a busy window up to this horizon:
    /// every speculative context is proven blocked before it.
    MainUntil(u64),
}

impl Engine<'_> {
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
    ///   frees when the earliest future `start_at` passes
    ///   (`rs_waiting` queue minimum).
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
        match self.cfg.pipeline {
            PipelineKind::InOrder => {
                let at = self.threads[tid].pc.expect("active thread has a pc");
                let mask = self.decode.get(at).use_mask;
                let ev = self.threads[tid].sb.min_ready(&mask, now);
                if ev == u64::MAX {
                    now // every source ready: could issue this cycle
                } else {
                    ev
                }
            }
            PipelineKind::OutOfOrder => {
                if self.threads[tid].rob.len() >= self.cfg.rob_entries {
                    let head = self.threads[tid].rob.front().expect("full ROB has a head");
                    head.complete_at.max(now) + 1
                } else if self.threads[tid].rs_waiting_count(now) >= self.cfg.rs_entries {
                    match self.threads[tid].rs_waiting.peek() {
                        Some(&std::cmp::Reverse(s)) => s,
                        None => now,
                    }
                } else {
                    now // room to dispatch: could issue this cycle
                }
            }
        }
    }

    /// The entry proof: the contexts allowed to issue from the current
    /// cycle on. If every speculative context is provably blocked until
    /// a horizon more than one cycle away (clamped to the cycle cap
    /// `max`), the main thread issues alone until then; otherwise every
    /// context steps one cycle. [`SimMode::Stepped`] always steps.
    pub(crate) fn issuers(&mut self, max: u64) -> Issuers {
        if self.mode == SimMode::Stepped {
            return Issuers::All;
        }
        let entry = self.cycle;
        let mut horizon = max;
        for tid in 1..self.threads.len() {
            // Consult the cached wakeup first — for a sleeping context
            // this is one compare; the full proof runs only for contexts
            // whose cached bound has lapsed (and is re-cached, so the
            // next attempt is cheap again).
            let t = &self.threads[tid];
            let b = if !t.active() {
                u64::MAX
            } else if t.fetch_ready > entry {
                t.fetch_ready
            } else if t.blocked_until > entry {
                t.blocked_until
            } else {
                let b = self.spec_blocked_until(tid);
                self.threads[tid].blocked_until = b;
                b
            };
            horizon = horizon.min(b);
            if horizon <= entry + 1 {
                // Too small for a window to pay off (and `<= entry`
                // means a context can issue right now).
                return Issuers::All;
            }
        }
        Issuers::MainUntil(horizon)
    }
}
