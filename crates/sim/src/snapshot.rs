//! Architectural-state snapshots and commit-stream digests for
//! differential testing.
//!
//! The fuzz oracle (`ssp-fuzz`) runs every generated program twice —
//! original and SSP-adapted — and asserts the adaptation is
//! *semantically transparent* (§3.5): same final registers and memory,
//! same trap status, and the same main-thread committed-instruction
//! stream once tool-synthesized instructions (fresh tags) are filtered
//! out. [`crate::simulate_snapshot`] produces the [`ArchSnapshot`] those
//! comparisons run on.
//!
//! Like the telemetry layer, the recorder is an `Option<Box<...>>` side
//! structure on the engine: when absent (every normal simulation) each
//! hook is a single untaken branch, so the untraced cycle loop is
//! unchanged.

use ssp_ir::{fnv64_word, InstTag, FNV64_OFFSET};

/// How a simulation ended, from the main thread's point of view.
///
/// Differential runs must agree on this too: an adapted binary that turns
/// a clean `halt` into a wild indirect call (or a cycle-cap timeout) is
/// just as wrong as one that corrupts a register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrapKind {
    /// The main thread executed `halt`.
    Halted,
    /// The main thread ended via `kill.thread` or a return past the
    /// bottom of the call stack.
    MainExit,
    /// The main thread performed an indirect call through a value that is
    /// not a function address.
    WildIndirectCall,
    /// The configured cycle cap expired before the program ended.
    CycleCap,
}

impl TrapKind {
    /// Stable lower-case name (used in oracle reports).
    pub fn name(self) -> &'static str {
        match self {
            TrapKind::Halted => "halted",
            TrapKind::MainExit => "main-exit",
            TrapKind::WildIndirectCall => "wild-indirect-call",
            TrapKind::CycleCap => "cycle-cap",
        }
    }
}

/// The engine-side recorder behind [`crate::simulate_snapshot`].
#[derive(Clone, Debug)]
pub(crate) struct SnapshotRec {
    /// Main-thread instructions whose tag is below this bound enter the
    /// commit digest. Adaptation preserves original tags and mints fresh
    /// ones at or above `Program::next_tag` of the original, so passing
    /// that value filters the stub/trigger machinery out of the stream.
    pub(crate) tag_bound: u32,
    pub(crate) commit_digest: u64,
    pub(crate) commit_len: u64,
    pub(crate) spec_store_attempts: u64,
    pub(crate) spec_kills: u64,
    pub(crate) trap: Option<TrapKind>,
}

impl SnapshotRec {
    pub(crate) fn new(tag_bound: u32) -> Self {
        SnapshotRec {
            tag_bound,
            commit_digest: FNV64_OFFSET,
            commit_len: 0,
            spec_store_attempts: 0,
            spec_kills: 0,
            trap: None,
        }
    }

    #[inline]
    pub(crate) fn record_commit(&mut self, tag: InstTag) {
        if tag.0 < self.tag_bound {
            self.commit_digest = fnv64_word(self.commit_digest, u64::from(tag.0));
            self.commit_len += 1;
        }
    }

    #[inline]
    pub(crate) fn note_trap(&mut self, kind: TrapKind) {
        // First trap wins (there is at most one per run anyway).
        if self.trap.is_none() {
            self.trap = Some(kind);
        }
    }
}

/// Final architectural state of a simulation, for baseline-vs-adapted
/// equivalence checks.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArchSnapshot {
    /// Final main-thread register file, all [`ssp_ir::reg::NUM_REGS`]
    /// registers. Callers compare only the registers the *original*
    /// program mentions: stub scratch registers are deliberately chosen
    /// from never-mentioned registers and legitimately differ.
    pub regs: Vec<u64>,
    /// Order-independent digest over all nonzero memory words
    /// (`addr -> value`). Unwritten memory reads as zero, so zero-valued
    /// words are excluded to keep the digest a function of the semantic
    /// memory state.
    pub mem_digest: u64,
    /// How the run ended.
    pub trap: TrapKind,
    /// FNV digest of the main thread's committed-instruction tag stream,
    /// restricted to tags below the requested bound.
    pub commit_digest: u64,
    /// Number of committed main-thread instructions below the tag bound.
    pub commit_len: u64,
    /// Stores speculative threads *attempted* to execute (the engine
    /// drops them; any nonzero count is a codegen bug — §3.5 bans stores
    /// in slices).
    pub spec_store_attempts: u64,
    /// Speculative threads that terminated (self-kill, runaway kill, or
    /// silent kill on a wild control transfer).
    pub spec_kills: u64,
    /// Speculative threads still running when the main thread ended.
    pub spec_live_at_end: u64,
}

impl ArchSnapshot {
    /// Whether every spawned thread is accounted for: killed or still
    /// in flight when the run ended (`threads_spawned` from the matching
    /// [`crate::SimResult`]).
    pub fn spawns_balanced(&self, threads_spawned: u64) -> bool {
        self.spec_kills + self.spec_live_at_end == threads_spawned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_digest_is_order_sensitive_and_bounded() {
        let mut a = SnapshotRec::new(2);
        a.record_commit(InstTag(0));
        a.record_commit(InstTag(1));
        a.record_commit(InstTag(7)); // above bound: ignored
        let mut b = SnapshotRec::new(2);
        b.record_commit(InstTag(1));
        b.record_commit(InstTag(0));
        assert_eq!(a.commit_len, 2);
        assert_eq!(b.commit_len, 2);
        assert_ne!(a.commit_digest, b.commit_digest, "order matters");
    }

    #[test]
    fn first_trap_wins() {
        let mut r = SnapshotRec::new(0);
        r.note_trap(TrapKind::Halted);
        r.note_trap(TrapKind::CycleCap);
        assert_eq!(r.trap, Some(TrapKind::Halted));
        assert_eq!(TrapKind::WildIndirectCall.name(), "wild-indirect-call");
    }
}
