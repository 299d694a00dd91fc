//! Pure-value evaluation helpers shared by the timed engine and the fast
//! functional profiler, plus the per-thread register [`Scoreboard`] the
//! timing model consults on every issue decision.

use crate::cache::HitWhere;
use ssp_ir::reg::NUM_REGS;
use ssp_ir::{AluKind, CmpKind, FAluKind, Operand, Reg};

/// Words in a register bitset: 128 architected registers fit in two
/// `u64`s, so every mask operation is a pair of word ops.
pub const MASK_WORDS: usize = NUM_REGS.div_ceil(64);

/// A register bitset: bit `r % 64` of word `r / 64` covers register `r`.
pub type RegMask = [u64; MASK_WORDS];

/// Per-thread register readiness scoreboard.
///
/// Tracks, for every architected register, the cycle its last write
/// becomes available (`ready_at`), the cache level that produced it when
/// the producer was a load (`src`, the stall-payload of Figure 10), and —
/// for the fast engine — a **pending bitset** summarising which registers
/// may still be in flight.
///
/// The bitset is maintained *lazily*: a write whose result lands in the
/// future sets the register's bit, and the bit is cleared the next time a
/// mask query observes that the ready time has passed. The invariant is
/// one-sided — a set bit may be stale, but a clear bit always means
/// ready — so intersecting an instruction's pre-decoded operand mask
/// with `pending` is a conservative two-word filter: when the
/// intersection is empty the instruction provably has all sources ready
/// and the per-register ready-time walk is skipped entirely. Issue
/// selection on the fast engine is therefore a handful of
/// `trailing_zeros` operations instead of per-operand array probes.
#[derive(Clone, Debug)]
pub struct Scoreboard {
    ready_at: [u64; NUM_REGS],
    src: [Option<HitWhere>; NUM_REGS],
    pending: RegMask,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Self::new()
    }
}

impl Scoreboard {
    /// A scoreboard with every register ready at cycle 0.
    pub fn new() -> Self {
        Scoreboard { ready_at: [0; NUM_REGS], src: [None; NUM_REGS], pending: [0; MASK_WORDS] }
    }

    /// The cycle register `r`'s last write becomes available.
    #[inline]
    pub fn ready_at(&self, r: Reg) -> u64 {
        self.ready_at[r.index()]
    }

    /// The cache level that produced `r`'s outstanding value, when the
    /// producer was a load (the Figure-10 stall payload).
    #[inline]
    pub fn src_of(&self, r: Reg) -> Option<HitWhere> {
        self.src[r.index()]
    }

    /// Record a write of `r` whose result is available at `ready`.
    /// Writes to `r0` are discarded, matching the register file.
    #[inline]
    pub fn set(&mut self, r: Reg, ready: u64, src: Option<HitWhere>, now: u64) {
        if r.is_zero() {
            return;
        }
        let i = r.index();
        self.ready_at[i] = ready;
        self.src[i] = src;
        let bit = 1u64 << (i % 64);
        if ready > now {
            self.pending[i / 64] |= bit;
        } else {
            self.pending[i / 64] &= !bit;
        }
    }

    /// Mark every register as written with availability `at` — the spawn
    /// hand-off, where a fresh context's whole file materialises at once.
    pub fn fill(&mut self, at: u64) {
        self.ready_at = [at; NUM_REGS];
        self.src = [None; NUM_REGS];
        self.pending = [u64::MAX; MASK_WORDS];
    }

    /// The subset of `mask` whose registers are *not* ready at `now`,
    /// clearing stale pending bits along the way. An all-zero return
    /// means every source in `mask` is ready.
    #[inline]
    pub fn unready_among(&mut self, mask: &RegMask, now: u64) -> RegMask {
        let mut out = [0; MASK_WORDS];
        for w in 0..MASK_WORDS {
            let mut bits = mask[w] & self.pending[w];
            let mut keep = bits;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.ready_at[w * 64 + b] <= now {
                    let clear = !(1u64 << b);
                    self.pending[w] &= clear;
                    keep &= clear;
                }
            }
            out[w] = keep;
        }
        out
    }

    /// Earliest ready time over the unready subset of `mask` —
    /// the in-order thread's next source-availability event.
    /// `u64::MAX` when every source in `mask` is ready.
    #[inline]
    pub fn min_ready(&mut self, mask: &RegMask, now: u64) -> u64 {
        let unready = self.unready_among(mask, now);
        let mut t = u64::MAX;
        for (w, &word) in unready.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                t = t.min(self.ready_at[w * 64 + b]);
            }
        }
        t
    }
}

/// A thread's architectural register file.
#[derive(Clone, Debug)]
pub struct RegFile {
    regs: [u64; ssp_ir::reg::NUM_REGS],
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

impl RegFile {
    /// All-zero register file.
    pub fn new() -> Self {
        RegFile { regs: [0; ssp_ir::reg::NUM_REGS] }
    }

    /// Read `r` (`r0` always reads 0).
    #[inline]
    pub fn read(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Write `r` (writes to `r0` are discarded).
    #[inline]
    pub fn write(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Read an operand.
    #[inline]
    pub fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.read(r),
            Operand::Imm(i) => i as u64,
        }
    }
}

/// Evaluate an integer ALU operation.
pub fn alu_eval(kind: AluKind, a: u64, b: u64) -> u64 {
    match kind {
        AluKind::Add => a.wrapping_add(b),
        AluKind::Sub => a.wrapping_sub(b),
        AluKind::Mul => a.wrapping_mul(b),
        AluKind::And => a & b,
        AluKind::Or => a | b,
        AluKind::Xor => a ^ b,
        AluKind::Shl => a.wrapping_shl(b as u32 & 63),
        AluKind::Shr => a.wrapping_shr(b as u32 & 63),
    }
}

/// Evaluate a comparison to 0 or 1.
pub fn cmp_eval(kind: CmpKind, a: u64, b: u64) -> u64 {
    let r = match kind {
        CmpKind::Eq => a == b,
        CmpKind::Ne => a != b,
        CmpKind::Lt => a < b,
        CmpKind::Le => a <= b,
        CmpKind::Gt => a > b,
        CmpKind::Ge => a >= b,
        CmpKind::SLt => (a as i64) < (b as i64),
        CmpKind::SGt => (a as i64) > (b as i64),
    };
    u64::from(r)
}

/// Evaluate an FP operation over `f64` bit patterns.
pub fn falu_eval(kind: FAluKind, a: u64, b: u64) -> u64 {
    let (x, y) = (f64::from_bits(a), f64::from_bits(b));
    let r = match kind {
        FAluKind::Add => x + y,
        FAluKind::Sub => x - y,
        FAluKind::Mul => x * y,
    };
    r.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regfile_zero_register() {
        let mut rf = RegFile::new();
        rf.write(Reg(0), 99);
        assert_eq!(rf.read(Reg(0)), 0);
        rf.write(Reg(5), 7);
        assert_eq!(rf.read(Reg(5)), 7);
        assert_eq!(rf.operand(Operand::Imm(-1)), u64::MAX);
        assert_eq!(rf.operand(Operand::Reg(Reg(5))), 7);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(alu_eval(AluKind::Add, 3, 4), 7);
        assert_eq!(alu_eval(AluKind::Sub, 3, 4), u64::MAX);
        assert_eq!(alu_eval(AluKind::Mul, 6, 7), 42);
        assert_eq!(alu_eval(AluKind::Shl, 1, 10), 1024);
        assert_eq!(alu_eval(AluKind::Shr, 1024, 10), 1);
        assert_eq!(alu_eval(AluKind::Shl, 1, 64), 1, "shift count masked");
        assert_eq!(alu_eval(AluKind::And, 0b1100, 0b1010), 0b1000);
        assert_eq!(alu_eval(AluKind::Or, 0b1100, 0b1010), 0b1110);
        assert_eq!(alu_eval(AluKind::Xor, 0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn cmp_semantics_signed_vs_unsigned() {
        let neg1 = (-1i64) as u64;
        assert_eq!(cmp_eval(CmpKind::Lt, neg1, 1), 0, "unsigned: MAX > 1");
        assert_eq!(cmp_eval(CmpKind::SLt, neg1, 1), 1, "signed: -1 < 1");
        assert_eq!(cmp_eval(CmpKind::Eq, 5, 5), 1);
        assert_eq!(cmp_eval(CmpKind::Ne, 5, 5), 0);
        assert_eq!(cmp_eval(CmpKind::Ge, 5, 5), 1);
        assert_eq!(cmp_eval(CmpKind::Gt, 5, 5), 0);
        assert_eq!(cmp_eval(CmpKind::Le, 4, 5), 1);
        assert_eq!(cmp_eval(CmpKind::SGt, 1, neg1), 1);
    }

    #[test]
    fn scoreboard_pending_bits_are_lazy_but_one_sided() {
        let mut sb = Scoreboard::new();
        // A write landing in the future sets the bit; a mask query after
        // the ready time clears it and reports the register ready.
        sb.set(Reg(5), 10, Some(HitWhere::L2), 3);
        sb.set(Reg(70), 4, None, 3);
        let mask = {
            let mut m = [0u64; MASK_WORDS];
            m[0] |= 1 << 5;
            m[1] |= 1 << (70 - 64);
            m
        };
        let un = sb.unready_among(&mask, 5);
        assert_eq!(un[0], 1 << 5, "r5 still in flight at cycle 5");
        assert_eq!(un[1], 0, "r70 became ready at cycle 4");
        assert_eq!(sb.min_ready(&mask, 5), 10);
        assert_eq!(sb.src_of(Reg(5)), Some(HitWhere::L2));
        let un = sb.unready_among(&mask, 10);
        assert_eq!(un, [0, 0], "everything ready at cycle 10");
        assert_eq!(sb.min_ready(&mask, 10), u64::MAX);
        // Writes to r0 are discarded.
        sb.set(Reg(0), 99, None, 0);
        assert_eq!(sb.ready_at(Reg(0)), 0);
        // fill() marks the whole file in flight (spawn hand-off).
        sb.fill(20);
        assert_eq!(sb.ready_at(Reg(0)), 20);
        let un = sb.unready_among(&mask, 12);
        assert_eq!(un, mask);
    }

    #[test]
    fn falu_roundtrip() {
        let a = 1.5f64.to_bits();
        let b = 2.25f64.to_bits();
        assert_eq!(f64::from_bits(falu_eval(FAluKind::Add, a, b)), 3.75);
        assert_eq!(f64::from_bits(falu_eval(FAluKind::Sub, a, b)), -0.75);
        assert_eq!(f64::from_bits(falu_eval(FAluKind::Mul, a, b)), 3.375);
    }
}
