//! Heap-layout helpers for the synthetic benchmarks.
//!
//! The benchmarks' pointer targets are placed at pseudo-randomly shuffled
//! slots across a multi-megabyte span, so (a) dependent loads defeat any
//! stride pattern, and (b) the first touch of each node misses to
//! memory — the properties that make the original Olden/SPEC programs
//! miss-bound. The working sets stay far below the 3 MB L3: at seed
//! 2002 no simulation holds more than 2,479 L3 lines (155 KB) or more
//! than 5 of the 12 ways of any L3 set. So the L3 never evicts, and
//! every miss to memory is the first touch of a line in the span.

use crate::rng::Rng;

/// Base of the globals area (roots, counts).
pub const GLOBALS: u64 = 0x0001_0000;
/// Base of the sequential-arrays region (arc arrays, queues, key arrays).
pub const ARRAYS: u64 = 0x0010_0000;
/// Base of the scattered heap.
pub const HEAP: u64 = 0x1000_0000;

/// A shuffled slot allocator: `count` addresses of `slot_size` bytes
/// scattered across `span` bytes starting at `base`.
#[derive(Debug)]
pub struct Scatter {
    slots: Vec<u64>,
    next: usize,
}

/// The most slots a [`Scatter`] span may hold: a shuffled slot index is
/// 17 bits, as many as an 8 MB span of 64-byte slots needs.
const MAX_SLOTS: u64 = 1 << 17;

impl Scatter {
    /// Create the allocator.
    ///
    /// # Panics
    ///
    /// Panics if the span cannot hold `count` slots or holds more than
    /// 2^17 (131,072), or if `slot_size` is not a multiple of 8.
    pub fn new(base: u64, span: u64, slot_size: u64, count: usize, rng: &mut Rng) -> Self {
        assert_eq!(slot_size % 8, 0, "slot size must be word aligned");
        let capacity = span / slot_size;
        assert!(capacity >= count as u64, "span too small: {capacity} slots < {count}");
        assert!(capacity <= MAX_SLOTS, "span holds {capacity} slots, more than 2^17");
        let capacity = capacity as usize;
        // Each slot index is its low 16 bits in `low` plus its high bit
        // in the bitset `high`: an 8 MB span of 64-byte slots takes
        // 272 KB to shuffle instead of a `u32` per slot's 512 KB. The
        // shuffle makes the draws and swaps a slice of indices would, so
        // the permutation is the same.
        let mut low: Vec<u16> = (0..capacity).map(|i| i as u16).collect();
        let mut high = vec![0u64; capacity.div_ceil(64)];
        for i in 1 << 16..capacity {
            high[i / 64] |= 1 << (i % 64);
        }
        let bit = |high: &[u64], i: usize| high[i / 64] >> (i % 64) & 1;
        rng.shuffle_by(capacity, |i, j| {
            low.swap(i, j);
            // Swap the high bits without a branch: flip both where
            // they differ.
            let flip = bit(&high, i) ^ bit(&high, j);
            high[i / 64] ^= flip << (i % 64);
            high[j / 64] ^= flip << (j % 64);
        });
        let slots = (0..count)
            .map(|k| base + (u64::from(low[k]) | bit(&high, k) << 16) * slot_size)
            .collect();
        Scatter { slots, next: 0 }
    }

    /// Allocate the next scattered slot.
    ///
    /// # Panics
    ///
    /// Panics when slots are exhausted.
    pub fn alloc(&mut self) -> u64 {
        let a = self.slots[self.next];
        self.next += 1;
        a
    }

    /// Remaining slots.
    pub fn remaining(&self) -> usize {
        self.slots.len() - self.next
    }
}

/// A deterministic RNG for workload `name` and `seed`.
pub fn rng_for(name: &str, seed: u64) -> Rng {
    let mut h = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
    }
    Rng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn scatter_unique_aligned_in_range() {
        let mut rng = rng_for("test", 1);
        let mut s = Scatter::new(HEAP, 1 << 20, 64, 1000, &mut rng);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let a = s.alloc();
            assert!((HEAP..HEAP + (1 << 20)).contains(&a));
            assert_eq!(a % 64, 0);
            assert!(seen.insert(a), "no duplicates");
        }
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn scatter_is_deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut rng = rng_for("x", 7);
            let mut s = Scatter::new(HEAP, 1 << 16, 64, 10, &mut rng);
            (0..10).map(|_| s.alloc()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = rng_for("x", 7);
            let mut s = Scatter::new(HEAP, 1 << 16, 64, 10, &mut rng);
            (0..10).map(|_| s.alloc()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut rng = rng_for("x", 8);
            let mut s = Scatter::new(HEAP, 1 << 16, 64, 10, &mut rng);
            (0..10).map(|_| s.alloc()).collect()
        };
        assert_ne!(a, c, "different seed, different layout");
    }

    #[test]
    #[should_panic(expected = "span holds 131073 slots, more than 2^17")]
    fn scatter_rejects_a_span_beyond_u32_slot_indices() {
        let mut rng = rng_for("z", 1);
        let _ = Scatter::new(HEAP, (MAX_SLOTS + 1) * 64, 64, 1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "span too small")]
    fn scatter_rejects_tiny_span() {
        let mut rng = rng_for("y", 1);
        let _ = Scatter::new(HEAP, 640, 64, 100, &mut rng);
    }
}
