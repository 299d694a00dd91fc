//! A small deterministic xorshift64* PRNG.
//!
//! The workload builders only need reproducible layout scattering — a
//! seeded stream, uniform integers in a range, and a Fisher–Yates
//! shuffle — so this in-tree generator replaces the external `rand`
//! dependency and keeps the workspace building fully offline. Streams
//! are stable across platforms and releases: layouts are part of the
//! experiment definition (see `layout::rng_for`).

use std::ops::Range;

/// A deterministic xorshift64* random-number generator.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Seed the generator. A zero seed is remapped to a fixed non-zero
    /// constant (xorshift has an all-zero fixed point).
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (`n > 0`), via rejection sampling so the
    /// distribution is exactly uniform.
    fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform value in `range` (half-open, must be non-empty).
    pub fn gen_range<T: RangeSample>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        self.shuffle_by(slice.len(), |i, j| slice.swap(i, j));
    }

    /// Fisher–Yates shuffle of `len` items held however the caller
    /// likes: `swap(i, j)` exchanges items `i` and `j` (possibly equal).
    /// Makes the same draws and swaps as [`Rng::shuffle`].
    pub(crate) fn shuffle_by(&mut self, len: usize, mut swap: impl FnMut(usize, usize)) {
        for i in (1..len).rev() {
            let j = self.below(i as u64 + 1) as usize;
            swap(i, j);
        }
    }
}

/// Integer types `Rng::gen_range` can sample.
pub trait RangeSample: Sized {
    /// Sample uniformly from the half-open `range`.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

macro_rules! impl_range_sample {
    ($($t:ty),*) => {$(
        impl RangeSample for $t {
            fn sample(rng: &mut Rng, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end - range.start) as u64;
                range.start + rng.below(span) as $t
            }
        }
    )*};
}
impl_range_sample!(u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        let mut c = Rng::seed_from_u64(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn gen_range_in_bounds_and_covering() {
        let mut r = Rng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..10)] = true;
            let v = r.gen_range(5u64..8);
            assert!((5..8).contains(&v));
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..10 hit");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::seed_from_u64(99);
        let mut v: Vec<usize> = (0..100).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "not the identity");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng::seed_from_u64(0);
        assert_ne!(r.next_u64(), 0);
    }
}
