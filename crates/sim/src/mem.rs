//! Functional memory, plus the live-in buffer.
//!
//! A program's data image is frozen once and shared ([`ssp_ir::Image`]);
//! a simulation's [`Memory`] shares its address→slot index, copies only
//! its words (8 bytes each, 35–65 KB on the suite) and keeps the few words
//! a run writes outside the image in a small map of its own.

use ssp_ir::{fnv64_word, Image, WordMap, FNV64_OFFSET};
use std::sync::Arc;

/// Sparse simulated memory. Word-granular (8 bytes); unaligned accesses
/// are rounded down to the containing word, matching the aligned-only
/// discipline the workloads follow. Unwritten memory reads as zero.
///
/// Four words wide, as the one table it replaced was: a wider `Memory`
/// moves the engine's other fields, and that alone cost tune-cold about
/// 4% of its median latency (EXPERIMENTS.md, "One frozen data image").
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// The program's frozen image: the slot of each image word.
    image: Arc<Image>,
    /// This run's value of each image word, by slot.
    words: Box<[u64]>,
    /// Words written outside the image.
    outside: Box<WordMap<u64>>,
}

impl Memory {
    /// A run's memory, starting as `image`. A read or write of an image
    /// word is one probe of the image's index; one outside the image's
    /// lowest and highest word probes only the outside map.
    pub fn new(image: Arc<Image>) -> Self {
        Memory { words: image.words().into(), image, outside: Box::default() }
    }

    /// Read the word containing `addr`.
    pub fn read(&self, addr: u64) -> u64 {
        let addr = addr & !7;
        match self.image.slot(addr) {
            Some(slot) => self.words[slot],
            None => self.outside.get(&addr).copied().unwrap_or(0),
        }
    }

    /// Write the word containing `addr`.
    pub fn write(&mut self, addr: u64, val: u64) {
        let addr = addr & !7;
        match self.image.slot(addr) {
            Some(slot) => self.words[slot] = val,
            None => _ = self.outside.insert(addr, val),
        }
    }

    /// Number of distinct words the image holds or the run wrote.
    pub fn footprint_words(&self) -> usize {
        self.words.len() + self.outside.len()
    }

    /// Order-independent digest of the semantic memory state: an XOR-fold
    /// of a per-entry FNV hash over every *nonzero* word. Zero-valued
    /// words are skipped because unwritten memory reads as zero — two
    /// memories that answer every `read` identically digest identically,
    /// regardless of which zeros were ever explicitly stored and of the
    /// tables' iteration order, which is therefore never observable.
    pub fn digest(&self) -> u64 {
        let image = self.image.slots().map(|(addr, slot)| (addr, self.words[slot]));
        let outside = self.outside.iter().map(|(&addr, &val)| (addr, val));
        let mut acc = 0u64;
        for (addr, val) in image.chain(outside) {
            if val == 0 {
                continue;
            }
            acc ^= fnv64_word(fnv64_word(FNV64_OFFSET, addr), val);
        }
        acc
    }
}

/// The live-in buffer: the on-chip RSE backing-store region used to pass
/// live-in values from a parent thread to its spawned child (§2.1, §3.4.2).
///
/// Slots are allocated by `lib.alloc` in the stub block, written by the
/// parent, handed to the child through the spawn, read by the child, and
/// released with `lib.free`. If every slot is busy, allocation fails and
/// the spawn is dropped — mirroring "if a free hardware context is not
/// available, the spawn request is ignored" for the communication buffer.
#[derive(Clone, Debug)]
pub struct LiveInBuffer {
    /// Every slot's words, slot `i` at `words[i * words_per_slot..]`.
    words: Vec<u64>,
    /// Whether each slot is allocated.
    busy: Vec<bool>,
    words_per_slot: u8,
    /// Total successful allocations (statistics).
    pub allocs: u64,
    /// Allocations that failed because all slots were busy.
    pub alloc_failures: u64,
}

/// Sentinel slot id returned when allocation fails.
pub const LIB_NO_SLOT: u64 = u64::MAX;

impl LiveInBuffer {
    /// A buffer with `slots` slots of `words_per_slot` words each.
    pub fn new(slots: usize, words_per_slot: u8) -> Self {
        LiveInBuffer {
            words: vec![0; slots * words_per_slot as usize],
            busy: vec![false; slots],
            words_per_slot,
            allocs: 0,
            alloc_failures: 0,
        }
    }

    /// Allocate a slot, zeroing its words; returns its id or
    /// [`LIB_NO_SLOT`].
    pub fn alloc(&mut self) -> u64 {
        match self.busy.iter().position(|b| !b) {
            Some(i) => {
                self.busy[i] = true;
                let w = self.words_per_slot as usize;
                self.words[i * w..(i + 1) * w].fill(0);
                self.allocs += 1;
                i as u64
            }
            None => {
                self.alloc_failures += 1;
                LIB_NO_SLOT
            }
        }
    }

    /// Index into `words` of word `idx` of a busy `slot`; `None` for a
    /// free, out-of-range or sentinel slot and an out-of-range index.
    fn word(&self, slot: u64, idx: u8) -> Option<usize> {
        let s = usize::try_from(slot).ok()?;
        (self.busy.get(s) == Some(&true) && idx < self.words_per_slot)
            .then(|| s * self.words_per_slot as usize + idx as usize)
    }

    /// Write word `idx` of `slot`. Free or out-of-range slots, indices
    /// and the sentinel are ignored (the hardware simply drops the write).
    pub fn write(&mut self, slot: u64, idx: u8, val: u64) {
        if let Some(i) = self.word(slot, idx) {
            self.words[i] = val;
        }
    }

    /// Read word `idx` of `slot`; 0 for invalid slots (a speculative
    /// thread reading garbage is a performance problem, not a fault).
    pub fn read(&self, slot: u64, idx: u8) -> u64 {
        self.word(slot, idx).map_or(0, |i| self.words[i])
    }

    /// Release `slot`. Releasing an invalid or free slot is a no-op.
    pub fn free(&mut self, slot: u64) {
        if let Some(b) = usize::try_from(slot).ok().and_then(|s| self.busy.get_mut(s)) {
            *b = false;
        }
    }

    /// Number of currently busy slots.
    pub fn busy(&self) -> usize {
        self.busy.iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;
    use ssp_ir::WordHasher;
    use std::collections::HashMap;
    use std::hash::Hasher;

    fn image(words: &[(u64, u64)]) -> Arc<Image> {
        let mut image = Image::default();
        for &(addr, val) in words {
            image.insert(addr, val);
        }
        Arc::new(image)
    }

    #[test]
    fn memory_reads_zero_when_untouched() {
        let m = Memory::default();
        assert_eq!(m.read(0x1000), 0);
    }

    #[test]
    fn memory_write_read_roundtrip() {
        let mut m = Memory::default();
        m.write(0x1000, 42);
        assert_eq!(m.read(0x1000), 42);
        assert_eq!(m.read(0x1004), 42, "sub-word address maps to same word");
        assert_eq!(m.read(0x1008), 0);
    }

    #[test]
    fn image_loading() {
        let m = Memory::new(image(&[(0x100, 1), (0x108, 2)]));
        assert_eq!(m.read(0x100), 1);
        assert_eq!(m.read(0x108), 2);
        assert_eq!(m.footprint_words(), 2);
    }

    #[test]
    fn digest_ignores_zero_words_and_order() {
        let mut a = Memory::default();
        a.write(0x100, 1);
        a.write(0x108, 2);
        a.write(0x200, 0); // explicit zero: invisible to reads
        let mut b = Memory::default();
        b.write(0x108, 2);
        b.write(0x100, 1);
        assert_eq!(a.digest(), b.digest());
        b.write(0x108, 3);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn a_repeated_image_address_keeps_its_last_value() {
        let m = Memory::new(image(&[(0x100, 1), (0x108, 2), (0x100, 3), (0x100, 4)]));
        assert_eq!(m.read(0x100), 4);
        assert_eq!(m.read(0x104), 4, "0x104 is the same word as 0x100");
        assert_eq!(m.read(0x108), 2);
        assert_eq!(m.footprint_words(), 2);
    }

    /// Memory as one table of every word the image loads or a run
    /// writes, a repeated image address keeping its last value: the
    /// semantics [`Memory`] must keep.
    struct Reference(HashMap<u64, u64>);

    impl Reference {
        fn new(image: &[(u64, u64)]) -> Self {
            Reference(image.iter().map(|&(addr, val)| (addr & !7, val)).collect())
        }

        fn read(&self, addr: u64) -> u64 {
            self.0.get(&(addr & !7)).copied().unwrap_or(0)
        }

        fn digest(&self) -> u64 {
            let mut acc = 0u64;
            for (&addr, &val) in self.0.iter().filter(|(_, &val)| val != 0) {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for v in [addr, val] {
                    for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
                        h = (h ^ ((v >> shift) & 0xFF)).wrapping_mul(0x100_0000_01b3);
                    }
                }
                acc ^= h;
            }
            acc
        }
    }

    #[test]
    fn memory_agrees_with_a_single_table_reference() {
        let mut rng = TestRng::from_seed(2002);
        for case in 0..64 {
            // Addresses in a 96-word region, so images repeat addresses
            // and runs touch words inside and outside the image; a
            // quarter of all values are zero.
            let word = |rng: &mut TestRng| 0x4000 + 8 * rng.below(96);
            let value = |rng: &mut TestRng| match rng.below(4) {
                0 => 0,
                _ => rng.next_u64(),
            };
            let pairs: Vec<(u64, u64)> =
                (0..rng.below(48)).map(|_| (word(&mut rng), value(&mut rng))).collect();
            let mut m = Memory::new(image(&pairs));
            let mut r = Reference::new(&pairs);
            // The image's lowest and highest word (an empty image has
            // none: every address is outside it).
            let lo = pairs.iter().map(|p| p.0).min().unwrap_or(0x4180);
            let hi = pairs.iter().map(|p| p.0).max().unwrap_or(0x4180);
            for step in 0..200 {
                let addr = match (rng.below(2), pairs.is_empty()) {
                    (0, false) => pairs[rng.below(pairs.len() as u64) as usize].0,
                    _ => word(&mut rng),
                } + rng.below(8);
                if rng.below(2) == 0 {
                    let val = value(&mut rng);
                    m.write(addr, val);
                    r.0.insert(addr & !7, val);
                }
                // Just below, inside or just above the image's range:
                // the range check must pass the first and last to the
                // outside map and the middle one to the index.
                let edge = match rng.below(3) {
                    0 => lo - 8 * (1 + rng.below(4)),
                    1 => lo + 8 * rng.below((hi - lo) / 8 + 1),
                    _ => hi + 8 * (1 + rng.below(4)),
                } + rng.below(8);
                if rng.below(2) == 0 {
                    let val = value(&mut rng);
                    m.write(edge, val);
                    r.0.insert(edge & !7, val);
                }
                let other = word(&mut rng);
                let at = format!("case {case} step {step} address {addr:#x}");
                assert_eq!(m.read(addr), r.read(addr), "{at}");
                assert_eq!(m.read(other), r.read(other), "{at} (read of {other:#x})");
                assert_eq!(m.read(edge), r.read(edge), "{at} (read of {edge:#x})");
                assert_eq!(m.footprint_words(), r.0.len(), "{at}");
                assert_eq!(m.digest(), r.digest(), "{at}");
            }
        }
    }

    /// Distinct buckets `n` word addresses `stride` bytes apart occupy in
    /// a table of `n` buckets (a power of two), indexed by the hash's low
    /// bits as `HashMap` indexes its buckets.
    fn buckets_hit(n: u64, stride: u64) -> usize {
        let mut hit = vec![false; n as usize];
        for i in 0..n {
            let mut h = WordHasher::default();
            h.write_u64(0x1000_0000 + i * stride);
            hit[(h.finish() & (n - 1)) as usize] = true;
        }
        hit.iter().filter(|&&b| b).count()
    }

    #[test]
    fn the_word_hasher_spreads_strided_addresses() {
        // An identity hash would put all of the page-strided addresses in
        // one bucket and the line-strided ones in 64; a uniform hash
        // fills about 1 - 1/e (63%) of the buckets.
        for stride in [4096, 64] {
            let hit = buckets_hit(4096, stride);
            assert!(hit >= 2048, "stride {stride}: {hit} of 4096 buckets");
        }
    }

    #[test]
    fn lib_alloc_and_rw() {
        let mut lib = LiveInBuffer::new(2, 4);
        let a = lib.alloc();
        let b = lib.alloc();
        assert_ne!(a, LIB_NO_SLOT);
        assert_ne!(b, LIB_NO_SLOT);
        assert_eq!(lib.alloc(), LIB_NO_SLOT, "only 2 slots");
        assert_eq!(lib.alloc_failures, 1);
        lib.write(a, 0, 7);
        lib.write(a, 3, 9);
        assert_eq!(lib.read(a, 0), 7);
        assert_eq!(lib.read(a, 3), 9);
        assert_eq!(lib.read(b, 0), 0);
        lib.free(a);
        assert_eq!(lib.busy(), 1);
        let c = lib.alloc();
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(lib.read(c, 0), 0, "slot contents cleared on realloc");
    }

    #[test]
    fn lib_free_slot_reads_zero_and_drops_writes() {
        let mut lib = LiveInBuffer::new(2, 2);
        let a = lib.alloc();
        lib.write(a, 1, 7);
        lib.free(a);
        assert_eq!(lib.read(a, 1), 0, "a free slot reads zero");
        lib.write(a, 1, 9);
        assert_eq!(lib.busy(), 0, "a write does not revive a free slot");
        assert_eq!(lib.alloc(), a);
        assert_eq!(lib.read(a, 1), 0, "neither the old nor the dropped value survives");
    }

    #[test]
    fn lib_invalid_ops_are_noops() {
        let mut lib = LiveInBuffer::new(1, 2);
        lib.write(LIB_NO_SLOT, 0, 5);
        assert_eq!(lib.read(LIB_NO_SLOT, 0), 0);
        lib.free(LIB_NO_SLOT);
        let a = lib.alloc();
        lib.write(a, 7, 5); // idx out of range
        assert_eq!(lib.read(a, 7), 0);
    }
}
