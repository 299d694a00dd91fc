//! Functional memory: a sparse 64-bit word store, plus the live-in buffer.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The splitmix64 finalizer: a fixed bijection of `u64` whose every
/// output bit depends on every input bit.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The functional memory's key hasher. A word address is one `u64`, and
/// the workloads' addresses are aligned and strided, differing only in a
/// few middle bits; one [`mix`] spreads them over the table's buckets
/// for a fraction of SipHash's cost. The keys are addresses computed by
/// programs the in-tree workload and case generators built, never bytes
/// from outside the program, so the hasher needs no per-process key
/// against crafted collisions.
#[derive(Clone, Copy, Debug, Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = mix(self.0 ^ x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse simulated memory. Word-granular (8 bytes); unaligned accesses
/// are rounded down to the containing word, matching the aligned-only
/// discipline the workloads follow. Unwritten memory reads as zero.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    words: HashMap<u64, u64, BuildHasherDefault<WordHasher>>,
}

impl Memory {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load the initialized-data image of a program, sizing the table
    /// for it first. A repeated address keeps its last value.
    pub fn load_image(&mut self, image: &[(u64, u64)]) {
        self.words.reserve(image.len());
        for &(addr, val) in image {
            self.write(addr, val);
        }
    }

    /// Read the word containing `addr`.
    pub fn read(&self, addr: u64) -> u64 {
        self.words.get(&(addr & !7)).copied().unwrap_or(0)
    }

    /// Write the word containing `addr`.
    pub fn write(&mut self, addr: u64, val: u64) {
        self.words.insert(addr & !7, val);
    }

    /// Number of distinct words ever written.
    pub fn footprint_words(&self) -> usize {
        self.words.len()
    }

    /// Order-independent digest of the semantic memory state: an XOR-fold
    /// of a per-entry FNV hash over every *nonzero* word. Zero-valued
    /// words are skipped because unwritten memory reads as zero — two
    /// memories that answer every `read` identically digest identically,
    /// regardless of which zeros were ever explicitly stored and of the
    /// table's iteration order, which is therefore never observable.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x100_0000_01b3;
        let mut acc = 0u64;
        for (&addr, &val) in &self.words {
            if val == 0 {
                continue;
            }
            let mut h = FNV_OFFSET;
            for v in [addr, val] {
                for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
                    h = (h ^ ((v >> shift) & 0xFF)).wrapping_mul(FNV_PRIME);
                }
            }
            acc ^= h;
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

    #[test]
    fn memory_reads_zero_when_untouched() {
        let m = Memory::new();
        assert_eq!(m.read(0x1000), 0);
    }

    #[test]
    fn memory_write_read_roundtrip() {
        let mut m = Memory::new();
        m.write(0x1000, 42);
        assert_eq!(m.read(0x1000), 42);
        assert_eq!(m.read(0x1004), 42, "sub-word address maps to same word");
        assert_eq!(m.read(0x1008), 0);
    }

    #[test]
    fn image_loading() {
        let mut m = Memory::new();
        m.load_image(&[(0x100, 1), (0x108, 2)]);
        assert_eq!(m.read(0x100), 1);
        assert_eq!(m.read(0x108), 2);
        assert_eq!(m.footprint_words(), 2);
    }

    #[test]
    fn digest_ignores_zero_words_and_order() {
        let mut a = Memory::new();
        a.write(0x100, 1);
        a.write(0x108, 2);
        a.write(0x200, 0); // explicit zero: invisible to reads
        let mut b = Memory::new();
        b.write(0x108, 2);
        b.write(0x100, 1);
        assert_eq!(a.digest(), b.digest());
        b.write(0x108, 3);
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn a_repeated_image_address_keeps_its_last_value() {
        let mut m = Memory::new();
        m.load_image(&[(0x100, 1), (0x108, 2), (0x100, 3), (0x104, 4)]);
        assert_eq!(m.read(0x100), 4, "0x104 is the same word as 0x100");
        assert_eq!(m.read(0x108), 2);
        assert_eq!(m.footprint_words(), 2);
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
