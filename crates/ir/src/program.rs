//! Programs, functions, basic blocks, and the frozen data image every
//! copy of a program shares: the post-pass tool appends stub and slice
//! blocks but never writes data (Figure 7), so cloning a program, as
//! adaptation does, shares its [`Image`] through an [`Arc`].

use crate::inst::{Inst, InstTag, Op};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Index of a function within a [`Program`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FuncId(pub u32);

impl FuncId {
    /// Encode the function id as a register value, for indirect calls.
    pub fn as_value(self) -> u64 {
        // Offset into a range no data address uses, so stray arithmetic on
        // function "addresses" is caught by the verifier of the simulator.
        0xF000_0000_0000_0000 | u64::from(self.0)
    }

    /// Decode a register value produced by [`FuncId::as_value`].
    pub fn from_value(v: u64) -> Option<FuncId> {
        if v & 0xF000_0000_0000_0000 == 0xF000_0000_0000_0000 {
            Some(FuncId((v & 0xFFFF_FFFF) as u32))
        } else {
            None
        }
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Index of a basic block within a [`Function`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into [`Function::blocks`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A precise location of a static instruction: function, block, and index
/// within the block.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InstRef {
    /// Containing function.
    pub func: FuncId,
    /// Containing block.
    pub block: BlockId,
    /// Index within [`Block::insts`].
    pub idx: usize,
}

impl fmt::Display for InstRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.func, self.block, self.idx)
    }
}

/// A basic block: straight-line instructions ending in one terminator.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Block {
    /// The instructions; the last one is the terminator.
    pub insts: Vec<Inst>,
    /// True for blocks appended by the post-pass tool (stub and slice
    /// blocks, Figure 7): unreachable from the function entry via normal
    /// control flow and excluded from main-thread CFG analyses.
    pub attachment: bool,
}

impl Block {
    /// The block's terminator operation.
    ///
    /// # Panics
    ///
    /// Panics if the block is empty (not verified yet).
    pub fn terminator(&self) -> &Op {
        &self.insts.last().expect("empty block has no terminator").op
    }
}

/// A function: basic blocks plus an entry block.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Function {
    /// Human-readable name.
    pub name: String,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// The entry block (always `BlockId(0)` for builder-made functions).
    pub entry: BlockId,
}

impl Function {
    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks.iter().enumerate().map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total number of instructions in the function.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// The splitmix64 finalizer: a fixed bijection of `u64` whose every
/// output bit depends on every input bit.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The key hasher of word-address maps ([`WordMap`]). A word address is
/// one `u64`, and the workloads' addresses are aligned and strided,
/// differing only in a few middle bits; one `mix` spreads them over a
/// table's buckets for a fraction of SipHash's cost. The keys are
/// addresses computed by programs the in-tree workload and case
/// generators built, never bytes from outside the program, so the hasher
/// needs no per-process key against crafted collisions.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

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

/// A map keyed by word address, hashed with [`WordHasher`].
pub type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordHasher>>;

/// The 64-bit FNV-1a offset basis: the hash of no bytes, and the start
/// of every [`fnv64_word`] chain.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV-1a hash of `s`'s bytes. Unlike `std`'s randomly seeded
/// `DefaultHasher` it is the same in every process and rustc version,
/// so names derived from it are stable: the store's file and shard
/// names, the memo's shards and the plan digest.
#[inline]
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(FNV64_OFFSET, |h, b| (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME))
}

/// One FNV-1a step over the eight bytes of `word`, least significant
/// first: `h` continued as if those bytes followed what it hashed. The
/// simulator's commit and memory digests chain it once per committed
/// instruction and per word; `#[inline]` lets it inline across crates.
#[inline]
pub fn fnv64_word(h: u64, word: u64) -> u64 {
    let mut h = h;
    for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
        h = (h ^ ((word >> shift) & 0xFF)).wrapping_mul(FNV64_PRIME);
    }
    h
}

/// A program's initialized data (like a `.data` section): 64-bit words
/// at 8-byte-aligned addresses, each in a slot numbered by first
/// appearance. The address→slot index is built once and shared; a
/// simulation copies only [`Image::words`] and looks slots up here.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Image {
    /// Slot of each word address.
    slots: WordMap<usize>,
    /// Each slot's initial value.
    words: Vec<u64>,
    /// The lowest and highest word address held (both 0 while empty):
    /// [`Image::slot`] answers an address outside them without a probe.
    lo: u64,
    hi: u64,
}

impl Image {
    /// Set the word at `addr`; a repeated address keeps its last value.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 8-byte aligned.
    pub fn insert(&mut self, addr: u64, value: u64) {
        assert_eq!(addr % 8, 0, "data word at unaligned address {addr:#x}");
        match self.slots.entry(addr) {
            Entry::Occupied(e) => self.words[*e.get()] = value,
            Entry::Vacant(e) => {
                e.insert(self.words.len());
                (self.lo, self.hi) = match self.words.is_empty() {
                    true => (addr, addr),
                    false => (self.lo.min(addr), self.hi.max(addr)),
                };
                self.words.push(value);
            }
        }
    }

    /// The slot of the word at the aligned address `addr`, if the image
    /// holds it. An address outside the image's lowest and highest word
    /// (a stack slot, a queue the program builds at run time) costs one
    /// compare, not a probe of the index.
    #[inline]
    pub fn slot(&self, addr: u64) -> Option<usize> {
        // One unsigned compare tests `lo <= addr <= hi`.
        if addr.wrapping_sub(self.lo) > self.hi - self.lo {
            return None;
        }
        self.slots.get(&addr).copied()
    }

    /// Every slot's initial value, by slot.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// `(address, slot)` of every word, in no particular order.
    pub fn slots(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.slots.iter().map(|(&addr, &slot)| (addr, slot))
    }

    /// Number of distinct words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True for an image with no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// A whole program: the unit the post-pass tool adapts.
///
/// Standing in for a linked binary, a program carries its functions, the
/// entry function, an initialized-data image (like a `.data` section), and
/// the tag counter used to mint fresh [`InstTag`]s during adaptation.
#[derive(Clone, PartialEq, Debug)]
pub struct Program {
    /// All functions, indexed by [`FuncId`].
    pub funcs: Vec<Function>,
    /// The function where execution starts.
    pub entry: FuncId,
    /// Initialized memory, frozen and shared by every clone.
    pub image: Arc<Image>,
    /// Next unused instruction-tag value.
    pub next_tag: u32,
}

impl Program {
    /// The function with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.0 as usize]
    }

    /// Iterate over `(FuncId, &Function)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.funcs.iter().enumerate().map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Mint a fresh instruction tag.
    pub fn fresh_tag(&mut self) -> InstTag {
        let t = InstTag(self.next_tag);
        self.next_tag += 1;
        t
    }

    /// The instruction at `r`.
    ///
    /// # Panics
    ///
    /// Panics if any component of `r` is out of range.
    pub fn inst(&self, r: InstRef) -> &Inst {
        &self.func(r.func).block(r.block).insts[r.idx]
    }

    /// Total number of static instructions in the program.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }

    /// Whether the program marks a region of interest (a `roi.begin`
    /// anywhere). Simulation and profiling then count statistics only
    /// inside it; without one, the whole run counts.
    pub fn has_roi(&self) -> bool {
        self.funcs
            .iter()
            .flat_map(|f| &f.blocks)
            .any(|b| b.insts.iter().any(|i| matches!(i.op, Op::RoiBegin)))
    }

    /// Build a map from tag to location, for profile-driven analyses.
    /// Later duplicates (same tag emitted twice, which the verifier
    /// rejects) would overwrite earlier ones.
    pub fn tag_index(&self) -> HashMap<InstTag, InstRef> {
        let mut m = HashMap::new();
        for (fid, f) in self.iter_funcs() {
            for (bid, b) in f.iter_blocks() {
                for (i, inst) in b.insts.iter().enumerate() {
                    m.insert(inst.tag, InstRef { func: fid, block: bid, idx: i });
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Reg;

    #[test]
    fn fnv64_matches_the_published_vectors() {
        assert_eq!(fnv64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64("foobar"), 0x8594_4171_f739_67e8);
        // The word step hashes a word's bytes as the string hash would.
        let word = u64::from_le_bytes(*b"abcdefgh");
        assert_eq!(fnv64_word(FNV64_OFFSET, word), fnv64("abcdefgh"));
    }

    #[test]
    fn func_id_value_roundtrip() {
        for i in [0u32, 1, 77, u32::MAX] {
            let f = FuncId(i);
            assert_eq!(FuncId::from_value(f.as_value()), Some(f));
        }
        assert_eq!(FuncId::from_value(0x1000), None);
        assert_eq!(FuncId::from_value(0), None);
    }

    #[test]
    fn tag_index_finds_all() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.at(e).movi(Reg(1), 1).movi(Reg(2), 2).halt();
        let main = f.finish();
        let prog = pb.finish_with(main);
        let idx = prog.tag_index();
        assert_eq!(idx.len(), prog.inst_count());
        for (tag, r) in &idx {
            assert_eq!(prog.inst(*r).tag, *tag);
        }
    }

    #[test]
    fn fresh_tags_are_unique() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main");
        let e = f.entry_block();
        f.at(e).halt();
        let main = f.finish();
        let mut prog = pb.finish_with(main);
        let a = prog.fresh_tag();
        let b = prog.fresh_tag();
        assert_ne!(a, b);
        assert!(!prog.tag_index().contains_key(&a));
    }
}
