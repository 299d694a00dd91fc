//! The timestamped cache hierarchy: L1D, L2, L3, fill buffer (MSHR), TLB.
//!
//! Rather than stepping every cache event on the global clock, each line
//! records the cycle its data arrives (`valid_from`). An access at time
//! `t` to a line still in transit is a *partial* hit — exactly the
//! "partial miss" category of Figure 9: "accesses to cache lines which
//! were already in transit to L1 cache due to accesses by prior loads
//! from the main thread or from a prefetch".

use crate::config::{CacheConfig, MachineConfig};

/// Where a load was satisfied (Figure 9's categories).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HitWhere {
    /// Hit in the L1 data cache.
    L1,
    /// Satisfied by the L2 cache.
    L2,
    /// Line already in transit from the L2 cache.
    L2Partial,
    /// Satisfied by the L3 cache.
    L3,
    /// Line already in transit from the L3 cache.
    L3Partial,
    /// Satisfied by main memory.
    Mem,
    /// Line already in transit from main memory.
    MemPartial,
}

impl HitWhere {
    /// The partial-hit variant for a fill that originated at this level.
    pub fn to_partial(self) -> HitWhere {
        match self {
            HitWhere::L2 | HitWhere::L2Partial => HitWhere::L2Partial,
            HitWhere::L3 | HitWhere::L3Partial => HitWhere::L3Partial,
            HitWhere::Mem | HitWhere::MemPartial => HitWhere::MemPartial,
            HitWhere::L1 => HitWhere::L1,
        }
    }

    /// Whether the access missed L1 (everything but [`HitWhere::L1`]).
    pub fn is_l1_miss(self) -> bool {
        self != HitWhere::L1
    }
}

/// Result of a hierarchy access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessResult {
    /// Cycle at which the loaded value is usable.
    pub ready_at: u64,
    /// Which level satisfied the access.
    pub hit: HitWhere,
}

/// Every [`HitWhere`], in declaration order: the value of a fill origin
/// stored in a [`Line`]'s low bits indexes it.
const ORIGINS: [HitWhere; 7] = [
    HitWhere::L1,
    HitWhere::L2,
    HitWhere::L2Partial,
    HitWhere::L3,
    HitWhere::L3Partial,
    HitWhere::Mem,
    HitWhere::MemPartial,
];

/// The low bits of [`Line::tag`] that hold the fill origin. A line
/// address is aligned to the line size, which [`Level::new`] requires
/// to be at least 8 bytes, so these bits of the address are zero.
const ORIGIN_BITS: u64 = 7;

/// One cached line in 24 bytes: three words, with the fill origin
/// packed into the line address.
#[derive(Clone, Copy, Debug)]
struct Line {
    /// The line address, with the origin of the in-flight fill (for
    /// partial classification) in its low [`ORIGIN_BITS`].
    tag: u64,
    /// Cycle the data arrives; accesses before this are partial hits.
    valid_from: u64,
    /// LRU timestamp.
    last_used: u64,
}

impl Line {
    fn new(line_addr: u64, valid_from: u64, origin: HitWhere, now: u64) -> Line {
        debug_assert_eq!(line_addr & ORIGIN_BITS, 0, "line address {line_addr:#x} is unaligned");
        Line { tag: line_addr | origin as u64, valid_from, last_used: now }
    }

    /// Whether this is the line at `line_addr`: the address bits only.
    fn holds(&self, line_addr: u64) -> bool {
        self.tag & !ORIGIN_BITS == line_addr
    }

    /// The origin of the line's fill.
    fn origin(&self) -> HitWhere {
        ORIGINS[(self.tag & ORIGIN_BITS) as usize]
    }
}

/// One set's ways inside a [`Level`]'s pool: `len` occupied ways at
/// slots `base..base + len`, with room for `cap` before the run must
/// move. Slot `i` is entry `i % SEGMENT` of segment `i / SEGMENT`. An
/// untouched set is the empty run and holds no lines.
#[derive(Clone, Copy, Debug, Default)]
struct Run {
    base: u32,
    len: u8,
    cap: u8,
}

/// Slots in one segment of a [`Level`]'s pool: 12 KB of lines.
const SEGMENT: usize = 512;

/// One set-associative cache level whose host memory grows with the
/// sets it holds: each set is a run of ways inside a pool of segments.
///
/// A run that fills up moves its ways, in order, to a fresh run of
/// `min(2·cap, assoc)` ways (2 at first) placed after every other run,
/// abandoning the old run. So a set holding `n` lines has left behind
/// runs of 2, 4, … ways below its current one: the runs placed hold
/// less than 3× the lines held for any associativity up to 12 (the
/// worst case is 9 lines held in 2 + 4 + 8 + 12 = 26 slots), and a
/// level with every set full places `(2 + 4 + … + assoc) / assoc` of an
/// eager `sets × assoc` array — 2.17× for the 12-way L3, 1.5× for the
/// 4-way L1 and L2.
///
/// The pool grows in segments of [`SEGMENT`] slots, each allocated at
/// that capacity and filled only as runs are placed in it, so a
/// segment's buffer never moves or leaves an outgrown copy behind. No
/// run straddles two segments: a run that does not fit in the last
/// segment's tail starts the next one, leaving the tail (fewer than
/// `assoc` slots, under 2% of a segment on the 12-way L3) empty. No simulation comes
/// near a full level: at the workloads' seed 2002 none holds more than
/// 2,479 of the L3's 49,152 lines, for which an eager array would
/// spend 1.1 MB of host memory.
///
/// Occupied ways of a set behave exactly like a per-set `Vec`: lookups
/// scan ways in order, insertion appends, and a full set evicts the
/// first way with the minimum `last_used` via the swap-remove-then-push
/// dance (the evictee is replaced by the last occupied way, and the new
/// line lands in the last slot). Keeping that order bit-identical keeps
/// every simulated cycle count unchanged.
#[derive(Clone, Debug)]
struct Level {
    /// Every set's current run, plus the abandoned runs before it, in
    /// segments of [`SEGMENT`] slots; new runs go into the last one.
    pool: Vec<Vec<Line>>,
    /// Per-set run into `pool`.
    runs: Vec<Run>,
    assoc: usize,
    set_shift: u32,
    set_mask: u64,
    latency: u64,
}

const EMPTY_LINE: Line = Line { tag: 0, valid_from: 0, last_used: 0 };

impl Level {
    fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.num_sets();
        assert!(sets.is_power_of_two(), "cache set count must be a power of two");
        assert!(cfg.line >= 8, "a cache line must be at least 8 bytes to hold its fill origin");
        assert!(cfg.assoc <= u8::MAX as usize, "associativity exceeds the run length field");
        // A full level places fewer than 3 × sets × assoc slots (the
        // runs a set leaves behind sum to less than twice its last one),
        // and a segment's empty tail is shorter than the run that did
        // not fit, so under half the segment: slot indices stay below
        // twice that.
        assert!(
            u32::try_from(6 * sets * cfg.assoc).is_ok(),
            "cache level too large for u32 pool indices"
        );
        Level {
            pool: vec![Vec::with_capacity(SEGMENT)],
            runs: vec![Run::default(); sets],
            assoc: cfg.assoc,
            set_shift: cfg.line.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            latency: cfg.latency,
        }
    }

    fn set_of(&self, line_addr: u64) -> usize {
        ((line_addr >> self.set_shift) & self.set_mask) as usize
    }

    /// The occupied ways of set `si`.
    #[inline]
    fn ways(&mut self, si: usize) -> &mut [Line] {
        let r = self.runs[si];
        let (seg, at) = (r.base as usize / SEGMENT, r.base as usize % SEGMENT);
        &mut self.pool[seg][at..at + r.len as usize]
    }

    /// Look the line up; on hit, refresh LRU and return it. Inlined
    /// into every access, as the compiler did on its own before the
    /// pool had segments: called, it slowed every simulation.
    #[inline]
    fn lookup(&mut self, line_addr: u64, now: u64) -> Option<Line> {
        let si = self.set_of(line_addr);
        if let Some(l) = self.ways(si).iter_mut().find(|l| l.holds(line_addr)) {
            l.last_used = now;
            Some(*l)
        } else {
            None
        }
    }

    /// Insert (or refresh) a line arriving at `valid_from`, evicting LRU.
    fn fill(&mut self, line_addr: u64, valid_from: u64, origin: HitWhere, now: u64) {
        let si = self.set_of(line_addr);
        let assoc = self.assoc;
        let set = self.ways(si);
        if let Some(l) = set.iter_mut().find(|l| l.holds(line_addr)) {
            // Refill of a present line: keep the earlier arrival.
            if valid_from < l.valid_from {
                *l = Line::new(line_addr, valid_from, origin, now);
            } else {
                l.last_used = now;
            }
            return;
        }
        let new = Line::new(line_addr, valid_from, origin, now);
        let len = set.len();
        if len >= assoc {
            // Evict the first least-recently-used way, as a per-set `Vec`
            // would with `swap_remove(vi)` then `push`: the last way moves
            // into the victim's slot and the new line takes the last one.
            let (vi, _) =
                set.iter().enumerate().min_by_key(|(_, l)| l.last_used).expect("nonempty set");
            set[vi] = set[len - 1];
            set[len - 1] = new;
            return;
        }
        let r = &mut self.runs[si];
        if r.len == r.cap {
            // Move the ways, in order, to a run twice the size, in the
            // last segment or, when its tail is too short, a new one.
            let cap = (2 * r.cap as usize).max(2).min(assoc);
            if self.pool.last().is_some_and(|s| s.len() + cap > SEGMENT) {
                self.pool.push(Vec::with_capacity(SEGMENT));
            }
            let (last, full) = self.pool.split_last_mut().expect("a level has a segment");
            let (seg, at) = (r.base as usize / SEGMENT, r.base as usize % SEGMENT);
            let base = full.len() * SEGMENT + last.len();
            if seg == full.len() {
                last.extend_from_within(at..at + len);
            } else {
                last.extend_from_slice(&full[seg][at..at + len]);
            }
            last.resize(base % SEGMENT + cap, EMPTY_LINE);
            r.base = base as u32;
            r.cap = cap as u8;
        }
        let slot = r.base as usize + len;
        self.pool[slot / SEGMENT][slot % SEGMENT] = new;
        r.len += 1;
    }
}

#[derive(Clone, Copy, Debug)]
struct MshrEntry {
    line: u64,
    ready_at: u64,
    origin: HitWhere,
}

/// A simple LRU TLB over page numbers.
///
/// The entry list keeps the original fully-associative LRU semantics
/// (first-minimum eviction, swap-remove insertion), but lookups no
/// longer scan it: a direct-indexed hint table maps `page mod size` to
/// a candidate entry index, validated by page compare. Programs touch
/// the same few pages over and over, so the common case is one array
/// read plus one compare instead of a 128-entry linear scan. A stale
/// hint (entry moved or evicted since it was recorded) just falls back
/// to the scan and is repaired, never changing hit/miss outcomes.
#[derive(Clone, Debug)]
struct Tlb {
    entries: Vec<(u64, u64)>, // (page, last_used)
    /// `page & hint_mask` → entry index + 1 (0 = no hint recorded).
    hints: Vec<u32>,
    hint_mask: u64,
    capacity: usize,
    page_shift: u32,
}

impl Tlb {
    fn new(capacity: usize, page_size: u64) -> Self {
        // 4× capacity keeps the hint slots sparse enough that pages in
        // residence rarely collide.
        let hint_slots = (capacity.max(1) * 4).next_power_of_two();
        Tlb {
            entries: Vec::with_capacity(capacity),
            hints: vec![0; hint_slots],
            hint_mask: hint_slots as u64 - 1,
            capacity,
            page_shift: page_size.trailing_zeros(),
        }
    }

    /// Returns true on TLB hit; inserts on miss.
    fn access(&mut self, addr: u64, now: u64) -> bool {
        let page = addr >> self.page_shift;
        let slot = (page & self.hint_mask) as usize;
        // Fast path: the hint points straight at this page's entry.
        let hinted = self.hints[slot] as usize;
        if hinted > 0 {
            if let Some(e) = self.entries.get_mut(hinted - 1) {
                if e.0 == page {
                    e.1 = now;
                    return true;
                }
            }
        }
        // Hint cold, stale, or collided: scan, then repair the hint.
        if let Some(i) = self.entries.iter().position(|(p, _)| *p == page) {
            self.entries[i].1 = now;
            self.hints[slot] = i as u32 + 1;
            return true;
        }
        if self.entries.len() >= self.capacity {
            let (vi, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lu))| *lu)
                .expect("nonempty tlb");
            self.entries.swap_remove(vi);
        }
        self.entries.push((page, now));
        self.hints[slot] = self.entries.len() as u32;
        false
    }
}

/// The shared three-level hierarchy plus fill buffer and TLB.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Level,
    l2: Level,
    l3: Level,
    mshr: Vec<MshrEntry>,
    mshr_capacity: usize,
    tlb: Tlb,
    tlb_penalty: u64,
    mem_latency: u64,
    line_mask: u64,
    /// Prefetches dropped because the fill buffer was full.
    pub dropped_prefetches: u64,
    /// Loads delayed because the fill buffer was full.
    pub mshr_stalls: u64,
}

impl Hierarchy {
    /// Build the hierarchy described by `cfg`.
    pub fn new(cfg: &MachineConfig) -> Self {
        Hierarchy {
            l1: Level::new(&cfg.l1d),
            l2: Level::new(&cfg.l2),
            l3: Level::new(&cfg.l3),
            mshr: Vec::new(),
            mshr_capacity: cfg.fill_buffer,
            tlb: Tlb::new(cfg.tlb_entries, cfg.page_size),
            tlb_penalty: cfg.tlb_miss_penalty,
            mem_latency: cfg.mem_latency,
            line_mask: !(cfg.l1d.line as u64 - 1),
            dropped_prefetches: 0,
            mshr_stalls: 0,
        }
    }

    fn retire_mshr(&mut self, now: u64) {
        self.mshr.retain(|e| e.ready_at > now);
    }

    /// Perform a demand load at cycle `now`.
    pub fn access_load(&mut self, addr: u64, now: u64) -> AccessResult {
        self.access(addr, now, false).expect("demand loads are never dropped")
    }

    /// Perform a store at cycle `now` (write-allocate; the thread does not
    /// wait for the fill). Returns where the line was found.
    pub fn access_store(&mut self, addr: u64, now: u64) -> HitWhere {
        match self.access(addr, now, false) {
            Some(r) => r.hit,
            None => HitWhere::Mem,
        }
    }

    /// Perform a software prefetch (`lfetch`). Dropped (returns `None`)
    /// when the fill buffer is full, like the real instruction.
    pub fn access_prefetch(&mut self, addr: u64, now: u64) -> Option<AccessResult> {
        let line = addr & self.line_mask;
        // A prefetch that hits L1 or an in-flight fill is free.
        if let Some(l) = self.l1.lookup(line, now) {
            let hit = if l.valid_from <= now { HitWhere::L1 } else { l.origin().to_partial() };
            return Some(AccessResult { ready_at: now.max(l.valid_from), hit });
        }
        self.retire_mshr(now);
        if self.mshr.len() >= self.mshr_capacity {
            self.dropped_prefetches += 1;
            return None;
        }
        self.access(addr, now, true)
    }

    fn access(&mut self, addr: u64, now: u64, is_prefetch: bool) -> Option<AccessResult> {
        let line = addr & self.line_mask;
        let tlb_extra = if self.tlb.access(addr, now) { 0 } else { self.tlb_penalty };

        // L1.
        if let Some(l) = self.l1.lookup(line, now) {
            if l.valid_from <= now {
                return Some(AccessResult {
                    ready_at: now + self.l1.latency + tlb_extra,
                    hit: HitWhere::L1,
                });
            }
            return Some(AccessResult {
                ready_at: l.valid_from + tlb_extra,
                hit: l.origin().to_partial(),
            });
        }
        // In-flight fill?
        self.retire_mshr(now);
        if let Some(e) = self.mshr.iter().find(|e| e.line == line) {
            return Some(AccessResult {
                ready_at: e.ready_at + tlb_extra,
                hit: e.origin.to_partial(),
            });
        }
        // Fill buffer full: a demand miss waits for the earliest entry to
        // retire, then proceeds from that time.
        let mut t = now;
        if self.mshr.len() >= self.mshr_capacity {
            if is_prefetch {
                self.dropped_prefetches += 1;
                return None;
            }
            self.mshr_stalls += 1;
            t = self.mshr.iter().map(|e| e.ready_at).min().unwrap_or(now);
            self.mshr.retain(|e| e.ready_at > t);
        }

        // L2.
        let (ready, origin) = if let Some(l) = self.l2.lookup(line, t) {
            if l.valid_from <= t {
                (t + self.l2.latency, HitWhere::L2)
            } else {
                (l.valid_from.max(t + self.l2.latency), l.origin().to_partial())
            }
        } else if let Some(l) = self.l3.lookup(line, t) {
            // L3.
            let r = if l.valid_from <= t {
                (t + self.l3.latency, HitWhere::L3)
            } else {
                (l.valid_from.max(t + self.l3.latency), l.origin().to_partial())
            };
            // Fill L2 on the way in.
            self.l2.fill(line, r.0, HitWhere::L3, t);
            r
        } else {
            // Memory.
            let r = (t + self.mem_latency, HitWhere::Mem);
            self.l3.fill(line, r.0, HitWhere::Mem, t);
            self.l2.fill(line, r.0, HitWhere::Mem, t);
            r
        };
        // Fill L1 and track the in-flight line.
        self.l1.fill(line, ready, origin, t);
        self.mshr.push(MshrEntry { line, ready_at: ready, origin });
        Some(AccessResult { ready_at: ready + tlb_extra, hit: origin })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn hier() -> Hierarchy {
        Hierarchy::new(&MachineConfig::in_order())
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = hier();
        let r = h.access_load(0x10000, 100);
        assert_eq!(r.hit, HitWhere::Mem);
        // Memory latency plus the cold-TLB penalty.
        assert_eq!(r.ready_at, 100 + 230 + 30);
    }

    #[test]
    fn second_access_hits_l1_after_fill() {
        let mut h = hier();
        let r1 = h.access_load(0x10000, 0);
        let r2 = h.access_load(0x10000, r1.ready_at + 1);
        assert_eq!(r2.hit, HitWhere::L1);
        assert_eq!(r2.ready_at, r1.ready_at + 1 + 2);
    }

    #[test]
    fn access_during_fill_is_partial() {
        let mut h = hier();
        let r1 = h.access_load(0x10000, 0);
        let r2 = h.access_load(0x10008, 10); // same 64B line, still in transit
        assert_eq!(r2.hit, HitWhere::MemPartial);
        // The fill itself lands at 230 (r1 additionally paid the TLB miss).
        assert_eq!(r2.ready_at, 230);
        assert!(r2.ready_at <= r1.ready_at);
    }

    #[test]
    fn different_line_misses_independently() {
        let mut h = hier();
        h.access_load(0x10000, 0);
        let r = h.access_load(0x10040, 0);
        assert_eq!(r.hit, HitWhere::Mem);
    }

    #[test]
    fn prefetch_then_load_hits() {
        let mut h = hier();
        let p = h.access_prefetch(0x20000, 0).unwrap();
        assert_eq!(p.hit, HitWhere::Mem);
        // Load after the prefetch completes: L1 hit.
        let r = h.access_load(0x20000, p.ready_at + 1);
        assert_eq!(r.hit, HitWhere::L1);
        // Load while the prefetch is in flight: partial.
        let mut h = hier();
        let p = h.access_prefetch(0x20000, 0).unwrap();
        let r = h.access_load(0x20000, p.ready_at / 2);
        assert_eq!(r.hit, HitWhere::MemPartial);
        // The in-flight fill lands at 230; the prefetch result additionally
        // included its own TLB-miss penalty.
        assert_eq!(r.ready_at, 230);
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let mut h = hier();
        // Fill one L1 set beyond associativity. L1: 64 sets, 4 ways, so
        // addresses 64B apart with the same set index are 64*64 = 4096 apart.
        let stride = 64 * 64;
        let mut t = 0;
        for i in 0..5u64 {
            let r = h.access_load(0x100000 + i * stride, t);
            t = r.ready_at + 1;
        }
        // The first line was evicted from L1 but lives in L2.
        let r = h.access_load(0x100000, t);
        assert_eq!(r.hit, HitWhere::L2);
        assert_eq!(r.ready_at, t + 14);
    }

    #[test]
    fn fill_buffer_limits_outstanding_prefetches() {
        let mut h = hier();
        for i in 0..16u64 {
            assert!(h.access_prefetch(0x30000 + i * 64, 0).is_some());
        }
        assert!(h.access_prefetch(0x40000, 0).is_none(), "17th prefetch dropped");
        assert_eq!(h.dropped_prefetches, 1);
        // After the fills complete there is room again.
        assert!(h.access_prefetch(0x40000, 300).is_some());
    }

    #[test]
    fn demand_load_waits_for_mshr_capacity() {
        let mut h = hier();
        for i in 0..16u64 {
            h.access_load(0x30000 + i * 64, 0);
        }
        let r = h.access_load(0x50000, 1);
        // Had to wait for an entry to retire at 230, then pay memory plus
        // the cold-TLB penalty for the new page.
        assert_eq!(r.ready_at, 230 + 230 + 30);
        assert_eq!(h.mshr_stalls, 1);
    }

    #[test]
    fn tlb_miss_adds_penalty_once_per_page() {
        let mut h = hier();
        let r1 = h.access_load(0x80000, 0);
        // Cold TLB: first access pays the 30-cycle penalty on top.
        assert_eq!(r1.ready_at, 230 + 30);
        let r2 = h.access_load(0x80040, r1.ready_at);
        // Same page: no TLB penalty.
        assert_eq!(r2.ready_at, r1.ready_at + 230);
    }

    #[test]
    fn store_allocates_line() {
        let mut h = hier();
        let w = h.access_store(0x90000, 0);
        assert_eq!(w, HitWhere::Mem);
        let r = h.access_load(0x90000, 300);
        assert_eq!(r.hit, HitWhere::L1);
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        *state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A line as the original level held it: four plain fields, the
    /// fill origin beside the address rather than packed into it.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct RefLine {
        tag: u64,
        valid_from: u64,
        origin: HitWhere,
        last_used: u64,
    }

    /// The original `Vec<Vec<Line>>` level, kept as a reference model:
    /// the pooled runs must match it decision for decision, way order
    /// included, because eviction ties go to the first minimum.
    struct RefLevel {
        sets: Vec<Vec<RefLine>>,
        assoc: usize,
        set_shift: u32,
        set_mask: u64,
    }

    impl RefLevel {
        fn new(cfg: &CacheConfig) -> Self {
            RefLevel {
                sets: vec![Vec::new(); cfg.num_sets()],
                assoc: cfg.assoc,
                set_shift: cfg.line.trailing_zeros(),
                set_mask: (cfg.num_sets() - 1) as u64,
            }
        }

        fn set_of(&self, line_addr: u64) -> usize {
            ((line_addr >> self.set_shift) & self.set_mask) as usize
        }

        fn lookup(&mut self, line_addr: u64, now: u64) -> Option<RefLine> {
            let si = self.set_of(line_addr);
            self.sets[si].iter_mut().find(|l| l.tag == line_addr).map(|l| {
                l.last_used = now;
                *l
            })
        }

        fn fill(&mut self, line_addr: u64, valid_from: u64, origin: HitWhere, now: u64) {
            let si = self.set_of(line_addr);
            let set = &mut self.sets[si];
            if let Some(l) = set.iter_mut().find(|l| l.tag == line_addr) {
                if valid_from < l.valid_from {
                    l.valid_from = valid_from;
                    l.origin = origin;
                }
                l.last_used = now;
                return;
            }
            if set.len() >= self.assoc {
                let (vi, _) = set.iter().enumerate().min_by_key(|(_, l)| l.last_used).unwrap();
                set.swap_remove(vi);
            }
            set.push(RefLine { tag: line_addr, valid_from, origin, last_used: now });
        }
    }

    /// A pooled line, field by field, in the reference's shape.
    fn unpacked(l: &Line) -> RefLine {
        RefLine {
            tag: l.tag & !ORIGIN_BITS,
            valid_from: l.valid_from,
            origin: l.origin(),
            last_used: l.last_used,
        }
    }

    fn lines_held(level: &Level) -> usize {
        level.runs.iter().map(|r| r.len as usize).sum()
    }

    /// Slots the level's runs have been placed in, abandoned ones
    /// included (segment tails left empty are not counted).
    fn slots_placed(level: &Level) -> usize {
        level.pool.iter().map(Vec::len).sum()
    }

    #[test]
    fn a_line_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Line>(), 24);
    }

    #[test]
    fn flattened_level_matches_vec_of_vecs_reference() {
        let (io, ooo) = (MachineConfig::in_order(), MachineConfig::out_of_order());
        for cfg in [&io.l1d, &io.l2, &io.l3, &ooo.l1d, &ooo.l2, &ooo.l3] {
            let mut pooled = Level::new(cfg);
            let mut reference = RefLevel::new(cfg);
            let sets = cfg.num_sets() as u64;
            let line = cfg.line as u64;
            // Up to 256 hot sets: the L2 and L3 runs then span several
            // segments (the L1's 64 sets, all hot, fit in one).
            let hot = sets.min(256);
            let mut s = 2002u64 ^ cfg.size as u64;
            for t in 0..40_000u64 {
                // Each hot set draws from twice its associativity in
                // tags: every set passes through every run size,
                // reaches full associativity, and evicts. A few
                // last_used ties come from fills in the same cycle.
                let set = (xorshift(&mut s) % hot) * (sets / hot);
                let tag = xorshift(&mut s) % (2 * cfg.assoc as u64);
                let addr = (tag * sets + set) * line;
                let now = t / 2;
                let at = format!("step {t} (assoc {}, {sets} sets)", cfg.assoc);
                if xorshift(&mut s).is_multiple_of(3) {
                    let (a, b) = (pooled.lookup(addr, now), reference.lookup(addr, now));
                    assert_eq!(a.as_ref().map(unpacked), b, "lookup diverged at {at}");
                } else {
                    let vf = now + xorshift(&mut s) % 100;
                    let origin = ORIGINS[(xorshift(&mut s) % 7) as usize];
                    pooled.fill(addr, vf, origin, now);
                    reference.fill(addr, vf, origin, now);
                    let si = reference.set_of(addr);
                    let ways = &reference.sets[si];
                    assert_eq!(pooled.ways(si).len(), ways.len(), "way count diverged at {at}");
                    for (w, (p, r)) in pooled.ways(si).iter().zip(ways).enumerate() {
                        assert_eq!(unpacked(p), *r, "way {w} diverged at {at}");
                    }
                }
            }
            let held = lines_held(&pooled);
            let full = pooled.runs.iter().filter(|r| r.len as usize == cfg.assoc).count();
            assert_eq!(full as u64, hot, "every hot set reached full associativity");
            let placed = slots_placed(&pooled);
            assert!(placed < 3 * held, "pool {placed} for {held} lines");
            if sets > 64 {
                assert!(pooled.pool.len() >= 3, "{} segments", pooled.pool.len());
            }
        }
    }

    #[test]
    fn full_level_pool_stays_within_documented_bound() {
        let cfg = MachineConfig::in_order().l3;
        let (sets, assoc) = (cfg.num_sets(), cfg.assoc);
        let mut level = Level::new(&cfg);
        assert_eq!(slots_placed(&level), 0, "an untouched level holds no lines");
        let mut worst = 0.0f64;
        for tag in 0..assoc as u64 {
            for set in 0..sets as u64 {
                level.fill((tag * sets as u64 + set) * cfg.line as u64, 0, HitWhere::Mem, tag);
            }
            let held = lines_held(&level);
            worst = worst.max(slots_placed(&level) as f64 / held as f64);
        }
        // Every set grew through runs of 2, 4, 8 and 12 ways.
        assert_eq!(lines_held(&level), sets * assoc);
        assert_eq!(slots_placed(&level), sets * (2 + 4 + 8 + 12));
        // Segment tails left empty included: 42 runs of 12 ways fill
        // 504 of a segment's 512 slots.
        let allocated = level.pool.len() * SEGMENT;
        assert!(allocated as f64 <= 2.2 * (sets * assoc) as f64, "{allocated} slots allocated");
        assert!(level.pool.iter().all(|seg| seg.capacity() == SEGMENT), "no segment grew");
        // The worst moment is 9 lines per set in 26 slots.
        assert!(worst < 3.0, "pool reached {worst:.2}x the lines held");
    }

    #[test]
    fn hinted_tlb_matches_linear_scan_reference() {
        // Reference: the old purely-linear TLB (inlined).
        let capacity = 16;
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut tlb = Tlb::new(capacity, 4096);
        let mut s = 42u64;
        for now in 0..50_000u64 {
            // 24 hot pages over a 16-entry TLB: plenty of eviction, and
            // page numbers far enough apart to exercise hint collisions.
            let page = (xorshift(&mut s) % 24) * 257;
            let addr = page << 12;
            let ref_hit = if let Some(e) = reference.iter_mut().find(|(p, _)| *p == page) {
                e.1 = now;
                true
            } else {
                if reference.len() >= capacity {
                    let (vi, _) =
                        reference.iter().enumerate().min_by_key(|(_, (_, lu))| *lu).unwrap();
                    reference.swap_remove(vi);
                }
                reference.push((page, now));
                false
            };
            assert_eq!(tlb.access(addr, now), ref_hit, "hit/miss diverged at cycle {now}");
            assert_eq!(tlb.entries, reference, "entry state diverged at cycle {now}");
        }
    }
}
