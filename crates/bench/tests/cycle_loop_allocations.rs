//! The cycle loop allocates nothing: a simulation's heap allocations are
//! its set-up (decode table, memory image, cache pools, buffers growing
//! to their high-water marks), not a cost per cycle or per spawned
//! slice. health's default adapted binary spawns over ten thousand
//! slices on either model, so a per-spawn or per-slot allocation alone
//! would put it far over the bound.
//!
//! The counting allocator keeps per-thread counters (allocator calls, and
//! live bytes with their high-water mark), so tests running concurrently
//! on other threads of the harness do not disturb them.

use ssp_core::{simulate, MachineConfig, PostPassTool};
use ssp_sim::Memory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread, and the most
    /// that difference reached since the last [`peak_of`] began.
    static LIVE: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

/// Count one allocator call that grows this thread's live bytes by
/// `grow` (negative for a shrinking reallocation).
fn count(grow: isize) {
    // `try_with` because the allocator also serves thread teardown,
    // after the counters are gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|l| {
        let (live, peak) = l.get();
        l.set((live + grow, peak.max(live + grow)));
    });
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` was returned by this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|l| {
            let (live, peak) = l.get();
            l.set((live - layout.size() as isize, peak));
        });
        // SAFETY: `ptr` was returned by this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (allocations and reallocations) on this thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `f`'s value, and the most bytes it had allocated on this thread and
/// not yet freed at any one time.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(|l| {
        let (live, _) = l.get();
        l.set((live, live));
        live
    });
    let value = f();
    (value, (LIVE.with(Cell::get).1 - start) as usize)
}

#[test]
fn adapted_simulation_allocates_only_at_set_up() {
    let w = ssp_workloads::by_name("health", ssp_bench::SEED).expect("health is a suite name");
    let adapted =
        PostPassTool::new(MachineConfig::in_order()).run(&w.program).expect("adaptation succeeds");
    for (model, cfg) in
        [("in-order", MachineConfig::in_order()), ("out-of-order", MachineConfig::out_of_order())]
    {
        let before = allocations();
        let result = simulate(&adapted.program, &cfg);
        let made = allocations() - before;
        assert!(
            result.threads_spawned > 10_000,
            "{model}: only {} slices spawned",
            result.threads_spawned
        );
        assert!(made < 500, "{model}: {made} allocations for {} slices", result.threads_spawned);
    }
}

#[test]
fn a_run_copies_only_its_image_words() {
    // mst has the suite's largest data image.
    let w = ssp_workloads::by_name("mst", ssp_bench::SEED).expect("mst is a suite name");
    let words = w.program.image.len();
    assert!(words > 8_000, "mst's image holds {words} words");
    let (memory, peak) = peak_of(|| Memory::new(Arc::clone(&w.program.image)));
    assert_eq!(memory.footprint_words(), words);
    assert!(peak <= 8 * words + 64, "{peak} bytes of heap for an image of {words} words");
}

#[test]
fn every_default_adapted_simulation_peaks_under_420_kb_of_heap() {
    // A lone workload request runs its simulations two at a time, so
    // each one's heap is what the second worker costs. The largest is
    // treeadd.bf out-of-order, at about 390 KB; cache pools that
    // double and event queues that outgrow the ROB reached 590 KB.
    const BOUND: usize = 420 << 10;
    let io = MachineConfig::in_order();
    for name in ssp_workloads::NAMES {
        let w = ssp_workloads::by_name(name, ssp_bench::SEED).expect("a suite name");
        let adapted = PostPassTool::new(io.clone()).run(&w.program).expect("adaptation succeeds");
        for cfg in [MachineConfig::in_order(), MachineConfig::out_of_order()] {
            let (_, peak) = peak_of(|| simulate(&adapted.program, &cfg));
            let model = cfg.pipeline;
            assert!(peak <= BOUND, "{name} {model:?}: {peak} bytes of heap at peak");
        }
    }
}

#[test]
fn a_scatter_shuffle_takes_17_bits_a_slot() {
    // An 8 MB span of 64-byte slots, the workloads' largest: a `u32`
    // per slot took 4 bytes a slot; 16 bits plus one in a bitset take
    // 2.125.
    let (span, count) = (8u64 << 20, 5_000usize);
    let slots = (span / 64) as f64;
    let mut rng = ssp_workloads::layout::rng_for("scatter", 1);
    let (scatter, peak) = peak_of(|| {
        ssp_workloads::layout::Scatter::new(ssp_workloads::layout::HEAP, span, 64, count, &mut rng)
    });
    assert_eq!(scatter.remaining(), count);
    let bound = 2.2 * slots + 8.0 * count as f64;
    assert!(peak as f64 <= bound, "{peak} bytes of heap at peak, bound {bound}");
}
