//! The cycle loop allocates nothing: a simulation's heap allocations are
//! its set-up (decode table, memory image, cache pools, buffers growing
//! to their high-water marks), not a cost per cycle or per spawned
//! slice. health's default adapted binary spawns over ten thousand
//! slices on either model, so a per-spawn or per-slot allocation alone
//! would put it far over the bound.
//!
//! The counting allocator keeps a per-thread counter, so tests running
//! concurrently on other threads of the harness do not disturb it.

use ssp_core::{simulate, MachineConfig, PostPassTool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` because the allocator also serves thread teardown,
    // after the counter is gone.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was returned by this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
