//! Deterministic thread-scoped fan-out for independent experiment work.
//!
//! Every simulation an experiment binary runs is a pure function of a
//! `(program, machine config)` pair, so a suite of them can execute in
//! any order on any number of threads without changing a single number.
//! [`map_indexed`] exploits that: workers pull indices from a shared
//! atomic counter and write each result into its input's slot, so the
//! returned vector is always in input order regardless of which worker
//! finished first — parallel runs are bit-identical to serial runs.
//!
//! Built on `std::thread::scope` only; no external thread-pool crate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Hard ceiling on the worker count accepted from `SSP_THREADS`. The
/// fan-out spawns real OS threads (no pool), so an absurd value would
/// exhaust process limits rather than help; results are identical at any
/// worker count anyway.
pub const MAX_THREADS: usize = 512;

/// Worker count for experiment fan-out: the `SSP_THREADS` environment
/// variable when set to a positive integer (clamped to
/// [`MAX_THREADS`]), else the host's available parallelism, else 1.
///
/// Degenerate values never silently misbehave: `0` is clamped to 1,
/// values above [`MAX_THREADS`] are clamped down, and non-numeric text
/// is ignored in favour of the host default — each with a one-time note
/// on stderr naming the offending value.
pub fn threads() -> usize {
    let host = || std::thread::available_parallelism().map_or(1, |n| n.get());
    match std::env::var("SSP_THREADS") {
        Ok(v) => match v.parse::<usize>() {
            Ok(0) => {
                warn_once("SSP_THREADS=0 is not a worker count; clamping to 1");
                1
            }
            Ok(n) if n > MAX_THREADS => {
                warn_once(&format!("SSP_THREADS={n} exceeds the {MAX_THREADS}-thread ceiling; clamping to {MAX_THREADS}"));
                MAX_THREADS
            }
            Ok(n) => n,
            Err(_) => {
                let h = host();
                warn_once(&format!(
                    "SSP_THREADS={v:?} is not a number; using host parallelism ({h})"
                ));
                h
            }
        },
        Err(_) => host(),
    }
}

/// Print one `ssp-bench:` note to stderr, once per process — `threads()`
/// is called from hot fan-out paths and must not spam.
fn warn_once(msg: &str) {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| eprintln!("ssp-bench: {msg}"));
}

/// Apply `f` to every item on up to `workers` threads, returning results
/// in input order.
///
/// `f(i, &items[i])` must be pure with respect to ordering (it may be
/// called from any thread, in any order, but exactly once per item).
/// The calling thread is one of the workers: it runs the same pull loop
/// as the `workers - 1` threads it spawns, so with `workers <= 1` or
/// fewer than two items everything runs on the calling thread alone,
/// with no serial path to drift from the parallel one.
///
/// # Panics
///
/// Propagates a panic from `f` once all workers have stopped.
pub fn map_indexed<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let r = f(i, &items[i]);
        *slots[i].lock().expect("result slot poisoned") = Some(r);
    };
    std::thread::scope(|s| {
        for _ in 1..workers.min(n) {
            s.spawn(work);
        }
        // A panic here unwinds through the scope, which still joins the
        // spawned workers before it re-raises.
        work();
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map_indexed(&items, 8, |i, &x| {
            // Finish out of order on purpose.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let serial = map_indexed(&items, 1, |i, &x| x.wrapping_mul(i as u64 + 1));
        let parallel = map_indexed(&items, 4, |i, &x| x.wrapping_mul(i as u64 + 1));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn handles_empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(map_indexed(&none, 4, |_, &x| x).is_empty());
        assert_eq!(map_indexed(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn degenerate_ssp_threads_values_are_clamped() {
        // One sequential test for every env-var case: the test harness
        // runs #[test] fns concurrently and SSP_THREADS is process-global.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        let original = std::env::var("SSP_THREADS").ok();
        let cases: [(&str, usize); 5] =
            [("0", 1), ("4", 4), ("9999999", MAX_THREADS), ("lots", host), ("-3", host)];
        for (val, want) in cases {
            std::env::set_var("SSP_THREADS", val);
            assert_eq!(threads(), want, "SSP_THREADS={val}");
        }
        std::env::remove_var("SSP_THREADS");
        assert_eq!(threads(), host, "unset falls back to host parallelism");
        if let Some(v) = original {
            std::env::set_var("SSP_THREADS", v);
        }
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        use std::collections::HashSet;
        use std::sync::Condvar;
        use std::time::Duration;
        let entered = Mutex::new(HashSet::new());
        let both_in = Condvar::new();
        let caller = std::thread::current().id();
        let threads = map_indexed(&[(); 8], 2, |_, ()| {
            // Hold every item until two threads have entered, so neither
            // worker can drain the list alone.
            let me = std::thread::current().id();
            let mut seen = entered.lock().expect("entered set poisoned");
            seen.insert(me);
            both_in.notify_all();
            let (_seen, wait) = both_in
                .wait_timeout_while(seen, Duration::from_secs(10), |s| s.len() < 2)
                .expect("entered set poisoned");
            assert!(!wait.timed_out(), "a second worker never entered");
            me
        });
        let distinct: HashSet<_> = threads.into_iter().collect();
        assert_eq!(distinct.len(), 2, "two workers, two threads");
        assert!(distinct.contains(&caller), "the caller runs items too");
    }

    #[test]
    #[should_panic(expected = "item panicked")]
    fn a_panic_on_every_worker_still_propagates() {
        // The caller panics on its own items here, not only a spawned
        // worker; the scope must still join and re-raise.
        let _: Vec<()> = map_indexed(&[(); 6], 3, |i, ()| panic!("item panicked: {i}"));
    }

    #[test]
    fn index_matches_item() {
        let items: Vec<usize> = (0..64).collect();
        let out = map_indexed(&items, 6, |i, &x| (i, x));
        for (i, (gi, gx)) in out.into_iter().enumerate() {
            assert_eq!(i, gi);
            assert_eq!(i, gx);
        }
    }
}
