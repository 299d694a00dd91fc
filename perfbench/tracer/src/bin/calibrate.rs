//! `calibrate [THREADS]`: times a fixed reference kernel, once per line
//! read on stdin, and prints its time in nanoseconds, one line per run.
//! With THREADS above 1 (default 1), that many copies run at once and the
//! line holds their mean time: the speed of a host whose cores are all
//! busy, as they are when a request fans out across worker threads.
//!
//! perfbench runs it between requests and scales every measured time by
//! the kernel's reference time over its time measured there, so a host
//! whose speed drifts reports the same figures. The kernel is a
//! dependent-load chase through one 64 KiB cycle with a multiply-add and a
//! data-dependent branch per step: like the simulator, it is bound by
//! cache latency and branches rather than by arithmetic throughput. It
//! uses none of the repository's crates, so no change to the program can
//! move it.
//!
//! `calibrate --start DIR` is the reference for daemon start-up time
//! instead: it does what `ssp_serve --socket --store` does before it
//! listens (create the store directory, write its format file, bind a
//! unix socket), reports on stderr that it is listening, and exits.
//! Start-up is bound by process creation and file-system calls, which the
//! kernel above does not track.

use std::hint::black_box;
use std::io::{BufRead, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::time::Instant;

/// Slots in the chased cycle (4 bytes each: 64 KiB).
const SLOTS: usize = 1 << 14;
/// Steps of one kernel run (about 2 ms).
const STEPS: u32 = 400_000;

/// A random single cycle through all `n` slots (Sattolo's algorithm,
/// xorshift-seeded so every run chases the same cycle).
fn cycle(n: usize) -> Vec<u32> {
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut s = 0x9e37_79b9_7f4a_7c15_u64;
    for i in (1..n).rev() {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        next.swap(i, (s % i as u64) as usize);
    }
    next
}

fn chase(next: &[u32], steps: u32) -> u64 {
    let (mut i, mut acc) = (0u32, 0u64);
    for k in 0..steps {
        i = next[i as usize];
        acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(u64::from(i));
        if acc >> 62 == 1 {
            acc ^= u64::from(k);
        }
    }
    acc
}

/// Nanoseconds one kernel run takes.
fn kernel_ns(next: &[u32]) -> u128 {
    let t = Instant::now();
    black_box(chase(black_box(next), STEPS));
    t.elapsed().as_nanos()
}

/// The file-system and socket calls of a daemon start on `dir`.
fn start(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("FORMAT"), "calibrate/1\n")?;
    let sock = dir.join("start.sock");
    let listener = UnixListener::bind(&sock)?;
    eprintln!("calibrate: listening on {sock:?}");
    drop(listener);
    std::fs::remove_file(sock)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, dir] = &args[..] {
        if flag == "--start" {
            if let Err(e) = start(Path::new(dir)) {
                eprintln!("calibrate: {e}");
                std::process::exit(1);
            }
            return;
        }
    }
    let threads: u128 = match args.first().map(|a| a.parse()) {
        None => 1,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => {
            eprintln!("usage: calibrate [THREADS] | calibrate --start DIR");
            std::process::exit(2);
        }
    };
    let next = cycle(SLOTS);
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
        let total: u128 = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads).map(|_| s.spawn(|| kernel_ns(&next))).collect();
            kernel_ns(&next) + others.into_iter().map(|h| h.join().unwrap_or(0)).sum::<u128>()
        });
        let ns = total / threads;
        if writeln!(out, "{ns}").and_then(|()| out.flush()).is_err() {
            break;
        }
    }
}
