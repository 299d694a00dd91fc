//! Where does simulation host time go? A wall-clock PC sampler for the
//! engine, Linux x86-64 only.
//!
//! The example adapts the seven suite workloads (seed 2002, default
//! options, in-order profile) and runs each adapted binary's gated
//! simulation — the run the tuner's oracle gate makes, with the
//! architectural snapshot and the telemetry collector installed — for 40
//! passes on one machine model. An `ITIMER_REAL` timer raises `SIGALRM`
//! every 200 microseconds of wall time, and the handler records the
//! interrupted program counter. Afterwards every sampled PC is
//! symbolized with `addr2line -f -i -C` (binutils), which reports the
//! PC's whole inline chain, and the sample is attributed to
//! the innermost frame that belongs to `ssp_sim` (the innermost frame of
//! all when none does), so a standard-library call inlined into an
//! engine function counts as that function. The table on stdout lists
//! every function with at least 0.5% of the samples.
//!
//! Build in release (the workspace keeps debug info there, which the
//! inline chains need) and run:
//!
//! ```sh
//! cargo run --release -q -p ssp-bench --example pc_sampler -- --model ooo
//! ```
//!
//! `--model io|ooo` picks the machine model (default `ooo`). Wall-clock
//! sampling counts time the host spent elsewhere too, so run it on an
//! otherwise idle machine.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use ssp_core::{prefetch_targets, MachineConfig, PostPassTool};
    use ssp_sim::{simulate_with, SimOptions};
    use std::collections::HashMap;
    use std::io::Write;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    /// Sample buffer: written only by the signal handler, read after the
    /// timer is stopped.
    const CAPACITY: usize = 1 << 20;
    static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);
    /// Sampling period in microseconds of wall time.
    const INTERVAL_US: i64 = 200;
    /// Passes over the seven gated simulations.
    const PASSES: usize = 40;

    const SIGALRM: i32 = 14;
    const ITIMER_REAL: i32 = 0;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Offset of `uc_mcontext.gregs[REG_RIP]` in glibc's x86-64
    /// `ucontext_t`: `uc_flags`, `uc_link` and the 24-byte `uc_stack`
    /// come first (40 bytes), and `REG_RIP` is general register 16.
    const RIP_OFFSET: usize = 40 + 16 * 8;

    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's x86-64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    }

    extern "C" fn on_alarm(_sig: i32, _info: *mut u8, ctx: *mut u8) {
        // SAFETY: with SA_SIGINFO the kernel passes a `ucontext_t`, whose
        // saved RIP sits at `RIP_OFFSET`.
        let pc = unsafe { ctx.add(RIP_OFFSET).cast::<u64>().read_unaligned() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if i < CAPACITY {
            SAMPLES[i].store(pc, Ordering::Relaxed);
        }
    }

    fn set_timer(interval_us: i64) {
        let t = Itimerval {
            interval: Timeval { sec: 0, usec: interval_us },
            value: Timeval { sec: 0, usec: interval_us },
        };
        // SAFETY: plain system call on a valid, initialised struct.
        let rc = unsafe { setitimer(ITIMER_REAL, &t, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "setitimer failed");
    }

    /// The address the executable is loaded at: the start of its mapping
    /// at file offset 0, which `addr2line` addresses are relative to for
    /// a position-independent executable.
    fn load_base() -> u64 {
        let exe = std::fs::read_link("/proc/self/exe").expect("/proc/self/exe");
        let maps = std::fs::read_to_string("/proc/self/maps").expect("/proc/self/maps");
        for line in maps.lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() >= 6 && f[2] == "00000000" && std::path::Path::new(f[5]) == exe {
                let start = f[0].split('-').next().expect("range");
                return u64::from_str_radix(start, 16).expect("hex start");
            }
        }
        panic!("executable mapping not found");
    }

    /// Innermost `ssp_sim` frame of each address's inline chain, as its
    /// function name, via one `addr2line` process reading every address
    /// on stdin.
    fn symbolize(addrs: &[u64]) -> HashMap<u64, String> {
        let exe = std::fs::read_link("/proc/self/exe").expect("/proc/self/exe");
        let mut child = Command::new("addr2line")
            .args(["-f", "-i", "-C", "-a", "-e"])
            .arg(&exe)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("addr2line (binutils) on PATH");
        let mut input = String::new();
        for a in addrs {
            input.push_str(&format!("{a:#x}\n"));
        }
        let mut stdin = child.stdin.take().expect("piped stdin");
        let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let out = child.wait_with_output().expect("addr2line output");
        writer.join().expect("writer thread").expect("write addresses");
        let text = String::from_utf8_lossy(&out.stdout);
        // Output per address: the address line, then (function, location)
        // pairs from the innermost inlined frame outwards.
        let mut names = HashMap::new();
        let mut lines = text.lines().peekable();
        while let Some(head) = lines.next() {
            let addr = u64::from_str_radix(head.trim_start_matches("0x"), 16).expect("address");
            let mut frames = Vec::new();
            while let Some(l) = lines.peek() {
                if l.starts_with("0x") {
                    break;
                }
                frames.push(lines.next().expect("peeked").to_string());
                lines.next(); // the frame's `file:line`
            }
            let pick = frames.iter().find(|f| f.contains("ssp_sim::")).or(frames.first());
            names.insert(addr, pick.cloned().unwrap_or_else(|| "??".into()));
        }
        names
    }

    pub fn main() {
        let args: Vec<String> = std::env::args().collect();
        let model = match args.iter().position(|a| a == "--model") {
            Some(i) => args.get(i + 1).expect("--model io|ooo").clone(),
            None => "ooo".into(),
        };
        let cfg = match model.as_str() {
            "io" => MachineConfig::in_order(),
            "ooo" => MachineConfig::out_of_order(),
            m => panic!("--model must be io or ooo, not {m}"),
        };
        let ws = ssp_workloads::suite(ssp_bench::SEED);
        let adapted: Vec<_> = ws
            .iter()
            .map(|w| PostPassTool::new(MachineConfig::in_order()).run(&w.program).expect("adapts"))
            .collect();
        let targets: Vec<_> = adapted.iter().map(prefetch_targets).collect();

        let act = SigAction {
            handler: on_alarm as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        // SAFETY: installs a handler that only touches atomics.
        let rc = unsafe { sigaction(SIGALRM, &act, std::ptr::null_mut()) };
        assert_eq!(rc, 0, "sigaction failed");
        set_timer(INTERVAL_US);
        for _ in 0..PASSES {
            for (w, (a, t)) in ws.iter().zip(adapted.iter().zip(&targets)) {
                let opts = SimOptions {
                    snapshot: Some(w.program.next_tag),
                    telemetry: Some(t),
                    ..Default::default()
                };
                std::hint::black_box(simulate_with(&a.program, &cfg, opts));
            }
        }
        set_timer(0);

        let taken = TAKEN.load(Ordering::Relaxed).min(CAPACITY);
        let base = load_base();
        let pcs: Vec<u64> =
            SAMPLES[..taken].iter().map(|s| s.load(Ordering::Relaxed).wrapping_sub(base)).collect();
        let mut unique = pcs.clone();
        unique.sort_unstable();
        unique.dedup();
        let names = symbolize(&unique);
        let mut by_fn: HashMap<&str, u64> = HashMap::new();
        for pc in &pcs {
            *by_fn.entry(names[pc].as_str()).or_default() += 1;
        }
        let mut rows: Vec<_> = by_fn.into_iter().collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        println!("{taken} samples, model {model}, {PASSES} passes, every {INTERVAL_US} us");
        for (name, n) in rows {
            let share = 100.0 * n as f64 / taken.max(1) as f64;
            if share >= 0.5 {
                println!("{share:6.1}%  {name}");
            }
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    sampler::main();
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("pc_sampler reads the x86-64 Linux signal context; it does not run on this target");
}
