//! `perf_report`: machine-readable performance snapshot of the harness.
//!
//! Emits one JSON object (`ssp-perf-report/6`) on stdout:
//!   - `engine`: wall time of simulating the workload suite with the
//!     fast engine vs. the stepped engine, per machine model and per
//!     binary class (baseline / SSP-adapted), with a bit-identity check
//!     over every `SimResult` and a `windows` object, taken from the
//!     timed fast runs, breaking down how the fast engine spent its
//!     cycles (busy windows and stepped cycles, plus a power-of-two
//!     histogram of busy-window lengths). Every row is checked against
//!     the accounting invariant `busy + stepped == simulated_cycles`,
//!   - `suite`: wall time of regenerating the Figure 8–10 suite with a
//!     cold vs. warm baseline cache, plus every row's cycle counts and
//!     its `noop`/`regression` diagnostic flags (each flagged row also
//!     prints a stderr warning),
//!   - `fig2`: the memory-wall rows (all baseline-class, so they share
//!     cached denominators with the suite),
//!   - `cache`: process-wide baseline-cache hit/miss counters.
//!
//! Timings are min-of-5 so one scheduler hiccup cannot distort a row,
//! and an engine row alternates its fast and stepped repetitions, so a
//! host stall costs each mode a repetition instead of sinking every
//! repetition of one mode.
//! The JSON is hand-rolled (no serde dependency); run with
//! `cargo run --release -p ssp-bench --bin perf_report`.
//!
//! Flags:
//!   - `--digest`: print only the deterministic subset (no wall times,
//!     no worker count) — byte-identical across `SSP_THREADS`, so CI
//!     can diff it across worker counts.
//!   - `--enforce-speedup`: exit nonzero unless every engine row meets
//!     its fast-vs-stepped speedup floor (see the two flags below).
//!   - `--min-speedup-baseline X`: speedup floor for the two
//!     baseline-class rows (default 3.0 — long busy windows with
//!     in-window skips make the fast engine pay off heavily there).
//!   - `--min-speedup-adapted X`: speedup floor for the two
//!     adapted-class rows (default 1.0, i.e. a no-regression gate;
//!     adapted runs keep several contexts issuing nearly every cycle,
//!     so there is little for a busy window to batch — the `windows`
//!     histograms quantify exactly that residue).
//!   - `--out PATH`: additionally write the (full, non-digest) report
//!     to `PATH`.

use ssp_bench::{
    cache, fig2_rows, parallel, run_suite_configured, suite_row_json, BenchmarkRun, Fig2Row, SEED,
};
use ssp_core::{simulate_stepped, AdaptOptions, MachineConfig, PostPassTool, Program};
use ssp_sim::{simulate_windowed, WindowStats};
use std::time::Instant;

/// One engine-comparison row: the same programs on the same machine,
/// fast vs. stepped.
struct EngineRow {
    model: &'static str,
    class: &'static str,
    simulated_cycles: u64,
    fast_forward_seconds: f64,
    stepped_seconds: f64,
    bit_identical: bool,
    windows: WindowStats,
}

/// Min-of-`reps` wall times of `a` and `b`, repeated alternately (`a`,
/// `b`, `a`, `b`, ...), each with whatever it returned on its last
/// repetition.
fn min_secs_alternating<A, B>(
    reps: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> ((f64, A), (f64, B)) {
    fn timed<R>(best: &mut f64, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        *best = best.min(t0.elapsed().as_secs_f64());
        r
    }
    let (mut best_a, mut best_b) = (f64::MAX, f64::MAX);
    let (mut last_a, mut last_b) = (None, None);
    for _ in 0..reps {
        last_a = Some(timed(&mut best_a, &mut a));
        last_b = Some(timed(&mut best_b, &mut b));
    }
    ((best_a, last_a.expect("reps >= 1")), (best_b, last_b.expect("reps >= 1")))
}

fn engine_row(
    model: &'static str,
    class: &'static str,
    progs: &[&Program],
    cfg: &MachineConfig,
) -> EngineRow {
    let ((fast_forward_seconds, runs), (stepped_seconds, stepped)) = min_secs_alternating(
        5,
        || progs.iter().map(|p| simulate_windowed(p, cfg)).collect::<Vec<_>>(),
        || progs.iter().map(|p| simulate_stepped(p, cfg)).collect::<Vec<_>>(),
    );
    // Where did the fast engine's cycles go? Every run records its
    // window statistics, so the timed runs answer that too.
    let mut windows = WindowStats::default();
    for (_, w) in &runs {
        windows.merge(w);
    }
    let fast: Vec<_> = runs.into_iter().map(|(r, _)| r).collect();
    let simulated: u64 = fast.iter().map(|r| r.total_cycles).sum();
    assert_eq!(
        windows.simulated(),
        simulated,
        "{model} {class}: window accounting must partition the simulated cycles \
         (busy {} + stepped {} != {simulated})",
        windows.busy_cycles,
        windows.stepped_cycles,
    );
    EngineRow {
        model,
        class,
        simulated_cycles: simulated,
        fast_forward_seconds,
        stepped_seconds,
        bit_identical: fast == stepped,
        windows,
    }
}

fn speedup(stepped: f64, fast: f64) -> f64 {
    if fast > 0.0 {
        stepped / fast
    } else {
        0.0
    }
}

fn hist_json(h: &[u64]) -> String {
    let parts: Vec<String> = h.iter().map(|v| v.to_string()).collect();
    format!("[{}]", parts.join(", "))
}

fn windows_json(w: &WindowStats) -> String {
    format!(
        concat!(
            "{{\"busy_windows\": {}, \"busy_cycles\": {}, \"spec_windows\": {}, ",
            "\"spec_cycles\": {}, \"stepped_cycles\": {}, \"busy_len_hist\": {}}}"
        ),
        w.busy_windows,
        w.busy_cycles,
        w.spec_windows,
        w.spec_cycles,
        w.stepped_cycles,
        hist_json(&w.busy_len_hist),
    )
}

/// Everything the report measured, independent of rendering mode.
struct Report {
    workers: usize,
    rows: [EngineRow; 4],
    suite: Vec<BenchmarkRun>,
    suite_cold_s: f64,
    suite_warm_s: f64,
    fig2: Vec<Fig2Row>,
    fig2_s: f64,
}

fn render(digest: bool, report: &Report) -> String {
    let Report { workers, rows, suite, suite_cold_s, suite_warm_s, fig2, fig2_s } = report;
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line("{".into());
    line("  \"schema\": \"ssp-perf-report/6\",".into());
    line(format!("  \"seed\": {SEED},"));
    if !digest {
        line(format!("  \"workers\": {workers},"));
    }
    line("  \"engine\": [".into());
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        if digest {
            line(format!(
                concat!(
                    "    {{\"model\": \"{}\", \"class\": \"{}\", \"simulated_cycles\": {}, ",
                    "\"bit_identical\": {},\n     \"windows\": {}}}{}"
                ),
                r.model,
                r.class,
                r.simulated_cycles,
                r.bit_identical,
                windows_json(&r.windows),
                comma,
            ));
        } else {
            line(format!(
                concat!(
                    "    {{\"model\": \"{}\", \"class\": \"{}\", \"simulated_cycles\": {}, ",
                    "\"fast_forward_seconds\": {:.4}, \"stepped_seconds\": {:.4}, ",
                    "\"speedup\": {:.2}, \"bit_identical\": {},\n     \"windows\": {}}}{}"
                ),
                r.model,
                r.class,
                r.simulated_cycles,
                r.fast_forward_seconds,
                r.stepped_seconds,
                speedup(r.stepped_seconds, r.fast_forward_seconds),
                r.bit_identical,
                windows_json(&r.windows),
                comma,
            ));
        }
    }
    line("  ],".into());
    line("  \"suite\": {".into());
    if !digest {
        line(format!("    \"cold_seconds\": {suite_cold_s:.4},"));
        line(format!("    \"warm_seconds\": {suite_warm_s:.4},"));
    }
    line("    \"rows\": [".into());
    for (i, r) in suite.iter().enumerate() {
        let comma = if i + 1 < suite.len() { "," } else { "" };
        line(format!("      {}{}", suite_row_json(&r.suite_row()), comma));
    }
    line("    ]".into());
    line("  },".into());
    if digest {
        line("  \"fig2\": [".into());
    } else {
        line(format!("  \"fig2_seconds\": {fig2_s:.4},"));
        line("  \"fig2\": [".into());
    }
    for (i, r) in fig2.iter().enumerate() {
        let comma = if i + 1 < fig2.len() { "," } else { "" };
        line(format!(
            concat!(
                "    {{\"name\": \"{}\", \"perfect_mem_io\": {:.4}, \"perfect_del_io\": {:.4}, ",
                "\"perfect_mem_ooo\": {:.4}, \"perfect_del_ooo\": {:.4}}}{}"
            ),
            r.name, r.perfect_mem_io, r.perfect_del_io, r.perfect_mem_ooo, r.perfect_del_ooo, comma,
        ));
    }
    line("  ],".into());
    let cs = cache::stats();
    line(format!(
        "  \"cache\": {{\"hits\": {}, \"disk_hits\": {}, \"misses\": {}}}",
        cs.hits, cs.disk_hits, cs.misses
    ));
    line("}".into());
    out
}

/// Parse `--flag X` as an `f64`, or return `default` when absent.
fn flag_f64(args: &[String], flag: &str, default: f64) -> f64 {
    args.iter()
        .position(|a| a == flag)
        .map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} requires a value"))
                .parse()
                .unwrap_or_else(|e| panic!("{flag}: {e}"))
        })
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let digest = args.iter().any(|a| a == "--digest");
    let enforce = args.iter().any(|a| a == "--enforce-speedup");
    let min_baseline = flag_f64(&args, "--min-speedup-baseline", 3.0);
    let min_adapted = flag_f64(&args, "--min-speedup-adapted", 1.0);
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out requires a path").clone());

    let ws = ssp_workloads::suite(SEED);
    let io = MachineConfig::in_order();
    let ooo = MachineConfig::out_of_order();
    let opts = AdaptOptions::default();
    let workers = parallel::threads();

    // Adapt every workload once up front (parallel); the engine rows
    // time *simulation only*, on both binary classes.
    let adapted = parallel::map_indexed(&ws, workers, |_, w| {
        PostPassTool::new(io.clone()).with_options(opts.clone()).run(&w.program).expect("adapts")
    });
    let base_progs: Vec<&Program> = ws.iter().map(|w| &w.program).collect();
    let ssp_progs: Vec<&Program> = adapted.iter().map(|a| &a.program).collect();

    // Engine comparison: direct simulations, never the cache — this
    // section times the fast engine against the stepped one, nothing
    // else.
    let rows = [
        engine_row("in-order", "baseline", &base_progs, &io),
        engine_row("in-order", "adapted", &ssp_progs, &io),
        engine_row("out-of-order", "baseline", &base_progs, &ooo),
        engine_row("out-of-order", "adapted", &ssp_progs, &ooo),
    ];

    // Suite regeneration with the baseline cache cold, then warm. Both
    // runs also serve as the determinism surface for the digest.
    let t0 = Instant::now();
    let suite = run_suite_configured(&ws, &opts, &io, &ooo, workers);
    let suite_cold_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let warm = run_suite_configured(&ws, &opts, &io, &ooo, workers);
    let suite_warm_s = t0.elapsed().as_secs_f64();
    assert_eq!(suite.len(), warm.len(), "warm suite must reproduce the cold one");

    let t0 = Instant::now();
    let fig2 = fig2_rows(&ws);
    let fig2_s = t0.elapsed().as_secs_f64();

    // A dead or regressing row must never scroll past unremarked.
    for run in &suite {
        for w in run.suite_row().warnings() {
            eprintln!("perf_report: {w}");
        }
    }

    let report = Report { workers, rows, suite, suite_cold_s, suite_warm_s, fig2, fig2_s };
    let json = render(digest, &report);
    print!("{json}");
    if let Some(path) = out_path {
        let full = if digest { render(false, &report) } else { json };
        std::fs::write(&path, full).expect("write --out file");
    }

    let rows = &report.rows;
    if !rows.iter().all(|r| r.bit_identical) {
        eprintln!("perf_report: fast engine diverged from the stepped engine");
        std::process::exit(1);
    }
    if enforce {
        let mut failed = false;
        for r in rows {
            let floor = if r.class == "baseline" { min_baseline } else { min_adapted };
            let s = speedup(r.stepped_seconds, r.fast_forward_seconds);
            if s < floor {
                eprintln!(
                    "perf_report: {} {} row speedup {s:.2}x below the {floor:.2}x floor \
                     (fast {:.4}s vs stepped {:.4}s)",
                    r.model, r.class, r.fast_forward_seconds, r.stepped_seconds
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
