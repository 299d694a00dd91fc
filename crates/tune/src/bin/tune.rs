//! `tune` — run the closed-loop auto-tuner over the workload suite and
//! emit the `ssp-tune-report/1` document on stdout.
//!
//! ```text
//! tune [--seed N] [--rounds N] [--max-cycles N] [--workers N]
//!      [--store DIR] [--workloads a,b,...] [--out FILE]
//! ```
//!
//! The report goes to stdout (and `--out` when given); the human
//! summary table and cache statistics go to stderr. Exits nonzero on
//! bad arguments or if any row breaks the tuner's own invariants
//! (a structural-cap verdict with a sub-baseline candidate, or a win
//! verdict that does not beat its baseline).

use ssp_bench::persist::Store;
use ssp_tune::{render_report, TuneConfig, Tuner};

fn usage() -> ! {
    eprintln!(
        "usage: tune [--seed N] [--rounds N] [--max-cycles N] [--workers N] \
         [--store DIR] [--workloads a,b,...] [--out FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = TuneConfig::default();
    let mut store_dir: Option<String> = None;
    let mut names: Vec<String> = ssp_workloads::NAMES.iter().map(|s| s.to_string()).collect();
    let mut out_file: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("tune: {flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => config.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--rounds" => config.max_rounds = value("--rounds").parse().unwrap_or_else(|_| usage()),
            "--max-cycles" => {
                let n: u64 = value("--max-cycles").parse().unwrap_or_else(|_| usage());
                config.io.max_cycles = n;
                config.ooo.max_cycles = n;
            }
            "--workers" => config.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--store" => store_dir = Some(value("--store")),
            "--workloads" => {
                names = value("--workloads").split(',').map(|s| s.trim().to_owned()).collect()
            }
            "--out" => out_file = Some(value("--out")),
            _ => {
                eprintln!("tune: unknown argument {arg:?}");
                usage()
            }
        }
    }

    let mut workloads = Vec::new();
    for name in &names {
        match ssp_workloads::by_name(name, config.seed) {
            Ok(w) => workloads.push(w),
            Err(e) => {
                eprintln!("tune: {e}");
                std::process::exit(2);
            }
        }
    }

    let mut tuner = Tuner::new(config.clone());
    if let Some(dir) = &store_dir {
        match Store::open(dir) {
            Ok(store) => tuner = tuner.with_store(store),
            Err(e) => {
                eprintln!("tune: cannot open store {dir:?}: {e}");
                std::process::exit(2);
            }
        }
    }

    let rows = tuner.tune_suite(&workloads);

    let mut bad = 0;
    eprintln!(
        "{:<12} {:<13} {:>12} {:>12} {:>12} {:>8} verdict",
        "workload", "model", "base", "default", "tuned", "speedup"
    );
    for r in &rows {
        eprintln!(
            "{:<12} {:<13} {:>12} {:>12} {:>12} {:>7.3}x {} ({} moves, {} candidates)",
            r.name,
            r.model,
            r.base_cycles,
            r.default_cycles,
            r.tuned_cycles,
            r.speedup(),
            r.verdict,
            r.moves.len(),
            r.candidates,
        );
        let consistent = if r.is_win() {
            r.tuned_cycles < r.base_cycles
        } else {
            r.tuned_cycles >= r.base_cycles && r.best_candidate_cycles >= r.base_cycles
        };
        if !consistent {
            eprintln!("tune: INCONSISTENT ROW for {} {}", r.name, r.model);
            bad += 1;
        }
    }
    let stats = tuner.stats();
    eprintln!("cache: {} hits, {} disk hits, {} misses", stats.hits, stats.disk_hits, stats.misses);
    let gate = tuner.gate_stats();
    eprintln!(
        "oracle: {} binaries simulated for {} gate lookups",
        gate.misses,
        gate.hits + gate.misses
    );

    let report = render_report(
        config.seed,
        config.max_rounds,
        &config.io.fingerprint(),
        &config.ooo.fingerprint(),
        &rows,
    );
    print!("{report}");
    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("tune: cannot write {path:?}: {e}");
            std::process::exit(1);
        }
    }
    if bad > 0 {
        std::process::exit(1);
    }
}
