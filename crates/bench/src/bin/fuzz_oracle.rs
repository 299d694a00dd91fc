//! Differential adaptation oracle driver.
//!
//! Generates `--cases` random case specs from `--seed`, optionally
//! prepends a regression corpus (`--corpus FILE`), and fans every case
//! across [`parallel::threads`] workers. Each case builds a random
//! pointer-chasing program, adapts it with the post-pass tool, and runs
//! baseline vs adapted on both machine models, checking final
//! architectural state, the main-thread commit stream, and the SSP
//! invariants (see `ssp-fuzz`).
//!
//! Stdout is the batch summary as deterministic JSON — byte-identical
//! for a given seed and case count regardless of `SSP_THREADS`. Any
//! violation is shrunk to its minimal spec and reported on stderr as a
//! ready-to-paste corpus line; the exit status is 1 if any case
//! violated, 0 otherwise.
//!
//! ```text
//! fuzz_oracle --seed 2002 --cases 500
//! fuzz_oracle --corpus tests/corpus/adaptation_oracle.corpus --cases 0
//! ```

use proptest::test_runner::TestRng;
use ssp_bench::parallel;
use ssp_fuzz::oracle::summarize;
use ssp_fuzz::{run_case, shrink, CaseOutcome, CaseSpec, OracleConfig};

fn usage() -> ! {
    eprintln!(
        "usage: fuzz_oracle [--seed N] [--cases N] [--corpus FILE] [--max-cycles N]\n\
         \n\
         --seed N        RNG seed for random case generation (default 2002)\n\
         --cases N       number of random cases to generate (default 200)\n\
         --corpus FILE   replay a regression corpus before the random cases\n\
         --max-cycles N  per-simulation cycle cap (default 2000000)"
    );
    std::process::exit(2)
}

fn arg_value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
    match args.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => usage(),
    }
}

fn main() {
    let mut seed = 2002u64;
    let mut cases = 200usize;
    let mut corpus_path: Option<String> = None;
    let mut ocfg = OracleConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => seed = arg_value(&mut args),
            "--cases" => cases = arg_value(&mut args),
            "--corpus" => corpus_path = Some(args.next().unwrap_or_else(|| usage())),
            "--max-cycles" => ocfg.max_cycles = arg_value(&mut args),
            _ => usage(),
        }
    }

    let mut specs: Vec<CaseSpec> = Vec::with_capacity(cases);
    if let Some(path) = &corpus_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("fuzz_oracle: {path}: {e}");
            std::process::exit(2);
        });
        let replay = ssp_fuzz::corpus::parse(&text).unwrap_or_else(|e| {
            eprintln!("fuzz_oracle: {path}: {e}");
            std::process::exit(2);
        });
        specs.extend(replay);
    }
    let mut rng = TestRng::from_seed(seed);
    for _ in 0..cases {
        specs.push(CaseSpec::random(&mut rng));
    }

    let workers = parallel::threads();
    let results = parallel::map_indexed(&specs, workers, |_, s| run_case(s, &ocfg, 1));
    print!("{}", summarize(&results).to_json());

    // Shrinking runs serially, in input order, after the summary: it is
    // itself deterministic, but it re-runs the oracle many times, so it
    // only happens on the failure path.
    let mut violated = false;
    for r in &results {
        if let CaseOutcome::Violations(vs) = &r.outcome {
            violated = true;
            eprintln!("violation: {}", r.spec);
            for v in vs {
                eprintln!("  [{}] {}", v.kind, v.detail);
            }
            let (min, probes) = shrink::shrink_violation(&r.spec, &ocfg);
            eprintln!("  shrunk after {probes} probes; corpus line:\n  {min}");
        }
    }
    std::process::exit(if violated { 1 } else { 0 });
}
