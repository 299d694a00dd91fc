//! Tier-1 differential-oracle regression tests.
//!
//! Replays the checked-in corpus through the full differential oracle
//! (every entry must pass with zero violations) and pins the
//! determinism contract the `fuzz_oracle` binary advertises: the batch
//! summary JSON is byte-identical no matter how many workers ran it.

use proptest::test_runner::TestRng;
use ssp_bench::parallel;
use ssp_fuzz::oracle::summarize;
use ssp_fuzz::{run_case, CaseOutcome, CaseSpec, OracleConfig};

const CORPUS: &str = include_str!("corpus/adaptation_oracle.corpus");

#[test]
fn corpus_replays_clean() {
    let specs = ssp_fuzz::corpus::parse(CORPUS).expect("corpus parses");
    assert!(specs.len() >= 8, "seed corpus present");
    let ocfg = OracleConfig::default();
    for s in &specs {
        let r = run_case(s, &ocfg, 1);
        assert_eq!(r.outcome, CaseOutcome::Pass, "{s}: {:?}", r.outcome);
    }
}

#[test]
fn summary_is_byte_identical_across_worker_counts() {
    let mut rng = TestRng::from_seed(2002);
    let specs: Vec<CaseSpec> = (0..12)
        .map(|_| {
            let mut s = CaseSpec::random(&mut rng);
            s.chase = s.chase.min(48); // keep the tier-1 run quick
            s
        })
        .collect();
    let ocfg = OracleConfig::default();
    let serial = parallel::map_indexed(&specs, 1, |_, s| run_case(s, &ocfg, 1));
    let wide = parallel::map_indexed(&specs, 8, |_, s| run_case(s, &ocfg, 1));
    let (a, b) = (summarize(&serial).to_json(), summarize(&wide).to_json());
    assert_eq!(a, b, "summary JSON depends on worker count");
    assert!(a.contains("\"cases\": 12"));
}
