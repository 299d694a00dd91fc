//! Case minimization.
//!
//! A violating [`CaseSpec`] is shrunk over its scalar knobs (never its
//! seed, so the reproducer stays tied to one RNG stream): table length
//! and instruction-count knobs halve toward their minima, boolean
//! features switch off. The driver is the generic greedy fixed-point
//! from [`proptest::shrink`]; each probe re-runs the full differential
//! oracle, so whatever survives is the smallest spec (under this
//! schedule) that still violates.

use crate::oracle::{run_case, CaseOutcome, OracleConfig};
use crate::spec::{CaseSpec, MIN_CHASE};
use proptest::shrink::{minimize, scalar_candidates};

/// Simpler variants of `spec`, most aggressive first. The seed is left
/// untouched.
pub fn candidates(spec: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    for b in [
        spec.call.then(|| CaseSpec { call: false, ..spec.clone() }),
        spec.stores.then(|| CaseSpec { stores: false, ..spec.clone() }),
        spec.diamond.then(|| CaseSpec { diamond: false, ..spec.clone() }),
    ]
    .into_iter()
    .flatten()
    {
        out.push(b);
    }
    for c in scalar_candidates(spec.chase, MIN_CHASE) {
        out.push(CaseSpec { chase: c, ..spec.clone() });
    }
    for c in scalar_candidates(u64::from(spec.arith), 0) {
        out.push(CaseSpec { arith: c as u8, ..spec.clone() });
    }
    for c in scalar_candidates(u64::from(spec.loads), 1) {
        out.push(CaseSpec { loads: c as u8, ..spec.clone() });
    }
    out
}

/// Shrink `spec` while `fails` holds. Returns the minimized spec and how
/// many probes were spent.
pub fn shrink_with<F>(spec: &CaseSpec, fails: F) -> (CaseSpec, u64)
where
    F: FnMut(&CaseSpec) -> bool,
{
    minimize(spec.clone(), candidates, fails)
}

/// Shrink a spec that violates the differential oracle: the predicate is
/// "[`run_case`] still reports at least one violation".
pub fn shrink_violation(spec: &CaseSpec, ocfg: &OracleConfig) -> (CaseSpec, u64) {
    shrink_with(spec, |s| matches!(run_case(s, ocfg, 1).outcome, CaseOutcome::Violations(_)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_only_simplify() {
        let spec =
            CaseSpec::parse("seed=1 chase=64 loads=3 diamond=1 call=1 stores=1 arith=4").unwrap();
        for c in candidates(&spec) {
            assert_eq!(c.seed, spec.seed, "seed is never shrunk");
            assert!(
                c.chase <= spec.chase
                    && c.loads <= spec.loads
                    && c.arith <= spec.arith
                    && (!c.diamond || spec.diamond)
                    && (!c.call || spec.call)
                    && (!c.stores || spec.stores),
                "candidate {c} is not simpler than {spec}"
            );
            assert_ne!(c, spec);
        }
    }

    #[test]
    fn shrinking_a_synthetic_failure_reaches_the_floor() {
        // Synthetic predicate: "fails" whenever the chase table is >= 20
        // and the diamond is on. Shrinking must turn everything else off
        // and drive chase down to exactly 20.
        let spec =
            CaseSpec::parse("seed=9 chase=150 loads=3 diamond=1 call=1 stores=1 arith=4").unwrap();
        let (min, probes) = shrink_with(&spec, |s| s.chase >= 20 && s.diamond);
        assert_eq!(min.chase, 20);
        assert!(min.diamond);
        assert!(!min.call && !min.stores);
        assert_eq!(min.loads, 1);
        assert_eq!(min.arith, 0);
        assert!(probes < 500, "shrinking stays cheap: {probes} probes");
    }
}
