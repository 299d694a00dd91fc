//! Synthetic pointer-intensive benchmark programs for the SSP
//! reproduction — the seven programs of §4.1, rebuilt in the [`ssp_ir`]
//! instruction set with pseudo-randomly scattered heaps (see DESIGN.md's
//! substitution table for what each stands in for):
//!
//! * [`em3d`] — electromagnetic propagation (Olden)
//! * [`health`] — health-care simulation (Olden)
//! * [`mst`] — minimum spanning tree hash lookups (Olden)
//! * [`treeadd::build_df`] / [`treeadd::build_bf`] — depth-first and
//!   breadth-first tree reductions (Olden, the paper's two variants)
//! * [`mcf`] — network-simplex reduced-cost scan (SPEC CPU2000)
//! * [`vpr`] — FPGA placement move evaluation (SPEC CPU2000)
//!
//! Every builder is deterministic in its seed, so profiles, adaptation,
//! and simulation are exactly reproducible.
//!
//! # Example
//!
//! ```
//! let suite = ssp_workloads::suite(42);
//! assert_eq!(suite.len(), 7);
//! for w in &suite {
//!     ssp_ir::verify::verify(&w.program).unwrap();
//! }
//! ```

#![warn(missing_docs)]

pub mod em3d;
pub mod health;
pub mod layout;
pub mod mcf;
pub mod mst;
pub mod rng;
pub mod treeadd;
pub mod vpr;

use ssp_ir::verify::VerifyError;
use ssp_ir::Program;
use std::fmt;

/// A named benchmark program.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name as used in the paper's figures.
    pub name: &'static str,
    /// The RNG seed the builder expanded the data structures from.
    /// `(name, seed)` identifies the program bit-for-bit, which lets
    /// `ssp-bench` key its baseline-simulation cache on it.
    pub seed: u64,
    /// The program (with its initialized data image).
    pub program: Program,
}

impl Workload {
    /// The workload's part of every simulation and tuner key:
    /// `name=<name> seed=<seed> next_tag=<n> image_len=<words>`. The
    /// builders are deterministic, so name and seed pin the program; the
    /// tag bound and image length ride along as a cheap integrity check.
    pub fn identity(&self) -> String {
        format!(
            "name={} seed={} next_tag={} image_len={}",
            self.name,
            self.seed,
            self.program.next_tag,
            self.program.image.len()
        )
    }
}

/// Why a workload lookup failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WorkloadError {
    /// No benchmark with the requested name.
    UnknownName(String),
    /// The generated program failed IR verification — a bug in the
    /// workload builder, reported instead of panicking so batch drivers
    /// can skip the workload and keep going.
    Verify {
        /// Benchmark name.
        name: &'static str,
        /// The verifier diagnostic.
        error: VerifyError,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::UnknownName(n) => {
                write!(f, "unknown benchmark {n:?} (known: {})", NAMES.join(", "))
            }
            WorkloadError::Verify { name, error } => {
                write!(f, "workload {name} fails verification: {error}")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A benchmark's builder: its program, expanded from a seed.
type Builder = fn(u64) -> Workload;

/// Every benchmark's name and builder, in the paper's order.
const BUILDERS: [(&str, Builder); 7] = [
    ("em3d", em3d::build),
    ("health", health::build),
    ("mst", mst::build),
    ("treeadd.df", treeadd::build_df),
    ("treeadd.bf", treeadd::build_bf),
    ("mcf", mcf::build),
    ("vpr", vpr::build),
];

/// The full seven-benchmark suite of §4.1, in the paper's order.
pub fn suite(seed: u64) -> Vec<Workload> {
    BUILDERS.iter().map(|(_, build)| build(seed)).collect()
}

/// Benchmark names accepted by [`by_name`], in the paper's order.
pub const NAMES: [&str; 7] = ["em3d", "health", "mst", "treeadd.df", "treeadd.bf", "mcf", "vpr"];

/// Look up one benchmark by name; the returned program is verified.
pub fn by_name(name: &str, seed: u64) -> Result<Workload, WorkloadError> {
    let Some((_, build)) = BUILDERS.iter().find(|(n, _)| *n == name) else {
        return Err(WorkloadError::UnknownName(name.to_owned()));
    };
    let w = build(seed);
    match ssp_ir::verify::verify(&w.program) {
        Ok(()) => Ok(w),
        Err(error) => Err(WorkloadError::Verify { name: w.name, error }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_paper_order_and_verifies() {
        let s = suite(1);
        let names: Vec<&str> = s.iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["em3d", "health", "mst", "treeadd.df", "treeadd.bf", "mcf", "vpr"]);
        for w in &s {
            ssp_ir::verify::verify(&w.program)
                .unwrap_or_else(|e| panic!("{} fails verification: {e}", w.name));
        }
    }

    #[test]
    fn by_name_matches_suite() {
        for w in suite(9) {
            let again = by_name(w.name, 9).unwrap();
            assert_eq!(w.program, again.program, "{} deterministic", w.name);
        }
        assert_eq!(by_name("nope", 1).unwrap_err(), WorkloadError::UnknownName("nope".to_owned()));
    }

    /// The identity is part of every persisted simulation and tuner key,
    /// so a change to its text re-keys every store.
    #[test]
    fn identity_text_is_pinned() {
        // 2002 is the experiments' default seed (`ssp_bench::SEED`).
        let w = by_name("mcf", 2002).unwrap();
        assert_eq!(w.identity(), "name=mcf seed=2002 next_tag=30 image_len=5524");
    }

    #[test]
    fn names_list_matches_by_name() {
        for name in NAMES {
            assert_eq!(by_name(name, 3).unwrap().name, name);
        }
    }
}
