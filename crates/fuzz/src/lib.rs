//! Differential adaptation oracle for the SSP post-pass tool.
//!
//! The tool's core promise (§3.5) is that adaptation is *semantically
//! transparent*: the SSP-enhanced binary computes exactly what the
//! original computed, on either machine model — speculative threads only
//! warm the caches. This crate turns that promise into an executable
//! oracle:
//!
//! 1. [`spec`] describes a fuzz case as a seed plus scalar shape knobs —
//!    a one-line, human-editable reproducer;
//! 2. [`gen`] deterministically expands a spec into a verified IR
//!    program (random pointer-chasing CFGs with loops, calls,
//!    predicated-branch diamonds, and main-thread stores);
//! 3. [`oracle`] adapts the program and runs baseline vs adapted on both
//!    the in-order and out-of-order models, comparing final
//!    architectural state, main-thread commit streams (tag-filtered to
//!    exclude tool-synthesized code), and the SSP invariants;
//! 4. [`shrink`] minimizes any violating spec over its knobs;
//! 5. [`corpus`] reads and writes the regression-corpus text format the
//!    tier-1 tests replay.
//!
//! The `fuzz_oracle` binary in `ssp-bench` fans [`oracle::run_case`]
//! across worker threads deterministically, one case per worker; the
//! `ssp-serve` daemon gives a lone case request every worker, and
//! `run_case` spreads that case's own simulations over them. See the
//! repository README's "Correctness" section for the command-line
//! workflow.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;
pub mod spec;

pub use oracle::{run_case, CaseOutcome, CaseResult, OracleConfig, Summary, Violation};
pub use spec::{CaseSpec, SpecError};
