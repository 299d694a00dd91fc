//! Adaptation-as-a-service: the `ssp-serve` daemon and its client.
//!
//! The one-shot binaries (`fig8`, `perf_report`, `fuzz_oracle`, …)
//! rebuild every adaptation and simulation from scratch per invocation.
//! This crate turns the same pipeline into a *persistent service*: a
//! [`Server`] accepts batches of adapt+simulate requests — workload
//! names, `tune <name>` auto-tune requests, or raw fuzz-case specs —
//! fans them out across a worker pool, and answers from sharded caches
//! that survive restarts via an on-disk store.
//!
//! The contract that makes the service trustworthy is **byte-identity**:
//! every response is rendered by the same canonical renderers the
//! one-shot binaries use ([`ssp_bench::suite_row_json`],
//! [`ssp_fuzz::oracle::case_json`]), whether the answer was computed
//! cold, served from memory, or decoded from a store written by an
//! earlier process. The differential suite in
//! `tests/service_differential.rs` enforces this cold, warm, across
//! worker counts, and across a daemon restart.
//!
//! Layering:
//!
//! * [`protocol`] — request grammar, response framing;
//! * [`server`] — batch scheduler, sharded caches, statistics report;
//! * [`store`] — the versioned persisted entry payloads
//!   (`ssp-serve-workload/1`, `ssp-serve-case/1`, `ssp-serve-tune/1`),
//!   layered on [`ssp_bench::persist::Store`].
//!
//! See `docs/SERVE.md` for the protocol specification and a worked
//! client session.

#![warn(missing_docs)]

pub mod protocol;
pub mod server;
pub mod store;

pub use protocol::{parse_line, read_frame, write_frame, Request, RequestError, MAX_FRAME};
pub use server::{Server, ServerConfig};
pub use store::{CaseEntry, TuneEntry, WorkloadEntry};
