//! Program slicing for software-based speculative precomputation.
//!
//! This crate implements §3.1 of the paper: extraction of *p-slices* —
//! the minimal instruction sequences that produce delinquent-load
//! addresses — using context-sensitive interprocedural analysis with
//! slice summaries ([`summary`]), profile-driven speculative slicing, and
//! region-based slice growth ([`slicer`]). Slicing always prunes
//! speculatively and always follows control dependences, as the paper's
//! tool does; its one knob is the profiled block count below which a
//! path counts as unexecuted ([`Slicer::new`]). The dependence graphs the
//! scheduler consumes are built by [`depgraph`].

#![warn(missing_docs)]

pub mod analysis;
pub mod depgraph;
pub mod slicer;
pub mod summary;

pub use analysis::{Analyses, FuncAnalyses};
pub use depgraph::{latency_of, latency_of_at, DepEdge, DepKind, RegionDepGraph};
pub use slicer::{Slice, SliceError, Slicer};
pub use summary::{Summaries, Summary};
