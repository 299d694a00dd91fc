//! A cycle-stepped SMT research-Itanium simulator, reproducing the
//! SMTSIM/IPFsim infrastructure the paper evaluates on (§4.1).
//!
//! The simulator is execution driven: it runs [`ssp_ir`] programs
//! functionally while a timing model decides when results become
//! available. Two machine models are provided, both with four hardware
//! thread contexts and the Table-1 memory hierarchy:
//!
//! * [`MachineConfig::in_order`] — the 12-stage two-bundle-wide in-order
//!   pipeline;
//! * [`MachineConfig::out_of_order`] — the 16-stage OOO pipeline with a
//!   per-thread 255-entry ROB and 18-entry reservation station.
//!
//! Besides timed simulation ([`simulate`]) the crate offers the fast
//! profiling pass ([`profile()`]) that feeds the post-pass tool: per-load
//! cache profiles, block/edge frequencies, and the dynamic call graph.
//!
//! # Example
//!
//! ```
//! use ssp_ir::{ProgramBuilder, Reg, CmpKind};
//! use ssp_sim::{simulate, MachineConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut f = pb.function("main");
//! let e = f.entry_block();
//! let body = f.new_block();
//! let exit = f.new_block();
//! f.at(e).movi(Reg(1), 0).br(body);
//! f.at(body)
//!     .add(Reg(1), Reg(1), 1)
//!     .cmp(CmpKind::Lt, Reg(2), Reg(1), 100)
//!     .br_cond(Reg(2), body, exit);
//! f.at(exit).halt();
//! let main = f.finish();
//! let prog = pb.finish_with(main);
//!
//! let result = simulate(&prog, &MachineConfig::in_order());
//! assert!(result.halted);
//! assert!(result.cycles > 0);
//! ```
//!
//! For observability, [`simulate_traced`] additionally returns a
//! [`ssp_trace::SimTrace`] classifying every speculative prefetch as
//! early / timely / late / useless relative to its consuming load;
//! [`simulate_with`] installs that collector and the architectural
//! snapshot recorder in one run.

#![warn(missing_docs)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod decode;
pub mod engine;
pub mod exec;
pub mod mem;
pub mod profile;
pub mod snapshot;
pub mod stats;
pub mod stride;
mod telemetry;
mod window;

pub use cache::{AccessResult, Hierarchy, HitWhere};
pub use config::{CacheConfig, MachineConfig, MemoryMode, PipelineKind};
pub use decode::{DecodedInst, DecodedProgram};
pub use engine::{
    simulate, simulate_crosschecked, simulate_snapshot, simulate_snapshot_stepped,
    simulate_stepped, simulate_traced, simulate_traced_stepped, simulate_windowed, simulate_with,
    SimMode, SimOptions, SimRun,
};
pub use exec::{RegFile, Scoreboard};
pub use mem::{LiveInBuffer, Memory, LIB_NO_SLOT};
pub use profile::{profile, LoadProfile, Profile};
pub use snapshot::{ArchSnapshot, TrapKind};
pub use ssp_trace::{SimTrace, Timeliness, TimelinessCounts};
pub use stats::{speedup, CycleBreakdown, LoadStats, SimResult, WindowStats, WINDOW_HIST_BUCKETS};
pub use stride::StridePrefetcher;
