//! Slice scheduling for basic and chaining speculative precomputation
//! (§3.2 of the paper).
//!
//! Given a p-slice's dependence graph, this crate produces the *execution
//! slice*: the ordered body of the generated do-across prefetching loop,
//! with the chaining spawn placed right after the critical sub-slice.
//! The pipeline is: loop rotation and condition prediction
//! ([`schedule::rotate_loop`], [`schedule::predict_condition`]) reduce
//! dependences; Tarjan SCCs ([`scc::SccPartition`]) tighten dependence
//! cycles; forward list scheduling with maximum-cumulative-cost priority
//! emits the order. The chaining scheduler always rotates and always
//! considers prediction, as the paper's tool does; its one knob is the
//! branch bias at which prediction fires ([`schedule_chaining`]).
//! [`slack`] implements the paper's slack equations and the
//! reduced-miss-cycle objective that drives region selection.

#![warn(missing_docs)]

pub mod scc;
pub mod schedule;
pub mod slack;

pub use scc::SccPartition;
pub use schedule::{
    branch_bias, node_heights, predict_condition, rotate_loop, schedule_basic, schedule_chaining,
    ScheduledSlice, SpModel,
};
pub use slack::{reduced_miss_cycles, slack_basic, slack_chaining, spawn_copy_latency};
