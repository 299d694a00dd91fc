//! Trigger placement for speculative precomputation (§3.3).
//!
//! Triggers are `chk.c` instructions in the main thread's code that spawn
//! a p-slice when a hardware context is free. The set of triggers must
//! form a cut on the control-flow graph so each execution path reaching
//! the delinquent load carries one trigger, while the communication
//! (live-in copying) stays minimal.
//!
//! [`placement::place_trigger`] implements the paper's conservative
//! dominator heuristic: the trigger goes after the last live-in producer
//! and is hoisted to control-dominating nodes while its execution
//! frequency holds. Codegen emits one `chk.c` per slice, in plan order.

#![warn(missing_docs)]

pub mod placement;

pub use placement::{place_trigger, TriggerPoint, TriggerStyle};
