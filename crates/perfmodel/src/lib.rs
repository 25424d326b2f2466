//! # perforad-perfmodel
//!
//! Analytic performance model for **PerforAD-rs** — the substitute for the
//! paper's 12-core Broadwell and 64-core KNL machines (this repository is
//! built and evaluated on a small container host). A roofline
//! (compute/bandwidth) model plus an atomic-contention term predicts
//! kernel runtimes from profiles extracted from the very same loop-nest IR
//! the runtime executes, so "who wins and where the curves bend" in the
//! projected figures is driven by the measured code structure.
//!
//! See `docs/ARCHITECTURE.md`, "Layer 4", for the substitution rationale;
//! `examples/figures.rs` prints the projected figures.

pub mod machine;
pub mod model;

pub use machine::{broadwell, host, knl, Machine};
pub use model::{
    predict, predict_batch, predict_checkpoint, predict_schedule, profile, with_stack, BatchShape,
    BatchStrategy, CheckpointShape, KernelProfile, ScheduleShape,
};
