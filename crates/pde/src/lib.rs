//! # perforad-pde
//!
//! The paper's PDE test cases and application drivers for **PerforAD-rs**.
//! Each test case is one stencil description, like the paper's scripts:
//! a `DSL` text that `nest()` parses with `perforad_codegen::parse_stencil`
//! (§3.1 — every loop is generated from it).
//!
//! * [`wave3d`] — the 3-D wave equation of §4.1 (Fig. 4 script), whose
//!   adjoint decomposes into the 53 gather loop nests of §3.3.4;
//! * [`burgers`] — the upwinded 1-D Burgers equation of §4.2 (Fig. 6),
//!   piecewise differentiable, producing ternary adjoints (Fig. 7);
//! * [`heat2d`] — the 2-D 5-point star of Fig. 3 (17 adjoint nests);
//! * [`seismic`] — a seismic-imaging-style misfit gradient through the
//!   time-stepped wave equation with an active velocity model. One driver:
//!   [`seismic::BatchPlan`] compiles/tunes once per grid shape and runs
//!   every shot of a [`seismic::ShotBatch`] (a single shot is a batch of
//!   one) across a shared pool; long sweeps run bounded-memory under a
//!   `perforad-ckpt` `CheckpointPlan` (streamed forward pass, tuner-chosen
//!   snapshot budget), bitwise-identical to the dense reference.

pub mod burgers;
pub mod heat2d;
pub mod seismic;
pub mod wave3d;

// The batch dispatch-strategy enum lives with the perf model (re-exported
// through `perforad-tune`); surface it next to the batch API it steers.
pub use perforad_tune::BatchStrategy;
pub use seismic::{
    forward, misfit, ricker, BatchOptions, BatchPlan, BatchResult, SeismicConfig, ShotBatch,
    SnapshotBackend, CKPT_THRESHOLD_STEPS,
};
