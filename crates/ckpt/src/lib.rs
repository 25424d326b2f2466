//! # perforad-ckpt
//!
//! Memory-budgeted checkpointing for adjoint time loops — the layer
//! between a PDE time integrator and the scheduled adjoint executor.
//!
//! Reverse sweeps over `T` steps need the primal trajectory; storing it
//! densely caps `T` at whatever RAM allows. Checkpointing trades
//! recomputation for memory: keep a *budget* of snapshots, replay
//! forward segments from them, and reverse each segment with the same
//! fast (fused/JIT, autotuned) schedule a store-all sweep uses.
//! Hascoët & Araya-Polo frame checkpoint placement as a schedule to be
//! chosen per memory budget rather than a fixed recipe; this crate makes
//! that choice explicit and machine-optimizable:
//!
//! * [`CheckpointPlan`] — optimal (revolve) placement for a given
//!   `(steps, budget)` pair: the fewest recomputed steps any placement
//!   reaches under the budget, degenerating to store-all when the
//!   budget covers the sweep and to recompute-from-start at budget 1.
//!   Plans compile to a stream of [`CkptAction`]s and can be *simulated*
//!   ([`CheckpointPlan::stats`]) without running anything — which is how
//!   the autotuner prices a budget before committing to it. For a state
//!   of two time levels whose reverse step reads one,
//!   [`CheckpointPlan::two_level`] runs the same stream over two-step
//!   units, and each state it reaches reverses two steps.
//! * [`Snapshot`] / [`SnapshotStore`] — where states live:
//!   [`MemStore`] (clones in RAM — a copy for owned grids, a reference
//!   for an `Arc`; a freed or taken snapshot is dropped, so the store
//!   never pins a grid its owner could reuse) or [`DiskStore`]
//!   (bitwise-exact spill files, conventionally under
//!   `$PERFORAD_CKPT_DIR`).
//! * [`checkpointed_adjoint_plan`] — the replay driver, and the only
//!   reverse time loop: streaming forward pass (the right-most checkpoint
//!   chain is deposited on the way to the objective, not replayed), a
//!   single `seed` call with the final state, then the reverse phase,
//!   calling `back` for `t = T−1 .. 0` exactly once each in descending
//!   order. A store-all sweep is [`CheckpointPlan::store_all`] through
//!   the same driver. The stream knows where its one cursor is: it
//!   restores a state only where one is read back from elsewhere, and
//!   moves a snapshot out for its last read. It records one span over the
//!   forward pass and one per recomputed segment; the `ckpt.saves`,
//!   `ckpt.loads` and `ckpt.moves` counters count the rest.
//!
//! Every backend round-trips `f64` bit patterns exactly, so a
//! checkpointed gradient is **bitwise-identical** to its store-all
//! reference — the property the `tests/checkpoint.rs` suite pins down
//! across random step counts, budgets, and backends.

mod driver;
mod error;
mod plan;
mod store;

pub use driver::{checkpointed_adjoint_plan, CkptReport};
pub use error::CkptError;
pub use plan::{CheckpointPlan, CkptAction, PlanStats};
pub use store::{DiskStore, FallbackStore, MemStore, Snapshot, SnapshotStore, CKPT_DIR_ENV};
