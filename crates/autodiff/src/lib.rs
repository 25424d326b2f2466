//! # perforad-autodiff
//!
//! Conventional reverse-mode AD for **PerforAD-rs** — the baseline the
//! paper compares against (Tapenade/ADIC stand-in) and the independent
//! reference for §3.6 verification:
//!
//! * [`tape`] — operator-overloading tape AD ([`Tape`], [`Var`]); `Var`
//!   implements the symbolic crate's `Scalar`, so a whole stencil loop can
//!   be executed over the tape;
//! * [`reverse`] — [`tape_adjoint`]: run a primal nest on the tape, reverse
//!   once, and read back adjoints of every active input.
//!
//! Fig. 15's Tapenade stack-mode series is a cost model
//! (`perforad_perfmodel::with_stack`), not an executor here.

pub mod reverse;
pub mod tape;

pub use reverse::tape_adjoint;
pub use tape::{Tape, Var};
