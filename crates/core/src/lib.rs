//! # perforad-core
//!
//! The core of **PerforAD-rs** — a Rust reproduction of *"Automatic
//! Differentiation for Adjoint Stencil Loops"* (Hückelheim et al., ICPP
//! 2019): an AD-aware loop transformation that differentiates gather stencil
//! loops into gather-only adjoint stencil loops.
//!
//! Conventional reverse-mode AD turns the gather
//!
//! ```text
//! r[i] = c[i]*(2*u[i-1] - 3*u[i] + 4*u[i+1])
//! ```
//!
//! into a scatter (`ub[i±1] += …`), which parallelises poorly. The adjoint
//! stencil transformation instead produces a *core* gather loop plus small
//! boundary loops, all race-free:
//!
//! ```
//! use perforad_core::{ActivityMap, AdjointOptions, make_loop_nest};
//! use perforad_symbolic::{Array, Symbol, Idx, ix};
//!
//! let (i, n) = (Symbol::new("i"), Symbol::new("n"));
//! let (u, c, r) = (Array::new("u"), Array::new("c"), Array::new("r"));
//! let body = c.at(ix![&i]) * (2.0*u.at(ix![&i - 1]) - 3.0*u.at(ix![&i]) + 4.0*u.at(ix![&i + 1]));
//! let nest = make_loop_nest(&r.at(ix![&i]), body, vec![i.clone()],
//!                           vec![(Idx::constant(1), Idx::sym(n) - 1)]).unwrap();
//!
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adjoint = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
//! assert_eq!(adjoint.nest_count(), 5);                    // §3.2 of the paper
//! assert!(adjoint.nests.iter().all(|n| n.is_gather()));   // no scatter anywhere
//! ```
//!
//! Modules:
//! * [`nest`] — the loop-nest IR ([`LoopNest`], [`Statement`], [`Bound`]);
//! * [`mod@validate`] — the §3.4 restrictions;
//! * [`adjoint`] — the transformation (§3.3) with three boundary strategies;
//! * [`regions`] — disjoint iteration-space decomposition (§3.3.3–3.3.4);
//! * [`scatter`] — the conventional scatter adjoint baseline;
//! * [`merge`] — statement merging (§3.2's merged core loop);
//! * [`builder`] — `makeLoopNest`-style construction.

pub mod adjoint;
pub mod builder;
pub mod error;
pub mod merge;
pub mod nest;
pub mod regions;
pub mod scatter;
pub mod validate;

pub use adjoint::{ActivityMap, Adjoint, AdjointOptions, AdjointTerm, BoundaryStrategy};
pub use builder::{make_loop_nest, StencilSpec};
pub use error::CoreError;
pub use merge::merge_statements;
pub use nest::{AssignOp, Bound, Guard, LoopNest, Statement};
pub use regions::{
    access_boxes, core_bounds, full_bounds, required_extent, split_disjoint, split_guarded,
    AccessBox, Region,
};
pub use validate::validate;
