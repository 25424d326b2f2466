//! # perforad-sched
//!
//! The execution scheduler of **PerforAD-rs**: fuses the loop nests of an
//! adjoint stencil transformation into barrier-minimal, cache-blocked,
//! dependence-checked parallel passes.
//!
//! The adjoint transformation (Hückelheim et al., ICPP 2019) emits one
//! core nest plus `O(4^d)` boundary nests, all race-free by construction.
//! Executing them as isolated plans pays one thread-pool barrier (and one
//! sweep of cold memory) *per nest*. The follow-on OpenMP AD work
//! (Hückelheim & Hascoët, 2021) observes that scheduling — not arithmetic
//! — dominates adjoint loop performance. This crate closes that gap:
//!
//! 1. **Dependence graph** ([`graph`]): each nest's read/write footprints
//!    come from the disjoint-region metadata in `perforad_core::regions`
//!    ([`perforad_core::access_boxes`]); nests conflict when they write
//!    the same array over overlapping boxes, or when one writes an array
//!    the other reads at all. Write boxes are swept in order of their
//!    outermost lower bound, so only boxes that overlap there are
//!    compared: the comparisons follow the overlaps, not the pairs of
//!    nests. A [`DepGraph`] is one bit per pair of nests.
//! 2. **Fusion** ([`fuse`]): conflict-free nests merge into groups — the
//!    disjoint decomposition's nests always form a *single* group, so the
//!    53 nests of the 3-D wave adjoint run in one parallel region.
//! 3. **Tiling** ([`schedule`]): the graph, the groups and one compiled
//!    plan per group are a [`CompiledWork`] ([`compile_work`]), which no
//!    tiling choice changes; [`tile_work`] cuts each group's iteration
//!    hull — the bounding box of its nests — into cache-blocked [`Tile`]s
//!    (1-D/2-D/3-D, configurable edges) without compiling or copying a
//!    plan, and a tile runs every nest's part of its box, so the small
//!    boundary nests ride inside the core loop's tiles instead of
//!    streaming the arrays again on their own.
//! 4. **Execution** ([`run_schedule`]): each group's tiling goes to
//!    `perforad_exec::BoundPlan::run`, the one tile driver, which assigns
//!    tiles to [`ThreadPool`] workers statically (LPT pre-assignment) or
//!    dynamically (shared counter) and refuses a plan that is not
//!    gather-only; a [`BoundSchedule`] binds every group once for a time
//!    loop. Each tile runs on the per-point reference evaluator, the
//!    vectorized register-IR row executor ([`SchedOptions::with_rows`]) or,
//!    once `perforad-jit` has prepared the group, its one native entry
//!    point; all are bitwise-identical. This crate holds no `unsafe`: the
//!    compiled plan is the gather proof, and `exec` reads it.
//!
//! ```
//! use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
//! use perforad_exec::{Binding, Grid, ThreadPool, Workspace};
//! use perforad_sched::{compile_schedule, run_schedule, SchedOptions};
//! use perforad_symbolic::{ix, Array, Idx, Symbol};
//!
//! let (i, n) = (Symbol::new("i"), Symbol::new("n"));
//! let (u, c, r) = (Array::new("u"), Array::new("c"), Array::new("r"));
//! let body = c.at(ix![&i]) * (2.0*u.at(ix![&i - 1]) - 3.0*u.at(ix![&i]) + 4.0*u.at(ix![&i + 1]));
//! let nest = make_loop_nest(&r.at(ix![&i]), body, vec![i.clone()],
//!                           vec![(Idx::constant(1), Idx::sym(n) - 1)]).unwrap();
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
//!
//! let mut ws = Workspace::new()
//!     .with("u", Grid::from_fn(&[65], |ix| ix[0] as f64))
//!     .with("c", Grid::full(&[65], 0.5))
//!     .with("r", Grid::zeros(&[65]))
//!     .with("u_b", Grid::zeros(&[65]))
//!     .with("r_b", Grid::full(&[65], 1.0));
//! let bind = Binding::new().size("n", 64);
//!
//! let schedule = compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
//! assert_eq!(schedule.group_count(), 1);   // all 5 nests fused, one barrier
//! assert_eq!(schedule.max_fused(), 5);
//!
//! let pool = ThreadPool::new(4);
//! run_schedule(&schedule, &mut ws, &pool).unwrap();
//! assert!(ws.grid("u_b").sum() != 0.0);
//! ```
//!
//! [`Tile`]: perforad_exec::Tile
//! [`ThreadPool`]: perforad_exec::ThreadPool

// The gather proof is `perforad-exec`'s to check; nothing here needs it.
#![forbid(unsafe_code)]

pub mod error;
pub mod fuse;
pub mod graph;
pub mod schedule;
pub mod tuned;

pub use error::SchedError;
pub use fuse::fuse_groups;
pub use graph::{dependence_graph, uncovered, DepGraph, IntBox};
pub use perforad_exec::Lowering;
pub use schedule::{
    compile_schedule, compile_schedule_nests, compile_schedule_source, compile_work, default_tile,
    run_schedule, run_schedule_serial, tile_work, BoundSchedule, CompiledWork, FusedGroup,
    SchedOptions, Schedule, TilePolicy,
};
pub use tuned::{run_tuned, TunedConfig, TunedStrategy};
