//! # perforad-exec
//!
//! Parallel execution engine for **PerforAD-rs** — the OpenMP + compiler
//! substrate of the paper's evaluation, rebuilt as a Rust runtime:
//!
//! * [`Grid`] — dense n-d `f64` arrays;
//! * [`Workspace`]/[`Binding`] — named storage and size/parameter bindings;
//! * [`ThreadPool`] — persistent workers with exact thread-count control
//!   (the figures sweep threads): a bare parallel region ([`ThreadPool::run`])
//!   and one dynamic job loop ([`ThreadPool::work_queue`]);
//! * [`AtomicF64`] — CAS-loop `+=`, the `#pragma omp atomic` equivalent;
//! * [`regir`]/[`rows`] — each statement body lowered once, straight
//!   from its expression, to a register program, and that program
//!   evaluated over whole innermost-dimension rows in vectorizable lane
//!   chunks;
//! * [`kernel`]/[`mod@run`] — read-only plans binding loop nests to storage
//!   (a compiled [`Plan`] is the proof its points run safely), executed
//!   serially, gather-parallel (race-free by construction), or
//!   scatter-parallel with atomics (the conventional-adjoint baseline), as
//!   an [`ExecMode`] asks;
//! * [`tile`] — the one place plan points execute, and [`tile_plan`], the
//!   one tiler: a [`Tiling`] is disjoint boxes of a plan's iteration hull.
//!   [`BoundPlan::run`] is the one driver and the one place the gather
//!   proof's parallel fact is checked: a plan bound once to a workspace
//!   layout runs with no name lookup, lock or allocation, so a time loop
//!   binds its kernels once; [`run_tiling`] binds and runs in one call.
//!   [`run()`] hands it whole-row slabs, `perforad-sched` cache-blocked
//!   boxes.
//!
//! ## One lowered form
//!
//! A loop nest travels `LoopNest → Plan (one RegProgram per distinct RHS)
//! → PerPoint | Rows | Jit`:
//!
//! 1. [`kernel::compile_nests_opts`] resolves bounds, slots and guards,
//!    proves every access in range, and lowers each distinct statement
//!    body to a [`regir::RegProgram`]: constants folded, loads and
//!    constants value-numbered, identity/neg-mul peepholes and dead
//!    registers removed — all bitwise-neutral. Statements with equal
//!    programs share one copy.
//! 2. At run time every lowering runs that program:
//!    [`Lowering::PerPoint`] one point at a time (the reference),
//!    [`Lowering::Rows`] over whole innermost-dimension rows in lane
//!    chunks with guards and zero padding hoisted out of the inner loop
//!    (see [`rows`]), and [`Lowering::Jit`] as native code that
//!    `perforad-jit` prints from it. [`run()`] and `perforad-sched`'s
//!    schedules both go through [`run_tiling`]; the lowerings produce
//!    bitwise-identical results.
//!
//! ```
//! use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
//! use perforad_symbolic::{Array, Symbol, Idx, ix};
//! use perforad_exec::{run, Binding, ExecMode, Grid, ThreadPool, Workspace};
//! use perforad_exec::kernel::{compile_nest, compile_adjoint};
//!
//! let (i, n) = (Symbol::new("i"), Symbol::new("n"));
//! let (u, r) = (Array::new("u"), Array::new("r"));
//! let nest = make_loop_nest(&r.at(ix![&i]), u.at(ix![&i - 1]) + u.at(ix![&i + 1]),
//!                           vec![i.clone()], vec![(Idx::constant(1), Idx::sym(n.clone()) - 1)]).unwrap();
//!
//! let mut ws = Workspace::new()
//!     .with("u", Grid::from_fn(&[65], |ix| ix[0] as f64))
//!     .with("r", Grid::zeros(&[65]))
//!     .with("u_b", Grid::zeros(&[65]))
//!     .with("r_b", Grid::full(&[65], 1.0));
//! let bind = Binding::new().size("n", 64);
//!
//! // Primal, in parallel.
//! let plan = compile_nest(&nest, &ws, &bind).unwrap();
//! let pool = ThreadPool::new(2);
//! run(&plan, &mut ws, ExecMode::parallel(&pool)).unwrap();
//!
//! // Gather adjoint, in parallel, no atomics.
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
//! let aplan = compile_adjoint(&adj, &ws, &bind).unwrap();
//! run(&aplan, &mut ws, ExecMode::parallel(&pool).rows()).unwrap();
//! assert!(ws.grid("u_b").sum() > 0.0);
//! ```

// Every `unsafe` states the invariant it relies on (private `unsafe fn`s
// too: `check-private-items` in the workspace's `clippy.toml`).
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod atomic;
pub mod error;
pub mod grid;
pub mod kernel;
pub mod native;
pub mod pool;
pub mod regir;
pub mod rows;
pub mod run;
pub mod tile;
pub mod workspace;

pub use atomic::AtomicF64;
pub use error::ExecError;
pub use grid::Grid;
pub use kernel::{
    check_adjoint_extents, compile_adjoint, compile_adjoint_opts, compile_nest, compile_nests,
    compile_nests_opts, Plan, PlanOptions,
};
pub use native::{fnv1a64, native_lookup, register_native, NativeGroup, NativeTileFn};
pub use pool::{default_pool, ThreadPool};
pub use regir::RegProgram;
pub use run::{run, run_tiling, BoundPlan, ExecMode, ExecStats, Lowering, Strategy, TilePolicy};
pub use tile::{tile_plan, Tile, Tiling};
pub use workspace::{Binding, GridId, Workspace};

#[cfg(test)]
/// The unit tests that turn recording on or read a process-wide counter
/// (`jit.degraded_fallbacks`, the tile counters) hold this, so each sees
/// only its own runs move them.
pub(crate) fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
