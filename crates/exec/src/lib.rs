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
//! * [`bytecode`] — statement bodies compiled to a small stack VM;
//! * [`regir`]/[`rows`] — the second lowering stage: stack programs
//!   converted to a register-based linear IR and evaluated over whole
//!   innermost-dimension rows in vectorizable lane chunks;
//! * [`kernel`]/[`mod@run`] — read-only plans binding loop nests to storage
//!   (a compiled [`Plan`] is the proof its points run safely), executed
//!   serially, gather-parallel (race-free by construction), or
//!   scatter-parallel with atomics (the conventional-adjoint baseline), as
//!   an [`ExecMode`] asks;
//! * [`tile`] — the one place plan points execute, and [`tile_plan`], the
//!   one tiler: a [`Tiling`] is disjoint boxes of a plan's iteration hull.
//!   [`run_tiling`] is the one driver and the one place the gather proof's
//!   parallel fact is checked; [`run()`] hands it whole-row slabs,
//!   `perforad-sched` cache-blocked boxes.
//!
//! ## The two-stage lowering pipeline
//!
//! A loop nest travels `LoopNest → Plan → RegProgram → row execution`:
//!
//! 1. [`kernel::compile_nests_opts`] resolves bounds, slots and guards,
//!    proves every access in range, and compiles each statement body to
//!    stack bytecode ([`bytecode::Program`]). Identical bodies across
//!    statements are deduped through a fingerprint-keyed cache.
//! 2. Each unique program is lowered once to a register-based linear IR
//!    ([`regir::RegProgram`]): stack→register conversion, constant
//!    folding, identity/neg-mul peepholes, load/const value numbering and
//!    dead-register elimination — all bitwise-neutral.
//! 3. At run time, [`Lowering::PerPoint`] interprets the stack program at
//!    every grid point (the reference), while [`Lowering::Rows`] executes
//!    the register IR over whole contiguous innermost-dimension runs in
//!    fixed-width lane chunks with guards and zero-padding hoisted out of
//!    the inner loop (see [`rows`]). Both execution surfaces —
//!    [`run()`] and `perforad-sched`'s schedules — accept the switch and
//!    hand it to [`run_tiling`], which they both run through; the
//!    lowerings produce bitwise-identical results.
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
pub mod bytecode;
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
pub use run::{run, run_tiling, ExecMode, ExecStats, Lowering, Strategy, TilePolicy};
pub use tile::{tile_plan, Tile, Tiling};
pub use workspace::{Binding, Workspace};
