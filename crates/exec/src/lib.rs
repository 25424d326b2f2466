//! # perforad-exec
//!
//! Parallel execution engine for **PerforAD-rs** — the OpenMP + compiler
//! substrate of the paper's evaluation, rebuilt as a Rust runtime:
//!
//! * [`Grid`] — dense n-d `f64` arrays;
//! * [`Workspace`]/[`Binding`] — named storage and size/parameter bindings;
//! * [`ThreadPool`] — persistent workers with OpenMP-style static/dynamic
//!   scheduling and exact thread-count control (the figures sweep threads);
//! * [`AtomicF64`] — CAS-loop `+=`, the `#pragma omp atomic` equivalent;
//! * [`bytecode`] — statement bodies compiled to a small stack VM;
//! * [`regir`]/[`rows`] — the second lowering stage: stack programs
//!   converted to a register-based linear IR and evaluated over whole
//!   innermost-dimension rows in vectorizable lane chunks;
//! * [`kernel`]/[`run`] — plans binding loop nests to storage, executed by
//!   the one [`run()`] function: serially, gather-parallel (race-free by
//!   construction), or scatter-parallel with atomics (the
//!   conventional-adjoint baseline), as its [`ExecMode`] asks.
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
//!    [`run()`] and the tile-granular [`TileRunner`] used by
//!    `perforad-sched` — accept the switch; the two lowerings produce
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

pub use atomic::{as_atomic_slice, AtomicF64};
pub use error::ExecError;
pub use grid::Grid;
pub use kernel::{
    check_adjoint_extents, compile_adjoint, compile_adjoint_opts, compile_nest, compile_nests,
    compile_nests_opts, Plan, PlanOptions,
};
pub use native::{fnv1a64, native_lookup, register_native, NativeGroup, NativeTileFn};
pub use pool::{default_pool, ThreadPool};
pub use regir::RegProgram;
pub use run::{run, ExecMode, ExecStats, Lowering, Strategy};
pub use tile::{tile_nest, Tile, TileRunner, TileScratch};
pub use workspace::{Binding, Workspace};
