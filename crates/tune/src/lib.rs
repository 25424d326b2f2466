//! # perforad-tune
//!
//! Perf-model-guided autotuner for **PerforAD-rs** adjoint schedules —
//! the loop-closer between `perforad-perfmodel` and `perforad-sched`.
//!
//! The paper's central observation (Automatic Differentiation for Adjoint
//! Stencil Loops, §4–5) is that adjoint stencil loops have a *schedule
//! space* — fuse or not, tile sizes, gather vs. scatter, and in this
//! repository also interpreter vs. register-IR row lowering and
//! static vs. dynamic tile assignment — whose best point depends on both
//! the kernel and the machine. PRs 1–2 built every knob
//! (`Strategy×Lowering`, `TilePolicy`, `SchedOptions`) plus an analytic
//! roofline model; this crate searches that space automatically instead
//! of leaving each driver hard-coded:
//!
//! 1. **Enumerate** ([`search_space`]): every
//!    `Strategy × Lowering × TilePolicy × tile-size × fusion-on/off`
//!    candidate for a nest list — a few dozen points.
//! 2. **Prune** ([`perforad_perfmodel::predict_schedule`]): the analytic
//!    model ranks the whole space for free; only the top-K survive.
//! 3. **Time** ([`Measure::Wall`]): the nests are compiled once per
//!    fusion choice and each survivor is tiled from that into a real
//!    [`Schedule`] and wall-clock timed (warm-up + best-of-N, the same
//!    timer `examples/figures.rs` reports with); the fastest wins.
//! 4. **Cache** ([`cache`]): the win is recorded under a schedule
//!    fingerprint + machine signature, in a process-wide memory layer and
//!    an optional JSON file (`PERFORAD_TUNE_CACHE`, read and written with
//!    `perforad_obs::json`), so repeated runs skip the search. The memory
//!    layer keeps the winner's compiled plans too: a hit re-tiles them.
//!
//! ```
//! use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
//! use perforad_exec::{Binding, Grid, ThreadPool, Workspace};
//! use perforad_sched::run_tuned;
//! use perforad_tune::{autotune_adjoint, Measure, TuneOptions};
//! use perforad_symbolic::{ix, Array, Idx, Symbol};
//!
//! let (i, n) = (Symbol::new("i"), Symbol::new("n"));
//! let (u, c, r) = (Array::new("u"), Array::new("c"), Array::new("r"));
//! let body = c.at(ix![&i]) * (2.0*u.at(ix![&i-1]) - 3.0*u.at(ix![&i]) + 4.0*u.at(ix![&i+1]));
//! let nest = make_loop_nest(&r.at(ix![&i]), body, vec![i.clone()],
//!                           vec![(Idx::constant(1), Idx::sym(n) - 1)]).unwrap();
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
//!
//! let mut ws = Workspace::new()
//!     .with("u", Grid::from_fn(&[257], |ix| ix[0] as f64))
//!     .with("c", Grid::full(&[257], 0.5))
//!     .with("r", Grid::zeros(&[257]))
//!     .with("u_b", Grid::zeros(&[257]))
//!     .with("r_b", Grid::full(&[257], 1.0));
//! let bind = Binding::new().size("n", 256);
//! let pool = ThreadPool::new(2);
//!
//! // The tuner returns the winner compiled, with the configuration that
//! // tells `run_tuned` how to drive it.
//! let opts = TuneOptions::default().without_cache().with_measure(Measure::Model);
//! let (schedule, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
//! run_tuned(&schedule, &report.config, &mut ws, &pool).unwrap();
//! assert!(ws.grid("u_b").sum() != 0.0);
//! ```
//!
//! The pure-data [`TunedConfig`] type itself lives in `perforad-sched`
//! (re-exported here) so the scheduler can accept tuned configurations
//! without a dependency cycle.
//!
//! [`Schedule`]: perforad_sched::Schedule
//! [`TunedConfig`]: perforad_sched::TunedConfig

pub mod cache;
pub mod space;
pub mod timing;
pub mod tuner;

pub use cache::{cache_key, fingerprint_nests, machine_signature, CacheEntry, TuneCache};
// Batch-dispatch model types ride along so `perforad-pde` (which has no
// perfmodel dependency) can price shot-parallel vs grid-parallel batches.
pub use perforad_perfmodel::{
    host, predict_batch, profile, BatchShape, BatchStrategy, KernelProfile, Machine,
};
pub use perforad_sched::{run_tuned, TunedConfig, TunedStrategy};
pub use space::{budget_palette, search_space, tile_palette};
pub use timing::time_best;
pub use tuner::{
    autotune_adjoint, compile_tuned, pick_batch_strategy, Measure, TimeLoop, TuneError,
    TuneOptions, TuneReport, PRIMAL_FACTOR,
};
