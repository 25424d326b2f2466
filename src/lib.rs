//! # PerforAD-rs
//!
//! A Rust reproduction of *"Automatic Differentiation for Adjoint Stencil
//! Loops"* (Hückelheim, Kukreja, Narayanan, Luporini, Gorman, Hovland —
//! ICPP 2019): reverse-mode differentiation of gather stencil loops into
//! **gather-only** adjoint stencil loops that parallelise exactly like the
//! primal — no atomics, no extra memory, no barriers.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`symbolic`] — expression algebra (SymPy substitute);
//! * [`core`] — the loop-nest IR and the adjoint stencil transformation;
//! * [`codegen`] — C/Rust back-ends and a DSL front-end;
//! * [`exec`] — grids, thread pool, atomic-f64 baseline, one register
//!   program per statement (run per point, by rows, or natively), and
//!   the one [`exec::run()`]`(plan, ws, ExecMode)` execution function;
//! * [`jit`] — run-time native lowering: fused groups compiled by
//!   `rustc` into `dlopen`-loaded cdylibs;
//! * [`sched`] — the fusion + tiling execution scheduler;
//! * [`tune`] — the perf-model-guided autotuner for adjoint schedules
//!   and checkpoint budgets;
//! * [`ckpt`] — memory-budgeted checkpointed time loops: optimal
//!   (revolve) snapshot plans, memory/disk snapshot stores, and the
//!   replay driver;
//! * [`obs`] — structured tracing + metrics: `span!` guards, a typed
//!   counter/gauge/histogram registry, Chrome-trace export, and the
//!   [`obs::TraceReport`] per-phase rollup;
//! * [`autodiff`] — tape-based conventional AD (verification baseline);
//! * [`perfmodel`] — Broadwell/KNL analytic models for the figures;
//! * [`pde`] — the wave/Burgers/heat test cases and the seismic gradient
//!   driver ([`pde::seismic::BatchPlan`]; a single shot is a batch of one);
//! * [`serve`] — gradient-as-a-service: a socket daemon that compiles,
//!   tunes, and JITs once per kernel fingerprint and then streams
//!   gradient requests against the cached plan.
//!
//! ```
//! use perforad::prelude::*;
//!
//! // r[i] = c[i]*(2 u[i-1] - 3 u[i] + 4 u[i+1])   (§3.2 of the paper)
//! let nest = parse_stencil(
//!     "for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }",
//! ).unwrap();
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adjoint = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
//! assert_eq!(adjoint.nest_count(), 5);
//! ```
//!
//! ## Scheduling
//!
//! The transformation emits a *set* of race-free loop nests — one core
//! nest plus `O(4^d)` boundary nests. Executing each as its own
//! [`exec::Plan`] re-synchronises the thread pool once per nest; the
//! [`sched`] subsystem removes that overhead with a fuse/tile pipeline:
//!
//! 1. **Dependence graph** — read/write footprints from
//!    [`core::access_boxes`] (the disjoint-region metadata of §3.3.3);
//!    two nests conflict when they write the same array over overlapping
//!    boxes, or when one writes an array the other reads at all.
//! 2. **Fusion** — conflict-free nests merge into groups; the disjoint
//!    adjoint decomposition always fuses into a *single* group (its write
//!    regions are pairwise disjoint by construction), and nests with
//!    overlapping write regions are never fused.
//! 3. **Tiling** — each group's iteration hull (the bounding box of its
//!    nests) is cut into cache-blocked [`exec::Tile`]s with configurable
//!    edges; a tile runs every nest's part of its box.
//! 4. **Execution** — [`sched::run_schedule`] runs every group as one
//!    parallel region, assigning tiles to workers statically (LPT) or
//!    dynamically (shared counter), so boundary nests ride along with the
//!    core loop instead of each paying a barrier.
//!
//! ```
//! use perforad::prelude::*;
//!
//! let nest = parse_stencil(
//!     "for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }",
//! ).unwrap();
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adjoint = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
//!
//! let mut ws = Workspace::new()
//!     .with("u", Grid::from_fn(&[129], |ix| ix[0] as f64))
//!     .with("c", Grid::full(&[129], 0.5))
//!     .with("r", Grid::zeros(&[129]))
//!     .with("u_b", Grid::zeros(&[129]))
//!     .with("r_b", Grid::full(&[129], 1.0));
//! let bind = Binding::new().size("n", 128);
//!
//! let schedule = compile_schedule(&adjoint, &ws, &bind, &SchedOptions::default()).unwrap();
//! assert_eq!(schedule.group_count(), 1);   // 5 nests, one parallel region
//!
//! let pool = ThreadPool::new(4);
//! run_schedule(&schedule, &mut ws, &pool).unwrap();
//! ```
//!
//! ## The plan is the gather proof
//!
//! Compiling a plan proves that its points run without checks: every
//! write at `counter + c` and in range, no read of a written array. A
//! gather-only plan (every `c` zero) runs its tiles in parallel without
//! atomics; `exec::BoundPlan::run` is the one driver and the one place
//! that refuses anything else. Safe code can read that proof but not edit it —
//! a plan's fields:
//!
//! ```compile_fail,E0616
//! use perforad::prelude::*;
//! let ws = Workspace::new().with("u", Grid::zeros(&[9])).with("r", Grid::zeros(&[9]));
//! let nest = parse_stencil("for i in 1 .. n-1 { r[i] = u[i-1] + u[i+1]; }").unwrap();
//! let mut plan = compile_nest(&nest, &ws, &Binding::new().size("n", 8)).unwrap();
//! plan.gather_only = true;
//! ```
//!
//! a group's tiles, which only `exec::tile_plan` builds:
//!
//! ```compile_fail,E0599
//! use perforad::prelude::*;
//! let ws = Workspace::new().with("u", Grid::zeros(&[9])).with("r", Grid::zeros(&[9]));
//! let nest = parse_stencil("for i in 1 .. n-1 { r[i] = u[i-1] + u[i+1]; }").unwrap();
//! let bind = Binding::new().size("n", 8);
//! let opts = SchedOptions::default().with_tile(&[2]);
//! let mut schedule =
//!     perforad::sched::compile_schedule_nests(&[nest], &ws, &bind, false, &opts).unwrap();
//! let tile = schedule.groups[0].tiles[0].clone();
//! schedule.groups[0].tiles.push(tile);
//! ```
//!
//! or the tile runner behind the driver:
//!
//! ```compile_fail,E0603
//! use perforad::prelude::*;
//! let mut ws = Workspace::new().with("u", Grid::zeros(&[9])).with("r", Grid::zeros(&[9]));
//! let nest = parse_stencil("for i in 1 .. n-1 { r[i] = u[i-1] + u[i+1]; }").unwrap();
//! let plan = compile_nest(&nest, &ws, &Binding::new().size("n", 8)).unwrap();
//! let tiles = perforad::exec::tile_plan(&plan, &[4]);
//! let runner = perforad::exec::tile::TileRunner::new(&plan, &mut ws).unwrap();
//! unsafe { runner.run_tile(&tiles[0], &mut runner.scratch()) };
//! ```
//!
//! ## Autotuning
//!
//! The best schedule configuration — fuse or not, tile sizes, lowering,
//! tile policy, serial vs. parallel — depends on the kernel and the
//! machine. Instead of hand-picking [`sched::SchedOptions`], the
//! [`tune`] subsystem searches the whole space: the analytic model
//! ([`perfmodel::predict_schedule`]) prunes it to a top-K set, the
//! survivors are wall-clock timed, and the winner is cached under a
//! schedule fingerprint + machine signature so the next run skips the
//! search.
//!
//! ```
//! use perforad::prelude::*;
//!
//! let nest = parse_stencil(
//!     "for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }",
//! ).unwrap();
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adjoint = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
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
//! // `Measure::Model` trusts the analytic ranking (no timing runs) —
//! // production callers use the default wall-clock measure instead.
//! let opts = TuneOptions::default().without_cache().with_measure(Measure::Model);
//! let (schedule, report) = autotune_adjoint(&adjoint, &mut ws, &bind, &pool, &opts).unwrap();
//! let cfg: TunedConfig = report.config;
//! run_tuned(&schedule, &cfg, &mut ws, &pool).unwrap();
//! assert!(ws.grid("u_b").sum() != 0.0);
//! ```
//!
//! ## Checkpointing
//!
//! A reverse sweep over `T` time steps needs the primal trajectory, and
//! storing it densely caps `T` at whatever RAM allows. The [`ckpt`]
//! subsystem bounds that memory instead: a [`ckpt::CheckpointPlan`]
//! places optimal (revolve) checkpoints for a given snapshot budget, a
//! [`ckpt::SnapshotStore`] keeps them in RAM ([`ckpt::MemStore`]) or
//! spills them bitwise-exactly to disk ([`ckpt::DiskStore`], see
//! `PERFORAD_CKPT_DIR`), and [`ckpt::checkpointed_adjoint_plan`] replays
//! forward segments from snapshots so the reverse sweep sees every state
//! without ever materializing the trajectory. The result is
//! bitwise-identical to store-all — only the memory/recompute trade-off
//! moves, and the autotuner picks the budget
//! (`TuneOptions::with_time_loop`) jointly with the stencil schedule.
//!
//! ```
//! use perforad::prelude::*;
//!
//! // x_{t+1} = x_t + dt·x_t², J = x_T, reversed under a budget of 5
//! // snapshots instead of the 65 a store-all sweep would keep live.
//! let step = |x: &f64, _t: usize| x + 0.01 * x * x;
//! let plan = CheckpointPlan::with_budget(64, 5);
//! let (mut x_t, mut lambda) = (0.0, 1.0);
//! let report = checkpointed_adjoint_plan(
//!     &plan,
//!     0.8_f64,
//!     &mut MemStore::new(),
//!     &mut |x, t| *x = step(x, t),              // advance in place
//!     &mut |x| x_t = *x,                        // objective: J = x_T
//!     &mut |x, _t, _at| lambda *= 1.0 + 0.02 * *x, // reverse step t from s_t
//! ).unwrap();
//!
//! // Bitwise-identical to the dense reference...
//! let mut reference = vec![0.8_f64];
//! for t in 0..64 { reference.push(step(&reference[t], t)); }
//! assert_eq!(x_t.to_bits(), reference[64].to_bits());
//! // ...at 5 live snapshots, paying a bounded recompute ratio.
//! assert!(report.peak_snapshots <= 5);
//! assert!(report.recompute_ratio() < 3.0);
//! ```
//!
//! ## JIT execution
//!
//! The interpreter and the row executor still pay per-op dispatch; the
//! paper's numbers come from *compiler-optimized* loops. The [`jit`]
//! subsystem closes that gap at run time: each fusion group's compiled
//! plan is printed as Rust source ([`jit::emit::group_module`]: one
//! tile-granular, guard-hoisted `extern "C"` entry point whose statements
//! are the plan's `RegProgram`s — the row executor's arithmetic — as
//! straight-line `let` bindings), compiled out-of-process by
//! `rustc` into a `cdylib`, loaded with `dlopen`, and registered as the
//! third [`exec::Lowering`] tier, `Lowering::Jit`. Artifacts persist in
//! `PERFORAD_JIT_CACHE` keyed by plan fingerprint × machine signature,
//! so the compile cost is paid once per fingerprint; without a
//! toolchain (or before [`jit::prepare_schedule`] runs) Jit execution
//! falls back to the bitwise-identical row executor. The autotuner
//! searches the Jit axis automatically whenever the host supports it.
//!
//! ```no_run
//! use perforad::prelude::*;
//!
//! let nest = parse_stencil(
//!     "for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }",
//! ).unwrap();
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adjoint = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
//!
//! let mut ws = Workspace::new()
//!     .with("u", Grid::from_fn(&[257], |ix| ix[0] as f64))
//!     .with("c", Grid::full(&[257], 0.5))
//!     .with("r", Grid::zeros(&[257]))
//!     .with("u_b", Grid::zeros(&[257]))
//!     .with("r_b", Grid::full(&[257], 1.0));
//! let bind = Binding::new().size("n", 256);
//!
//! // Compile the schedule with the Jit lowering, then make it native.
//! let schedule =
//!     compile_schedule(&adjoint, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
//! let report = prepare_schedule(&schedule, &bind, &JitOptions::default()).unwrap();
//! assert!(report.compiled + report.loaded + report.registered == report.groups);
//!
//! let pool = ThreadPool::new(4);
//! run_schedule(&schedule, &mut ws, &pool).unwrap();   // native tiles
//! assert!(ws.grid("u_b").sum() != 0.0);
//! ```
//!
//! ## Tracing
//!
//! Every layer of the pipeline — scheduler, tuner, JIT, checkpointing,
//! executor, seismic driver — is instrumented with the std-only [`obs`]
//! crate. `span!` guards record into per-thread buffers (when recording
//! is disabled, via `PERFORAD_TRACE` unset, the whole round trip is one
//! relaxed atomic load), typed counters/gauges/histograms accumulate in
//! a process-wide registry, and a finished trace exports as Chrome-trace
//! JSON (open in `chrome://tracing` or Perfetto; [`obs::write_chrome_trace`]
//! writes it to a path the caller names) or rolls up into an
//! [`obs::TraceReport`] of per-phase self/total times. Spans recorded
//! inside an [`obs::RequestScope`] — on its thread, and on the pool
//! workers running its regions — carry that request's id (it shows up
//! as a `request_id` arg in the Chrome trace), and the always-on flight
//! recorder dumps the recent-span ring plus metrics to
//! `PERFORAD_FLIGHT_DIR` on a panic, degradation, or deadline breach.
//!
//! ```
//! use perforad::prelude::*;
//!
//! perforad::obs::set_enabled(true); // or set PERFORAD_TRACE=1
//! {
//!     let _root = perforad::obs::span!("demo.root", "demo");
//!     let _child = perforad::obs::span!("demo.step", "demo", "items" => 3);
//!     counter("demo.items").add(3);
//! }
//! let events = perforad::obs::collect_events();
//! assert_eq!(events.len(), 2);
//!
//! let report = TraceReport::build(&events, 10);
//! assert_eq!(report.spans, 2);
//! assert!(report.wall_ns >= report.phases[0].self_ns);
//!
//! let json = chrome_trace_json(&events); // chrome://tracing-ready
//! assert!(json.contains("\"traceEvents\""));
//! let metrics = MetricsSnapshot::collect();
//! assert!(metrics.counters.contains(&("demo.items".into(), 3)));
//! ```
//!
//! ## Serving
//!
//! Everything above is batch machinery; the [`serve`] crate is the
//! long-running front. A daemon (`perforad-serve`, or [`serve::Server`]
//! embedded in-process) listens on a Unix-domain socket — localhost TCP
//! as the fallback — and speaks a length-prefixed JSON protocol:
//! `Compile` warms a kernel (adjoint transform + autotune + JIT +
//! checkpoint budget, **once per fingerprint**, cached process-wide),
//! `Gradient`/`GradientBatch` stream shot data against the cached plan
//! through the shared pool, and `Stats` reports cache hit rates, queue
//! depth, and per-fingerprint request counts from the [`obs`] registry.
//! Served gradients are bitwise-identical to the in-process
//! [`pde::seismic::BatchPlan::run`] call (`tests/serve.rs` pins this, along
//! with the zero-recompile warm path, via the obs counters).
//!
//! The daemon is hardened for unattended operation: bounded admission
//! (`perforad-serve --max-queue` → `Busy` pushback with a retry hint,
//! absorbed by the client's [`serve::RetryPolicy`]), per-request
//! deadlines, socket timeouts, a connection cap, and graceful
//! shutdown draining. Every risky I/O site (disk spill, rustc spawn,
//! artifact/cache reads, socket frames) routes through the
//! deterministic fault-injection points in [`obs::fault`]
//! (`PERFORAD_FAULT`), and `tests/fault.rs` proves each injected
//! failure degrades — bitwise-identical fallback or structured error —
//! instead of corrupting or hanging.
//!
//! The daemon's telemetry plane rides the same [`obs`] machinery: every
//! reply echoes a server-assigned `request_id`, a request with
//! `trace: true` ([`serve::Client::gradient_traced`]) gets its span
//! rollup back inline, `perforad-serve --metrics` serves the registry
//! as Prometheus text plus `/healthz`, `perforad-top` renders the
//! `Stats` reply as a live dashboard, and incidents leave flight-recorder
//! dumps under `PERFORAD_FLIGHT_DIR` (`tests/telemetry.rs` pins all of
//! this, including that tracing never changes gradient bits).
//!
//! ```no_run
//! use perforad::prelude::*;
//!
//! let server = ServeServer::bind(&ServeOptions::default()).unwrap();
//! let endpoint = server.endpoint();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = ServeClient::connect(&endpoint).unwrap();
//! let compiled = client
//!     .compile(CompileRequest::Seismic {
//!         n: 16, steps: 8, d: 0.1, c: None, budget: None, checkpointed: None,
//!     })
//!     .unwrap();
//! let reply = client
//!     .gradient(&compiled.fingerprint, vec![0.0; 8], vec![0.0; 16 * 16 * 16])
//!     .unwrap();
//! assert_eq!(reply.gradient.len(), 16 * 16 * 16);
//! ```

pub use perforad_autodiff as autodiff;
pub use perforad_ckpt as ckpt;
pub use perforad_codegen as codegen;
pub use perforad_core as core;
pub use perforad_exec as exec;
pub use perforad_jit as jit;
pub use perforad_obs as obs;
pub use perforad_pde as pde;
pub use perforad_perfmodel as perfmodel;
pub use perforad_sched as sched;
pub use perforad_serve as serve;
pub use perforad_symbolic as symbolic;
pub use perforad_tune as tune;

/// The most common imports in one place.
pub mod prelude {
    pub use perforad_ckpt::{
        checkpointed_adjoint_plan, CheckpointPlan, CkptReport, DiskStore, FallbackStore, MemStore,
        Snapshot, SnapshotStore,
    };
    pub use perforad_codegen::{c_nest, parse_stencil, print_function, COptions};
    pub use perforad_core::{
        make_loop_nest, ActivityMap, Adjoint, AdjointOptions, BoundaryStrategy, LoopNest,
        StencilSpec,
    };
    pub use perforad_exec::{
        compile_adjoint, compile_nest, default_pool, run, Binding, ExecMode, Grid, Lowering,
        ThreadPool, Workspace,
    };
    pub use perforad_jit::{prepare_schedule, JitOptions, JitReport};
    pub use perforad_obs::{
        chrome_trace_json, collect_events, counter, gauge, histogram, write_chrome_trace,
        MetricsSnapshot, SpanEvent, SpanGuard, TraceReport,
    };
    pub use perforad_sched::{
        compile_schedule, run_schedule, run_tuned, SchedOptions, Schedule, TilePolicy, TunedConfig,
        TunedStrategy,
    };
    pub use perforad_serve::{
        Client as ServeClient, CompileRequest, Endpoint as ServeEndpoint, ServeOptions,
        Server as ServeServer,
    };
    pub use perforad_symbolic::{ix, Array, Expr, Idx, Symbol};
    pub use perforad_tune::{
        autotune_adjoint, pick_batch_strategy, BatchStrategy, Measure, TimeLoop, TuneError,
        TuneOptions, TuneReport,
    };
}
