//! The compatibility contract: every `perforad::*` symbol the benchmark
//! uses is imported here and nowhere else. A later PR that renames or
//! removes one of these breaks this file — and only this file — so the
//! benchmark keeps measuring the same calls on parent and change.
//!
//! Restricted to the entry points ROADMAP item 2 keeps: one `exec::run`
//! dispatcher with `ExecMode`, `run_schedule`/`run_schedule_serial`,
//! `BatchPlan` as the only gradient driver, `CheckpointPlan` with the
//! two snapshot stores, and the serve protocol types. No `run_*` or
//! `gradient*` free function, nothing from `perforad_bench`.

// symbolic — expression algebra.
pub use perforad::symbolic::visit::{accesses_of, node_count};
pub use perforad::symbolic::{diff, DiffVar, MapCtx, Symbol};

// core — the loop-nest IR and the adjoint transformation
// (`LoopNest::adjoint`, `LoopNest::scatter_adjoint`).
pub use perforad::core::{ActivityMap, Adjoint, AdjointOptions, LoopNest};

// codegen — DSL front-end and the Rust back-end.
pub use perforad::codegen::parse_stencil;
pub use perforad::codegen::rust::print_module;

// exec — storage, pool, and the single dispatcher.
pub use perforad::exec::{
    compile_nest, default_pool, run as exec_run, Binding, ExecMode, Grid, Lowering, Plan,
    ThreadPool, Workspace,
};

// sched — fusion + tiling.
pub use perforad::sched::{
    compile_schedule, run_schedule, run_schedule_serial, SchedOptions, Schedule, TilePolicy,
    TunedConfig, TunedStrategy,
};

// tune — the autotuner.
pub use perforad::tune::{autotune_adjoint, Measure, TimeLoop, TuneOptions, TuneReport};

// jit — native lowering.
pub use perforad::jit::{available as jit_available, prepare_schedule, JitOptions};

// perfmodel — the analytic model.
pub use perforad::perfmodel::{
    host, predict_schedule, profile, BatchStrategy, KernelProfile, ScheduleShape,
};

// ckpt — checkpoint plans and snapshot stores.
pub use perforad::ckpt::{CheckpointPlan, DiskStore, MemStore, Snapshot, SnapshotStore};

// pde — the paper's kernels and the batched seismic driver.
pub use perforad::pde::seismic::{
    forward, BatchOptions, BatchPlan, BatchResult, SeismicConfig, ShotBatch, SnapshotBackend,
    WaveState, CKPT_THRESHOLD_STEPS,
};
pub use perforad::pde::{burgers, wave3d};

// autodiff — the independent tape oracle.
pub use perforad::autodiff::tape_adjoint;

// obs — only to price a span on the hot path and read one counter.
pub use perforad::obs::{
    counter as obs_counter, enabled as obs_enabled, set_enabled as obs_set_enabled,
    span as obs_span,
};

// serve — protocol, client, daemon, engine.
pub use perforad::serve::{
    stats_counter, BatchRequest, Client, CompileRequest, Endpoint, Engine, GradientRequest, Reply,
    Request, ServeOptions, Server,
};

/// Drive a schedule the way its tuned configuration asks.
pub fn run_tuned_schedule(
    schedule: &Schedule,
    cfg: &TunedConfig,
    ws: &mut Workspace,
    pool: &ThreadPool,
) -> bool {
    match cfg.strategy {
        TunedStrategy::Serial => run_schedule_serial(schedule, ws).is_ok(),
        TunedStrategy::Parallel => run_schedule(schedule, ws, pool).is_ok(),
    }
}
