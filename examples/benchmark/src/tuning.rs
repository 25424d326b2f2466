//! Pinning the schedule configuration.
//!
//! The wall-clock tuner times a handful of candidates once or twice
//! each; on a shared host its pick varies from run to run, and the
//! picks differ several-fold in speed. A yardstick cannot sit on top of
//! that, so every workload but `cold_compile` (which prices the search
//! itself) runs the configuration the analytic model ranks first:
//! `autotune_adjoint` under `Measure::Model`, which is deterministic for
//! a kernel, a shape and a thread count.

use crate::harness::Checks;
use crate::surface::*;
use std::path::Path;

/// Fork/join cost of a parallel region fed to the model, µs. The
/// model's own default (15 µs) describes bare metal; on the two-vCPU
/// calibration host an empty `ThreadPool::run` takes a few hundred
/// microseconds at the median (`exec.region_overhead_us`), which is what
/// decides serial against parallel at small shapes. A constant, not a
/// measurement, so the pick cannot flip between runs.
pub const BARRIER_US: f64 = 200.0;

pub fn model_options(cache: &Path) -> TuneOptions {
    let defaults = TuneOptions::default();
    let mut machine = defaults.machine;
    machine.barrier_us = BARRIER_US;
    defaults
        .with_machine(machine)
        .with_measure(Measure::Model)
        .with_cache_path(cache)
}

/// Pin the configuration `BatchPlan::new` will find — in this process
/// and inside an in-process daemon — for the c-active wave adjoint at
/// `cfg`'s shape: tune under the model into the same memory and file
/// caches, under the same key (nest fingerprint × thread count × time
/// loop), that the plan's own tuner call consults. One entry per pool
/// size in `pool_sizes`. Returns the pinned configuration's description.
pub fn pin_seismic(
    cfg: &SeismicConfig,
    checkpointed: bool,
    pool_sizes: &[usize],
    cache: &Path,
) -> String {
    let dims = [cfg.n; 3];
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("c-active wave adjoint");
    let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
    let mut opts = model_options(cache);
    if checkpointed {
        let state: WaveState = (Grid::zeros(&dims), Grid::zeros(&dims));
        opts = opts.with_time_loop(TimeLoop::new(cfg.steps, state.mem_bytes()));
    }
    let mut sizes = pool_sizes.to_vec();
    sizes.sort_unstable();
    sizes.dedup();
    let mut picked = String::new();
    for size in sizes {
        let mut ws = Workspace::new();
        for name in ["c", "u_1", "u_b", "u_1_b", "u_2_b", "c_b"] {
            ws.insert(name, Grid::zeros(&dims));
        }
        let pool = ThreadPool::new(size);
        let (_, report) =
            autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).expect("model tuning");
        picked = report.config.describe();
    }
    picked
}

/// Record as a failed check a plan that did not come up with the pinned
/// configuration: its timings would follow the wall-clock tuner, whose
/// pick changes from run to run, and could not be compared with another
/// run's. The pin rests on the tuner's cache-key layout; a change there
/// must show here, not pass as a slower or faster program.
pub fn check_pinned(checks: &mut Checks, pinned: &str, got: &str) {
    // A checkpoint budget rides at the end of a description; compare the
    // schedule part.
    let head = |s: &str| {
        let s = s.split(" ckpt ").next().unwrap_or(s);
        s.split(" (").next().unwrap_or(s).to_string()
    };
    checks.op(
        head(pinned) == head(got),
        &format!("plan runs the pinned configuration (model picked {pinned:?}, plan runs {got:?})"),
    );
}
