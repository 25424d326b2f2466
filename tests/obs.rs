//! Observability guarantees, enforced: the disabled-tracing path must be
//! free (zero allocations, <1% wall time on a wave3d adjoint sweep), and
//! an enabled trace of the checkpointed seismic gradient must actually
//! explain where the time went (per-phase rollup ≥90% of wall).
//!
//! The obs layer is process-global state (enable flag, span buffers,
//! metrics registry), so every test here serializes on one mutex and
//! restores the disabled/empty state before releasing it.

mod common;

use perforad::exec::{Grid, ThreadPool};
use perforad::obs::SpanEvent;
use perforad::pde::seismic::{
    forward, ricker, BatchOptions, BatchPlan, SeismicConfig, ShotBatch, SnapshotBackend,
};
use perforad::pde::wave3d;
use perforad::pde::BatchStrategy;
use perforad::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Serialize on the global obs state and leave it clean afterwards.
fn obs_test() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    perforad::obs::set_enabled(false);
    perforad::obs::clear_events();
    perforad::obs::reset_metrics();
    guard
}

#[test]
fn disabled_tracing_allocates_nothing() {
    let _guard = obs_test();
    let work = || {
        for i in 0..256u64 {
            let _span = perforad::obs::span!("obs_test.span", "test", "i" => i);
            counter("obs_test.counter").add(i);
            histogram("obs_test.hist").record(i);
            gauge("obs_test.gauge").set_max(i);
        }
    };
    // First pass registers the three metrics (a one-time allocation each).
    work();
    // The count is this thread's own, so no other test's threads (or the
    // libtest harness) can leak into the window.
    let before = common::thread_allocs();
    work();
    assert_eq!(
        common::thread_allocs() - before,
        0,
        "disabled spans/metrics must not allocate"
    );
}

#[test]
fn disabled_tracing_costs_under_one_percent_of_a_wave3d_sweep() {
    let _guard = obs_test();
    let n = 24usize;
    let (mut ws, bind) = wave3d::workspace(n, 0.1);
    let schedule = wave3d::adjoint_schedule(&ws, &bind, &SchedOptions::default().with_rows())
        .expect("wave3d adjoint schedules");
    let pool = ThreadPool::new(4);

    // How many instrumentation crossings does one sweep make? Record one
    // and count: every collected span was one guard round-trip; metric
    // touches at those same sites are bounded by a small multiple.
    perforad::obs::set_enabled(true);
    run_schedule(&schedule, &mut ws, &pool).expect("recorded sweep");
    let crossings = perforad::obs::collect_events().len() as u32;
    perforad::obs::set_enabled(false);
    perforad::obs::reset_metrics();
    assert!(crossings > 0, "the sweep is instrumented");

    // Wall time of the sweep with recording off (best of 5).
    let sweep_s = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            run_schedule(&schedule, &mut ws, &pool).expect("sweep");
            t0.elapsed()
        })
        .min()
        .unwrap();

    // Measured cost of one disabled guard round-trip, amortized over a
    // long loop so timer granularity vanishes. The hot sites (per-worker,
    // per-region) resolve their metric handles once and pay only the
    // gated atomic per crossing — model exactly that.
    let overhead_counter = counter("obs_test.overhead");
    let reps = 1_000_000u64;
    let t0 = Instant::now();
    for i in 0..reps {
        let _span = perforad::obs::span!("obs_test.guard", "test", "i" => i);
        overhead_counter.add(i);
    }
    let per_crossing = t0.elapsed() / reps as u32;

    // Generous 4x headroom over the observed crossing count still has to
    // come in under 1% of the sweep.
    let overhead = per_crossing * (crossings * 4);
    assert!(
        overhead * 100 < sweep_s,
        "disabled-tracing overhead {overhead:?} (for {crossings} crossings) \
         is not <1% of the {sweep_s:?} sweep"
    );
}

#[test]
fn traced_seismic_gradient_rollup_accounts_for_the_wall_time() {
    let _guard = obs_test();
    let cfg = SeismicConfig {
        n: 10,
        steps: 16,
        d: 0.1,
    };
    let src = ricker(cfg.steps);
    let c0 = Grid::from_fn(&[cfg.n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
    let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();

    perforad::obs::set_enabled(true);
    let t0 = Instant::now();
    let opts = common::checkpointed(Some(4), SnapshotBackend::Memory);
    let (j, _grad, report) = common::one_shot(&cfg, &c0, &data, &src, &opts, default_pool());
    let wall = t0.elapsed();
    perforad::obs::set_enabled(false);
    let report = report.expect("checkpointed shot reports");
    assert!(j > 0.0);
    assert_eq!(
        report.recompute_ratio_observed,
        Some(report.recompute_ratio())
    );

    let events = perforad::obs::collect_events();
    assert!(!events.is_empty());
    let trace = TraceReport::build(&events, 10);

    // The rollup explains the run: per-phase self times sum to ≥90% of
    // the measured wall (parallel worker spans can push the sum past
    // 100% — under-accounting is the failure mode being pinned).
    let accounted: u64 = trace.phases.iter().map(|p| p.self_ns).sum();
    assert!(
        accounted as f64 >= 0.9 * wall.as_nanos() as f64,
        "rollup accounts for {accounted} ns of a {wall:?} gradient"
    );
    let phase_names: Vec<&str> = trace.phases.iter().map(|p| p.phase.as_str()).collect();
    for expect in ["seismic", "ckpt", "exec"] {
        assert!(phase_names.contains(&expect), "missing phase {expect}");
    }

    // And it exports: well-formed Chrome-trace JSON with complete events.
    let json = chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("seismic.gradient_batch"));
    perforad::obs::clear_events();
    perforad::obs::reset_metrics();
}

/// Spans per name, for a failure message that says what overflowed.
fn span_counts(events: &[SpanEvent]) -> BTreeMap<&'static str, usize> {
    let mut counts = BTreeMap::new();
    for e in events {
        *counts.entry(e.name).or_insert(0) += 1;
    }
    counts
}

#[test]
fn a_recorded_gradient_is_traced_per_region_not_per_tile() {
    let _guard = obs_test();
    // The served shape: one shot of n = 16, 24 steps, store-all, on the
    // model's pinned (fused) configuration. Forced shot-parallel, a batch
    // of one runs serially on the caller, as the served plan does.
    let cfg = SeismicConfig {
        n: 16,
        steps: 24,
        d: 0.1,
    };
    let src = ricker(cfg.steps);
    let c0 = Grid::from_fn(&[cfg.n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
    let mut batch = ShotBatch::new();
    batch.push(src.clone(), forward(&cfg, &c_true, &src)[cfg.steps].clone());
    let pool = ThreadPool::new(2);
    common::pin_model_config(&cfg, false, &pool);
    let opts = BatchOptions {
        strategy: Some(BatchStrategy::ShotParallel),
        ..common::store_all()
    };
    let plan = BatchPlan::new(&cfg, &c0, &opts, &pool);

    perforad::obs::set_enabled(true);
    plan.run(&batch);
    perforad::obs::set_enabled(false);
    let events = perforad::obs::collect_events();
    let counts = span_counts(&events);
    // Per step: the primal's group, the back step and its group; plus the
    // batch, the shot and the forward sweep. Tiles are counted, not timed.
    assert!(!counts.contains_key("exec.tile"), "{counts:?}");
    assert!(
        events.len() <= 3 * cfg.steps + 4,
        "{} spans for {} steps: {counts:?}",
        events.len(),
        cfg.steps
    );
}

#[test]
fn a_pooled_group_records_one_worker_span_per_worker() {
    let _guard = obs_test();
    let (mut ws, bind) = wave3d::workspace(16, 0.1);
    // The default tile spans the whole n = 16 hull; cut it into four.
    let opts = SchedOptions::default().with_rows().with_tile(&[4, 16, 16]);
    let schedule = wave3d::adjoint_schedule(&ws, &bind, &opts).expect("wave3d adjoint schedules");
    assert!(schedule.groups.iter().all(|g| g.tiles.len() > 1));
    let pool = ThreadPool::new(2);

    perforad::obs::set_enabled(true);
    run_schedule(&schedule, &mut ws, &pool).expect("recorded sweep");
    perforad::obs::set_enabled(false);
    let events = perforad::obs::collect_events();
    let named = |name: &'static str| events.iter().filter(move |e| e.name == name);
    let groups: Vec<&SpanEvent> = named("exec.group").collect();
    assert_eq!(groups.len(), schedule.group_count());
    assert_eq!(named("exec.worker").count(), 2 * groups.len());
    for g in groups {
        let mut workers: Vec<u64> = named("exec.worker")
            .filter(|w| w.start_ns >= g.start_ns && w.end_ns() <= g.end_ns())
            .map(|w| {
                assert_eq!(w.args[0].0, "worker");
                w.args[0].1
            })
            .collect();
        workers.sort_unstable();
        assert_eq!(workers, [0, 1], "one span per worker in group {:?}", g.args);
    }
    // And one barrier-wait sample per worker per region beside them.
    assert_eq!(
        histogram("exec.barrier_wait_ns").count(),
        2 * schedule.group_count() as u64
    );
}

#[test]
fn traced_batch_run_populates_shot_metrics_and_rollup() {
    let _guard = obs_test();
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    };
    let src = ricker(cfg.steps);
    let c0 = Grid::from_fn(&[cfg.n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let shots = 3usize;
    let mut batch = ShotBatch::new();
    for k in 0..shots {
        let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * (1.03 + 0.01 * k as f64));
        batch.push(src.clone(), forward(&cfg, &c_true, &src)[cfg.steps].clone());
    }

    let pool = ThreadPool::new(2);
    let opts = BatchOptions {
        strategy: Some(BatchStrategy::ShotParallel),
        checkpointed: Some(true),
        budget: Some(3),
        backend: SnapshotBackend::Memory,
    };
    perforad::obs::set_enabled(true);
    let res = BatchPlan::new(&cfg, &c0, &opts, &pool).run(&batch);
    perforad::obs::set_enabled(false);
    assert_eq!(res.gradients.len(), shots);

    // Batch accounting: one count + one duration sample per shot, even
    // when the shots ran on pool worker threads.
    assert_eq!(
        perforad::obs::counter("seismic.shots_total").get(),
        shots as u64
    );
    let hist = perforad::obs::histogram("seismic.shot_ns");
    assert_eq!(hist.count(), shots as u64);
    assert!(hist.sum() > 0, "per-shot durations must be non-trivial");

    // The batch root span and the per-shot spans show up in the trace,
    // and the rollup attributes them to the seismic phase.
    let events = perforad::obs::collect_events();
    assert!(events.iter().any(|e| e.name == "seismic.gradient_batch"));
    assert!(events.iter().any(|e| e.name == "seismic.batch_setup"));
    assert_eq!(
        events.iter().filter(|e| e.name == "seismic.shot").count(),
        shots
    );
    let trace = TraceReport::build(&events, 10);
    assert!(trace.phases.iter().any(|p| p.phase == "seismic"));
    perforad::obs::clear_events();
    perforad::obs::reset_metrics();
}
