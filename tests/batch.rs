//! Batched multi-shot gradients, property-tested against the sequential
//! path: for every shot count × pool width × dispatch strategy × sweep
//! kind, one [`BatchPlan::run`] over N shots must return **bitwise** the
//! misfits and gradients of N one-shot runs (each on its own freshly
//! built plan) and of the store-all reference — batching amortizes setup
//! and moves shots between workers, it never changes arithmetic.

mod common;

use common::{checkpointed, one_shot, pin_model_config, store_all};
use perforad::core::AdjointOptions;
use perforad::exec::{Binding, Grid, Lowering, ThreadPool, Workspace};
use perforad::obs::{counter, fault};
use perforad::pde::seismic::{
    forward, ricker, BatchOptions, BatchPlan, SeismicConfig, ShotBatch, SnapshotBackend,
    CKPT_THRESHOLD_STEPS,
};
use perforad::pde::{wave3d, BatchStrategy};
use perforad::sched::{
    compile_schedule, compile_schedule_nests, run_tuned, SchedOptions, Schedule, TunedConfig,
};

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

/// Recording, armed faults and `PERFORAD_JIT_CACHE` are process-global and
/// one test here turns all three: every test in this binary runs under
/// this lock, so none of them sees another's counters or faults.
fn suite_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn velocity(n: usize) -> Grid {
    Grid::from_fn(&[n, n, n], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64))
}

/// A survey of `shots` distinct shots: per-shot source amplitudes and
/// per-shot synthetic "observed" data from a perturbed velocity model,
/// so every shot has a different nonzero misfit and gradient.
fn make_batch(cfg: &SeismicConfig, c0: &Grid, shots: usize) -> ShotBatch {
    let base = ricker(cfg.steps);
    let mut batch = ShotBatch::new();
    for k in 0..shots {
        let scale = 1.0 + 0.25 * k as f64;
        let source: Vec<f64> = base.iter().map(|s| s * scale).collect();
        let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * (1.03 + 0.01 * k as f64));
        let observed = forward(cfg, &c_true, &source)[cfg.steps].clone();
        batch.push(source, observed);
    }
    batch
}

/// N sequential one-shot runs under `opts` on a one-thread pool.
fn sequential(
    cfg: &SeismicConfig,
    c0: &Grid,
    batch: &ShotBatch,
    opts: &BatchOptions,
) -> Vec<(f64, Grid)> {
    let pool = ThreadPool::new(1);
    (0..batch.len())
        .map(|k| {
            let (j, g, _) = one_shot(cfg, c0, &batch.observed[k], &batch.sources[k], opts, &pool);
            (j, g)
        })
        .collect()
}

fn assert_bitwise(tag: &str, got: (&f64, &Grid), want: (&f64, &Grid)) {
    assert_eq!(got.0.to_bits(), want.0.to_bits(), "{tag}: misfit");
    for (a, b) in got.1.as_slice().iter().zip(want.1.as_slice()) {
        assert_eq!(a.to_bits(), b.to_bits(), "{tag}: gradient");
    }
}

#[test]
fn store_all_batches_are_bitwise_sequential_across_shots_threads_strategies() {
    let _guard = suite_lock();
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    };
    let c0 = velocity(cfg.n);
    for shots in [1usize, 2, 7] {
        let batch = make_batch(&cfg, &c0, shots);
        let refs = sequential(&cfg, &c0, &batch, &store_all());
        let mut summed: Vec<Grid> = Vec::new();
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            for strategy in [BatchStrategy::ShotParallel, BatchStrategy::GridParallel] {
                let opts = BatchOptions {
                    strategy: Some(strategy),
                    ..store_all()
                };
                let res = BatchPlan::new(&cfg, &c0, &opts, &pool).run(&batch);
                assert_eq!(res.strategy, strategy);
                assert_eq!(res.gradients.len(), shots);
                assert!(res.reports.iter().all(|r| r.is_none()));
                for (k, want) in refs.iter().enumerate() {
                    let tag = format!("{shots} shots, {threads} threads, {strategy:?}, shot {k}");
                    assert_bitwise(
                        &tag,
                        (&res.misfits[k], &res.gradients[k]),
                        (&want.0, &want.1),
                    );
                }
                if let Some(g) = res.summed_gradient() {
                    summed.push(g);
                }
            }
        }
        // The summed reduction is accumulated in shot order, so it is one
        // bit pattern regardless of strategy or pool width.
        for g in &summed[1..] {
            for (a, b) in g.as_slice().iter().zip(summed[0].as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{shots} shots: summed gradient");
            }
        }
    }
}

#[test]
fn checkpointed_batches_are_bitwise_sequential_across_shots_threads_strategies() {
    let _guard = suite_lock();
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    };
    // Three units of two steps under two snapshots: a plan that recomputes.
    let budget = 2usize;
    let c0 = velocity(cfg.n);
    let ckpt = checkpointed(Some(budget), SnapshotBackend::Memory);
    for shots in [1usize, 2, 7] {
        let batch = make_batch(&cfg, &c0, shots);
        let refs = sequential(&cfg, &c0, &batch, &ckpt);
        // The sequential checkpointed runs themselves match store-all.
        let dense = sequential(&cfg, &c0, &batch, &store_all());
        for (k, (got, want)) in refs.iter().zip(&dense).enumerate() {
            let tag = format!("{shots} shots, shot {k}: checkpointed vs store-all");
            assert_bitwise(&tag, (&got.0, &got.1), (&want.0, &want.1));
        }
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(threads);
            for strategy in [BatchStrategy::ShotParallel, BatchStrategy::GridParallel] {
                let opts = BatchOptions {
                    strategy: Some(strategy),
                    ..ckpt.clone()
                };
                let res = BatchPlan::new(&cfg, &c0, &opts, &pool).run(&batch);
                assert_eq!(res.strategy, strategy);
                for (k, want) in refs.iter().enumerate() {
                    let tag = format!("{shots} shots, {threads} threads, {strategy:?}, shot {k}");
                    assert_bitwise(
                        &tag,
                        (&res.misfits[k], &res.gradients[k]),
                        (&want.0, &want.1),
                    );
                    let rep = res.reports[k].as_ref().expect("checkpointed shot reports");
                    assert_eq!(rep.budget, budget.min(cfg.steps));
                    assert!(rep.peak_snapshots <= budget);
                }
            }
        }
    }
}

#[test]
fn disk_backed_shot_parallel_batch_spills_without_collisions() {
    let _guard = suite_lock();
    // An odd step count: the two-level stream's first snapshot is `s_1`.
    let cfg = SeismicConfig {
        n: 8,
        steps: 7,
        d: 0.1,
    };
    let c0 = velocity(cfg.n);
    let shots = 4usize;
    let batch = make_batch(&cfg, &c0, shots);
    let dir = std::env::temp_dir().join(format!("perforad_batch_spill_{}", std::process::id()));
    // Concurrent workers share one spill directory: the per-instance
    // DiskStore tags must keep their snapshot files apart, or loads
    // would read another shot's state and break bitwise identity.
    let pool = ThreadPool::new(2);
    let disk = checkpointed(Some(2), SnapshotBackend::Disk(dir.clone()));
    let opts = BatchOptions {
        strategy: Some(BatchStrategy::ShotParallel),
        ..disk.clone()
    };
    let res = BatchPlan::new(&cfg, &c0, &opts, &pool).run(&batch);

    let dense = sequential(&cfg, &c0, &batch, &store_all());
    let refs = sequential(&cfg, &c0, &batch, &disk);
    for (k, ((j, g), want)) in refs.iter().zip(&dense).enumerate() {
        let tag = format!("disk shot {k}");
        assert_bitwise(&tag, (&res.misfits[k], &res.gradients[k]), (j, g));
        assert_bitwise(&tag, (j, g), (&want.0, &want.1));
        let rep = res.reports[k].as_ref().unwrap();
        assert_eq!(rep.store, "disk");
        assert!(rep.recomputed_steps > 0, "{tag}: {rep:?}");
    }
    // Every store dropped ⇒ every spill file cleaned up; leftovers would
    // mean two stores fought over one file name.
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("spill directory exists")
        .collect();
    assert!(leftovers.is_empty(), "stale spill files: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_batch_returns_empty_result() {
    let _guard = suite_lock();
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    };
    let c0 = velocity(cfg.n);
    let pool = ThreadPool::new(2);
    let res = BatchPlan::new(&cfg, &c0, &BatchOptions::default(), &pool).run(&ShotBatch::new());
    assert!(res.misfits.is_empty() && res.gradients.is_empty());
    assert!(res.summed_gradient().is_none());
    assert_eq!(res.total_misfit(), 0.0);
}

/// `u ∈ [0, 1)` from the integer generator alone — no libm anywhere in
/// the golden inputs, so the digest is the same on every host.
fn unit(rng: &mut common::Rng) -> f64 {
    (rng.next() >> 11) as f64 / (1u64 << 53) as f64
}

/// `fnv1a64` over the misfit's and every gradient value's IEEE-754 bits.
fn digest(j: f64, g: &Grid) -> u64 {
    let mut bytes = Vec::with_capacity(8 * (g.as_slice().len() + 1));
    bytes.extend_from_slice(&j.to_bits().to_le_bytes());
    for v in g.as_slice() {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    perforad::exec::fnv1a64(&bytes)
}

/// The golden shot's inputs (at `d = 0.1`): model, source and observed
/// data drawn from `Rng`.
fn golden_shot(d: f64) -> (SeismicConfig, Grid, ShotBatch) {
    let cfg = SeismicConfig {
        n: 12,
        steps: 10,
        d,
    };
    let mut rng = common::Rng::new(0x5EED_0014);
    let c0 = Grid::from_fn(&[cfg.n; 3], |_| 0.8 + 0.4 * unit(&mut rng));
    let source: Vec<f64> = (0..cfg.steps).map(|_| unit(&mut rng) - 0.5).collect();
    let observed = Grid::from_fn(&[cfg.n; 3], |_| 1e-3 * (unit(&mut rng) - 0.5));
    let mut batch = ShotBatch::new();
    batch.push(source, observed);
    (cfg, c0, batch)
}

/// Recorded at PR 13's tree (interpreted primal, cloning time loop). The
/// time loop may move grids and change dispatch; it may never change a bit.
const GOLDEN_SHOT_DIGEST: u64 = 0xa242_e107_7faf_a2e5;

#[test]
fn golden_digest_pins_the_gradient_bits_across_sweeps_and_strategies() {
    let _guard = suite_lock();
    let (cfg, c0, batch) = golden_shot(0.1);

    let one = ThreadPool::new(1);
    let two = ThreadPool::new(2);
    let ckpt = checkpointed(Some(3), SnapshotBackend::Memory);
    let forced = |opts: &BatchOptions, strategy| BatchOptions {
        strategy: Some(strategy),
        ..opts.clone()
    };
    let runs = [
        ("store-all", store_all(), &one),
        ("checkpointed", ckpt.clone(), &one),
        (
            "store-all, shot-parallel",
            forced(&store_all(), BatchStrategy::ShotParallel),
            &two,
        ),
        (
            "store-all, grid-parallel",
            forced(&store_all(), BatchStrategy::GridParallel),
            &two,
        ),
        (
            "checkpointed, shot-parallel",
            forced(&ckpt, BatchStrategy::ShotParallel),
            &two,
        ),
        (
            "checkpointed, grid-parallel",
            forced(&ckpt, BatchStrategy::GridParallel),
            &two,
        ),
    ];
    for (tag, opts, pool) in runs {
        let plan = BatchPlan::new(&cfg, &c0, &opts, pool);
        // Twice: a warm store-all run steps into the grids the first run
        // left in the shot state's pool.
        for run in ["cold", "warm"] {
            let res = plan.run(&batch);
            assert!(res.misfits[0] > 0.0 && res.gradients[0].norm2() > 0.0);
            let got = digest(res.misfits[0], &res.gradients[0]);
            assert_eq!(got, GOLDEN_SHOT_DIGEST, "{tag}, {run}: digest {got:#018x}");
        }
    }
}

/// The back step of `cfg`'s c-active wave adjoint as the seismic sweep
/// compiles it under `tuned` (accumulate mode), with a workspace for it.
fn back_step(cfg: &SeismicConfig, tuned: &TunedConfig) -> (Schedule, Workspace, Binding) {
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .unwrap();
    let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
    let mut ws = Workspace::new();
    for name in ["c", "u", "u_1", "u_2", "u_b", "u_1_b", "u_2_b", "c_b"] {
        ws.insert(name, Grid::zeros(&[cfg.n; 3]));
    }
    let opts = SchedOptions::from_tuned(tuned).with_accumulate(["u_1_b", "c_b"]);
    let back = compile_schedule(&adj, &ws, &bind, &opts).unwrap();
    (back, ws, bind)
}

/// The tiles one back step and one primal step of `cfg` run under `tuned`:
/// what each moves its lowering's tile counter by.
fn tiles_per_step(cfg: &SeismicConfig, tuned: &TunedConfig) -> (usize, usize) {
    let (back, ws, bind) = back_step(cfg, tuned);
    let opts = SchedOptions::from_tuned(tuned).with_accumulate(["u_1_b", "c_b"]);
    let primal = compile_schedule_nests(&[wave3d::nest()], &ws, &bind, false, &opts).unwrap();
    (back.tile_count(), primal.tile_count())
}

/// `[exec.tiles_jit, exec.tiles_rows, jit.degraded_fallbacks]` right now.
fn lowering_counts() -> [u64; 3] {
    [
        "exec.tiles_jit",
        "exec.tiles_rows",
        "jit.degraded_fallbacks",
    ]
    .map(|c| counter(c).get())
}

/// The primal step follows the adjoint's lowering: through the JIT tier
/// when its native module can be prepared, and onto the row executor —
/// compiled as `Rows`, never an unprepared `Jit` counted as degraded —
/// when it cannot. The bits are the same either way.
#[test]
fn primal_step_runs_native_when_prepared_and_plain_rows_when_not() {
    let _guard = suite_lock();
    if !perforad::jit::available() {
        eprintln!("skipped: no rustc toolchain available for JIT tests");
        return;
    }
    // A `d` and a pool width nothing else in this binary uses: the native
    // registry holds no module for this shape's plans, and the tuner's
    // memory cache no entry, until this test puts them there.
    let (cfg, c0, batch) = golden_shot(0.09);
    let pool = ThreadPool::new(3);
    let opts = checkpointed(Some(3), SnapshotBackend::Memory);
    assert_eq!(pin_model_config(&cfg, true, &pool), Lowering::Jit);
    let cache = std::env::temp_dir().join(format!("perforad-batch-jit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::env::set_var("PERFORAD_JIT_CACHE", &cache);
    perforad::obs::set_enabled(true);

    // Toolchain denied, nothing cached: neither kernel can be prepared.
    // The adjoint keeps its pinned `Jit` lowering and runs degraded — one
    // count per back step, its nests being one fused group; the stepper
    // adds none, and no tile anywhere runs native code.
    fault::arm("jit.rustc.spawn=fail").unwrap();
    let denied_plan = BatchPlan::new(&cfg, &c0, &opts, &pool);
    let before = lowering_counts();
    let denied = denied_plan.run(&batch);
    let after = lowering_counts();
    // The golden shot itself, toolchain denied (on whatever an earlier
    // test left registered for its shape): the same digest.
    let (golden_cfg, golden_c0, golden_batch) = golden_shot(0.1);
    let golden = BatchPlan::new(&golden_cfg, &golden_c0, &opts, &pool).run(&golden_batch);
    fault::disarm();
    assert_eq!(after[0], before[0], "nothing prepared, nothing native");
    assert!(after[1] > before[1]);
    assert_eq!(
        after[2] - before[2],
        cfg.steps as u64,
        "degraded runs: the adjoint's back steps and nothing else"
    );
    let got = digest(golden.misfits[0], &golden.gradients[0]);
    assert_eq!(got, GOLDEN_SHOT_DIGEST, "toolchain denied: {got:#018x}");

    // Toolchain back: a new plan builds two artifacts — adjoint and
    // primal, each under its own plan fingerprint — and a warm shot runs
    // every tile native, each counted once: none on rows, none degraded.
    let plan = BatchPlan::new(&cfg, &c0, &opts, &pool);
    assert_eq!(plan.tuned().lowering, Lowering::Jit);
    let native = plan.run(&batch);
    let before = lowering_counts();
    let warm = plan.run(&batch);
    let after = lowering_counts();
    perforad::obs::set_enabled(false);
    std::env::remove_var("PERFORAD_JIT_CACHE");
    let report = warm.reports[0].as_ref().expect("checkpointed shot reports");
    let (back_tiles, primal_tiles) = tiles_per_step(&cfg, plan.tuned());
    let primal_steps = report.steps + report.recomputed_steps;
    assert_eq!(
        after[0] - before[0],
        (back_tiles * report.steps + primal_tiles * primal_steps) as u64,
        "{back_tiles} tiles × {} back steps + {primal_tiles} × {primal_steps} primal steps",
        report.steps
    );
    assert_eq!(
        after[1] - before[1],
        0,
        "the primal is off the row executor"
    );
    assert_eq!(after[2], before[2]);
    let artifacts = std::fs::read_dir(&cache)
        .expect("artifact directory")
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "so"))
        .count();
    assert_eq!(artifacts, 2, "one artifact per kernel");
    for (tag, res) in [("denied vs native", &denied), ("warm vs native", &warm)] {
        assert_bitwise(
            tag,
            (&res.misfits[0], &res.gradients[0]),
            (&native.misfits[0], &native.gradients[0]),
        );
    }
    let _ = std::fs::remove_dir_all(&cache);
}

/// Bytes the calling thread allocates in one `run` of `batch`. The plan is
/// forced shot-parallel: a batch of one then runs inline on the caller,
/// serially, so every allocation of the time loop lands on this thread.
fn run_bytes(plan: &BatchPlan<'_>, batch: &ShotBatch) -> u64 {
    let before = common::thread_alloc_bytes();
    let res = plan.run(batch);
    let bytes = common::thread_alloc_bytes() - before;
    assert_eq!(res.strategy, BatchStrategy::ShotParallel);
    bytes
}

#[test]
fn warm_store_all_run_allocates_no_trajectory_below_the_threshold_and_one_per_run_at_it() {
    let _guard = suite_lock();
    let n = 20usize;
    let grid_bytes = (8 * n * n * n) as u64;
    let c0 = velocity(n);
    let pool = ThreadPool::new(1);
    let opts = BatchOptions {
        strategy: Some(BatchStrategy::ShotParallel),
        ..store_all()
    };
    // Both kernels are bound once, when the shot state is built — slot
    // tables, native entries and tile scratch (the rows lane file too) —
    // so a time step allocates nothing, on the JIT (the model's pick
    // wherever a toolchain is found; a store-all tuning is keyed by shape,
    // not step count) and on the row executor alike.
    let shape = SeismicConfig {
        n,
        steps: 0,
        d: 0.1,
    };
    pin_model_config(&shape, false, &pool);
    let mut warm = Vec::new();
    for steps in [6usize, 7, CKPT_THRESHOLD_STEPS] {
        let cfg = SeismicConfig { n, steps, d: 0.1 };
        let plan = BatchPlan::new(&cfg, &c0, &opts, &pool);
        let batch = make_batch(&cfg, &c0, 1);
        let cold = run_bytes(&plan, &batch);
        let second = run_bytes(&plan, &batch);
        assert_eq!(second, run_bytes(&plan, &batch), "every warm run alike");
        let grids = second as f64 / grid_bytes as f64;
        if steps < CKPT_THRESHOLD_STEPS {
            // The first run clones the prototype shot state (two workspaces
            // owning 2 + 5 grids — their read-only `u_1`, `u_2` are shared —
            // and two schedules) and allocates the grids its steps write
            // (`u_0` is the shared zero), which the shot state's pool then
            // keeps; the second finds both warm.
            assert!(
                cold >= second + (steps as u64 + 7) * grid_bytes,
                "{steps} steps: cold run {cold} B, warm run {second} B"
            );
            // What a warm run allocates: the rolling window and the
            // gradient (4 grids), and nothing per step.
            assert!(
                second < 5 * grid_bytes,
                "{steps} steps: warm run allocates {second} B = {grids:.2} grids"
            );
            warm.push(second);
        } else {
            // Forced store-all at the threshold: the grids the steps write
            // (one per step; `u_0` is the shared zero) are this run's own,
            // beside the window and gradient.
            assert!(cold >= second + 7 * grid_bytes);
            let written = steps as u64 * grid_bytes;
            assert!(
                (written + 4 * grid_bytes..written + 7 * grid_bytes).contains(&second),
                "{steps} steps: warm run allocates {second} B = {grids:.2} grids"
            );
        }
    }
    // One more time step costs nothing at all.
    let per_step = warm[1] - warm[0];
    assert_eq!(per_step, 0, "one extra step allocates {per_step} B");
}

#[test]
fn warm_checkpointed_run_allocates_its_slots_once_not_a_state_per_load() {
    let _guard = suite_lock();
    let (n, steps, budget) = (20usize, 64usize, 8usize);
    let grid_bytes = (8 * n * n * n) as u64;
    let pool = ThreadPool::new(1);
    let cfg = SeismicConfig { n, steps, d: 0.1 };
    pin_model_config(&cfg, true, &pool);
    let opts = BatchOptions {
        strategy: Some(BatchStrategy::ShotParallel),
        ..checkpointed(Some(budget), SnapshotBackend::Memory)
    };
    let c0 = velocity(n);
    let plan = BatchPlan::new(&cfg, &c0, &opts, &pool);
    let batch = make_batch(&cfg, &c0, 1);
    run_bytes(&plan, &batch);
    let warm = run_bytes(&plan, &batch);
    assert_eq!(warm, run_bytes(&plan, &batch), "every warm run alike");
    // The grids the pool hands out — the pairs the live snapshots pin,
    // fewer where one shares a grid with the cursor or a neighbour, the
    // cursor's pair and the grid a step writes: 17 here — and the rolling
    // window and gradient (4), each with a few hundred bytes of grid
    // bookkeeping; a state copied per save or per load would add a grid
    // pair each. Nothing per primal step (recomputed ones included) or per
    // back step: the kernels are bound once, scratch and all.
    assert!(
        warm < (2 * budget as u64 + 6) * grid_bytes,
        "warm checkpointed run allocates {warm} B = {:.2} grids",
        warm as f64 / grid_bytes as f64
    );
}

/// A warm checkpointed gradient on the memory store copies no grid: a
/// snapshot holds the cursor's grids, a load or a take hands them back, and
/// a step writes only into a grid nothing else holds. `exec.grid_copy_bytes`
/// counts every grid clone and copy (this test makes one, to show it does),
/// and stays put over whole warm runs at every budget — which still equal
/// store-all bit for bit.
#[test]
fn a_warm_memory_store_gradient_copies_no_grid_and_equals_store_all() {
    let _guard = suite_lock();
    let cfg = SeismicConfig {
        n: 8,
        steps: 12,
        d: 0.1,
    };
    let c0 = velocity(cfg.n);
    let batch = make_batch(&cfg, &c0, 1);
    let pool = ThreadPool::new(1);
    let want = sequential(&cfg, &c0, &batch, &store_all());
    let copied = counter("exec.grid_copy_bytes");
    let saves = counter("ckpt.saves");
    perforad::obs::set_enabled(true);
    let before = copied.get();
    let _ = c0.clone();
    assert_eq!(copied.get() - before, 8 * 8 * 8 * 8, "a clone is counted");
    for budget in [1usize, 2, 3, 7, cfg.steps] {
        let plan = BatchPlan::new(
            &cfg,
            &c0,
            &checkpointed(Some(budget), SnapshotBackend::Memory),
            &pool,
        );
        plan.run(&batch);
        let (before, saved) = (copied.get(), saves.get());
        let res = plan.run(&batch);
        let tag = format!("budget {budget}, warm");
        assert_eq!(copied.get() - before, 0, "{tag}: grid bytes copied");
        assert!(saves.get() > saved, "{tag}: the run saved snapshots");
        assert_eq!(res.reports[0].as_ref().unwrap().store, "memory");
        assert_bitwise(
            &tag,
            (&res.misfits[0], &res.gradients[0]),
            (&want[0].0, &want[0].1),
        );
    }
    perforad::obs::set_enabled(false);
}

/// The names starting `pf_` in an artifact's string tables. The artifact
/// is stripped, so what is left is what it exports.
fn exported_entries(so: &std::path::Path) -> Vec<String> {
    let bytes = std::fs::read(so).expect("artifact bytes");
    let names = bytes
        .split(|&b| b == 0)
        .filter_map(|s| std::str::from_utf8(s).ok())
        .filter(|s| {
            let name = s.strip_prefix("pf_").unwrap_or("");
            !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        });
    let names: std::collections::BTreeSet<&str> = names.collect();
    names.into_iter().map(str::to_string).collect()
}

/// A warm back step of the c-active wave adjoint at n = 16, compiled as
/// the seismic sweep compiles it (model-pinned, accumulate mode): its 53
/// nests are one hull tile — the per-nest tiling ran 53 tiles — so a step
/// makes one native call, and the group's artifact exports exactly that
/// one entry.
#[test]
fn a_warm_back_step_is_one_tile_and_one_native_call() {
    let _guard = suite_lock();
    if !perforad::jit::available() {
        eprintln!("skipped: no rustc toolchain available for JIT tests");
        return;
    }
    // A `d` nothing else in this binary uses: the back step's module is
    // built here, into this test's cache.
    let cfg = SeismicConfig {
        n: 16,
        steps: 8,
        d: 0.07,
    };
    let pool = ThreadPool::new(2);
    assert_eq!(pin_model_config(&cfg, true, &pool), Lowering::Jit);
    let cache = std::env::temp_dir().join(format!("perforad-batch-entry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::env::set_var("PERFORAD_JIT_CACHE", &cache);
    let opts = checkpointed(Some(3), SnapshotBackend::Memory);
    let plan = BatchPlan::new(&cfg, &velocity(cfg.n), &opts, &pool);
    std::env::remove_var("PERFORAD_JIT_CACHE");
    let tuned = plan.tuned();
    assert_eq!(tuned.lowering, Lowering::Jit);

    let (back, mut ws, _) = back_step(&cfg, tuned);
    assert_eq!((back.source.len(), back.group_count()), (53, 1));
    assert_eq!(back.tile_count(), 1, "one hull tile: {}", back.describe());
    run_tuned(&back, tuned, &mut ws, &pool).unwrap();
    perforad::obs::set_enabled(true);
    let before = lowering_counts();
    run_tuned(&back, tuned, &mut ws, &pool).unwrap();
    let after = lowering_counts();
    perforad::obs::set_enabled(false);
    assert_eq!(after[0] - before[0], 1, "one tile, one native call");
    assert_eq!((after[1], after[2]), (before[1], before[2]));

    let name = format!("_{:016x}.so", back.groups[0].plan.fingerprint());
    let so = std::fs::read_dir(&cache)
        .expect("artifact directory")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.to_string_lossy().ends_with(&name))
        .expect("the accumulate group's artifact");
    assert_eq!(exported_entries(&so), ["pf_g"]);
    let lib = perforad::jit::loader::Library::open(&so).unwrap();
    assert!(lib.sym("pf_g").is_ok() && lib.sym("pf_n0").is_err());
    let _ = std::fs::remove_dir_all(&cache);
}
