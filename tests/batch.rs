//! Batched multi-shot gradients, property-tested against the sequential
//! path: for every shot count × pool width × dispatch strategy × sweep
//! kind, one [`BatchPlan::run`] over N shots must return **bitwise** the
//! misfits and gradients of N one-shot runs (each on its own freshly
//! built plan) and of the store-all reference — batching amortizes setup
//! and moves shots between workers, it never changes arithmetic.

mod common;

use common::{checkpointed, one_shot, store_all};
use perforad::exec::{Grid, ThreadPool};
use perforad::pde::seismic::{
    forward, ricker, BatchOptions, BatchPlan, SeismicConfig, ShotBatch, SnapshotBackend,
};
use perforad::pde::BatchStrategy;

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
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
        d: 0.1,
    };
    let budget = 3usize;
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
    let cfg = SeismicConfig {
        n: 8,
        steps: 6,
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

    for (k, (j, g)) in sequential(&cfg, &c0, &batch, &disk).iter().enumerate() {
        assert_bitwise(
            &format!("disk shot {k}"),
            (&res.misfits[k], &res.gradients[k]),
            (j, g),
        );
        assert_eq!(res.reports[k].as_ref().unwrap().store, "disk");
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
