//! Checkpoint correctness suite: the bounded-memory seismic gradient
//! must be **bitwise-identical** to the dense store-all reference across
//! random step counts, snapshot budgets (including the budget-1 and
//! budget-≥-steps extremes), and both snapshot backends — checkpointing
//! may change where states come from, never a single bit of the result.
//!
//! The `#[ignore]`d long-sweep test is the memory-cap proof: CI's `ckpt`
//! job runs it under `ulimit -v` sized so the dense trajectory cannot
//! fit, with `PERFORAD_MEM_BUDGET_BYTES` telling the tuner's machine
//! model about the cap — completing at all demonstrates the streaming
//! path, and the tuning cache then carries the chosen snapshot budget.

mod common;

use common::{checkpointed, store_all, Rng};
use perforad::ckpt::{CheckpointPlan, CkptReport};
use perforad::exec::{default_pool, Grid};
use perforad::pde::seismic::{
    forward, ricker, BatchOptions, SeismicConfig, SnapshotBackend, CKPT_THRESHOLD_STEPS,
};

fn velocity(n: usize) -> Grid {
    Grid::from_fn(&[n, n, n], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64))
}

/// One shot's inputs: config, velocity model, observed data, source.
type Case = (SeismicConfig, Grid, Grid, Vec<f64>);

/// A config plus synthetic observed data from a perturbed model.
fn setup(n: usize, steps: usize) -> Case {
    let cfg = SeismicConfig { n, steps, d: 0.1 };
    let src = ricker(steps);
    let c0 = velocity(n);
    let c_true = Grid::from_fn(&[n; 3], |ix| c0.get(ix) * 1.05);
    let data = forward(&cfg, &c_true, &src)[steps].clone();
    (cfg, c0, data, src)
}

/// One shot under `opts` on the shared pool.
fn one_shot((cfg, c0, data, src): &Case, opts: &BatchOptions) -> (f64, Grid, Option<CkptReport>) {
    common::one_shot(cfg, c0, data, src, opts, default_pool())
}

/// The checkpointed sweep: `(misfit, gradient, report)`.
fn checkpointed_shot(
    case: &Case,
    budget: Option<usize>,
    backend: SnapshotBackend,
) -> (f64, Grid, CkptReport) {
    let (j, g, report) = one_shot(case, &checkpointed(budget, backend));
    (j, g, report.expect("checkpointed shot reports"))
}

fn assert_bitwise(a: &Grid, b: &Grid, what: &str) {
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: first drift at [{i}]");
    }
}

#[test]
fn checkpointed_gradient_is_bitwise_store_all_across_random_cases() {
    let mut rng = Rng::new(0xC4C7);
    let n = 8;
    for case in 0..5 {
        let steps = rng.range_usize(1, 12);
        let shot = setup(n, steps);
        let (j_ref, g_ref, _) = one_shot(&shot, &store_all());
        // The extremes plus a random interior budget.
        let budgets = [1, rng.range_usize(2, steps + 2), steps + 3];
        for budget in budgets {
            let (j, g, report) = checkpointed_shot(&shot, Some(budget), SnapshotBackend::Memory);
            let what = format!("case {case}: steps {steps} budget {budget}");
            assert_eq!(j.to_bits(), j_ref.to_bits(), "{what}: misfit drifted");
            assert_bitwise(&g, &g_ref, &what);
            assert!(report.peak_snapshots <= budget, "{what}: {report:?}");
            if budget >= steps {
                assert_eq!(report.recomputed_steps, 0, "{what}: {report:?}");
            }
            if budget == 1 {
                assert_eq!(report.peak_snapshots, 1.min(steps), "{what}: {report:?}");
            }
        }
    }
}

#[test]
fn disk_and_memory_stores_agree_bitwise() {
    let case = setup(8, 9);
    let dir = std::env::temp_dir().join(format!("perforad_ckpt_itest_{}", std::process::id()));
    for budget in [2usize, 4] {
        let (j_mem, g_mem, rep_mem) =
            checkpointed_shot(&case, Some(budget), SnapshotBackend::Memory);
        let (j_disk, g_disk, rep_disk) =
            checkpointed_shot(&case, Some(budget), SnapshotBackend::Disk(dir.clone()));
        assert_eq!(rep_mem.store, "memory");
        assert_eq!(rep_disk.store, "disk");
        assert_eq!(j_mem.to_bits(), j_disk.to_bits());
        assert_bitwise(&g_mem, &g_disk, &format!("disk vs memory, budget {budget}"));
        // Identical plans: identical replay work either way.
        assert_eq!(rep_mem.recomputed_steps, rep_disk.recomputed_steps);
    }
    // Spill files are cleaned up with the sweep.
    let leftovers = std::fs::read_dir(&dir).map(|d| d.count()).unwrap_or(0);
    assert_eq!(leftovers, 0, "snapshot files must not outlive the sweep");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tuner_chooses_the_budget_when_none_is_forced() {
    let case = setup(8, 10);
    let cfg = case.0;
    let (j, g, report) = checkpointed_shot(&case, None, SnapshotBackend::Auto);
    // Tiny state, roomy model budget: the tuner may legitimately pick
    // store-all — what matters is that a budget was chosen, respected,
    // and the result is still exact.
    assert!(report.budget >= 1 && report.budget <= cfg.steps);
    assert!(report.peak_snapshots <= report.budget);
    let (j_ref, g_ref, _) = one_shot(&case, &store_all());
    assert_eq!(j.to_bits(), j_ref.to_bits());
    assert_bitwise(&g, &g_ref, "tuner-chosen budget");
}

#[test]
fn long_sweeps_route_through_the_checkpointed_path() {
    // Default options must dispatch: at the threshold the dense
    // trajectory is never materialized (the shot carries a checkpoint
    // report), and the result still matches the dense reference bit for
    // bit.
    let case = setup(6, CKPT_THRESHOLD_STEPS);
    let (j_auto, g_auto, report) = one_shot(&case, &BatchOptions::default());
    assert!(report.is_some(), "threshold sweeps must run checkpointed");
    let (j_ref, g_ref, _) = one_shot(&case, &store_all());
    assert_eq!(j_auto.to_bits(), j_ref.to_bits());
    assert_bitwise(&g_auto, &g_ref, "threshold dispatch");
}

/// A checkpointed shot reports the stream it ran, not a sibling plan's:
/// at 64 steps and budget 8 the two-level stream saves 25 snapshots and
/// recomputes 48 steps, where a one-level plan saves 46 and recomputes
/// 76 — and the gradient keeps every bit of store-all's.
#[test]
fn a_shot_reports_the_two_level_stream_it_ran() {
    let case = setup(6, 64);
    let (j, g, report) = checkpointed_shot(&case, Some(8), SnapshotBackend::Memory);
    let counts = |r: &CkptReport| (r.saves, r.loads, r.moves, r.recomputed_steps);
    assert_eq!(counts(&report), (25, 7, 25, 48), "{report:?}");
    assert_eq!(report.peak_snapshots, 8);
    assert_eq!(report.recompute_ratio(), 0.75);
    let stats = CheckpointPlan::two_level(64, 8).stats();
    let want = (
        stats.saves,
        stats.loads,
        stats.moves,
        stats.recomputed_steps,
    );
    assert_eq!(counts(&report), want);
    let one_level = CheckpointPlan::with_budget(64, 8).stats();
    assert_eq!((one_level.saves, one_level.recomputed_steps), (46, 76));
    let (j_ref, g_ref, _) = one_shot(&case, &store_all());
    assert_eq!(j.to_bits(), j_ref.to_bits());
    assert_bitwise(&g, &g_ref, "two-level stream at (64, 8)");
}

/// The memory-cap proof. Run by CI's `ckpt` job as
/// `cargo test --release --test checkpoint -- --ignored` under
/// `ulimit -v` (768 MiB) with `PERFORAD_MEM_BUDGET_BYTES=134217728`
/// informing the tuner's machine model and `PERFORAD_TUNE_CACHE` set so
/// the chosen budget is persisted. The dense path would need ≈1 GiB for
/// the trajectory plus ≈1 GiB for the adjoint field vector — far past
/// the cap — so completing at all proves the bounded-memory path.
#[test]
#[ignore = "long sweep for the CI memory-cap run (~1 min); needs ulimit -v to prove anything"]
fn long_sweep_completes_under_memory_cap_with_tuned_budget() {
    let cfg = SeismicConfig {
        n: 32,
        steps: 4096,
        d: 0.1,
    };
    let src = ricker(cfg.steps);
    let c0 = velocity(cfg.n);
    // Synthetic observations (any target works — the gradient's memory
    // behaviour is what is under test; a dense `forward` for "real" data
    // would itself blow the cap).
    let data = Grid::from_fn(&[cfg.n; 3], |ix| {
        1e-3 * ((ix[0] + ix[1] + ix[2]) as f64).sin()
    });

    let (j, grad, report) = checkpointed_shot(&(cfg, c0, data, src), None, SnapshotBackend::Auto);
    assert!(j.is_finite() && j > 0.0);
    assert!(grad.is_finite());
    assert!(grad.norm2() > 0.0);

    // The tuner picked a real checkpointing schedule, not store-all:
    // the model's memory budget cannot hold the trajectory.
    let grid_bytes = 8 * cfg.n * cfg.n * cfg.n;
    let dense_bytes = (cfg.steps + 1) * grid_bytes;
    assert!(
        report.budget < cfg.steps,
        "budget {} should be memory-constrained below {} steps",
        report.budget,
        cfg.steps
    );
    assert!(
        report.peak_snapshot_bytes < dense_bytes / 2,
        "peak {} must undercut the dense trajectory {}",
        report.peak_snapshot_bytes,
        dense_bytes
    );
    assert!(report.recomputed_steps > 0, "a budgeted plan recomputes");
    println!(
        "capped sweep: steps {} budget {} peak {} MiB (dense would be {} MiB), \
         recompute ratio {:.2}",
        report.steps,
        report.budget,
        report.peak_snapshot_bytes >> 20,
        dense_bytes >> 20,
        report.recompute_ratio()
    );

    // The budget choice is persisted in the tuning cache for the next
    // process (CI sets PERFORAD_TUNE_CACHE; locally this arm is a no-op).
    if let Ok(path) = std::env::var("PERFORAD_TUNE_CACHE") {
        let text = std::fs::read_to_string(&path).expect("tuning cache written");
        let persisted = text
            .split("\"checkpoint\":")
            .skip(1)
            .any(|rest| rest.trim_start().starts_with(|c: char| c.is_ascii_digit()));
        assert!(
            persisted,
            "cache at {path} must carry a numeric checkpoint budget: {text}"
        );
    }
}
