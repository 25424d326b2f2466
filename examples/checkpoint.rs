//! Memory-budgeted checkpointed adjoints: the `perforad-ckpt` subsystem.
//!
//! Prints the memory/recompute trade-off a `CheckpointPlan` offers at
//! paper scale (the table in README's "Checkpointed adjoints" section),
//! then runs a bounded-memory seismic gradient and shows it is
//! bitwise-identical to the dense store-all reference.
//!
//! Run with: `cargo run --release --example checkpoint`

use perforad::exec::Grid;
use perforad::pde::seismic::{
    forward, ricker, BatchOptions, BatchPlan, SeismicConfig, ShotBatch, SnapshotBackend,
};
use perforad::perfmodel::{broadwell, predict_checkpoint};
use perforad::prelude::*;

fn main() {
    // ── The trade-off table ────────────────────────────────────────────
    // A 1000-step reverse sweep over a 512³ wave state: each snapshot is
    // (u_{t-1}, u_t) = 2 GiB, so the dense trajectory (≈2 TiB) is out of
    // the question even on the paper's 128 GiB Broadwell node. The plan
    // turns a snapshot budget into an exact recompute ratio; the machine
    // model prices the whole loop (per-step costs from its wave roofline
    // estimates: ~4.1 s primal, ~8 s adjoint at 1000³-grade arithmetic,
    // scaled to 512³).
    let m = broadwell();
    let steps = 1000;
    let state_bytes: usize = 2 * 8 * 512 * 512 * 512; // (u_{t-1}, u_t), f64
    let (primal_s, adjoint_s) = (0.5, 1.1);
    println!(
        "checkpointed 1000-step wave adjoint, 512³ grid, 2 GiB/snapshot ({}):",
        m.name
    );
    // The two-level column is the plan a seismic shot runs: a state holds
    // two time levels and a back step reads one, so each state the sweep
    // reaches reverses two steps.
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "budget", "memory", "recompute", "two-level", "predicted"
    );
    for budget in [1usize, 4, 8, 16, 32, 64, steps] {
        let plan = CheckpointPlan::with_budget(steps, budget);
        let two_level = CheckpointPlan::two_level(steps, budget).recompute_ratio();
        let shape = plan.shape(state_bytes);
        let total = predict_checkpoint(&m, primal_s, adjoint_s, &shape);
        let mem_gib = plan.mem_bytes(state_bytes) as f64 / (1u64 << 30) as f64;
        let total = if total.is_finite() {
            format!("{total:>9.0} s")
        } else {
            "infeasible".to_string()
        };
        println!(
            "{budget:>8} {mem_gib:>8.0} GiB {:>11.2}x {two_level:>11.2}x {:>12}",
            shape.recompute_ratio, total
        );
    }

    // ── Bounded-memory seismic gradient, bit-for-bit ───────────────────
    let cfg = SeismicConfig {
        n: 12,
        steps: 24,
        d: 0.1,
    };
    let src = ricker(cfg.steps);
    let c0 = Grid::from_fn(&[cfg.n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
    let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();

    let mut shot = ShotBatch::new();
    shot.push(src, data);
    let run = |opts: BatchOptions| BatchPlan::new(&cfg, &c0, &opts, default_pool()).run(&shot);
    let dense = run(BatchOptions {
        checkpointed: Some(false),
        ..BatchOptions::default()
    });
    let ckpt = run(BatchOptions {
        checkpointed: Some(true),
        budget: Some(4),
        backend: SnapshotBackend::Memory,
        ..BatchOptions::default()
    });
    let report = ckpt.reports[0].as_ref().expect("checkpointed shot reports");
    let identical = ckpt.misfits[0].to_bits() == dense.misfits[0].to_bits()
        && ckpt.gradients[0]
            .as_slice()
            .iter()
            .zip(dense.gradients[0].as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    println!();
    println!(
        "seismic gradient, {} steps at {}³: budget {} / {} snapshots peak, \
         {} recomputed steps (ratio {:.2}), store: {}",
        cfg.steps,
        cfg.n,
        report.budget,
        report.peak_snapshots,
        report.recomputed_steps,
        report.recompute_ratio(),
        report.store,
    );
    println!("bitwise-identical to store-all: {identical}");
    assert!(identical, "checkpointing must not change a single bit");
}
