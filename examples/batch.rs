//! Batched multi-shot inversion: a small survey fires several shots
//! (distinct source wavelets) against one velocity model, and every
//! gradient-descent iteration evaluates all per-shot misfits and
//! gradients with ONE `BatchPlan::run` call — the adjoint transform,
//! autotuned schedule, and compiled stepper are built once for the whole
//! inversion (`BatchPlan::set_model` swaps the velocity model between
//! iterations) and shared across shots, with the perf model choosing how
//! shots spread over the pool. Results are bitwise-identical to running
//! each shot on its own.
//!
//! Run with: `cargo run --release --example batch`

use perforad::exec::{Grid, ThreadPool};
use perforad::pde::seismic::{
    forward, misfit, ricker, BatchOptions, BatchPlan, SeismicConfig, ShotBatch,
};
use std::time::Instant;

fn main() {
    let cfg = SeismicConfig {
        n: 10,
        steps: 12,
        d: 0.1,
    };
    let shots = 4usize;
    let base = ricker(cfg.steps);

    // True model: +5% velocity everywhere. Each shot fires a differently
    // scaled wavelet and records synthetic data at final time.
    let c0 = Grid::from_fn(&[cfg.n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
    let mut batch = ShotBatch::new();
    for k in 0..shots {
        let source: Vec<f64> = base.iter().map(|s| s * (1.0 + 0.3 * k as f64)).collect();
        let observed = forward(&cfg, &c_true, &source)[cfg.steps].clone();
        batch.push(source, observed);
    }

    let pool = ThreadPool::new(2);

    // First evaluation (compile + tune + run): per-shot misfits + the
    // summed survey gradient.
    let t0 = Instant::now();
    let mut plan = BatchPlan::new(&cfg, &c0, &BatchOptions::default(), &pool);
    let res = plan.run(&batch);
    let dt = t0.elapsed();
    for (k, j) in res.misfits.iter().enumerate() {
        println!("shot {k}: J = {j:.6e}");
    }
    println!(
        "batch of {shots}: {:.1} shots/s (strategy {:?})",
        shots as f64 / dt.as_secs_f64(),
        res.strategy
    );

    // Gradient descent on the summed objective, with backtracking: halve
    // the step until the full-survey misfit decreases.
    let mut c = c0;
    let mut j_total = res.total_misfit();
    let mut grad = res.summed_gradient().expect("non-empty batch");
    println!("iter 0: total J = {j_total:.6e}");
    for iter in 1..=3 {
        let mut alpha = 0.5 * j_total / grad.norm2().powi(2);
        let mut improved = None;
        for _ in 0..20 {
            let c_try = Grid::from_fn(&[cfg.n; 3], |ix| c.get(ix) - alpha * grad.get(ix));
            let j_try: f64 = (0..shots)
                .map(|k| {
                    misfit(
                        &forward(&cfg, &c_try, &batch.sources[k])[cfg.steps],
                        &batch.observed[k],
                    )
                })
                .sum();
            if j_try < j_total {
                improved = Some((c_try, j_try));
                break;
            }
            alpha *= 0.5;
        }
        let Some((c_next, j_next)) = improved else {
            println!("iter {iter}: line search stalled");
            break;
        };
        c = c_next;
        j_total = j_next;
        plan.set_model(&c);
        grad = plan.run(&batch).summed_gradient().expect("non-empty batch");
        println!("iter {iter}: total J = {j_total:.6e}");
    }
}
