//! Seismic-imaging gradient: the application motivating the paper's wave
//! test case. Injects a Ricker wavelet into the 3-D wave equation, measures
//! a misfit against synthetic data from a perturbed velocity model, and
//! computes `∂J/∂c` with the PerforAD gather adjoint run backwards in time.
//!
//! Run with: `cargo run --release --example wave_seismic`

use perforad::exec::{default_pool, Grid};
use perforad::pde::{forward, misfit, ricker, BatchOptions, BatchPlan, SeismicConfig, ShotBatch};

fn main() {
    let cfg = SeismicConfig {
        n: 24,
        steps: 12,
        d: 0.1,
    };
    let src = ricker(cfg.steps);

    // True model: +5% velocity everywhere; observed data at final time.
    let c0 = Grid::from_fn(&[cfg.n; 3], |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
    let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();

    // One shot is a batch of one.
    let mut shot = ShotBatch::new();
    shot.push(src.clone(), data.clone());
    let res = BatchPlan::new(&cfg, &c0, &BatchOptions::default(), default_pool()).run(&shot);
    let (j0, grad) = (res.misfits[0], &res.gradients[0]);
    println!("misfit J(c0)        = {j0:.6e}");
    println!("|dJ/dc|             = {:.6e}", grad.norm2());

    // One steepest-descent step reduces the misfit.
    let step = 0.5 * j0 / grad.norm2().powi(2);
    let c1 = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) - step * grad.get(ix));
    let j1 = misfit(&forward(&cfg, &c1, &src)[cfg.steps], &data);
    println!("after one GD step J = {j1:.6e}  (reduced: {})", j1 < j0);
}
