//! Wall-clock micro-timing shared by the tuner's empirical stage and
//! `examples/figures.rs`, so tuner and figures report times measured the
//! same way.

use std::time::Instant;

/// Best of `reps` invocations (at least one; the paper times single steps
/// of large grids).
pub fn time_best(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::MAX, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_best_takes_the_minimum() {
        let mut calls = 0u32;
        let t = time_best(3, || {
            calls += 1;
            std::hint::black_box((0..100).sum::<u64>());
        });
        assert_eq!(calls, 3);
        assert!((0.0..1.0).contains(&t));
        // Zero reps still runs once.
        let t0 = time_best(0, || {});
        assert!(t0 >= 0.0);
    }
}
