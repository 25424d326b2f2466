//! Property-based tests: for randomly generated stencils, the gather
//! adjoint agrees with the scatter adjoint and satisfies the dot-product
//! identity. This exercises the full pipeline (symbolic diff → shift →
//! region decomposition → plan compilation → execution) on shapes far
//! beyond the paper's test cases.
//!
//! Randomness comes from a small deterministic xorshift generator (the
//! workspace builds offline without proptest); every failure therefore
//! reproduces exactly.

use perforad::prelude::*;

mod common;
use common::Rng;

/// Build a random linear 1-D stencil `r[i] = Σ_k a_k u[i+o_k]` plus an
/// optional passive coefficient array.
fn stencil_1d(offsets: &[i64], coeffs: &[i64], with_c: bool) -> LoopNest {
    let i = Symbol::new("i");
    let n = Symbol::new("n");
    let u = Array::new("u");
    let c = Array::new("c");
    let mut terms = Vec::new();
    for (&o, &a) in offsets.iter().zip(coeffs) {
        let mut t = Expr::int(a) * u.at(vec![&i + o]);
        if with_c {
            t = t * c.at(ix![&i]);
        }
        terms.push(t);
    }
    // Bounds keep every read in range, including the zero-offset reads of
    // `c` and the write of `r`.
    let max_o = (*offsets.iter().max().unwrap()).max(0);
    let min_o = (*offsets.iter().min().unwrap()).min(0);
    make_loop_nest(
        &Array::new("r").at(ix![&i]),
        Expr::add_all(terms),
        vec![i.clone()],
        vec![(Idx::constant(-min_o), Idx::sym(n) - 1 - max_o)],
    )
    .expect("generated stencil is valid")
}

fn run_1d(nest: &LoopNest, n: usize, scatter: bool, u_vals: &[f64], seed: &[f64]) -> Vec<f64> {
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let mut ws = Workspace::new()
        .with("u", Grid::from_vec(&[n], u_vals.to_vec()))
        .with("c", Grid::from_fn(&[n], |ix| 1.0 + (ix[0] % 3) as f64))
        .with("r", Grid::zeros(&[n]))
        .with("u_b", Grid::zeros(&[n]))
        .with("r_b", Grid::from_vec(&[n], seed.to_vec()));
    let bind = Binding::new().size("n", n as i64);
    if scatter {
        let sc = nest.scatter_adjoint(&act).unwrap();
        let plan = compile_nest(&sc, &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
    } else {
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
        let pool = ThreadPool::new(3);
        run(&plan, &mut ws, ExecMode::parallel(&pool)).unwrap();
    }
    ws.grid("u_b").as_slice().to_vec()
}

/// Gather adjoint == scatter adjoint for random 1-D stencils.
/// Integer data keeps f64 arithmetic exact, so equality is bitwise.
#[test]
fn gather_equals_scatter_random_1d() {
    let mut rng = Rng::new(0x5EED_0001);
    for case in 0..48 {
        let offsets = rng.offset_set(-3, 3, 5);
        let coeffs = rng.coeffs(-4, 4, offsets.len());
        let n = rng.range_usize(16, 39);
        let seed_pattern = rng.range_i64(1, 999) as u64;
        let nest = stencil_1d(&offsets, &coeffs, true);

        let u_vals: Vec<f64> = (0..n)
            .map(|k| ((k as u64 * 37 + 11) % 13) as f64 - 6.0)
            .collect();
        let seed: Vec<f64> = (0..n)
            .map(|k| ((k as u64 * seed_pattern) % 9) as f64 - 4.0)
            .collect();

        let gather = run_1d(&nest, n, false, &u_vals, &seed);
        let scatter = run_1d(&nest, n, true, &u_vals, &seed);
        assert_eq!(
            gather, scatter,
            "case {case}: offsets {offsets:?} coeffs {coeffs:?} n {n}"
        );
    }
}

/// Dot-product identity for random linear stencils:
/// ⟨J v, w⟩ = ⟨v, Jᵀ w⟩ exactly (integer data).
#[test]
fn dot_identity_random_1d() {
    let mut rng = Rng::new(0x5EED_0002);
    for case in 0..48 {
        let offsets = rng.offset_set(-2, 2, 4);
        let coeffs = rng.coeffs(-3, 3, offsets.len());
        let n = rng.range_usize(12, 31);
        let nest = stencil_1d(&offsets, &coeffs, false);
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let bind = Binding::new().size("n", n as i64);

        let v: Vec<f64> = (0..n).map(|k| ((k * 7 + 3) % 5) as f64 - 2.0).collect();
        let w: Vec<f64> = (0..n).map(|k| ((k * 11 + 1) % 7) as f64 - 3.0).collect();

        // J v
        let mut ws = Workspace::new()
            .with("u", Grid::from_vec(&[n], v.clone()))
            .with("r", Grid::zeros(&[n]))
            .with("u_b", Grid::zeros(&[n]))
            .with("r_b", Grid::from_vec(&[n], w.clone()));
        let plan = compile_nest(&nest, &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
        let lhs = ws.grid("r").dot(&Grid::from_vec(&[n], w.clone()));

        // J^T w
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let aplan = compile_adjoint(&adj, &ws, &bind).unwrap();
        run(&aplan, &mut ws, ExecMode::serial()).unwrap();
        let rhs = ws.grid("u_b").dot(&Grid::from_vec(&[n], v.clone()));

        assert_eq!(
            lhs, rhs,
            "case {case}: offsets {offsets:?} coeffs {coeffs:?} n {n}"
        );
    }
}

/// All three boundary strategies agree on random stencils.
#[test]
fn strategies_agree_random_1d() {
    let mut rng = Rng::new(0x5EED_0003);
    for case in 0..48 {
        let offsets = {
            let mut o = rng.offset_set(-2, 2, 4);
            while o.len() < 2 {
                o = rng.offset_set(-2, 2, 4);
            }
            o
        };
        let coeffs = rng.coeffs(-3, 3, offsets.len());
        let n = rng.range_usize(16, 31);
        let nest = stencil_1d(&offsets, &coeffs, false);
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let bind = Binding::new().size("n", n as i64);

        let u_vals: Vec<f64> = (0..n).map(|k| ((k * 5 + 2) % 11) as f64 - 5.0).collect();
        // Padded correctness needs the seed zero outside the primal output
        // range, which the construction below arranges.
        let max_o = (*offsets.iter().max().unwrap()).max(0);
        let min_o = (*offsets.iter().min().unwrap()).min(0);
        let lo = (-min_o) as usize;
        let hi = (n as i64 - 1 - max_o) as usize;
        let seed: Vec<f64> = (0..n)
            .map(|k| {
                if k >= lo && k <= hi {
                    ((k * 3) % 5) as f64 - 2.0
                } else {
                    0.0
                }
            })
            .collect();

        let mut results = Vec::new();
        for strategy in [
            BoundaryStrategy::Disjoint,
            BoundaryStrategy::Guarded,
            BoundaryStrategy::Padded,
        ] {
            let mut ws = Workspace::new()
                .with("u", Grid::from_vec(&[n], u_vals.clone()))
                .with("r", Grid::zeros(&[n]))
                .with("u_b", Grid::zeros(&[n]))
                .with("r_b", Grid::from_vec(&[n], seed.clone()));
            let adj = nest
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
            run(&plan, &mut ws, ExecMode::serial()).unwrap();
            results.push(ws.grid("u_b").as_slice().to_vec());
        }
        assert_eq!(&results[0], &results[1], "case {case}: disjoint vs guarded");
        assert_eq!(&results[0], &results[2], "case {case}: disjoint vs padded");
    }
}
