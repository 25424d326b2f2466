//! Deeper property coverage: random 2-D stencils, random *nonlinear
//! piecewise* bodies checked against the independent tape-AD reference, and
//! multi-output loop nests.
//!
//! Randomness comes from a small deterministic xorshift generator (the
//! workspace builds offline without proptest); every failure therefore
//! reproduces exactly.

use perforad::autodiff::tape_adjoint;
use perforad::prelude::*;

mod common;
use common::Rng;
use perforad::symbolic::MapCtx;
use std::collections::BTreeMap;

/// Random linear 2-D stencil `r[i][j] = Σ_k a_k u[i+oi_k][j+oj_k]`.
fn stencil_2d(offsets: &[(i64, i64)], coeffs: &[i64]) -> LoopNest {
    let (i, j) = (Symbol::new("i"), Symbol::new("j"));
    let n = Symbol::new("n");
    let u = Array::new("u");
    let terms: Vec<Expr> = offsets
        .iter()
        .zip(coeffs)
        .map(|(&(oi, oj), &a)| Expr::int(a) * u.at(vec![&i + oi, &j + oj]))
        .collect();
    let max_i = offsets.iter().map(|o| o.0).max().unwrap().max(0);
    let min_i = offsets.iter().map(|o| o.0).min().unwrap().min(0);
    let max_j = offsets.iter().map(|o| o.1).max().unwrap().max(0);
    let min_j = offsets.iter().map(|o| o.1).min().unwrap().min(0);
    make_loop_nest(
        &Array::new("r").at(ix![&i, &j]),
        Expr::add_all(terms),
        vec![i.clone(), j.clone()],
        vec![
            (Idx::constant(-min_i), Idx::sym(n.clone()) - 1 - max_i),
            (Idx::constant(-min_j), Idx::sym(n) - 1 - max_j),
        ],
    )
    .expect("generated 2-D stencil is valid")
}

/// 2-D: gather adjoint == scatter adjoint, exactly, in parallel.
#[test]
fn gather_equals_scatter_random_2d() {
    let mut rng = Rng::new(0x5EED_2001);
    for case in 0..24 {
        // A set of 1..=6 distinct 2-D offsets and matching coefficients.
        let len = rng.range_usize(1, 6);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < len {
            set.insert((rng.range_i64(-2, 2), rng.range_i64(-2, 2)));
        }
        let offsets: Vec<(i64, i64)> = set.into_iter().collect();
        let coeffs: Vec<i64> = loop {
            let v: Vec<i64> = (0..offsets.len()).map(|_| rng.range_i64(-3, 3)).collect();
            if v.iter().any(|&c| c != 0) {
                break v;
            }
        };
        let n = rng.range_usize(12, 23);
        let nest = stencil_2d(&offsets, &coeffs);
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let bind = Binding::new().size("n", n as i64);
        let build = || {
            Workspace::new()
                .with(
                    "u",
                    Grid::from_fn(&[n, n], |ix| ((ix[0] * 5 + ix[1] * 3) % 11) as f64 - 5.0),
                )
                .with("r", Grid::zeros(&[n, n]))
                .with("u_b", Grid::zeros(&[n, n]))
                .with(
                    "r_b",
                    Grid::from_fn(&[n, n], |ix| ((ix[0] + 7 * ix[1]) % 9) as f64 - 4.0),
                )
        };

        let mut ws_g = build();
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let plan = compile_adjoint(&adj, &ws_g, &bind).unwrap();
        let pool = ThreadPool::new(3);
        run(&plan, &mut ws_g, ExecMode::parallel(&pool)).unwrap();

        let mut ws_s = build();
        let sc = nest.scatter_adjoint(&act).unwrap();
        let plan_s = compile_nest(&sc, &ws_s, &bind).unwrap();
        run(&plan_s, &mut ws_s, ExecMode::serial()).unwrap();

        assert_eq!(
            ws_g.grid("u_b").max_abs_diff(ws_s.grid("u_b")),
            0.0,
            "case {case}: offsets {offsets:?} coeffs {coeffs:?} n {n}"
        );
    }
}

/// Nonlinear piecewise random bodies: gather adjoint vs independent tape
/// reference.
#[test]
fn nonlinear_piecewise_matches_tape() {
    let mut rng = Rng::new(0x5EED_2002);
    for case in 0..24 {
        let o1 = rng.range_i64(-2, 2);
        let o2 = rng.range_i64(-2, 2);
        let a = loop {
            let a = rng.range_i64(-3, 3);
            if a != 0 {
                break a;
            }
        };
        let b = rng.range_i64(1, 3);
        let n = rng.range_usize(12, 23);

        let i = Symbol::new("i");
        let nsym = Symbol::new("n");
        let u = Array::new("u");
        // r[i] = a*max(u[i+o1], 0)*u[i+o2] + b*u[i]^2
        let body = Expr::int(a) * u.at(vec![&i + o1]).max(Expr::zero()) * u.at(vec![&i + o2])
            + Expr::int(b) * u.at(ix![&i]).powi(2);
        let max_o = o1.max(o2).max(0);
        let min_o = o1.min(o2).min(0);
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i]),
            body,
            vec![i.clone()],
            vec![(Idx::constant(-min_o), Idx::sym(nsym) - 1 - max_o)],
        )
        .unwrap();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let bind = Binding::new().size("n", n as i64);

        let u_vals: Vec<f64> = (0..n)
            .map(|k| ((k * 7 + 2) % 9) as f64 / 2.0 - 2.0)
            .collect();
        let seed: Vec<f64> = (0..n).map(|k| ((k * 3 + 1) % 5) as f64 - 2.0).collect();

        // Gather adjoint.
        let mut ws = Workspace::new()
            .with("u", Grid::from_vec(&[n], u_vals.clone()))
            .with("r", Grid::zeros(&[n]))
            .with("u_b", Grid::zeros(&[n]))
            .with("r_b", Grid::from_vec(&[n], seed.clone()));
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let plan = perforad::exec::compile_adjoint(&adj, &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();

        // Tape reference.
        let store = MapCtx::new()
            .index("n", n as i64)
            .array1("u", u_vals)
            .array1("r", vec![0.0; n]);
        let mut seeds = BTreeMap::new();
        seeds.insert(Symbol::new("r"), seed);
        let reference = tape_adjoint(&nest, &act, &store, &seeds).unwrap();
        let expect = &reference[&Symbol::new("u_b")];
        for (k, (x, y)) in ws.grid("u_b").as_slice().iter().zip(expect).enumerate() {
            assert!(
                (x - y).abs() < 1e-12,
                "case {case} index {k}: {x} vs {y} (o1 {o1} o2 {o2} a {a} b {b} n {n})"
            );
        }
    }
}

/// Multi-output nests: two statements writing different arrays in one body
/// differentiate jointly (their terms share the region decomposition).
#[test]
fn multi_output_nest_adjoint() {
    let i = Symbol::new("i");
    let n = Symbol::new("n");
    let u = Array::new("u");
    let nest = LoopNest::new(
        vec![i.clone()],
        vec![perforad::core::Bound::new(1, Idx::sym(n.clone()) - 1)],
        vec![
            perforad::core::Statement::assign(
                perforad::symbolic::Access::new("p", ix![&i]),
                2.0 * u.at(ix![&i - 1]) + u.at(ix![&i]),
            ),
            perforad::core::Statement::assign(
                perforad::symbolic::Access::new("q", ix![&i]),
                u.at(ix![&i + 1]) - 3.0 * u.at(ix![&i]),
            ),
        ],
    );
    let act = ActivityMap::new()
        .with_suffixed("u")
        .with_suffixed("p")
        .with_suffixed("q");
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    assert!(adj.nests.iter().all(|n| n.is_gather()));

    // Execute and compare against the scatter adjoint.
    let nn = 32usize;
    let build = || {
        Workspace::new()
            .with("u", Grid::from_fn(&[nn + 1], |ix| (ix[0] % 7) as f64 - 3.0))
            .with("p", Grid::zeros(&[nn + 1]))
            .with("q", Grid::zeros(&[nn + 1]))
            .with("u_b", Grid::zeros(&[nn + 1]))
            .with("p_b", Grid::from_fn(&[nn + 1], |ix| (ix[0] % 3) as f64))
            .with(
                "q_b",
                Grid::from_fn(&[nn + 1], |ix| (ix[0] % 5) as f64 - 2.0),
            )
    };
    let bind = Binding::new().size("n", nn as i64);

    let mut ws_g = build();
    let plan = compile_adjoint(&adj, &ws_g, &bind).unwrap();
    run(&plan, &mut ws_g, ExecMode::serial()).unwrap();

    let mut ws_s = build();
    let sc = nest.scatter_adjoint(&act).unwrap();
    let plan_s = compile_nest(&sc, &ws_s, &bind).unwrap();
    run(&plan_s, &mut ws_s, ExecMode::serial()).unwrap();

    assert_eq!(ws_g.grid("u_b").max_abs_diff(ws_s.grid("u_b")), 0.0);
    // Interior value check: u[i] read by p (coeff 1, offset 0) and q
    // (coeff -3, offset 0); u[i-1] by p (coeff 2); u[i+1] by q (coeff 1).
    let k = nn / 2;
    let pb = |k: usize| (k % 3) as f64;
    let qb = |k: usize| (k % 5) as f64 - 2.0;
    let expect = pb(k) - 3.0 * qb(k) + 2.0 * pb(k + 1) + qb(k - 1);
    assert_eq!(ws_g.grid("u_b").get(&[k]), expect);
}
