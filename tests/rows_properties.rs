//! Property tests for the one lowered form: random expression trees
//! lowered to register programs and run two ways — the per-point evaluator
//! and the row executor — must agree **bitwise** with each other and with
//! the expression oracle (`perforad::symbolic::eval` at every point, no
//! lowering at all) across random shapes, boundary strategies (guards,
//! zero padding), parallel execution, and CSE temporaries. The data are
//! non-NaN, where `-1·x` (the oracle) and a negation (the lowering) agree.
//!
//! Randomness comes from the repo's deterministic xorshift generator, so
//! every failure reproduces exactly.

use perforad::exec::{compile_adjoint_opts, compile_nests_opts, run, ExecMode, PlanOptions};
use perforad::prelude::*;
use perforad::symbolic::{Cond, Rel};

mod common;
use common::{assert_bitwise, eval_nests, Rng};

/// A random expression tree over `u[i+o]`, `c[i]`, small constants and the
/// loop counter, built from the full op vocabulary of a register program
/// (adds, muls, negs, powi, bounded transcendentals, max/min, selects).
/// Offsets stay within ±2 so bounds `[2, n-3]` keep every load in range.
fn random_expr(rng: &mut Rng, depth: usize, u: &Array, c: &Array, i: &Symbol) -> Expr {
    if depth == 0 {
        return match rng.range_i64(0, 4) {
            0 => u.at(vec![i + rng.range_i64(-2, 2)]),
            1 => c.at(ix![i]),
            2 => Expr::int(rng.range_i64(-3, 3)),
            3 => Expr::sym(i.clone()) * Expr::float(0.125),
            _ => u.at(ix![i]),
        };
    }
    let a = random_expr(rng, depth - 1, u, c, i);
    let b = random_expr(rng, depth - 1, u, c, i);
    match rng.range_i64(0, 9) {
        0 => a + b,
        1 => a * b,
        2 => -a,
        // Bounded transcendentals only: unbounded ones (exp, powi of deep
        // products) overflow to inf and make bitwise comparison
        // meaningless through NaN propagation.
        3 => a.sin(),
        4 => a.cos(),
        5 => a.tanh(),
        6 => a.max(b),
        7 => a.min(b),
        8 => Expr::select(Cond::new(a, Rel::Ge, Expr::zero()), b, Expr::float(0.5)),
        _ => a.abs(),
    }
}

fn ws_1d(n: usize, seed_pattern: u64) -> Workspace {
    Workspace::new()
        .with(
            "u",
            Grid::from_fn(&[n], |ix| ((ix[0] as f64) * 0.61).sin() * 2.0 - 0.3),
        )
        .with(
            "c",
            Grid::from_fn(&[n], |ix| {
                0.4 + ((ix[0] as u64 * seed_pattern) % 7) as f64 * 0.1
            }),
        )
        .with("r", Grid::zeros(&[n]))
}

/// Random expression trees, lowered with and without CSE: the per-point
/// evaluator, the row executor and the oracle agree bitwise.
#[test]
fn random_trees_eval_bitwise_identical() {
    let mut rng = Rng::new(0x5EED_1001);
    let (u, c) = (Array::new("u"), Array::new("c"));
    let i = Symbol::new("i");
    let n_sym = Symbol::new("n");
    for case in 0..60 {
        let depth = rng.range_usize(1, 4);
        let expr = random_expr(&mut rng, depth, &u, &c, &i);
        let n = rng.range_usize(16, 47);
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i]),
            expr,
            vec![i.clone()],
            vec![(Idx::constant(2), Idx::sym(n_sym.clone()) - 3)],
        )
        .expect("generated nest is valid");
        let bind = Binding::new().size("n", n as i64);
        let mut want = ws_1d(n, 3 + case as u64);
        eval_nests(std::slice::from_ref(&nest), &mut want, &bind, false);
        for cse in [false, true] {
            let opts = PlanOptions {
                cse,
                ..PlanOptions::default()
            };
            let plan = compile_nests_opts(std::slice::from_ref(&nest), &want, &bind, opts).unwrap();
            for mode in [ExecMode::serial(), ExecMode::serial().rows()] {
                let mut ws = ws_1d(n, 3 + case as u64);
                run(&plan, &mut ws, mode).unwrap();
                let tag = format!("case {case}, n {n}, cse {cse}, {:?}: {nest}", mode.lowering);
                assert_bitwise(&tag, &ws, &want, &["r"]);
            }
        }
    }
}

/// Build a random linear 1-D stencil `r[i] = Σ_k a_k u[i+o_k] (· u[i])`
/// with optional nonlinearity so the adjoint carries products.
fn stencil_1d(offsets: &[i64], coeffs: &[i64], nonlinear: bool) -> LoopNest {
    let i = Symbol::new("i");
    let n = Symbol::new("n");
    let u = Array::new("u");
    let mut terms = Vec::new();
    for (&o, &a) in offsets.iter().zip(coeffs) {
        let mut t = Expr::int(a) * u.at(vec![&i + o]);
        if nonlinear {
            t = t * u.at(ix![&i]);
        }
        terms.push(t);
    }
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

/// Every boundary strategy (disjoint, guarded, padded) evaluates bitwise
/// identically under both lowerings, serial and parallel, with and without
/// CSE, and as the oracle — guards and padded edges are exactly where the
/// row executor splits rows into segments.
#[test]
fn adjoint_strategies_bitwise_identical_across_lowerings() {
    let mut rng = Rng::new(0x5EED_1002);
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let pool = ThreadPool::new(3);
    for case in 0..36 {
        let offsets = rng.offset_set(-3, 3, 4);
        let coeffs = rng.coeffs(-4, 4, offsets.len());
        let nonlinear = case % 3 == 0;
        let n = rng.range_usize(18, 49);
        let nest = stencil_1d(&offsets, &coeffs, nonlinear);
        let bind = Binding::new().size("n", n as i64);

        // Seed zero outside the primal output range (padded requirement).
        let max_o = (*offsets.iter().max().unwrap()).max(0);
        let min_o = (*offsets.iter().min().unwrap()).min(0);
        let (lo, hi) = ((-min_o) as usize, (n as i64 - 1 - max_o) as usize);
        let build = || {
            Workspace::new()
                .with(
                    "u",
                    Grid::from_fn(&[n], |ix| ((ix[0] * 5 + 2) % 11) as f64 - 5.0),
                )
                .with("r", Grid::zeros(&[n]))
                .with("u_b", Grid::zeros(&[n]))
                .with(
                    "r_b",
                    Grid::from_fn(&[n], |ix| {
                        if ix[0] >= lo && ix[0] <= hi {
                            ((ix[0] * 3) % 5) as f64 - 2.0
                        } else {
                            0.0
                        }
                    }),
                )
        };
        for strategy in [
            BoundaryStrategy::Disjoint,
            BoundaryStrategy::Guarded,
            BoundaryStrategy::Padded,
        ] {
            let adj = nest
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let cse = case % 2 == 1;
            let mut ws_ref = build();
            let plan = compile_adjoint_opts(&adj, &ws_ref, &bind, cse).unwrap();
            run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();
            let mut ws_oracle = build();
            eval_nests(&adj.nests, &mut ws_oracle, &bind, plan.padded());
            let tag = format!("case {case} {strategy:?} cse={cse} oracle");
            assert_bitwise(&tag, &ws_ref, &ws_oracle, &["u_b"]);

            let mut ws_rows = build();
            run(&plan, &mut ws_rows, ExecMode::serial().rows()).unwrap();
            assert_bitwise(
                &format!("case {case} {strategy:?} cse={cse} serial rows"),
                &ws_rows,
                &ws_ref,
                &["u_b"],
            );

            let mut ws_par = build();
            run(&plan, &mut ws_par, ExecMode::parallel(&pool).rows()).unwrap();
            assert_bitwise(
                &format!("case {case} {strategy:?} cse={cse} parallel rows"),
                &ws_par,
                &ws_ref,
                &["u_b"],
            );
        }
    }
}

/// 2-D random stencils: padded loads whose *outer* dimension leaves the
/// extents must zero the whole row; guarded statements must clamp both
/// dimensions. Both lowerings and the oracle agree bitwise.
#[test]
fn adjoint_2d_padded_and_guarded_bitwise_identical() {
    let mut rng = Rng::new(0x5EED_1003);
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let (i, j) = (Symbol::new("i"), Symbol::new("j"));
    let n_sym = Symbol::new("n");
    for case in 0..24 {
        let u = Array::new("u");
        let k = rng.range_usize(2, 4);
        let mut terms = Vec::new();
        let mut max_o = 0i64;
        for _ in 0..k {
            let (oi, oj) = (rng.range_i64(-2, 2), rng.range_i64(-2, 2));
            max_o = max_o.max(oi.abs()).max(oj.abs());
            let a = rng.range_i64(-3, 3);
            terms.push(Expr::int(if a == 0 { 1 } else { a }) * u.at(vec![&i + oi, &j + oj]));
        }
        let n = rng.range_usize(12, 25);
        let b = (Idx::constant(max_o), Idx::sym(n_sym.clone()) - 1 - max_o);
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i, &j]),
            Expr::add_all(terms),
            vec![i.clone(), j.clone()],
            vec![b.clone(), b],
        )
        .expect("2-D stencil is valid");
        let bind = Binding::new().size("n", n as i64);
        let lo = max_o as usize;
        let hi = n - 1 - max_o as usize;
        let build = || {
            Workspace::new()
                .with(
                    "u",
                    Grid::from_fn(&[n, n], |ix| ((ix[0] * 7 + ix[1] * 3) % 9) as f64 - 4.0),
                )
                .with("r", Grid::zeros(&[n, n]))
                .with("u_b", Grid::zeros(&[n, n]))
                .with(
                    "r_b",
                    Grid::from_fn(&[n, n], |ix| {
                        let interior = ix.iter().all(|&x| x >= lo && x <= hi);
                        if interior {
                            ((ix[0] * 2 + ix[1]) % 5) as f64 - 2.0
                        } else {
                            0.0
                        }
                    }),
                )
        };
        for strategy in [BoundaryStrategy::Guarded, BoundaryStrategy::Padded] {
            let adj = nest
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let mut ws_ref = build();
            let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
            run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();
            let mut ws_oracle = build();
            eval_nests(&adj.nests, &mut ws_oracle, &bind, plan.padded());
            assert_bitwise(
                &format!("case {case} {strategy:?} oracle"),
                &ws_ref,
                &ws_oracle,
                &["u_b"],
            );
            let mut ws_rows = build();
            run(&plan, &mut ws_rows, ExecMode::serial().rows()).unwrap();
            assert_bitwise(
                &format!("case {case} {strategy:?}"),
                &ws_rows,
                &ws_ref,
                &["u_b"],
            );
        }
    }
}
