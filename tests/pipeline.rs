//! End-to-end pipeline tests: DSL front-end → transformation → code
//! generation → execution, plus 2-D stencils through the full stack.

use perforad::prelude::*;

#[test]
fn dsl_roundtrip_matches_builder() {
    let parsed =
        parse_stencil("for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }")
            .unwrap();
    let i = Symbol::new("i");
    let n = Symbol::new("n");
    let (u, c, r) = (Array::new("u"), Array::new("c"), Array::new("r"));
    let built = make_loop_nest(
        &r.at(ix![&i]),
        c.at(ix![&i]) * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1])),
        vec![i.clone()],
        vec![(Idx::constant(1), Idx::sym(n) - 1)],
    )
    .unwrap();
    assert_eq!(parsed, built);
}

#[test]
fn c_codegen_of_paper_example_is_stable() {
    // The merged §3.2 core loop in C — constants swapped vs the primal.
    let nest =
        parse_stencil("for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }")
            .unwrap();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adj = nest
        .adjoint(&act, &AdjointOptions::default().merged())
        .unwrap();
    let code = c_nest(adj.core_nest().unwrap(), &COptions::default(), 0);
    let expected = concat!(
        "#pragma omp parallel for private(i)\n",
        "for ( i = 2; i <= n - 2; i++ ) {\n",
        "    u_b[i] += 4.0*c[i - 1]*r_b[i - 1] - 3.0*c[i]*r_b[i] + 2.0*c[i + 1]*r_b[i + 1];\n",
        "}\n"
    );
    assert_eq!(code, expected);
}

#[test]
fn two_d_anisotropic_stencil_full_pipeline() {
    // Asymmetric 2-D stencil (non-symmetric data flow — the case TF-MAD,
    // the authors' earlier work, could not handle).
    let nest = parse_stencil(
        "for i in 2 .. n-2, j in 1 .. n-2 {
            r[i][j] = 0.5*u[i-2][j] + 2.0*u[i][j-1] - 3.0*u[i+1][j+1];
        }",
    )
    .unwrap();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    assert!(adj.nests.iter().all(|n| n.is_gather()));

    // Execute gather vs scatter on integer data: must agree exactly.
    let n = 24usize;
    let build_ws = || {
        Workspace::new()
            .with(
                "u",
                Grid::from_fn(&[n, n], |ix| ((ix[0] * 3 + ix[1]) % 7) as f64 - 3.0),
            )
            .with("r", Grid::zeros(&[n, n]))
            .with("u_b", Grid::zeros(&[n, n]))
            .with(
                "r_b",
                Grid::from_fn(&[n, n], |ix| ((ix[0] + ix[1] * 5) % 9) as f64 - 4.0),
            )
    };
    let bind = Binding::new().size("n", n as i64);

    let mut ws_g = build_ws();
    let plan = compile_adjoint(&adj, &ws_g, &bind).unwrap();
    let pool = ThreadPool::new(2);
    run(&plan, &mut ws_g, ExecMode::parallel(&pool)).unwrap();

    let mut ws_s = build_ws();
    let sc = nest.scatter_adjoint(&act).unwrap();
    let plan_s = compile_nest(&sc, &ws_s, &bind).unwrap();
    run(&plan_s, &mut ws_s, ExecMode::serial()).unwrap();

    assert_eq!(ws_g.grid("u_b").max_abs_diff(ws_s.grid("u_b")), 0.0);
}

#[test]
fn uninterpreted_function_path_reaches_codegen() {
    // §3.3.1: large bodies go through uninterpreted functions; derivatives
    // print as derivative(f, a) calls a back-end can bind.
    use perforad::symbolic::{Expr, UFunApp};
    let i = Symbol::new("i");
    let u = Array::new("u");
    let app = UFunApp::new(
        "f",
        vec![Symbol::new("a"), Symbol::new("b")],
        vec![u.at(ix![&i - 1]), u.at(ix![&i])],
    );
    let nest = make_loop_nest(
        &Array::new("r").at(ix![&i]),
        Expr::ufun(app),
        vec![i.clone()],
        vec![(Idx::constant(1), Idx::sym(Symbol::new("n")) - 1)],
    )
    .unwrap();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let core = adj.core_nest().unwrap();
    let code = c_nest(core, &COptions::default(), 0);
    assert!(
        code.contains("f_da("),
        "expected uninterpreted derivative call: {code}"
    );
    assert!(code.contains("f_db("), "{code}");
}

#[test]
fn extent_too_small_is_rejected_at_bind_time() {
    let nest = parse_stencil("for i in 1 .. n-1 { r[i] = u[i-2] + u[i+2]; }").unwrap();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    assert_eq!(adj.required_extent, vec![4]);
    let n = 4usize; // primal extent 3 < spread 4
    let ws = Workspace::new()
        .with("u", Grid::zeros(&[n + 3]))
        .with("r", Grid::zeros(&[n + 3]))
        .with("u_b", Grid::zeros(&[n + 3]))
        .with("r_b", Grid::zeros(&[n + 3]));
    let err = compile_adjoint(&adj, &ws, &Binding::new().size("n", n as i64)).unwrap_err();
    assert!(matches!(
        err,
        perforad::exec::ExecError::ExtentTooSmall { .. }
    ));
}
