//! §3.6-style verification across crates: the PerforAD gather adjoint
//! against the conventional scatter adjoint, the tape-AD reference, and the
//! adjoint dot-product identity ⟨Jv, w⟩ = ⟨v, Jᵀw⟩.

use perforad::autodiff::tape_adjoint;
use perforad::exec::Plan;
use perforad::pde::{burgers, heat2d, wave3d};
use perforad::prelude::*;
use perforad::symbolic::MapCtx;
use std::collections::BTreeMap;

/// §3.6 on the paper's kernels: the gather adjoint, run in parallel, agrees
/// with the conventional scatter adjoint, run serially.
#[test]
fn gather_matches_scatter_adjoint_on_the_paper_kernels() {
    let pool = ThreadPool::new(2);
    let kernels = [
        (
            "wave3d",
            wave3d::nest(),
            wave3d::activity(),
            wave3d::workspace(12, 0.1),
        ),
        (
            "burgers",
            burgers::nest(),
            burgers::activity(),
            burgers::workspace(4096, 0.3, 0.1),
        ),
        (
            "heat2d",
            heat2d::nest(),
            heat2d::activity(),
            heat2d::workspace(24, 0.2),
        ),
    ];
    for (name, nest, act, (ws, bind)) in kernels {
        let adjoint = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let gather = compile_adjoint(&adjoint, &ws, &bind).unwrap();
        let scatter = compile_nest(&nest.scatter_adjoint(&act).unwrap(), &ws, &bind).unwrap();
        let sweep = |plan: &Plan, mode: ExecMode| {
            let mut ws = ws.clone();
            run(plan, &mut ws, mode).unwrap();
            ws
        };
        let gathered = sweep(&gather, ExecMode::parallel(&pool));
        let scattered = sweep(&scatter, ExecMode::serial());
        for out in adjoint.outputs() {
            let (g, s) = (gathered.grid(out.name()), scattered.grid(out.name()));
            assert!(s.norm2() > 0.0, "{name}: {out} is seeded");
            let rel = g.max_abs_diff(s) / s.norm2();
            assert!(rel < 1e-12, "{name}: {out} differs by {rel:e} (relative)");
        }
    }
}

#[test]
fn wave3d_gather_vs_tape_reference() {
    let n = 8usize;
    let (mut ws, bind) = wave3d::workspace(n, 0.1);
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity(), &AdjointOptions::default())
        .unwrap();
    let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
    run(&plan, &mut ws, ExecMode::serial()).unwrap();

    let dims3 = vec![n, n, n];
    let mut store = MapCtx::new().index("n", n as i64).scalar("D", 0.1);
    for a in ["u_1", "u_2", "c", "u"] {
        store = store.array(a, dims3.clone(), ws.grid(a).as_slice().to_vec());
    }
    let mut seeds = BTreeMap::new();
    seeds.insert(Symbol::new("u"), ws.grid("u_b").as_slice().to_vec());
    let reference = tape_adjoint(&wave3d::nest(), &wave3d::activity(), &store, &seeds).unwrap();

    for adj_name in ["u_1_b", "u_2_b"] {
        let expect = &reference[&Symbol::new(adj_name)];
        let got = ws.grid(adj_name).as_slice();
        for (k, (a, b)) in got.iter().zip(expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "{adj_name}[{k}]: {a} vs {b}");
        }
    }
}

#[test]
fn heat2d_gather_vs_tape_reference() {
    let n = 10usize;
    let (mut ws, bind) = heat2d::workspace(n, 0.2);
    let adj = heat2d::nest()
        .adjoint(&heat2d::activity(), &AdjointOptions::default())
        .unwrap();
    let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
    run(&plan, &mut ws, ExecMode::serial()).unwrap();

    let dims2 = vec![n, n];
    let mut store = MapCtx::new().index("n", n as i64).scalar("D", 0.2);
    for a in ["u_1", "u"] {
        store = store.array(a, dims2.clone(), ws.grid(a).as_slice().to_vec());
    }
    let mut seeds = BTreeMap::new();
    seeds.insert(Symbol::new("u"), ws.grid("u_b").as_slice().to_vec());
    let reference = tape_adjoint(&heat2d::nest(), &heat2d::activity(), &store, &seeds).unwrap();
    let expect = &reference[&Symbol::new("u_1_b")];
    let got = ws.grid("u_1_b").as_slice();
    for (a, b) in got.iter().zip(expect) {
        assert!((a - b).abs() < 1e-12);
    }
}

/// ⟨J v, w⟩ = ⟨v, Jᵀ w⟩ for the (linear) wave step: forward-apply the primal
/// to a direction `v`, reverse-apply the adjoint to a seed `w`.
#[test]
fn adjoint_dot_product_identity_wave() {
    let n = 10usize;
    let (ws0, bind) = wave3d::workspace(n, 0.1);

    // v: direction in u_1; w: seed in u.
    let v = Grid::from_fn(&[n, n, n], |ix| {
        ((ix[0] * 7 + ix[1] * 3 + ix[2]) % 5) as f64 - 2.0
    });
    let w = Grid::from_fn(&[n, n, n], |ix| {
        let interior = ix.iter().all(|&x| x >= 1 && x <= n - 2);
        if interior {
            ((ix[0] + ix[1] * 2 + ix[2] * 3) % 7) as f64 - 3.0
        } else {
            0.0
        }
    });

    // J v: primal applied to (u_1 = v, u_2 = 0) — linear in u_1.
    let mut ws = ws0.clone();
    ws.insert("u_1", v.clone());
    ws.insert("u_2", Grid::zeros(&[n, n, n]));
    let plan = compile_nest(&wave3d::nest(), &ws, &bind).unwrap();
    run(&plan, &mut ws, ExecMode::serial()).unwrap();
    let jv = ws.grid("u").clone();
    let lhs = jv.dot(&w);

    // Jᵀ w: adjoint seeded with w.
    let mut ws = ws0.clone();
    ws.insert("u_b", w.clone());
    ws.insert("u_1_b", Grid::zeros(&[n, n, n]));
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity(), &AdjointOptions::default())
        .unwrap();
    let aplan = compile_adjoint(&adj, &ws, &bind).unwrap();
    run(&aplan, &mut ws, ExecMode::serial()).unwrap();
    let jtw = ws.grid("u_1_b").clone();
    let rhs = jtw.dot(&v);

    let denom = lhs.abs().max(rhs.abs()).max(1e-30);
    assert!(
        ((lhs - rhs) / denom).abs() < 1e-12,
        "dot test failed: {lhs} vs {rhs}"
    );
}

/// Burgers: the dot test holds at the linearisation point (tangent of the
/// piecewise primal), comparing against finite differences of the primal.
#[test]
fn burgers_adjoint_matches_directional_derivative() {
    let n = 64usize;
    let (ws0, bind) = burgers::workspace(n, 0.3, 0.1);
    let u1 = ws0.grid("u_1").clone();
    let seed = ws0.grid("u_b").clone();

    // Adjoint gradient g = Jᵀ seed.
    let mut ws = ws0.clone();
    let adj = burgers::nest()
        .adjoint(&burgers::activity(), &AdjointOptions::default())
        .unwrap();
    let aplan = compile_adjoint(&adj, &ws, &bind).unwrap();
    run(&aplan, &mut ws, ExecMode::serial()).unwrap();
    let g = ws.grid("u_1_b").clone();

    // Directional derivative of <seed, F(u_1)> along a random direction.
    let dir = Grid::from_fn(&[n], |ix| ((ix[0] * 13 % 9) as f64 - 4.0) / 4.0);
    let f = |field: &Grid| -> f64 {
        let mut ws = ws0.clone();
        ws.insert("u_1", field.clone());
        let plan = compile_nest(&burgers::nest(), &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
        ws.grid("u").dot(&seed)
    };
    let h = 1e-7;
    let up = Grid::from_fn(&[n], |ix| u1.get(ix) + h * dir.get(ix));
    let dn = Grid::from_fn(&[n], |ix| u1.get(ix) - h * dir.get(ix));
    let fd = (f(&up) - f(&dn)) / (2.0 * h);
    let an = g.dot(&dir);
    assert!(
        (fd - an).abs() / fd.abs().max(an.abs()).max(1e-12) < 1e-6,
        "directional derivative {fd} vs adjoint {an}"
    );
}
