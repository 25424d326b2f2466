//! The DSL front-end on the 2-D heat equation (the 5-point star of the
//! paper's Fig. 3), with all three boundary strategies compared.
//!
//! Run with: `cargo run --release --example heat_dsl`

use perforad::pde::heat2d;
use perforad::prelude::*;

fn main() {
    println!("{}", heat2d::DSL);
    let nest = parse_stencil(heat2d::DSL).expect("valid stencil");
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("u_1");

    for strategy in [
        BoundaryStrategy::Disjoint,
        BoundaryStrategy::Guarded,
        BoundaryStrategy::Padded,
    ] {
        let adj = nest
            .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
            .unwrap();
        println!("{strategy:?}: {} adjoint loop nest(s)", adj.nest_count());
    }

    // Execute the disjoint version; Fig. 3 corresponds to these 17 nests.
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let n = 256usize;
    let mut ws = Workspace::new()
        .with(
            "u_1",
            Grid::from_fn(&[n, n], |ix| {
                if ix[0].abs_diff(n / 2) < n / 8 && ix[1].abs_diff(n / 2) < n / 8 {
                    1.0
                } else {
                    0.0
                }
            }),
        )
        .with("u", Grid::zeros(&[n, n]))
        .with(
            "u_b",
            Grid::from_fn(&[n, n], |ix| {
                let interior = ix.iter().all(|&x| x >= 1 && x <= n - 2);
                if interior {
                    1.0
                } else {
                    0.0
                }
            }),
        )
        .with("u_1_b", Grid::zeros(&[n, n]));
    let bind = Binding::new().size("n", n as i64).param("D", 0.2);

    let pool = ThreadPool::new(2);
    let plan = compile_nest(&nest, &ws, &bind).unwrap();
    run(&plan, &mut ws, ExecMode::parallel(&pool).rows()).unwrap();
    let aplan = compile_adjoint(&adj, &ws, &bind).unwrap();
    run(&aplan, &mut ws, ExecMode::parallel(&pool).rows()).unwrap();
    println!(
        "heat step done: |u| = {:.4}, adjoint |u_1_b| = {:.4} over {} nests",
        ws.grid("u").norm2(),
        ws.grid("u_1_b").norm2(),
        adj.nest_count()
    );
}
