//! A 2-D heat-equation stencil — the 5-point star whose adjoint
//! decomposition Fig. 3 of the paper illustrates (17 loop nests).

use perforad_codegen::parse_stencil;
use perforad_core::{ActivityMap, LoopNest};
use perforad_exec::{Binding, Grid, Workspace};

/// One explicit Euler step of the heat equation, as DSL text
/// ([`perforad_codegen::frontend`]).
pub const DSL: &str = "for i in 1 .. n-2, j in 1 .. n-2 {
    u[i][j] = u_1[i][j] + D*(u_1[i-1][j] + u_1[i+1][j]
                           + u_1[i][j-1] + u_1[i][j+1] - 4.0*u_1[i][j]);
}";

/// The 5-point heat stencil nest, parsed from [`DSL`].
pub fn nest() -> LoopNest {
    parse_stencil(DSL).expect("heat2d DSL is a valid stencil")
}

/// `{u: u_b, u_1: u_1_b}`.
pub fn activity() -> ActivityMap {
    ActivityMap::new().with_suffixed("u").with_suffixed("u_1")
}

/// Hot square in a cold plate.
pub fn workspace(n: usize, d: f64) -> (Workspace, Binding) {
    let dims = [n, n];
    let mut ws = Workspace::new();
    ws.insert(
        "u_1",
        Grid::from_fn(&dims, |ix| {
            let hot = ix[0] > n / 3 && ix[0] < 2 * n / 3 && ix[1] > n / 3 && ix[1] < 2 * n / 3;
            if hot {
                1.0
            } else {
                0.0
            }
        }),
    );
    ws.insert("u", Grid::zeros(&dims));
    ws.insert(
        "u_b",
        Grid::from_fn(&dims, |ix| {
            let interior = ix.iter().all(|&x| x >= 1 && x <= n - 2);
            if interior {
                1.0
            } else {
                0.0
            }
        }),
    );
    ws.insert("u_1_b", Grid::zeros(&dims));
    (ws, Binding::new().size("n", n as i64).param("D", d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_core::AdjointOptions;
    use perforad_exec::{compile_adjoint, compile_nest, run, ExecMode};
    use perforad_sched::{compile_schedule, SchedOptions};

    #[test]
    fn adjoint_has_17_nests_matching_figure_3() {
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        assert_eq!(adj.nest_count(), 17);
    }

    #[test]
    fn heat_diffuses_mass_conservatively_in_interior() {
        let n = 32;
        let (mut ws, bind) = workspace(n, 0.2);
        let plan = compile_nest(&nest(), &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
        // Hot square fully interior: one explicit Euler step conserves sums.
        let before = ws.grid("u_1").sum();
        let after = ws.grid("u").sum();
        assert!((before - after).abs() < 1e-10, "{before} vs {after}");
    }

    #[test]
    fn scheduled_adjoint_fuses_17_nests_and_matches_serial() {
        use perforad_exec::ThreadPool;
        let n = 48;
        let (mut ws1, bind) = workspace(n, 0.2);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = workspace(n, 0.2);
        let opts = SchedOptions::default().with_tile(&[8, 16]);
        let s = compile_schedule(&adj, &ws2, &bind, &opts).unwrap();
        assert_eq!(s.group_count(), 1, "{}", s.describe());
        assert_eq!(s.max_fused(), 17);
        let pool = ThreadPool::new(4);
        perforad_sched::run_schedule(&s, &mut ws2, &pool).unwrap();
        assert_eq!(ws1.grid("u_1_b").max_abs_diff(ws2.grid("u_1_b")), 0.0);
    }

    #[test]
    fn rows_executor_matches_interpreter_bitwise_in_2d() {
        use perforad_exec::ThreadPool;
        let n = 40;
        let (mut ws1, bind) = workspace(n, 0.2);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = workspace(n, 0.2);
        run(&plan, &mut ws2, ExecMode::serial().rows()).unwrap();
        assert_eq!(ws1.grid("u_1_b").max_abs_diff(ws2.grid("u_1_b")), 0.0);

        // Rows lowering through the fused tiled schedule too.
        let (mut ws3, _) = workspace(n, 0.2);
        let s = compile_schedule(
            &adj,
            &ws3,
            &bind,
            &SchedOptions::default().with_tile(&[8, 16]).with_rows(),
        )
        .unwrap();
        let pool = ThreadPool::new(4);
        perforad_sched::run_schedule(&s, &mut ws3, &pool).unwrap();
        assert_eq!(ws1.grid("u_1_b").max_abs_diff(ws3.grid("u_1_b")), 0.0);
    }

    #[test]
    fn adjoint_of_all_ones_seed_counts_stencil_uses() {
        // With seed ≡ 1 on the interior, u_1_b[p] equals the number of
        // stencil applications reading p, weighted by coefficients — for a
        // fully interior point that's 1 + D*(4 - 4) = 1 exactly.
        let n = 24;
        let (mut ws, bind) = workspace(n, 0.25);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
        let v = ws.grid("u_1_b").get(&[n / 2, n / 2]);
        assert!((v - 1.0).abs() < 1e-12, "interior adjoint {v}");
    }
}
