//! A 2-D heat-equation stencil — the 5-point star whose adjoint
//! decomposition Fig. 3 of the paper illustrates (17 loop nests).

use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions, LoopNest};
use perforad_exec::{Binding, Grid, ThreadPool, Workspace};
use perforad_sched::{compile_schedule, SchedError, SchedOptions, Schedule, TunedConfig};
use perforad_symbolic::{ix, Array, Expr, Idx, Symbol};
use perforad_tune::{autotune_adjoint, TuneError, TuneOptions};

/// `u[i][j] = u_1[i][j] + D*(u_1[i±1][j] + u_1[i][j±1] - 4 u_1[i][j])`.
pub fn nest() -> LoopNest {
    let (i, j) = (Symbol::new("i"), Symbol::new("j"));
    let n = Symbol::new("n");
    let dd = Expr::sym(Symbol::new("D"));
    let u = Array::new("u");
    let u1 = Array::new("u_1");
    let lap = u1.at(ix![&i - 1, &j])
        + u1.at(ix![&i + 1, &j])
        + u1.at(ix![&i, &j - 1])
        + u1.at(ix![&i, &j + 1])
        - 4.0 * u1.at(ix![&i, &j]);
    let expr = u1.at(ix![&i, &j]) + dd * lap;
    let b = (Idx::constant(1), Idx::sym(n.clone()) - 2);
    make_loop_nest(
        &u.at(ix![&i, &j]),
        expr,
        vec![i.clone(), j.clone()],
        vec![b.clone(), b],
    )
    .expect("heat2d nest is a valid stencil")
}

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

/// Fused + tiled schedule for one adjoint sweep: the 17 disjoint nests of
/// Fig. 3 in a single parallel region. Drive it with
/// [`perforad_sched::run_schedule`].
pub fn adjoint_schedule(
    ws: &Workspace,
    bind: &Binding,
    opts: &SchedOptions,
) -> Result<Schedule, SchedError> {
    let adj = nest()
        .adjoint(&activity(), &AdjointOptions::default())
        .expect("heat2d adjoint transforms");
    compile_schedule(&adj, ws, bind, opts)
}

/// Autotuned adjoint schedule (two-stage tuner over the full
/// configuration space). Drive the result with
/// [`perforad_sched::run_tuned`].
pub fn adjoint_schedule_tuned(
    ws: &mut Workspace,
    bind: &Binding,
    pool: &ThreadPool,
    topts: &TuneOptions,
) -> Result<(Schedule, TunedConfig), TuneError> {
    let adj = nest()
        .adjoint(&activity(), &AdjointOptions::default())
        .expect("heat2d adjoint transforms");
    let (schedule, report) = autotune_adjoint(&adj, ws, bind, pool, topts)?;
    Ok((schedule, report.config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_exec::{compile_adjoint, compile_nest, run, ExecMode};

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
        let s =
            adjoint_schedule(&ws2, &bind, &SchedOptions::default().with_tile(&[8, 16])).unwrap();
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
        let s = adjoint_schedule(
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
