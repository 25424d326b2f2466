//! The 3-D wave equation test case (§4.1 and Fig. 4 of the paper).
//!
//! `∂²u/∂t² = a²Δu` discretised with second-order finite differences in
//! space and time: one step computes
//! `u = 2 u_1 − u_2 + c·D·(u_xx + u_yy + u_zz)` on an `n³` grid with
//! `c = a²` (spatially varying) and `D = (dt/dx)²`.

use perforad_codegen::parse_stencil;
use perforad_core::{ActivityMap, LoopNest};
use perforad_exec::{Binding, Grid, Workspace};

/// The wave-equation stencil of the Fig. 4 script, as DSL text
/// ([`perforad_codegen::frontend`]).
pub const DSL: &str = "for i in 1 .. n-2, j in 1 .. n-2, k in 1 .. n-2 {
    u[i][j][k] = 2.0*u_1[i][j][k] - u_2[i][j][k] + c[i][j][k]*D*(
          (u_1[i-1][j][k] - 2.0*u_1[i][j][k] + u_1[i+1][j][k])
        + (u_1[i][j-1][k] - 2.0*u_1[i][j][k] + u_1[i][j+1][k])
        + (u_1[i][j][k-1] - 2.0*u_1[i][j][k] + u_1[i][j][k+1]));
}";

/// The wave-equation stencil nest, parsed from [`DSL`].
pub fn nest() -> LoopNest {
    parse_stencil(DSL).expect("wave3d DSL is a valid stencil")
}

/// Activity map of the paper's script: `{u: u_b, u_1: u_1_b, u_2: u_2_b}`
/// (`c` passive).
pub fn activity() -> ActivityMap {
    ActivityMap::new()
        .with_suffixed("u")
        .with_suffixed("u_1")
        .with_suffixed("u_2")
}

/// Activity map for seismic inversion: the velocity model `c` is active too.
pub fn activity_with_c() -> ActivityMap {
    activity().with_suffixed("c")
}

/// Deterministic pseudo-random-ish initial data: a Gaussian pulse in `u_1`
/// (slightly shifted in `u_2`, as if one step old) and a layered velocity
/// model in `c`.
pub fn workspace(n: usize, d: f64) -> (Workspace, Binding) {
    let dims = [n, n, n];
    let centre = (n / 2) as f64;
    let width = (n as f64 / 8.0).max(2.0);
    let pulse = |ix: &[usize], shift: f64| {
        let dx = ix[0] as f64 - centre;
        let dy = ix[1] as f64 - centre;
        let dz = ix[2] as f64 - centre - shift;
        (-(dx * dx + dy * dy + dz * dz) / (2.0 * width * width)).exp()
    };
    let mut ws = Workspace::new();
    ws.insert("u_1", Grid::from_fn(&dims, |ix| pulse(ix, 0.0)));
    ws.insert("u_2", Grid::from_fn(&dims, |ix| pulse(ix, 0.5)));
    ws.insert(
        "c",
        Grid::from_fn(&dims, |ix| 1.0 + 0.5 * (ix[0] as f64 / n as f64)),
    );
    ws.insert("u", Grid::zeros(&dims));
    ws.insert(
        "u_b",
        Grid::from_fn(&dims, |ix| {
            // Adjoint seed: nonzero only on the interior the primal writes.
            let interior = ix.iter().all(|&x| x >= 1 && x <= n - 2);
            if interior {
                ((ix[0] * 31 + ix[1] * 17 + ix[2]) % 7) as f64 / 7.0 - 0.4
            } else {
                0.0
            }
        }),
    );
    ws.insert("u_1_b", Grid::zeros(&dims));
    ws.insert("u_2_b", Grid::zeros(&dims));
    ws.insert("c_b", Grid::zeros(&dims));
    let bind = Binding::new().size("n", n as i64).param("D", d);
    (ws, bind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_core::AdjointOptions;
    use perforad_exec::{compile_adjoint, compile_nest, run, ExecMode, ThreadPool};
    use perforad_sched::{compile_schedule, SchedOptions};
    use perforad_tune::{autotune_adjoint, TuneOptions};

    #[test]
    fn adjoint_has_53_loop_nests() {
        // §3.3.4: the 3-D 7-point star needs 53 loop nests.
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        assert_eq!(adj.nest_count(), 53);
        assert!(adj.nests.iter().all(|n| n.is_gather()));
    }

    #[test]
    fn primal_step_conserves_boundary() {
        let (mut ws, bind) = workspace(12, 0.1);
        let plan = compile_nest(&nest(), &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
        let u = ws.grid("u");
        assert!(u.is_finite());
        // Boundary layer untouched (still zero).
        assert_eq!(u.get(&[0, 5, 5]), 0.0);
        assert!(u.get(&[6, 6, 6]).abs() > 0.0);
    }

    #[test]
    fn adjoint_parallel_matches_serial_bitwise() {
        let (mut ws1, bind) = workspace(14, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = workspace(14, 0.1);
        let pool = ThreadPool::new(4);
        run(&plan, &mut ws2, ExecMode::parallel(&pool)).unwrap();
        assert_eq!(
            ws1.grid("u_1_b").max_abs_diff(ws2.grid("u_1_b")),
            0.0,
            "gather adjoint must be deterministic"
        );
    }

    #[test]
    fn adjoint_matches_scatter_and_tape() {
        let (mut ws_g, bind) = workspace(10, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws_g, &bind).unwrap();
        run(&plan, &mut ws_g, ExecMode::serial()).unwrap();

        let (mut ws_s, _) = workspace(10, 0.1);
        let sc = nest().scatter_adjoint(&activity()).unwrap();
        let plan_s = compile_nest(&sc, &ws_s, &bind).unwrap();
        run(&plan_s, &mut ws_s, ExecMode::serial()).unwrap();

        for arr in ["u_1_b", "u_2_b"] {
            let d = ws_g.grid(arr).max_abs_diff(ws_s.grid(arr));
            assert!(d < 1e-12, "{arr}: gather vs scatter differ by {d}");
        }
    }

    #[test]
    fn scheduled_adjoint_fuses_all_53_nests_and_matches_serial() {
        let (mut ws1, bind) = workspace(14, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = workspace(14, 0.1);
        let opts = SchedOptions::default().with_tile(&[4, 4, 8]);
        let s = compile_schedule(&adj, &ws2, &bind, &opts).unwrap();
        assert_eq!(s.group_count(), 1, "{}", s.describe());
        assert_eq!(s.max_fused(), 53);
        let pool = ThreadPool::new(4);
        perforad_sched::run_schedule(&s, &mut ws2, &pool).unwrap();
        for arr in ["u_1_b", "u_2_b"] {
            assert_eq!(
                ws1.grid(arr).max_abs_diff(ws2.grid(arr)),
                0.0,
                "{arr}: fused schedule must match serial bitwise"
            );
        }
    }

    #[test]
    fn rows_executor_matches_interpreter_bitwise_on_wave_adjoint() {
        let (mut ws1, bind) = workspace(16, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = workspace(16, 0.1);
        run(&plan, &mut ws2, ExecMode::serial().rows()).unwrap();
        let (mut ws3, _) = workspace(16, 0.1);
        let pool = ThreadPool::new(4);
        run(&plan, &mut ws3, ExecMode::parallel(&pool).rows()).unwrap();
        for arr in ["u_1_b", "u_2_b"] {
            assert_eq!(ws1.grid(arr).max_abs_diff(ws2.grid(arr)), 0.0, "{arr}");
            assert_eq!(ws1.grid(arr).max_abs_diff(ws3.grid(arr)), 0.0, "{arr}");
        }

        // Rows lowering through the 53-nest fused schedule.
        let (mut ws4, _) = workspace(16, 0.1);
        let s = compile_schedule(
            &adj,
            &ws4,
            &bind,
            &SchedOptions::default().with_tile(&[4, 4, 8]).with_rows(),
        )
        .unwrap();
        perforad_sched::run_schedule(&s, &mut ws4, &pool).unwrap();
        for arr in ["u_1_b", "u_2_b"] {
            assert_eq!(ws1.grid(arr).max_abs_diff(ws4.grid(arr)), 0.0, "{arr}");
        }
    }

    #[test]
    fn tuned_schedule_matches_serial_reference_bitwise() {
        use perforad_sched::run_tuned;
        use perforad_tune::Measure;
        let (mut ws_ref, bind) = workspace(14, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

        let (mut ws, _) = workspace(14, 0.1);
        let pool = ThreadPool::new(3);
        let opts = TuneOptions::default()
            .without_cache()
            .with_top_k(4)
            .with_measure(Measure::Wall { samples: 1 });
        let (schedule, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        let cfg = report.config;
        assert_eq!(cfg.tile.len(), 3, "{}", cfg.describe());
        // The adjoint accumulates with `+=`, so the tuner's timing sweeps
        // dirtied `ws` — compare on a fresh workspace.
        let (mut ws_fresh, _) = workspace(14, 0.1);
        run_tuned(&schedule, &cfg, &mut ws_fresh, &pool).unwrap();
        for arr in ["u_1_b", "u_2_b"] {
            assert_eq!(
                ws_ref.grid(arr).max_abs_diff(ws_fresh.grid(arr)),
                0.0,
                "{arr}"
            );
        }
    }

    #[test]
    fn c_active_adjoint_produces_velocity_gradient() {
        let (mut ws, bind) = workspace(10, 0.1);
        let adj = nest()
            .adjoint(&activity_with_c(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
        assert!(ws.grid("c_b").norm2() > 0.0);
    }
}
