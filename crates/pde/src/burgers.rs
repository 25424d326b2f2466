//! The 1-D Burgers equation test case (§4.2 and Fig. 6 of the paper).
//!
//! `∂u/∂t + u ∂u/∂x = ν ∂²u/∂x²` with upwinding for the nonlinear
//! convective term: the `max`/`min` pair makes the body only piecewise
//! differentiable, producing ternary operators in the adjoint (Fig. 7).

use perforad_codegen::parse_stencil;
use perforad_core::{ActivityMap, LoopNest};
use perforad_exec::{Binding, Grid, Workspace};

/// The upwinded Burgers stencil of the Fig. 6 script, as DSL text
/// ([`perforad_codegen::frontend`]).
pub const DSL: &str = "for i in 1 .. n-2 {
    u[i] = u_1[i]
        - C*(max(u_1[i], 0)*(u_1[i] - u_1[i-1]) + min(u_1[i], 0)*(u_1[i+1] - u_1[i]))
        + D*(u_1[i+1] + u_1[i-1] - 2.0*u_1[i]);
}";

/// The upwinded Burgers stencil nest, parsed from [`DSL`].
pub fn nest() -> LoopNest {
    parse_stencil(DSL).expect("burgers DSL is a valid stencil")
}

/// `{u: u_b, u_1: u_1_b}` like the paper's script.
pub fn activity() -> ActivityMap {
    ActivityMap::new().with_suffixed("u").with_suffixed("u_1")
}

/// A shock-forming initial condition (sine with both signs so both upwind
/// branches are exercised) and stable coefficients.
pub fn workspace(n: usize, c_coef: f64, d_coef: f64) -> (Workspace, Binding) {
    let dims = [n];
    let mut ws = Workspace::new();
    ws.insert(
        "u_1",
        Grid::from_fn(&dims, |ix| {
            let x = ix[0] as f64 / n as f64;
            (2.0 * std::f64::consts::PI * x).sin()
        }),
    );
    ws.insert("u", Grid::zeros(&dims));
    ws.insert(
        "u_b",
        Grid::from_fn(&dims, |ix| {
            let interior = ix[0] >= 1 && ix[0] <= n - 2;
            if interior {
                ((ix[0] * 29) % 11) as f64 / 11.0 - 0.45
            } else {
                0.0
            }
        }),
    );
    ws.insert("u_1_b", Grid::zeros(&dims));
    let bind = Binding::new()
        .size("n", n as i64)
        .param("C", c_coef)
        .param("D", d_coef);
    (ws, bind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_autodiff::tape_adjoint;
    use perforad_core::AdjointOptions;
    use perforad_exec::{compile_adjoint, compile_nest, run, ExecMode, ThreadPool};
    use perforad_sched::{compile_schedule, SchedOptions};
    use perforad_symbolic::MapCtx;
    use perforad_tune::{autotune_adjoint, TuneOptions};
    use std::collections::BTreeMap;

    #[test]
    fn adjoint_is_five_gather_nests() {
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        assert_eq!(adj.nest_count(), 5);
        assert!(adj.nests.iter().all(|n| n.is_gather()));
        // The piecewise upwinding must produce ternaries in the core body.
        let core = adj.core_nest().unwrap();
        let txt = format!("{core}");
        assert!(txt.contains('?'), "expected ternary in: {txt}");
    }

    #[test]
    fn primal_advances_shock() {
        let (mut ws, bind) = workspace(256, 0.3, 0.1);
        let plan = compile_nest(&nest(), &ws, &bind).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
        let u = ws.grid("u");
        assert!(u.is_finite());
        assert!(u.norm2() > 0.0);
    }

    #[test]
    fn gather_adjoint_matches_tape_reference() {
        // §3.6 verification on the nonlinear, piecewise body.
        let n = 40usize;
        let (mut ws, bind) = workspace(n, 0.3, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
        let pool = ThreadPool::new(2);
        run(&plan, &mut ws, ExecMode::parallel(&pool)).unwrap();

        // Independent tape adjoint.
        let store = MapCtx::new()
            .index("n", n as i64)
            .scalar("C", 0.3)
            .scalar("D", 0.1)
            .array1("u_1", ws.grid("u_1").as_slice().to_vec())
            .array1("u", vec![0.0; n]);
        let mut seeds = BTreeMap::new();
        seeds.insert(
            perforad_symbolic::Symbol::new("u"),
            ws.grid("u_b").as_slice().to_vec(),
        );
        let reference = tape_adjoint(&nest(), &activity(), &store, &seeds).unwrap();
        let expect = &reference[&perforad_symbolic::Symbol::new("u_1_b")];
        let got = ws.grid("u_1_b").as_slice();
        for (k, (a, b)) in got.iter().zip(expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "mismatch at {k}: {a} vs {b}");
        }
    }

    #[test]
    fn scheduled_adjoint_matches_tape_reference() {
        use perforad_symbolic::MapCtx;
        use std::collections::BTreeMap;
        let n = 96usize;
        let (mut ws, bind) = workspace(n, 0.3, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let s =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_tile(&[8])).unwrap();
        assert_eq!(s.group_count(), 1, "{}", s.describe());
        assert!(s.max_fused() >= 2);
        let pool = ThreadPool::new(3);
        perforad_sched::run_schedule(&s, &mut ws, &pool).unwrap();

        let store = MapCtx::new()
            .index("n", n as i64)
            .scalar("C", 0.3)
            .scalar("D", 0.1)
            .array1("u_1", ws.grid("u_1").as_slice().to_vec())
            .array1("u", vec![0.0; n]);
        let mut seeds = BTreeMap::new();
        seeds.insert(
            perforad_symbolic::Symbol::new("u"),
            ws.grid("u_b").as_slice().to_vec(),
        );
        let reference = tape_adjoint(&nest(), &activity(), &store, &seeds).unwrap();
        let expect = &reference[&perforad_symbolic::Symbol::new("u_1_b")];
        for (k, (a, b)) in ws.grid("u_1_b").as_slice().iter().zip(expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "mismatch at {k}: {a} vs {b}");
        }
    }

    #[test]
    fn rows_executor_matches_interpreter_on_piecewise_adjoint() {
        // The upwinded body produces Select ops in the adjoint; the row
        // executor must take the same branches lane by lane.
        let n = 128usize;
        let (mut ws1, bind) = workspace(n, 0.3, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = workspace(n, 0.3, 0.1);
        run(&plan, &mut ws2, ExecMode::serial().rows()).unwrap();
        assert_eq!(ws1.grid("u_1_b").max_abs_diff(ws2.grid("u_1_b")), 0.0);
    }

    #[test]
    fn tuned_schedule_matches_serial_reference_bitwise() {
        use perforad_sched::run_tuned;
        use perforad_tune::Measure;
        let n = 200usize;
        let (mut ws_ref, bind) = workspace(n, 0.3, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

        let (mut ws, _) = workspace(n, 0.3, 0.1);
        let pool = ThreadPool::new(2);
        let opts = TuneOptions::default()
            .without_cache()
            .with_top_k(3)
            .with_measure(Measure::Wall { samples: 1 });
        let (schedule, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        let cfg = report.config;
        // The adjoint accumulates with `+=`, so the tuner's timing sweeps
        // dirtied `ws` — compare on a fresh workspace.
        let (mut ws_fresh, _) = workspace(n, 0.3, 0.1);
        run_tuned(&schedule, &cfg, &mut ws_fresh, &pool).unwrap();
        assert_eq!(
            ws_ref.grid("u_1_b").max_abs_diff(ws_fresh.grid("u_1_b")),
            0.0
        );
    }

    #[test]
    fn merged_and_unmerged_agree() {
        let n = 64usize;
        let (mut ws1, bind) = workspace(n, 0.3, 0.1);
        let adj = nest()
            .adjoint(&activity(), &AdjointOptions::default())
            .unwrap();
        let plan = compile_adjoint(&adj, &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = workspace(n, 0.3, 0.1);
        let adj_m = nest()
            .adjoint(&activity(), &AdjointOptions::default().merged())
            .unwrap();
        let plan_m = compile_adjoint(&adj_m, &ws2, &bind).unwrap();
        run(&plan_m, &mut ws2, ExecMode::serial()).unwrap();

        let d = ws1.grid("u_1_b").max_abs_diff(ws2.grid("u_1_b"));
        assert!(d < 1e-12, "merged vs unmerged differ by {d}");
    }
}
