//! Integration tests for the register-IR row executor across the full
//! stack: the per-point interpreter, the row executor (serial, parallel,
//! tiled/fused-schedule) and the tape-AD reference must all agree on the
//! wave3d and Burgers gradients — bitwise where the same plan runs under
//! both lowerings, ≤1e-12 against the tape. (`print_module`'s output is
//! compiled and held to the rows at ≤1e-13 in `tests/jit.rs`.)

use perforad::autodiff::tape_adjoint;
use perforad::pde::{burgers, wave3d};
use perforad::prelude::*;
use perforad::symbolic::MapCtx;
use std::collections::BTreeMap;

#[test]
fn wave3d_gradient_interpreter_vs_rows_vs_tape() {
    let n = 10usize;
    let (mut ws_ref, bind) = wave3d::workspace(n, 0.1);
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity(), &AdjointOptions::default())
        .unwrap();
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    // Row executor: serial, parallel, and fused-schedule tiles — bitwise.
    let pool = ThreadPool::new(3);
    let (mut ws_rows, _) = wave3d::workspace(n, 0.1);
    run(&plan, &mut ws_rows, ExecMode::serial().rows()).unwrap();
    let (mut ws_par, _) = wave3d::workspace(n, 0.1);
    run(&plan, &mut ws_par, ExecMode::parallel(&pool).rows()).unwrap();
    let (mut ws_sched, _) = wave3d::workspace(n, 0.1);
    let sched = compile_schedule(
        &adj,
        &ws_sched,
        &bind,
        &SchedOptions::default().with_tile(&[3, 4, 5]).with_rows(),
    )
    .unwrap();
    run_schedule(&sched, &mut ws_sched, &pool).unwrap();
    for arr in ["u_1_b", "u_2_b"] {
        for (label, ws) in [
            ("serial rows", &ws_rows),
            ("parallel rows", &ws_par),
            ("scheduled rows", &ws_sched),
        ] {
            assert_eq!(
                ws_ref.grid(arr).max_abs_diff(ws.grid(arr)),
                0.0,
                "{arr} interpreter vs {label} must be bitwise identical"
            );
        }
    }

    // Independent tape-AD reference.
    let dims3 = vec![n, n, n];
    let mut store = MapCtx::new().index("n", n as i64).scalar("D", 0.1);
    for a in ["u_1", "u_2", "c", "u"] {
        store = store.array(a, dims3.clone(), ws_ref.grid(a).as_slice().to_vec());
    }
    let mut seeds = BTreeMap::new();
    seeds.insert(Symbol::new("u"), ws_ref.grid("u_b").as_slice().to_vec());
    let reference = tape_adjoint(&wave3d::nest(), &wave3d::activity(), &store, &seeds).unwrap();
    for arr in ["u_1_b", "u_2_b"] {
        let expect = &reference[&Symbol::new(arr)];
        for (k, (a, b)) in ws_rows.grid(arr).as_slice().iter().zip(expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "{arr}[{k}]: rows {a} vs tape {b}");
        }
    }
}

#[test]
fn burgers_gradient_interpreter_vs_rows_vs_tape() {
    let n = 96usize;
    let (mut ws_ref, bind) = burgers::workspace(n, 0.3, 0.1);
    let adj = burgers::nest()
        .adjoint(&burgers::activity(), &AdjointOptions::default())
        .unwrap();
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    let pool = ThreadPool::new(2);
    let (mut ws_rows, _) = burgers::workspace(n, 0.3, 0.1);
    run(&plan, &mut ws_rows, ExecMode::serial().rows()).unwrap();
    let (mut ws_sched, _) = burgers::workspace(n, 0.3, 0.1);
    let sched = compile_schedule(
        &adj,
        &ws_sched,
        &bind,
        &SchedOptions::default().with_tile(&[8]).with_rows(),
    )
    .unwrap();
    run_schedule(&sched, &mut ws_sched, &pool).unwrap();
    for (label, ws) in [("serial rows", &ws_rows), ("scheduled rows", &ws_sched)] {
        assert_eq!(
            ws_ref.grid("u_1_b").max_abs_diff(ws.grid("u_1_b")),
            0.0,
            "u_1_b interpreter vs {label} must be bitwise identical"
        );
    }

    // Tape reference on the piecewise (upwinded) body.
    let store = MapCtx::new()
        .index("n", n as i64)
        .scalar("C", 0.3)
        .scalar("D", 0.1)
        .array1("u_1", ws_ref.grid("u_1").as_slice().to_vec())
        .array1("u", vec![0.0; n]);
    let mut seeds = BTreeMap::new();
    seeds.insert(Symbol::new("u"), ws_ref.grid("u_b").as_slice().to_vec());
    let reference = tape_adjoint(&burgers::nest(), &burgers::activity(), &store, &seeds).unwrap();
    let expect = &reference[&Symbol::new("u_1_b")];
    for (k, (a, b)) in ws_rows
        .grid("u_1_b")
        .as_slice()
        .iter()
        .zip(expect)
        .enumerate()
    {
        assert!((a - b).abs() < 1e-12, "u_1_b[{k}]: rows {a} vs tape {b}");
    }
}

/// The adjoint program cache: the 53-nest wave adjoint repeats the same
/// shifted RHS, so dedup must shrink the number of distinct compiled
/// programs well below the statement count.
#[test]
fn wave3d_adjoint_plan_dedups_programs() {
    let n = 12usize;
    let (ws, bind) = wave3d::workspace(n, 0.1);
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity(), &AdjointOptions::default())
        .unwrap();
    let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
    assert!(
        plan.unique_programs() * 2 <= plan.statements(),
        "expected ≥2× dedup: {} unique of {} statements",
        plan.unique_programs(),
        plan.statements()
    );
}
