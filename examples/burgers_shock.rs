//! Burgers shock formation and sensitivity to the initial condition.
//!
//! Time-steps the upwinded Burgers equation (§4.2) and computes the
//! gradient of the final kinetic energy with respect to the *initial*
//! condition by running the single-step gather adjoint backwards through
//! time under a binomial `CheckpointPlan` of `⌈log₂T⌉ + 1` snapshots.
//!
//! Run with: `cargo run --release --example burgers_shock`

use perforad::pde::burgers;
use perforad::prelude::*;
use std::cell::RefCell;

/// Advance `u` one step in place: lend it to the workspace as `u_1`,
/// run, take the new `u` back — no grid is allocated or copied per step.
fn step_primal(plan: &perforad::exec::Plan, ws: &mut Workspace, u: &mut Grid) {
    std::mem::swap(ws.grid_mut("u_1"), u);
    ws.grid_mut("u").fill(0.0);
    run(plan, ws, ExecMode::serial().rows()).unwrap();
    std::mem::swap(ws.grid_mut("u"), u);
}

fn main() {
    let n = 512usize;
    let steps = 64usize;
    let (ws, bind) = burgers::workspace(n, 0.3, 0.05);
    let nest = burgers::nest();
    let primal_plan = compile_nest(&nest, &ws, &bind).unwrap();
    let adj = nest
        .adjoint(&burgers::activity(), &AdjointOptions::default())
        .unwrap();
    let adj_plan = compile_adjoint(&adj, &ws, &bind).unwrap();

    let u0 = ws.grid("u_1").clone();

    // Forward to the shock and back again, streaming: the plan keeps at
    // most ⌈log₂T⌉ + 1 states live and recomputes the rest.
    let budget = steps.next_power_of_two().trailing_zeros() as usize + 1;
    let plan = CheckpointPlan::with_budget(steps, budget);
    let ws = RefCell::new(ws);
    let lambda = RefCell::new(Grid::zeros(u0.dims()));
    let report = checkpointed_adjoint_plan(
        &plan,
        u0,
        &mut MemStore::new(),
        &mut |s: &mut Grid, _t| step_primal(&primal_plan, &mut ws.borrow_mut(), s),
        &mut |u_t: &Grid| {
            let energy: f64 = 0.5 * u_t.as_slice().iter().map(|x| x * x).sum::<f64>();
            println!("final kinetic energy after {steps} steps: {energy:.6}");
            *lambda.borrow_mut() = u_t.clone(); // dE/du_T = u_T
        },
        &mut |s: &mut Grid, _t, _at| {
            let mut w = ws.borrow_mut();
            let mut lambda = lambda.borrow_mut();
            std::mem::swap(w.grid_mut("u_1"), s); // primal state before this step
            std::mem::swap(w.grid_mut("u_b"), &mut *lambda);
            w.grid_mut("u_1_b").fill(0.0);
            run(&adj_plan, &mut w, ExecMode::serial().rows()).unwrap();
            std::mem::swap(w.grid_mut("u_1"), s); // hand the state back
            std::mem::swap(w.grid_mut("u_1_b"), &mut *lambda);
        },
    )
    .expect("in-memory checkpointed sweep");
    println!(
        "gradient wrt initial condition: |dE/du0| = {:.6}",
        lambda.borrow().norm2()
    );
    println!(
        "checkpointing: {} recomputed steps, {} peak snapshots (store-all would keep {})",
        report.recomputed_steps, report.peak_snapshots, steps
    );
}
