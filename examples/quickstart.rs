//! Quickstart: the paper's §3.2 running example, end to end.
//!
//! Builds `r[i] = c[i]*(2 u[i-1] - 3 u[i] + 4 u[i+1])`, differentiates it
//! into gather-only adjoint stencil loops, prints the generated C (like
//! PerforAD's `printfunction`), and executes primal + adjoint in parallel.
//!
//! Run with: `cargo run --release --example quickstart`

use perforad::prelude::*;

fn main() {
    // 1. Describe the stencil — with the DSL front-end here; the builder
    //    API (`make_loop_nest`) is equivalent.
    let nest =
        parse_stencil("for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }")
            .expect("valid stencil");
    println!("primal loop nest:\n{nest}");

    // 2. Differentiate: gather-only adjoint (core + boundary nests).
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adjoint = nest
        .adjoint(&act, &AdjointOptions::default().merged())
        .expect("stencil satisfies the §3.4 restrictions");
    println!(
        "adjoint: {} loop nests, core bounds {}",
        adjoint.nest_count(),
        adjoint.core_nest().unwrap().bounds[0]
    );

    // 3. Print C, like the paper's Fig. 5 / Fig. 7 listings.
    println!(
        "\ngenerated C:\n{}",
        print_function("stencil1d_b", &adjoint.nests, &COptions::default())
    );

    // 4. Execute. Arrays live in a Workspace; `n` binds at run time.
    let n = 1 << 20;
    let mut ws = Workspace::new()
        .with(
            "u",
            Grid::from_fn(&[n + 1], |ix| (ix[0] as f64 * 1e-3).sin()),
        )
        .with("c", Grid::full(&[n + 1], 0.5))
        .with("r", Grid::zeros(&[n + 1]))
        .with("u_b", Grid::zeros(&[n + 1]))
        .with("r_b", Grid::full(&[n + 1], 1.0));
    let bind = Binding::new().size("n", n as i64);

    let pool = ThreadPool::new(
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(2),
    );
    let plan = compile_nest(&nest, &ws, &bind).unwrap();
    run(&plan, &mut ws, ExecMode::parallel(&pool).rows()).unwrap();
    println!("primal:  |r|   = {:.6}", ws.grid("r").norm2());

    let aplan = compile_adjoint(&adjoint, &ws, &bind).unwrap();
    run(&aplan, &mut ws, ExecMode::parallel(&pool).rows()).unwrap();
    println!(
        "adjoint: |u_b| = {:.6}  (race-free, no atomics)",
        ws.grid("u_b").norm2()
    );

    // 5. Schedule: fuse the disjoint adjoint nests into one tiled parallel
    //    region (one barrier instead of one per nest) and re-run.
    let reference = ws.grid("u_b").clone();
    ws.grid_mut("u_b").fill(0.0);
    let schedule =
        compile_schedule(&adjoint, &ws, &bind, &SchedOptions::default().with_rows()).unwrap();
    println!("\nschedule: {}", schedule.describe());
    run_schedule(&schedule, &mut ws, &pool).unwrap();
    assert_eq!(ws.grid("u_b").max_abs_diff(&reference), 0.0);
    println!(
        "fused:   |u_b| = {:.6}  (identical bitwise, single barrier)",
        ws.grid("u_b").norm2()
    );
}
