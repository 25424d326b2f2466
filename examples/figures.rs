//! The paper's evaluation, Figs. 8–15: thread scaling and absolute
//! runtimes of the gather adjoint (PerforAD) beside the primal and the
//! conventional scatter adjoint, for the 3-D wave equation and the 1-D
//! Burgers equation.
//!
//! The paper's Broadwell and KNL machines are not here, so every figure is
//! reproduced twice: each kernel's series are measured once on this host
//! (at n = 64³ and 2 000 000 cells), and the analytic model
//! (`perforad::perfmodel`) projects the same loop-nest IR onto both paper
//! machines at the paper's sizes (1000³ and 10⁹ cells). The sizes are
//! fixed; the program takes no arguments and reads no environment variable.
//!
//! Run with: `cargo run --release --example figures`

use perforad::exec::Plan;
use perforad::pde::{burgers, wave3d};
use perforad::perfmodel::{self, KernelProfile};
use perforad::prelude::*;
use perforad::tune::time_best;
use std::fmt::Display;

fn main() {
    let wave = measure(
        "wave3d, n = 64³",
        wave3d::nest(),
        &wave3d::activity(),
        wave3d::workspace(64, 0.1),
        1000,
    );
    project("Wave Equation", 8, &wave, 0.0);

    let burgers = measure(
        "burgers1d, n = 2 000 000",
        burgers::nest(),
        &burgers::activity(),
        burgers::workspace(2_000_000, 0.3, 0.1),
        1_000_000_000,
    );
    // Fig. 15: on KNL the serial conventional adjoint runs in Tapenade's
    // stack mode, the 125× case: its min/max intermediates are pushed and
    // popped, 16 B per point.
    project("Burgers Equation", 9, &burgers, 16.0);
}

/// One timed code path: a plan under an execution mode, or a fused and
/// tiled schedule (one parallel region) on a pool.
enum Code<'a> {
    Plan(&'a Plan, ExecMode<'a>),
    Schedule(&'a Schedule, &'a ThreadPool),
}

/// One `(threads, [(series, seconds)])` row of a scaling figure.
type Row = (usize, Vec<(&'static str, f64)>);

/// Measures one kernel's host series once, prints them as a scaling table
/// and as runtime bars, and returns the (primal, gather adjoint, scatter
/// adjoint) profiles at the paper's grid size `paper_n`.
fn measure(
    name: &str,
    nest: LoopNest,
    act: &ActivityMap,
    (mut ws, bind): (Workspace, Binding),
    paper_n: i64,
) -> [KernelProfile; 3] {
    let adjoint = nest
        .adjoint(act, &AdjointOptions::default())
        .expect("a paper kernel differentiates");
    let scatter = nest.scatter_adjoint(act).expect("scatter adjoint");
    let primal = compile_nest(&nest, &ws, &bind).expect("primal plan");
    let gather = compile_adjoint(&adjoint, &ws, &bind).expect("adjoint plan");
    let atomic = compile_nest(&scatter, &ws, &bind).expect("scatter plan");
    let opts = SchedOptions::default();
    let fused = compile_schedule(&adjoint, &ws, &bind, &opts).expect("schedule");
    let fused_rows =
        compile_schedule(&adjoint, &ws, &bind, &opts.with_rows()).expect("rows schedule");

    let cores = std::thread::available_parallelism().map_or(2, |c| c.get());
    let mut rows: Vec<Row> = Vec::new();
    for threads in thread_counts(2 * cores) {
        let pool = ThreadPool::new(threads);
        // One thread runs on the caller; the atomics baseline always pays
        // its CAS adds on the pool, as in the paper's single-thread column.
        let mode = if threads == 1 {
            ExecMode::serial()
        } else {
            ExecMode::parallel(&pool)
        };
        let atomics = ExecMode::parallel_atomic(&pool);
        let table = [
            ("Primal", Code::Plan(&primal, mode)),
            ("PerforAD", Code::Plan(&gather, mode)),
            ("Rows", Code::Plan(&gather, mode.rows())),
            ("Fused", Code::Schedule(&fused, &pool)),
            ("FusedRows", Code::Schedule(&fused_rows, &pool)),
            ("Atomics", Code::Plan(&atomic, atomics)),
        ];
        let secs = table.map(|(label, code)| {
            let secs = time_best(2, || match code {
                Code::Plan(plan, mode) => {
                    run(plan, &mut ws, mode).expect("plan runs");
                }
                Code::Schedule(schedule, pool) => {
                    run_schedule(schedule, &mut ws, pool).expect("schedule runs");
                }
            });
            (label, secs)
        });
        rows.push((threads, secs.to_vec()));
    }
    let conventional = time_best(2, || {
        run(&atomic, &mut ws, ExecMode::serial()).expect("scatter adjoint runs serially");
    });

    println!("\n# {name}, measured on this host ({cores} cores)");
    println!("schedule: {}", fused.describe());
    print_scaling("Scalability on this host", &rows);
    let mut bars = vec![("Adjoint Serial".to_string(), conventional)];
    for (k, (label, secs)) in rows[0].1.iter().enumerate() {
        bars.push((format!("{label} 1 thread"), *secs));
        bars.push((format!("{label} best"), fastest(&rows, k)));
    }
    print_runtimes("Runtimes on this host", &bars);

    let mut sizes = bind.sizes.clone();
    sizes.values_mut().for_each(|n| *n = paper_n);
    let profile = |nests: &[LoopNest]| perfmodel::profile(nests, &sizes);
    [
        profile(std::slice::from_ref(&nest)),
        profile(&adjoint.nests),
        profile(std::slice::from_ref(&scatter)),
    ]
}

/// Prints the model projection of one kernel onto both paper machines:
/// the scaling figure `figure` and the runtime figure `figure + 2` on
/// Broadwell, and the same four figures later on KNL, where the serial
/// conventional adjoint pushes `knl_stack` bytes per point.
fn project(equation: &str, figure: usize, profiles: &[KernelProfile; 3], knl_stack: f64) {
    let [primal, gather, scatter] = profiles;
    let machines = [
        (figure, perfmodel::broadwell(), 0.0),
        (figure + 4, perfmodel::knl(), knl_stack),
    ];
    for (figure, machine, stack) in machines {
        // The conventional adjoint is Tapenade's output: serial, no atomics.
        let serial = KernelProfile {
            atomics_per_point: 0.0,
            ..*scatter
        };
        let serial = perfmodel::with_stack(serial, stack);
        let title = |kind, figure| {
            let on = machine.name;
            format!("Figure {figure}: {kind} of the {equation} on {on} [model projection]")
        };
        let at = |p: &KernelProfile, threads| perfmodel::predict(&machine, p, threads);
        let serial_s = at(&serial, 1);
        let rows: Vec<Row> = thread_counts(machine.threads_max)
            .into_iter()
            .map(|t| {
                let series = vec![
                    ("Primal", at(primal, t)),
                    ("Adjoint", serial_s),
                    ("Atomics", at(scatter, t)),
                    ("PerforAD", at(gather, t)),
                ];
                (t, series)
            })
            .collect();
        print_scaling(&title("Scalability", figure), &rows);
        let bars = [
            ("Primal Serial", at(primal, 1)),
            ("PerforAD Serial", at(gather, 1)),
            ("Adjoint Serial", serial_s),
            ("Primal Parallel", fastest(&rows, 0)),
            ("PerforAD Parallel", fastest(&rows, 3)),
            ("Atomics best", fastest(&rows, 2)),
        ];
        print_runtimes(&title("Runtimes", figure + 2), &bars);
        let ratio = fastest(&rows, 2).min(serial_s) / fastest(&rows, 3);
        println!("PerforAD parallel vs best conventional adjoint: {ratio:.1}x");
    }
}

/// 1, 2, 4, … below `max`, then `max`.
fn thread_counts(max: usize) -> Vec<usize> {
    let powers = (0..).map(|k| 1 << k).take_while(|&t| t < max);
    powers.chain([max]).collect()
}

/// The fastest time of series `k` over every thread count.
fn fastest(rows: &[Row], k: usize) -> f64 {
    rows.iter()
        .map(|(_, row)| row[k].1)
        .fold(f64::MAX, f64::min)
}

/// Prints each series' speedup over its own first row, like the paper's
/// scaling figures.
fn print_scaling(title: &str, rows: &[Row]) {
    println!("\n## {title}");
    print!("{:<10}", "threads");
    for (label, _) in &rows[0].1 {
        print!("{label:>12}");
    }
    println!("{:>10}", "ideal");
    for (threads, row) in rows {
        print!("{threads:<10}");
        for ((_, first), (_, secs)) in rows[0].1.iter().zip(row) {
            print!("{:>12.2}", first / secs);
        }
        println!("{threads:>10}");
    }
}

/// Prints absolute runtimes, the bars of Figs. 10, 11, 14 and 15.
fn print_runtimes(title: &str, bars: &[(impl Display, f64)]) {
    println!("\n## {title}");
    for (label, secs) in bars {
        println!("{label:<24} {secs:>10.4} s");
    }
}
