//! Lowering micro-bench: the per-point stack interpreter vs the
//! register-IR row executor, serial and parallel, on the paper kernels —
//! the 3-D wave adjoint here is the speed claim behind the lowering
//! pipeline (rows must beat the interpreter by ≥2× serially).
//!
//! Sizes default small for CI; override with `PERFORAD_N` /
//! `PERFORAD_N_BURGERS` / `PERFORAD_THREADS` / `PERFORAD_SAMPLES`.

use perforad_bench::micro::Criterion;
use perforad_bench::{env_size, Case};
use perforad_exec::{run, ExecMode, ThreadPool};
use perforad_sched::run_schedule;

fn threads() -> usize {
    env_size(
        "PERFORAD_THREADS",
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(2),
    )
}

fn lowering_group(c: &mut Criterion, mut case: Case) {
    let pool = ThreadPool::new(threads());
    let name = format!("{}_adjoint_lowering", case.name);
    println!("{name}: {}", case.schedule_rows.describe());
    let mut g = c.benchmark_group(&name);
    g.sample_size(5);
    let plan = case.adjoint_plan.clone();
    g.bench_function("interpreter_serial", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::serial()).unwrap())
    });
    g.bench_function("rows_serial", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::serial().rows()).unwrap())
    });
    g.bench_function("interpreter_parallel", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::parallel(&pool)).unwrap())
    });
    g.bench_function("rows_parallel", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::parallel(&pool).rows()).unwrap())
    });
    let fused = case.schedule.clone();
    g.bench_function("fused_interpreter", |b| {
        b.iter(|| run_schedule(&fused, &mut case.ws, &pool).unwrap())
    });
    let fused_rows = case.schedule_rows.clone();
    g.bench_function("fused_rows", |b| {
        b.iter(|| run_schedule(&fused_rows, &mut case.ws, &pool).unwrap())
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    lowering_group(&mut c, Case::wave(env_size("PERFORAD_N", 48)));
    lowering_group(
        &mut c,
        Case::burgers(env_size("PERFORAD_N_BURGERS", 1 << 18)),
    );
}
