//! Scheduler bench: unfused (one barrier per adjoint nest) vs fused-tiled
//! (one barrier total, cache-blocked tiles) vs the conventional
//! scatter-with-atomics baseline, on the paper's wave and Burgers kernels.
//!
//! Sizes default small for CI; override with `PERFORAD_N` /
//! `PERFORAD_THREADS` / `PERFORAD_SAMPLES`.

use perforad_bench::micro::Criterion;
use perforad_bench::{env_size, Case};
use perforad_exec::{run, ExecMode, ThreadPool};
use perforad_sched::{run_schedule, SchedOptions, TilePolicy};

fn threads() -> usize {
    env_size(
        "PERFORAD_THREADS",
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(2),
    )
}

fn wave_schedule(c: &mut Criterion) {
    let n = env_size("PERFORAD_N", 64);
    let mut case = Case::wave(n);
    let pool = ThreadPool::new(threads());
    println!(
        "wave3d n={n}, {} threads, {}",
        pool.size(),
        case.schedule.describe()
    );
    let mut g = c.benchmark_group(&format!("wave3d_{n}_adjoint"));
    g.sample_size(5);
    let plan = case.adjoint_plan.clone();
    g.bench_function("unfused_parallel", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::parallel(&pool)).unwrap())
    });
    let schedule = case.schedule.clone();
    g.bench_function("fused_tiled_dynamic", |b| {
        b.iter(|| run_schedule(&schedule, &mut case.ws, &pool).unwrap())
    });
    let static_sched = perforad_sched::compile_schedule(
        &case.adjoint,
        &case.ws,
        &case.bind,
        &SchedOptions::default().with_policy(TilePolicy::Static),
    )
    .unwrap();
    g.bench_function("fused_tiled_static", |b| {
        b.iter(|| run_schedule(&static_sched, &mut case.ws, &pool).unwrap())
    });
    let scatter = case.scatter_plan.clone();
    g.bench_function("scatter_atomic", |b| {
        b.iter(|| run(&scatter, &mut case.ws, ExecMode::parallel_atomic(&pool)).unwrap())
    });
    g.finish();
}

fn burgers_schedule(c: &mut Criterion) {
    let n = env_size("PERFORAD_N_BURGERS", 1 << 20);
    let mut case = Case::burgers(n);
    let pool = ThreadPool::new(threads());
    println!(
        "burgers n={n}, {} threads, {}",
        pool.size(),
        case.schedule.describe()
    );
    let mut g = c.benchmark_group(&format!("burgers_{n}_adjoint"));
    g.sample_size(5);
    let plan = case.adjoint_plan.clone();
    g.bench_function("unfused_parallel", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::parallel(&pool)).unwrap())
    });
    let schedule = case.schedule.clone();
    g.bench_function("fused_tiled_dynamic", |b| {
        b.iter(|| run_schedule(&schedule, &mut case.ws, &pool).unwrap())
    });
    let scatter = case.scatter_plan.clone();
    g.bench_function("scatter_atomic", |b| {
        b.iter(|| run(&scatter, &mut case.ws, ExecMode::parallel_atomic(&pool)).unwrap())
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    wave_schedule(&mut c);
    burgers_schedule(&mut c);
}
