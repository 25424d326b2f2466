//! Criterion micro-benches for the stencil kernels: primal, PerforAD
//! gather adjoint, conventional scatter adjoint (serial and atomic) for
//! both paper test cases.

use perforad_bench::micro::Criterion;
use perforad_bench::Case;
use perforad_exec::{run, ExecMode, ThreadPool};

fn wave_kernels(c: &mut Criterion) {
    let n = 32;
    let mut case = Case::wave(n);
    let pool = ThreadPool::new(2);
    let mut g = c.benchmark_group("wave3d_32");
    g.sample_size(10);
    let plan = case.primal_plan.clone();
    g.bench_function("primal_serial", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::serial()).unwrap())
    });
    let plan = case.adjoint_plan.clone();
    g.bench_function("perforad_serial", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::serial()).unwrap())
    });
    g.bench_function("perforad_parallel2", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::parallel(&pool)).unwrap())
    });
    let plan = case.scatter_plan.clone();
    g.bench_function("scatter_serial", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::serial()).unwrap())
    });
    g.bench_function("scatter_atomic2", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::parallel_atomic(&pool)).unwrap())
    });
    g.finish();
}

fn burgers_kernels(c: &mut Criterion) {
    let n = 262_144;
    let mut case = Case::burgers(n);
    let pool = ThreadPool::new(2);
    let mut g = c.benchmark_group("burgers_256k");
    g.sample_size(10);
    let plan = case.primal_plan.clone();
    g.bench_function("primal_serial", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::serial()).unwrap())
    });
    let plan = case.adjoint_plan.clone();
    g.bench_function("perforad_serial", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::serial()).unwrap())
    });
    g.bench_function("perforad_parallel2", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::parallel(&pool)).unwrap())
    });
    let plan = case.scatter_plan.clone();
    g.bench_function("scatter_atomic2", |b| {
        b.iter(|| run(&plan, &mut case.ws, ExecMode::parallel_atomic(&pool)).unwrap())
    });
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    wave_kernels(&mut c);
    burgers_kernels(&mut c);
}
