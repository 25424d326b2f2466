//! Ablation benches (DESIGN.md A1–A4): boundary strategy, statement
//! merging, VM-vs-static kernels, and checkpointing schedules.

use perforad_bench::micro::Criterion;
use perforad_ckpt::{checkpointed_adjoint_plan, CheckpointPlan, MemStore};
use perforad_core::{AdjointOptions, BoundaryStrategy};
use perforad_exec::{compile_adjoint, run, ExecMode};
use perforad_pde::kernels;
use perforad_pde::{burgers, wave3d};

/// A1: disjoint vs guarded vs padded boundary handling.
fn boundary_strategy(c: &mut Criterion) {
    let n = 48;
    let mut g = c.benchmark_group("boundary_strategy_wave48");
    g.sample_size(10);
    for (label, strategy) in [
        ("disjoint", BoundaryStrategy::Disjoint),
        ("guarded", BoundaryStrategy::Guarded),
        ("padded", BoundaryStrategy::Padded),
    ] {
        let (mut ws, bind) = wave3d::workspace(n, 0.1);
        // Padded correctness requires zero seeds outside the primal output
        // interior; wave3d::workspace already seeds the interior only.
        let adj = wave3d::nest()
            .adjoint(
                &wave3d::activity(),
                &AdjointOptions::default().with_strategy(strategy),
            )
            .unwrap();
        let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| run(&plan, &mut ws, ExecMode::serial()).unwrap())
        });
    }
    g.finish();
}

/// A3: merged vs unmerged core statements.
fn merge_ablation(c: &mut Criterion) {
    let n = 262_144;
    let mut g = c.benchmark_group("merge_burgers_256k");
    g.sample_size(10);
    for (label, merge) in [("unmerged", false), ("merged", true)] {
        let (mut ws, bind) = burgers::workspace(n, 0.3, 0.1);
        let opts = AdjointOptions {
            merge,
            ..Default::default()
        };
        let adj = burgers::nest()
            .adjoint(&burgers::activity(), &opts)
            .unwrap();
        let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| run(&plan, &mut ws, ExecMode::serial()).unwrap())
        });
    }
    g.finish();
}

/// A5: per-statement CSE on the piecewise Burgers adjoint (the redundancy
/// §4 of the paper attributes to symbolic differentiation without CSE).
fn cse_ablation(c: &mut Criterion) {
    let n = 262_144;
    let mut g = c.benchmark_group("cse_burgers_adjoint_256k");
    g.sample_size(10);
    for (label, cse) in [("no_cse", false), ("cse", true)] {
        let (mut ws, bind) = burgers::workspace(n, 0.3, 0.1);
        let adj = burgers::nest()
            .adjoint(&burgers::activity(), &AdjointOptions::default())
            .unwrap();
        let plan = perforad_exec::compile_adjoint_opts(&adj, &ws, &bind, cse).unwrap();
        g.bench_function(label, |b| {
            b.iter(|| run(&plan, &mut ws, ExecMode::serial()).unwrap())
        });
    }
    g.finish();
}

/// A2: bytecode VM vs statically generated (rustc-compiled) kernel.
fn vm_vs_static(c: &mut Criterion) {
    let n = 48usize;
    let mut g = c.benchmark_group("vm_vs_static_wave48");
    g.sample_size(10);
    let (mut ws, bind) = wave3d::workspace(n, 0.1);
    let plan = perforad_exec::compile_nest(&wave3d::nest(), &ws, &bind).unwrap();
    g.bench_function("vm_primal", |b| {
        b.iter(|| run(&plan, &mut ws, ExecMode::serial()).unwrap())
    });
    let (ws2, _) = wave3d::workspace(n, 0.1);
    let dims = [n, n, n];
    let mut u = vec![0.0; n * n * n];
    g.bench_function("static_primal", |b| {
        b.iter(|| {
            kernels::wave3d_primal(
                i64::MIN,
                i64::MAX,
                n as i64,
                0.1,
                &mut u,
                ws2.grid("c").as_slice(),
                ws2.grid("u_1").as_slice(),
                ws2.grid("u_2").as_slice(),
                &dims,
            )
        })
    });
    g.finish();
}

/// A4: store-all vs a `⌈log₂T⌉ + 1`-snapshot binomial plan on a toy
/// recurrence — one driver, two placements.
fn checkpoint_ablation(c: &mut Criterion) {
    let steps = 4096usize;
    let log_budget = steps.next_power_of_two().trailing_zeros() as usize + 1;
    let mut g = c.benchmark_group("checkpoint_4096_steps");
    for (label, plan) in [
        ("store_all", CheckpointPlan::store_all(steps)),
        ("binomial", CheckpointPlan::with_budget(steps, log_budget)),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut lambda = 1.0;
                checkpointed_adjoint_plan(
                    &plan,
                    0.5f64,
                    &mut MemStore::new(),
                    &mut |x, _t| *x += 1e-4 * *x * *x,
                    &mut |_| {},
                    &mut |x, _t| lambda *= 1.0 + 2e-4 * *x,
                )
                .unwrap();
                lambda
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::new();
    boundary_strategy(&mut c);
    merge_ablation(&mut c);
    cse_ablation(&mut c);
    vm_vs_static(&mut c);
    checkpoint_ablation(&mut c);
}
