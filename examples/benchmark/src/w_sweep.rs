//! `wave3d_sweep` and `burgers1d_sweep`: one tuned gather-adjoint sweep
//! of a paper kernel, beside the same schedule on one thread and the
//! scatter-with-atomics adjoint the paper compares against.
//!
//! Kernel-bound: `exec` (through `sched` and `jit`) does all the work of
//! the timed region; `core`/`tune`/`jit` builds are paid in set-up. The
//! schedule is the model's pick (see `tuning.rs`).

use crate::gen::{self, Rng};
use crate::harness::{self, ms_since, Args, Checks, Outcome, RunDir};
use crate::surface::*;
use crate::{probes, stats, trace, tuning};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kernel {
    /// §4.1: the 3-D 7-point wave stencil, 53 adjoint nests.
    Wave3d,
    /// §4.2: the upwinded 1-D Burgers stencil, 5 adjoint nests with
    /// ternaries that read primal values.
    Burgers1d,
}

/// Grid edge of the 3-D sweep: 16 MiB per array, four times the 4 MiB
/// L2 of the calibration host and inside its 260 MiB shared L3.
pub const WAVE_N: usize = 128;
/// Cells of the 1-D sweep: 16 MiB per array, one long row.
pub const BURGERS_N: usize = 1 << 21;
/// Oracle shapes (tape AD keeps one tape node per operation).
const WAVE_N_SMALL: usize = 10;
const BURGERS_N_SMALL: usize = 96;

impl Kernel {
    fn n(self) -> usize {
        match self {
            Kernel::Wave3d => WAVE_N,
            Kernel::Burgers1d => BURGERS_N,
        }
    }

    fn n_small(self) -> usize {
        match self {
            Kernel::Wave3d => WAVE_N_SMALL,
            Kernel::Burgers1d => BURGERS_N_SMALL,
        }
    }

    fn rank(self) -> usize {
        match self {
            Kernel::Wave3d => 3,
            Kernel::Burgers1d => 1,
        }
    }

    fn nest(self) -> LoopNest {
        match self {
            Kernel::Wave3d => wave3d::nest(),
            Kernel::Burgers1d => burgers::nest(),
        }
    }

    fn activity(self) -> ActivityMap {
        match self {
            Kernel::Wave3d => wave3d::activity(),
            Kernel::Burgers1d => burgers::activity(),
        }
    }

    /// Passive arrays, active inputs, and the primal output.
    fn arrays(
        self,
    ) -> (
        &'static [&'static str],
        &'static [&'static str],
        &'static str,
    ) {
        match self {
            Kernel::Wave3d => (&["c"], &["u_1", "u_2"], "u"),
            Kernel::Burgers1d => (&[], &["u_1"], "u"),
        }
    }
}

/// Seeded stencil coefficients: `D` (and `C` for Burgers).
fn params(kernel: Kernel, seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = Rng::new(seed, 10);
    match kernel {
        Kernel::Wave3d => vec![("D", rng.range(0.05, 0.12))],
        Kernel::Burgers1d => vec![("C", rng.range(0.2, 0.35)), ("D", rng.range(0.05, 0.12))],
    }
}

/// Seeded workspace at edge `n`: primal fields in `[-1, 1)` (both upwind
/// branches of Burgers are taken), a velocity field around 1, an adjoint
/// seed that is zero off the interior the primal writes, zeroed outputs.
fn workspace(kernel: Kernel, n: usize, seed: u64) -> (Workspace, Binding) {
    let rank = kernel.rank();
    let dims = vec![n; rank];
    let len: usize = dims.iter().product();
    let (passive, active, out) = kernel.arrays();
    let mut ws = Workspace::new();
    for (k, name) in passive.iter().enumerate() {
        let mut rng = Rng::new(seed, 20 + k as u64);
        ws.insert(
            *name,
            Grid::from_vec(&dims, gen::uniform_vec(&mut rng, len, 0.8, 1.2)),
        );
    }
    for (k, name) in active.iter().enumerate() {
        let mut rng = Rng::new(seed, 30 + k as u64);
        ws.insert(
            *name,
            Grid::from_vec(&dims, gen::uniform_vec(&mut rng, len, -1.0, 1.0)),
        );
        ws.insert(format!("{name}_b").as_str(), Grid::zeros(&dims));
    }
    ws.insert(out, Grid::zeros(&dims));
    let mut rng = Rng::new(seed, 40);
    let mut seed_b = gen::uniform_vec(&mut rng, len, -0.5, 0.5);
    let mut ix = vec![0usize; rank];
    for v in seed_b.iter_mut() {
        if ix.iter().any(|&x| x == 0 || x == n - 1) {
            *v = 0.0;
        }
        for d in (0..rank).rev() {
            ix[d] += 1;
            if ix[d] < n {
                break;
            }
            ix[d] = 0;
        }
    }
    ws.insert(format!("{out}_b").as_str(), Grid::from_vec(&dims, seed_b));
    let mut bind = Binding::new().size("n", n as i64);
    for (name, v) in params(kernel, seed) {
        bind = bind.param(name, v);
    }
    (ws, bind)
}

fn zero_outputs(kernel: Kernel, ws: &mut Workspace) {
    for name in kernel.arrays().1 {
        ws.grid_mut(&format!("{name}_b")).fill(0.0);
    }
}

fn outputs(kernel: Kernel, ws: &Workspace) -> Vec<Vec<f64>> {
    let names = kernel.arrays().1;
    names
        .iter()
        .map(|name| ws.grid(&format!("{name}_b")).as_slice().to_vec())
        .collect()
}

/// The small-shape oracles: the gather adjoint against the independent
/// tape (≤1e-12) and the `<Jv,w> = <v,Jᵀw>` identity. Returns the tape's
/// cost in ms.
fn oracle(kernel: Kernel, seed: u64, checks: &mut Checks) -> f64 {
    let n = kernel.n_small();
    let (mut ws, bind) = workspace(kernel, n, seed);
    let (nest, act) = (kernel.nest(), kernel.activity());
    let (passive, active, out) = kernel.arrays();
    let adj = nest
        .adjoint(&act, &AdjointOptions::default())
        .expect("adjoint");
    let sched = compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).expect("schedule");
    zero_outputs(kernel, &mut ws);
    let ran = run_schedule_serial(&sched, &mut ws).is_ok();
    checks.op(ran, "oracle: small gather adjoint runs");
    let got = outputs(kernel, &ws);

    // Tape reference.
    let dims = vec![n; kernel.rank()];
    let mut store = MapCtx::new().index("n", n as i64);
    for (name, v) in params(kernel, seed) {
        store = store.scalar(name, v);
    }
    for name in passive.iter().chain(active).chain([&out]) {
        store.arrays.insert(
            Symbol::new(*name),
            (dims.clone(), ws.grid(name).as_slice().to_vec()),
        );
    }
    let mut seeds = BTreeMap::new();
    let w = ws.grid(&format!("{out}_b")).as_slice().to_vec();
    seeds.insert(Symbol::new(out), w.clone());
    let t = Instant::now();
    let tape = tape_adjoint(&nest, &act, &store, &seeds);
    let tape_ms = ms_since(t);
    match tape {
        Ok(reference) => {
            for (k, name) in active.iter().enumerate() {
                let expect = &reference[&Symbol::new(format!("{name}_b").as_str())];
                let worst = got[k]
                    .iter()
                    .zip(expect)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                checks.op(
                    worst <= 1e-12,
                    &format!("oracle: {name}_b vs tape (max diff {worst:e})"),
                );
            }
        }
        Err(e) => checks.op(false, &format!("oracle: tape adjoint failed: {e}")),
    }

    // Dot-product identity with a seeded direction v. J·v by central
    // differences of the primal (exact for the linear wave step up to
    // rounding; O(h²) for Burgers).
    let plan = compile_nest(&nest, &ws, &bind).expect("primal compiles");
    let h = 1e-6;
    let base: Vec<Vec<f64>> = active
        .iter()
        .map(|a| ws.grid(a).as_slice().to_vec())
        .collect();
    let dirs: Vec<Vec<f64>> = (0..active.len())
        .map(|k| gen::uniform_vec(&mut Rng::new(seed, 50 + k as u64), base[k].len(), -1.0, 1.0))
        .collect();
    let primal_at = |sign: f64, ws: &mut Workspace| {
        for (k, a) in active.iter().enumerate() {
            for (x, (b, d)) in ws
                .grid_mut(a)
                .as_mut_slice()
                .iter_mut()
                .zip(base[k].iter().zip(&dirs[k]))
            {
                *x = b + sign * h * d;
            }
        }
        ws.grid_mut(out).fill(0.0);
        let ok = exec_run(&plan, ws, ExecMode::serial()).is_ok();
        (ok, ws.grid(out).as_slice().to_vec())
    };
    let (ok_p, fp) = primal_at(1.0, &mut ws);
    let (ok_m, fm) = primal_at(-1.0, &mut ws);
    let jv_w: f64 = fp
        .iter()
        .zip(&fm)
        .zip(&w)
        .map(|((p, m), w)| (p - m) / (2.0 * h) * w)
        .sum();
    let v_jtw: f64 = dirs
        .iter()
        .zip(&got)
        .map(|(v, g)| v.iter().zip(g).map(|(a, b)| a * b).sum::<f64>())
        .sum();
    let rel = (jv_w - v_jtw).abs() / jv_w.abs().max(v_jtw.abs()).max(1e-300);
    checks.op(
        ok_p && ok_m && rel <= 1e-6,
        &format!("oracle: dot-product identity (rel diff {rel:e})"),
    );
    tape_ms
}

/// Everything set-up produces for the timed region.
pub struct Prepared {
    kernel: Kernel,
    pool: ThreadPool,
    ws: Workspace,
    bind: Binding,
    adj: Adjoint,
    schedule: Schedule,
    report: TuneReport,
    scatter: Plan,
    points: f64,
    /// Per-stage set-up costs, for the per-layer ledger.
    stage_ms: BTreeMap<&'static str, f64>,
    default_groups: usize,
    default_tiles: usize,
}

/// Input generation, transform, schedule, cold tune, JIT, oracles.
pub fn setup(
    kernel: Kernel,
    args: &Args,
    dir: &RunDir,
    checks: &mut Checks,
) -> Result<Prepared, String> {
    let caches = dir.point_caches("cache");
    let mut stage_ms = BTreeMap::new();
    let n = kernel.n();
    let pool = ThreadPool::new(harness::threads());
    let (mut ws, bind) = workspace(kernel, n, args.seed);
    let (nest, act) = (kernel.nest(), kernel.activity());

    let t = Instant::now();
    let adj = nest
        .adjoint(&act, &AdjointOptions::default())
        .map_err(|e| e.to_string())?;
    stage_ms.insert("core.adjoint", ms_since(t));

    let t = Instant::now();
    let default =
        compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).map_err(|e| e.to_string())?;
    stage_ms.insert("sched.compile", ms_since(t));
    let (default_groups, default_tiles) = (default.group_count(), default.tile_count());

    if !jit_available() {
        checks.op(
            false,
            "jit: no usable rustc on this host (the JIT tier cannot be measured)",
        );
    }
    let t = Instant::now();
    let topts = tuning::model_options(&caches.join("tune.json"));
    let (schedule, report) =
        autotune_adjoint(&adj, &mut ws, &bind, &pool, &topts).map_err(|e| e.to_string())?;
    stage_ms.insert("tune.search", ms_since(t));
    checks.op(!report.cache_hit, "tune: set-up search ran cold");

    let t = Instant::now();
    if report.config.lowering == Lowering::Jit {
        let prepared = prepare_schedule(&schedule, &bind, &JitOptions::default());
        checks.op(prepared.is_ok(), "jit: tuned schedule prepared natively");
    }
    stage_ms.insert("jit.prepare", ms_since(t));

    let sc = nest.scatter_adjoint(&act).map_err(|e| e.to_string())?;
    let scatter = compile_nest(&sc, &ws, &bind).map_err(|e| e.to_string())?;

    stage_ms.insert("autodiff.tape", oracle(kernel, args.seed, checks));

    // Warm the caches and page everything in before the timed region.
    for _ in 0..2 {
        checks.op(
            run_tuned_schedule(&schedule, &report.config, &mut ws, &pool),
            "warm-up sweep",
        );
    }
    let points = schedule.points() as f64;
    Ok(Prepared {
        kernel,
        pool,
        ws,
        bind,
        adj,
        schedule,
        report,
        scatter,
        points,
        stage_ms,
        default_groups,
        default_tiles,
    })
}

pub fn measure(p: &mut Prepared, args: &Args, out: &mut Outcome) {
    let name = &args.workload;
    eprintln!("{name}: tuned config {}", p.report.config.describe());
    let mut checks = Checks::default();
    let (mut gather, mut serial, mut atomic) = (Vec::new(), Vec::new(), Vec::new());
    // Interleaved rounds, so a slow spell of the host touches all three
    // series and the ratios between them stay put. The slowest series gets
    // the largest share, so each has a hundred samples or more to find
    // its fastest among.
    const ROUNDS: u32 = 5;
    let round = Duration::from_secs_f64(args.timed_seconds() / ROUNDS as f64);
    let (schedule, cfg, pool) = (&p.schedule, &p.report.config, &p.pool);
    let root = trace::span("timed_region", "bench");
    let mut gather_s = 0.0;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        gather.extend(harness::time_loop(
            round.mul_f64(0.3),
            2,
            &mut checks,
            "gather sweep",
            || {
                let _s = trace::span("exec.sweep.gather", "exec");
                run_tuned_schedule(schedule, cfg, &mut p.ws, pool)
            },
        ));
        gather_s += t.elapsed().as_secs_f64();
        serial.extend(harness::time_loop(
            round.mul_f64(0.25),
            1,
            &mut checks,
            "serial sweep",
            || {
                let _s = trace::span("exec.sweep.serial", "exec");
                run_schedule_serial(schedule, &mut p.ws).is_ok()
            },
        ));
        atomic.extend(harness::time_loop(
            round.mul_f64(0.45),
            1,
            &mut checks,
            "scatter-atomic sweep",
            || {
                let _s = trace::span("exec.sweep.scatter_atomic", "exec");
                exec_run(
                    &p.scatter,
                    &mut p.ws,
                    ExecMode::parallel_atomic(pool).rows(),
                )
                .is_ok()
            },
        ));
    }
    let root_id = root.id();
    drop(root);

    // Output check: the tuned sweep against the per-point serial
    // reference, bit for bit, at full size.
    let kernel = p.kernel;
    zero_outputs(kernel, &mut p.ws);
    checks.op(
        run_tuned_schedule(schedule, cfg, &mut p.ws, pool),
        "checked tuned sweep",
    );
    let tuned = outputs(kernel, &p.ws);
    let reference = compile_schedule(&p.adj, &p.ws, &p.bind, &SchedOptions::default())
        .expect("reference schedule");
    zero_outputs(kernel, &mut p.ws);
    checks.op(
        run_schedule_serial(&reference, &mut p.ws).is_ok(),
        "reference sweep",
    );
    let expect = outputs(kernel, &p.ws);
    let same = tuned
        .iter()
        .zip(&expect)
        .all(|(a, b)| gen::bitwise_equal(a, b));
    checks.op(
        same,
        "tuned sweep bitwise-equal to the per-point serial reference",
    );

    let to_ns = 1e6 / p.points;
    let g = stats::fastest(&gather);
    let s = stats::fastest(&serial);
    let a = stats::fastest(&atomic);
    // Computed from array sizes, not cache misses: exact for a schedule.
    let prof = profile(&p.adj.nests, &p.bind.sizes);
    out.e2e.insert("op_ms", g);
    out.e2e.insert("alt_ms", s);
    out.e2e.insert("speedup", a / g);
    out.e2e.insert(
        "footprint_mb",
        prof.bytes_per_point * p.points / (1u64 << 20) as f64,
    );
    out.value(
        "sweeps_per_s_with_stalls",
        gather.len() as f64 / gather_s,
        "1/s",
    );
    out.timing("sweep_ms", &gather, 1.0, "ms");
    out.timing("sweep_1t_ms", &serial, 1.0, "ms");
    out.timing("sweep_scatter_atomic_ms", &atomic, 1.0, "ms");
    out.value("ns_per_point", g * to_ns, "ns");
    out.value("ns_per_point_1t", s * to_ns, "ns");
    out.value("gather_speedup", a / g, "ratio");
    out.value("thread_speedup", s / g, "ratio");
    out.value("threads", p.pool.size() as f64, "count");

    if args.traced {
        out.layer("exec.thread_speedup", s / g);
        layers(p, args, root_id, g, &prof, out, &mut checks);
    }
    out.checks.merge(checks);
}

/// Per-layer probes of the traced pass.
fn layers(
    p: &mut Prepared,
    args: &Args,
    root: u64,
    gather_ms: f64,
    prof: &KernelProfile,
    out: &mut Outcome,
    checks: &mut Checks,
) {
    let to_ns = 1e6 / p.points;
    let pool = &p.pool;
    let budget = Duration::from_secs_f64(0.08 * args.seconds);

    // Each lowering of the same tiling, at `threads`.
    let tile = p.schedule.tile.clone();
    for (metric, lowering) in [
        ("exec.perpoint_ns_per_point", Lowering::PerPoint),
        ("exec.rows_ns_per_point", Lowering::Rows),
        ("exec.jit_ns_per_point", Lowering::Jit),
    ] {
        let opts = SchedOptions::default()
            .with_tile(&tile)
            .with_lowering(lowering);
        let sched = compile_schedule(&p.adj, &p.ws, &p.bind, &opts).expect("lowering schedule");
        if lowering == Lowering::Jit {
            checks.op(
                prepare_schedule(&sched, &p.bind, &JitOptions::default()).is_ok(),
                "jit probe prepared",
            );
        }
        let v = harness::time_loop(budget, 3, checks, metric, || {
            let _s = trace::span("exec.sweep.lowering_probe", "exec");
            run_schedule(&sched, &mut p.ws, pool).is_ok()
        });
        out.layer(metric, stats::fastest(&v) * to_ns);
    }
    let v = harness::time_loop(budget, 2, checks, "scatter-atomic probe", || {
        exec_run(
            &p.scatter,
            &mut p.ws,
            ExecMode::parallel_atomic(pool).rows(),
        )
        .is_ok()
    });
    out.layer(
        "exec.scatter_atomic_ns_per_point",
        stats::fastest(&v) * to_ns,
    );
    let primal = compile_nest(&p.kernel.nest(), &p.ws, &p.bind).expect("primal compiles");
    let v = harness::time_loop(budget, 3, checks, "primal probe", || {
        exec_run(&primal, &mut p.ws, ExecMode::parallel(pool).rows()).is_ok()
    });
    out.layer("exec.primal_ns_per_point", stats::fastest(&v) * to_ns);
    out.layer(
        "exec.region_overhead_us",
        probes::region_overhead_us(pool, 400),
    );

    // Roofline: computed bytes per point (array sizes, not cache misses)
    // against the triad measured here on arrays of the same size.
    let ns_per_point = gather_ms * to_ns;
    let gbs = prof.bytes_per_point / ns_per_point;
    let len = p.kernel.n().pow(p.kernel.rank() as u32);
    let triad = probes::stream_triad_gbs(len, pool.size(), 5);
    out.layer("exec.computed_bytes_per_point", prof.bytes_per_point);
    out.layer("exec.computed_gbs", gbs);
    out.layer("exec.stream_triad_gbs", triad);
    out.layer("exec.bandwidth_fraction", gbs / triad);

    // The model's figure for the configuration that ran.
    let cfg = &p.report.config;
    let shape = ScheduleShape {
        threads: if cfg.strategy == TunedStrategy::Serial {
            1
        } else {
            pool.size()
        },
        barriers: p.schedule.group_count(),
        tiles: p.schedule.tile_count(),
        rows: cfg.lowering == Lowering::Rows,
        jit: cfg.lowering == Lowering::Jit,
        jit_cold_groups: 0,
        dynamic: cfg.policy == TilePolicy::Dynamic,
    };
    let predicted = predict_schedule(&host(pool.size()), prof, &shape) * 1e9 / p.points;
    out.layer("perfmodel.predicted_ns_per_point", predicted);
    out.layer("perfmodel.residual", ns_per_point / predicted);

    out.layer("sched.compile_us", p.stage_ms["sched.compile"] * 1e3);
    out.layer("sched.groups", p.default_groups as f64);
    out.layer("sched.tiles", p.default_tiles as f64);
    out.layer("tune.search_cold_ms", p.stage_ms["tune.search"]);
    out.layer(
        "tune.candidates_timed",
        (p.report.timed + p.report.refined) as f64,
    );
    out.layer("autodiff.tape_gradient_ms", p.stage_ms["autodiff.tape"]);
    probes::finish_traced(&args.workload, root, out);
}
