//! `seismic_ckpt`: a single-shot seismic gradient as a `BatchPlan` of
//! one, checkpointed under a fixed snapshot budget, with the snapshots
//! in memory and on disk.
//!
//! Time-loop-bound: `ckpt` (plan, stores, recompute) and `pde` decide
//! the result. The fixed budget makes the recompute counts exact. The
//! disk store is run too, but is not gated: its fastest gradient moved by
//! 12 % between two minutes of one afternoon on the calibration host,
//! where the two in-memory series moved by 4 %.

use crate::gen::{self, Rng};
use crate::harness::{self, ms_since, Args, Checks, Outcome, RunDir};
use crate::surface::*;
use crate::{probes, stats, trace, tuning};
use std::time::{Duration, Instant};

/// Grid edge, time steps and snapshot budget — fixed constants.
pub const N: usize = 16;
pub const STEPS: usize = 64;
pub const BUDGET: usize = 8;

pub struct Prepared {
    memory: BatchPlan<'static>,
    disk: BatchPlan<'static>,
    store_all: BatchPlan<'static>,
    pool: &'static ThreadPool,
    cfg: SeismicConfig,
    shot: ShotBatch,
    /// Store-all misfit and gradient: the reference every checkpointed
    /// result must equal bit for bit.
    reference: (f64, Vec<f64>),
    plan_new_ms: f64,
}

fn options(checkpointed: bool, backend: SnapshotBackend) -> BatchOptions {
    BatchOptions {
        checkpointed: Some(checkpointed),
        budget: Some(BUDGET),
        backend,
        ..BatchOptions::default()
    }
}

pub fn setup(args: &Args, dir: &RunDir, checks: &mut Checks) -> Result<Prepared, String> {
    let caches = dir.point_caches("cache");
    // The plans hold `&ThreadPool` for as long as `Prepared` lives; one
    // leaked pool per process keeps that borrow simple.
    let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(harness::threads())));
    let cfg = SeismicConfig {
        n: N,
        steps: STEPS,
        d: Rng::new(args.seed, 10).range(0.08, 0.12),
    };
    let dims = [N; 3];
    let c = Grid::from_vec(
        &dims,
        gen::velocity_model(&mut Rng::new(args.seed, 11), N, 0.02),
    );
    let source = gen::wavelet(&mut Rng::new(args.seed, 12), STEPS);
    let observed = Grid::from_vec(
        &dims,
        gen::uniform_vec(&mut Rng::new(args.seed, 13), N * N * N, -0.01, 0.01),
    );
    let mut shot = ShotBatch::new();
    shot.push(source, observed);

    let tune_cache = caches.join("tune.json");
    let pinned = tuning::pin_seismic(&cfg, true, &[pool.size()], &tune_cache);
    tuning::pin_seismic(&cfg, false, &[pool.size()], &tune_cache);
    let t = Instant::now();
    let memory = BatchPlan::new(&cfg, &c, &options(true, SnapshotBackend::Memory), pool);
    let plan_new_ms = ms_since(t);
    tuning::check_pinned(checks, &pinned, &memory.tuned().describe());
    eprintln!(
        "{}: plan config {}",
        args.workload,
        memory.tuned().describe()
    );
    let disk = BatchPlan::new(
        &cfg,
        &c,
        &options(true, SnapshotBackend::Disk(caches.join("spill"))),
        pool,
    );
    let store_all = BatchPlan::new(&cfg, &c, &options(false, SnapshotBackend::Memory), pool);
    let r = store_all.run(&shot);
    let reference = (r.misfits[0], r.gradients[0].as_slice().to_vec());
    // Warm both checkpointed paths once.
    memory.run(&shot);
    disk.run(&shot);
    Ok(Prepared {
        memory,
        disk,
        store_all,
        pool,
        cfg,
        shot,
        reference,
        plan_new_ms,
    })
}

fn matches(r: &BatchResult, reference: &(f64, Vec<f64>)) -> bool {
    r.misfits[0].to_bits() == reference.0.to_bits()
        && gen::bitwise_equal(r.gradients[0].as_slice(), &reference.1)
}

pub fn measure(p: &mut Prepared, args: &Args, dir: &RunDir, out: &mut Outcome) {
    let mut checks = Checks::default();
    let (mut mem, mut disk, mut dense) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_report = None;
    const ROUNDS: u32 = 4;
    let round = Duration::from_secs_f64(args.timed_seconds() / ROUNDS as f64);
    let root = trace::span("timed_region", "bench");
    let mut mem_s = 0.0;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        mem.extend(harness::time_loop(
            round.mul_f64(0.55),
            1,
            &mut checks,
            "checkpointed gradient (memory)",
            || {
                let _s = trace::span("pde.batchplan.run.memory", "pde");
                let r = p.memory.run(&p.shot);
                let ok = matches(&r, &p.reference);
                last_report = r.reports.into_iter().next().flatten();
                ok
            },
        ));
        mem_s += t.elapsed().as_secs_f64();
        disk.extend(harness::time_loop(
            round.mul_f64(0.1),
            1,
            &mut checks,
            "checkpointed gradient (disk)",
            || {
                let _s = trace::span("pde.batchplan.run.disk", "pde");
                let r = p.disk.run(&p.shot);
                let on_disk = r.reports[0].as_ref().is_some_and(|rep| rep.store == "disk");
                matches(&r, &p.reference) && on_disk
            },
        ));
        dense.extend(harness::time_loop(
            round.mul_f64(0.35),
            1,
            &mut checks,
            "store-all gradient",
            || {
                let _s = trace::span("pde.batchplan.run.store_all", "pde");
                matches(&p.store_all.run(&p.shot), &p.reference)
            },
        ));
    }
    let root_id = root.id();
    drop(root);

    let (m, d, s) = (
        stats::fastest(&mem),
        stats::fastest(&disk),
        stats::fastest(&dense),
    );
    out.e2e.insert("op_ms", m);
    out.e2e.insert("alt_ms", s);
    // Below one: what checkpointing costs over keeping every state.
    out.e2e.insert("speedup", s / m);
    out.timing("gradient_s", &mem, 1e-3, "s");
    out.timing("gradient_disk_s", &disk, 1e-3, "s");
    out.timing("gradient_store_all_s", &dense, 1e-3, "s");
    out.value("shots_per_s", 1e3 / m, "1/s");
    out.value("shots_per_s_with_stalls", mem.len() as f64 / mem_s, "1/s");
    let Some(report) = last_report else {
        checks.op(false, "no checkpoint report came back");
        out.checks.merge(checks);
        return;
    };
    let peak_mb = report.peak_snapshot_bytes as f64 / (1u64 << 20) as f64;
    out.value("peak_snapshot_mb", peak_mb, "MiB");
    out.e2e.insert("footprint_mb", peak_mb);
    checks.op(
        report.peak_snapshots <= BUDGET,
        "live snapshots stay within the budget",
    );

    if args.traced {
        let budget = Duration::from_secs_f64(args.probe_seconds() / 8.0);

        let plan = CheckpointPlan::with_budget(STEPS, BUDGET);
        let t = Instant::now();
        let actions = {
            let _s = trace::span("ckpt.plan.actions", "ckpt");
            plan.actions()
        };
        out.layer("ckpt.plan_actions_us", ms_since(t) * 1e3);
        checks.op(!actions.is_empty(), "checkpoint plan has actions");
        out.layer("ckpt.gradient_disk_ms", d);
        out.layer("ckpt.recompute_ratio", report.recompute_ratio());
        out.layer("ckpt.snapshots_saved", plan.stats().saves as f64);
        out.layer(
            "ckpt.spill_fallbacks",
            obs_counter("ckpt.spill_fallbacks").get() as f64,
        );

        // Snapshot store bandwidth on this workload's state size.
        let dims = [N; 3];
        let state: WaveState = (
            Grid::from_vec(
                &dims,
                gen::uniform_vec(&mut Rng::new(args.seed, 14), N * N * N, -1.0, 1.0),
            ),
            Grid::from_vec(
                &dims,
                gen::uniform_vec(&mut Rng::new(args.seed, 15), N * N * N, -1.0, 1.0),
            ),
        );
        let bytes = 2.0 * 8.0 * (N * N * N) as f64;
        let spill = dir.sub("store-probe");
        let mut mem_store: MemStore<WaveState> = MemStore::new();
        let (save, load) = store_gbs(&mut mem_store, &state, bytes, budget, &mut checks);
        out.layer("ckpt.memstore_save_gbs", save);
        out.layer("ckpt.memstore_load_gbs", load);
        match DiskStore::new(&spill) {
            Ok(mut disk_store) => {
                let (save, load) = store_gbs(&mut disk_store, &state, bytes, budget, &mut checks);
                out.layer("ckpt.diskstore_save_gbs", save);
                out.layer("ckpt.diskstore_load_gbs", load);
            }
            Err(e) => checks.op(false, &format!("disk store probe: {e}")),
        }

        out.layer("pde.batchplan_new_ms", p.plan_new_ms);
        out.layer("pde.storeall_gradient_s", s * 1e-3);
        let c = Grid::from_vec(
            &dims,
            gen::velocity_model(&mut Rng::new(args.seed, 11), N, 0.02),
        );
        let v = harness::time_loop(budget, 2, &mut checks, "forward pass", || {
            let _s = trace::span("pde.forward", "pde");
            forward(&p.cfg, &c, &p.shot.sources[0]).len() == STEPS + 1
        });
        out.layer(
            "pde.forward_ns_per_point_step",
            stats::median(&v) * 1e6 / ((N * N * N * STEPS) as f64),
        );
        out.layer(
            "exec.region_overhead_us",
            probes::region_overhead_us(p.pool, 400),
        );
        probes::finish_traced(&args.workload, root_id, out);
    }
    out.checks.merge(checks);
}

/// Save and load GB/s of a snapshot store on `state`, each a median
/// over as many save/load/free cycles as fit in `budget`.
fn store_gbs<S: SnapshotStore<WaveState>>(
    store: &mut S,
    state: &WaveState,
    bytes: f64,
    budget: Duration,
    checks: &mut Checks,
) -> (f64, f64) {
    let (mut save, mut load) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    let mut t_idx = 0usize;
    while t0.elapsed() < budget.mul_f64(0.5) || save.len() < 3 {
        let t = Instant::now();
        let saved = {
            let _s = trace::span("ckpt.store.save", "ckpt");
            store.save(t_idx, state).is_ok()
        };
        save.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let loaded = {
            let _s = trace::span("ckpt.store.load", "ckpt");
            store.load(t_idx)
        };
        load.push(t.elapsed().as_secs_f64());
        let same = loaded.is_ok_and(|l| gen::bitwise_equal(l.1.as_slice(), state.1.as_slice()));
        checks.op(
            saved && same && store.free(t_idx).is_ok(),
            "snapshot round trip is bitwise",
        );
        t_idx += 1;
    }
    (
        bytes / stats::median(&save) / 1e9,
        bytes / stats::median(&load) / 1e9,
    )
}
