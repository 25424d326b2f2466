//! A warm compile costs what its inputs cost, countably: plan compilation
//! substitutes and byte-compiles once per adjoint *term*, not once per
//! statement of the split loop nests, and a JIT artifact that is already
//! on disk is loaded without a compiler.
//!
//! The counts are the program's own (`exec.stmts_planned`,
//! `exec.rhs_compiled`); obs state is process-global, so every test here
//! serializes on one mutex and leaves recording off.

mod common;

use common::thread_allocs;
use perforad::exec::{run, ExecMode};
use perforad::jit::{available, JitOptions};
use perforad::pde::wave3d;
use perforad::prelude::*;
use perforad::sched::run_schedule_serial;
use perforad::tune::fingerprint_nests;
use std::sync::{Arc, Mutex, MutexGuard};

#[global_allocator]
static GLOBAL: common::CountingAlloc = common::CountingAlloc;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_test() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    perforad::obs::set_enabled(false);
    perforad::obs::reset_metrics();
    guard
}

/// The 3-D 7-point star of the benchmark's `cold_compile`.
fn star3d() -> LoopNest {
    parse_stencil(
        "for i in 1 .. n-2, j in 1 .. n-2, k in 1 .. n-2 { r[i][j][k] = c[i][j][k]*(\
         0.5*u[i-1][j][k] + 0.75*u[i+1][j][k] + 1.5*u[i][j-1][k] + 0.25*u[i][j+1][k] \
         + 1.75*u[i][j][k-1] + 0.625*u[i][j][k+1] - 1.25*u[i][j][k]); }",
    )
    .unwrap()
}

fn star_activity() -> ActivityMap {
    ActivityMap::new().with_suffixed("u").with_suffixed("r")
}

fn star_workspace() -> (Workspace, Binding) {
    let mut ws = Workspace::new();
    for name in ["u", "c", "r", "u_b", "r_b"] {
        ws.insert(name, Grid::zeros(&[16, 16, 16]));
    }
    (ws, Binding::new().size("n", 16))
}

fn wave_adjoint() -> Adjoint {
    wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("wave adjoint")
}

/// `(statements planned, right-hand sides compiled)` by one
/// `compile_schedule` of `adj`.
fn planned(adj: &Adjoint, ws: &Workspace, bind: &Binding, opts: &SchedOptions) -> (u64, u64) {
    let (stmts, rhs) = (
        perforad::obs::counter("exec.stmts_planned"),
        perforad::obs::counter("exec.rhs_compiled"),
    );
    let before = (stmts.get(), rhs.get());
    perforad::obs::set_enabled(true);
    let schedule = compile_schedule(adj, ws, bind, opts);
    perforad::obs::set_enabled(false);
    let schedule = schedule.expect("schedule compiles");
    assert_eq!(
        schedule
            .groups
            .iter()
            .map(|g| g.plan.statements() as u64)
            .sum::<u64>(),
        stmts.get() - before.0
    );
    (stmts.get() - before.0, rhs.get() - before.1)
}

#[test]
fn plans_compile_once_per_adjoint_term() {
    let _guard = obs_test();
    // The c-active 3-D wave adjoint: 9 terms split over 53 nests.
    let (ws, bind) = wave3d::workspace(16, 0.1);
    let adj = wave_adjoint();
    assert_eq!((adj.terms.len(), adj.nest_count()), (9, 53));
    assert_eq!(
        planned(&adj, &ws, &bind, &SchedOptions::default()),
        (215, 9)
    );
    // Unfused, every nest is a plan of its own and compiles the terms it
    // holds: one compile per statement, as the memo is per plan.
    let unfused = SchedOptions::default().with_fuse(false);
    assert_eq!(planned(&adj, &ws, &bind, &unfused), (215, 215));

    // The 3-D 7-point star: 7 terms, 53 nests, 161 statements.
    let (star, act) = (star3d(), star_activity());
    let adj = star.adjoint(&act, &AdjointOptions::default()).unwrap();
    let (ws, bind) = star_workspace();
    assert_eq!(
        planned(&adj, &ws, &bind, &SchedOptions::default()),
        (161, 7)
    );
    // Merged, a nest's terms are summed into one new expression per
    // nest: nothing is shared, and nothing may be assumed shared.
    let merged = star
        .adjoint(&act, &AdjointOptions::default().merged())
        .unwrap();
    let (stmts, rhs) = planned(&merged, &ws, &bind, &SchedOptions::default());
    assert_eq!((stmts, rhs), (53, 53));
}

/// A tuner that never executes and never builds: the model's first
/// candidate wins, so the search and its cache hit are both countable.
fn model_tuner() -> TuneOptions {
    TuneOptions::default()
        .with_measure(Measure::Model)
        .with_jit(false)
        .with_top_k(1)
}

/// The IR costs what it says: an index that is `counter + c` allocates
/// nothing, so the 3-D star's transformation, its default schedule and a
/// tuner cache hit each fit an allocation budget: 1 196 / 1 341 / 1 345
/// as recorded, 2 615 / 2 738 / 2 872 while an `Idx` was a `BTreeMap`.
/// The cache hit's budget is its count since the work key stopped
/// printing the nests, 1 131 (1 161 before), plus a small margin.
#[test]
fn the_star_compiles_within_its_allocation_budget() {
    let _guard = obs_test();
    let (star, act) = (star3d(), star_activity());
    let (mut ws, bind) = star_workspace();
    let pool = ThreadPool::new(1);
    let count = |f: &mut dyn FnMut()| {
        let before = thread_allocs();
        f();
        thread_allocs() - before
    };
    let mut adj = None;
    let adjoint = count(&mut || adj = Some(star.adjoint(&act, &AdjointOptions::default())));
    let adj = adj.unwrap().unwrap();
    assert!(adjoint <= 1_300, "adjoint: {adjoint} allocations");
    let schedule = count(&mut || {
        compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
    });
    assert!(
        schedule <= 1_500,
        "compile_schedule: {schedule} allocations"
    );
    let tuner = model_tuner();
    let (_, cold) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner).unwrap();
    assert!(!cold.cache_hit);
    let hit = count(&mut || {
        let (_, warm) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner).unwrap();
        assert!(warm.cache_hit);
    });
    assert!(hit <= 1_175, "tuner cache hit: {hit} allocations");
}

/// No copies of the nest list: every schedule compiled from an adjoint —
/// by `compile_schedule`, by the tuner's search, by its cache hit, by a
/// retune of the schedule itself — holds the adjoint's own list.
#[test]
fn schedules_share_the_adjoints_nest_list() {
    let _guard = obs_test();
    let adj = star3d()
        .adjoint(&star_activity(), &AdjointOptions::default())
        .unwrap();
    let (mut ws, bind) = star_workspace();
    // A size of its own, so the search below is a search.
    let bind = bind.size("unused", 24);
    let pool = ThreadPool::new(1);
    let schedule = compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
    assert!(Arc::ptr_eq(&schedule.source, &adj.nests));
    let tuner = model_tuner();
    let (mut searched, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner).unwrap();
    assert!(!report.cache_hit);
    assert!(Arc::ptr_eq(&searched.source, &adj.nests));
    let (hit, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner).unwrap();
    assert!(report.cache_hit);
    assert!(Arc::ptr_eq(&hit.source, &adj.nests));
    let report = searched
        .autotune_report(&mut ws, &bind, &pool, &tuner)
        .unwrap();
    assert!(report.cache_hit);
    assert!(Arc::ptr_eq(&searched.source, &adj.nests));
}

/// The work key hashes each distinct right-hand side once: 7 for the
/// 161 statements of the star's split nests, one per nest once `merged()`
/// has summed each nest's terms into an expression of its own.
#[test]
fn the_work_key_hashes_once_per_adjoint_term() {
    let _guard = obs_test();
    let (star, act) = (star3d(), star_activity());
    let bind = Binding::new().size("n", 16);
    let hashed = |adj: &Adjoint| {
        let counter = perforad::obs::counter("tune.rhs_hashed");
        let before = counter.get();
        perforad::obs::set_enabled(true);
        let id = fingerprint_nests(&adj.nests, false, &bind);
        perforad::obs::set_enabled(false);
        assert_eq!(id, fingerprint_nests(&adj.nests, false, &bind));
        counter.get() - before
    };
    let adj = star.adjoint(&act, &AdjointOptions::default()).unwrap();
    let statements: usize = adj.nests.iter().map(|n| n.body.len()).sum();
    assert_eq!((adj.terms.len(), statements), (7, 161));
    assert_eq!(hashed(&adj), 7);
    let merged = star
        .adjoint(&act, &AdjointOptions::default().merged())
        .unwrap();
    assert_eq!(hashed(&merged), 53);
}

/// CI's two-process guard that a warm start needs no compiler (`jit` job):
/// run once with a toolchain, it builds the c-active wave adjoint into
/// `PERFORAD_JIT_CACHE`; run again in a new process with `rustc` taken off
/// `PATH`, it must *load* that artifact. Either way the native sweep equals
/// `Lowering::PerPoint` bit for bit. Ignored in a plain `cargo test`: on
/// its own, with the default cache directory, it proves nothing.
#[test]
#[ignore = "needs PERFORAD_JIT_CACHE shared between two processes"]
fn wave_adjoint_prepares_from_the_shared_artifact_cache() {
    let _guard = obs_test();
    let n = 16;
    let adj = wave_adjoint();
    let (mut ws_ref, bind) = wave3d::workspace(n, 0.1);
    let plan = perforad::exec::compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    let (mut ws, _) = wave3d::workspace(n, 0.1);
    let schedule = compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
    let toolchain = available();
    let report = prepare_schedule(&schedule, &bind, &JitOptions::default())
        .expect("built here, or loaded from what the first process built");
    println!(
        "toolchain {toolchain}: loaded {} compiled {}",
        report.loaded, report.compiled
    );
    assert_eq!(report.loaded + report.compiled, 1);
    if !toolchain {
        assert_eq!((report.loaded, report.compiled), (1, 0));
    }
    run_schedule_serial(&schedule, &mut ws).unwrap();
    for name in ["u_1_b", "u_2_b", "c_b"] {
        assert_eq!(ws.grid(name).max_abs_diff(ws_ref.grid(name)), 0.0, "{name}");
    }
}
