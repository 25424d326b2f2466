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
use perforad::exec::Plan;
use perforad::jit::available;
use perforad::jit::emit::group_module;
use perforad::pde::seismic::{BatchPlan, SeismicConfig, ShotBatch};
use perforad::pde::wave3d;
use perforad::prelude::*;
use perforad::tune::cache::{memory_lookup, memory_store};
use perforad::tune::{cache_key, fingerprint_nests, TuneReport};
use std::collections::BTreeSet;
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

/// One `autotune_adjoint` call that must be a cache hit, and the
/// statements it planned (`exec.stmts_planned`).
fn hit_planned(
    adj: &Adjoint,
    ws: &mut Workspace,
    bind: &Binding,
    pool: &ThreadPool,
    tuner: &TuneOptions,
) -> ((Schedule, TuneReport), u64) {
    let stmts = perforad::obs::counter("exec.stmts_planned");
    let before = stmts.get();
    perforad::obs::set_enabled(true);
    let tuned = autotune_adjoint(adj, ws, bind, pool, tuner);
    perforad::obs::set_enabled(false);
    let tuned = tuned.expect("tuned");
    assert!(tuned.1.cache_hit, "a cache hit");
    (tuned, stmts.get() - before)
}

/// The IR costs what it says: an index that is `counter + c` allocates
/// nothing, so parsing the 3-D star, its transformation, its default
/// schedule and a tuner cache hit each fit an allocation budget, the
/// count as recorded plus a small margin. Parse, adjoint and schedule
/// were 525 / 1 196 / 1 122 while every constant was a node of its own,
/// every sum and product collected through a `BTreeMap` and every
/// footprint and write offset was a `Vec`, and 211 / 544 / 364 after
/// (2 615 / 2 738 for adjoint and schedule while an `Idx` was a
/// `BTreeMap`). A cache hit plans no statement: it re-tiles the compiled
/// work the tuner kept, 16 allocations (1 131 while every hit compiled
/// its plans again).
#[test]
fn the_star_compiles_within_its_allocation_budget() {
    let _guard = obs_test();
    let act = star_activity();
    let (mut ws, bind) = star_workspace();
    let pool = ThreadPool::new(1);
    let count = |f: &mut dyn FnMut()| {
        let before = thread_allocs();
        f();
        thread_allocs() - before
    };
    // Warm: the first constant built in the process makes the shared ones.
    star3d();
    let mut star = None;
    let parse = count(&mut || star = Some(star3d()));
    let star = star.unwrap();
    assert!(parse <= 220, "parse_stencil: {parse} allocations");
    let mut adj = None;
    let adjoint = count(&mut || adj = Some(star.adjoint(&act, &AdjointOptions::default())));
    let adj = adj.unwrap().unwrap();
    assert!(adjoint <= 560, "adjoint: {adjoint} allocations");
    let schedule = count(&mut || {
        compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
    });
    assert!(schedule <= 380, "compile_schedule: {schedule} allocations");
    let tuner = model_tuner();
    let (_, cold) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner).unwrap();
    assert!(!cold.cache_hit);
    let (_, planned) = hit_planned(&adj, &mut ws, &bind, &pool, &tuner);
    assert_eq!(planned, 0, "a cache hit re-tiles: it plans no statement");
    let hit = count(&mut || {
        let (_, warm) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner).unwrap();
        assert!(warm.cache_hit);
    });
    assert!(hit <= 24, "tuner cache hit: {hit} allocations");
}

/// No copies of the nest list: every schedule compiled from an adjoint —
/// by `compile_schedule`, by the tuner's search, by its cache hit — holds
/// the adjoint's own list.
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
    let (searched, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner).unwrap();
    assert!(!report.cache_hit);
    assert!(Arc::ptr_eq(&searched.source, &adj.nests));
    let (hit, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner).unwrap();
    assert!(report.cache_hit);
    assert!(Arc::ptr_eq(&hit.source, &adj.nests));
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

/// Names the part a re-run of this binary plays in
/// [`a_warm_start_spawns_no_compiler`]: `cold`, `warm` or `bare`.
const WARM_START_ROLE: &str = "WARM_START_ROLE";

/// A warm start runs no compiler, counted across processes. The test
/// re-runs its own binary three times against one `PERFORAD_JIT_CACHE`,
/// each child with a tune cache of its own, building the n = 16 seismic
/// `BatchPlan` and running one shot:
/// 1. `cold`, model-pinned: one `rustc --version` probe and two builds,
///    the fused adjoint group and the primal step;
/// 2. `warm`, model-pinned: no probe, no build, and the plan is `Jit`;
/// 3. `bare`, with no compiler to be found (`rustc` off `PATH`, neither
///    `RUSTC` nor `PERFORAD_JIT_RUSTC` set) and nothing pinned, so the
///    plan runs its own wall-clock search: no probe, no build, native code
///    loaded from the cache, nothing degraded.
///
/// All three gradients have the same bits. Which candidate wins on wall
/// time is not asserted.
#[test]
fn a_warm_start_spawns_no_compiler() {
    if let Some(role) = std::env::var_os(WARM_START_ROLE) {
        return warm_start_child(role.to_str().expect("a role name"));
    }
    if !available() {
        eprintln!("skipped: no rustc toolchain to build the cold artifacts");
        return;
    }
    let root = std::env::temp_dir().join(format!("perforad-warm-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let child = |role: &str| {
        let exe = std::env::current_exe().expect("this test binary");
        let mut cmd = std::process::Command::new(exe);
        cmd.args(["--exact", "a_warm_start_spawns_no_compiler", "--nocapture"])
            .env(WARM_START_ROLE, role)
            .env("PERFORAD_JIT_CACHE", root.join("jit"))
            .env(
                "PERFORAD_TUNE_CACHE",
                root.join(format!("tune-{role}.json")),
            );
        if role == "bare" {
            cmd.env("PATH", root.join("no-compiler-here"))
                .env_remove("RUSTC")
                .env_remove("PERFORAD_JIT_RUSTC");
        }
        let out = cmd.output().expect("re-run this test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{role}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = stdout.lines().find_map(|l| l.strip_prefix("warm start: "));
        let line = line.unwrap_or_else(|| panic!("{role} printed no counts:\n{stdout}"));
        println!("{role}: {line}");
        let fields = line.split(' ').filter_map(|kv| kv.split_once('='));
        let fields: std::collections::BTreeMap<String, String> = fields
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |key: &str| fields[key].clone()
    };
    let cold = child("cold");
    let warm = child("warm");
    let bare = child("bare");
    let _ = std::fs::remove_dir_all(&root);

    let counts = |c: &dyn Fn(&str) -> String| {
        ["probes", "compiles"].map(|k| c(k).parse::<u64>().expect("a count"))
    };
    assert_eq!(counts(&cold), [1, 2], "cold: one probe, two builds");
    assert_eq!(cold("lowering"), "Jit");
    assert_eq!(counts(&warm), [0, 0], "warm: no compiler spawned");
    assert_eq!(warm("lowering"), "Jit");
    assert_eq!(counts(&bare), [0, 0], "no compiler: none spawned");
    let hits: u64 = bare("hits").parse().expect("a count");
    assert!(hits >= 1, "no compiler: native code comes from the cache");
    for c in [&cold, &warm, &bare] {
        assert_eq!(c("degraded"), "false");
    }
    assert_eq!(cold("digest"), warm("digest"));
    assert_eq!(cold("digest"), bare("digest"));
}

/// One child of [`a_warm_start_spawns_no_compiler`]: pin (unless `bare`),
/// build the plan, run one shot, print the counts on one line.
fn warm_start_child(role: &str) {
    let _guard = obs_test();
    let cfg = SeismicConfig {
        n: 16,
        steps: 8,
        d: 0.1,
    };
    let pool = ThreadPool::new(2);
    perforad::obs::set_enabled(true);
    if role != "bare" {
        common::pin_model_config(&cfg, false, &pool);
    }
    let dims = [cfg.n; 3];
    let c = Grid::from_fn(&dims, |ix| 0.8 + 0.4 * (ix[2] as f64 / cfg.n as f64));
    let data = Grid::from_fn(&dims, |ix| {
        1e-3 * ((ix[0] + 2 * ix[1] + 3 * ix[2]) as f64).sin()
    });
    let mut batch = ShotBatch::new();
    batch.push((0..cfg.steps).map(|t| 1.0 / (t + 1) as f64).collect(), data);
    let plan = BatchPlan::new(&cfg, &c, &common::store_all(), &pool);
    let out = plan.run(&batch);
    perforad::obs::set_enabled(false);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let bits = out.gradients[0].as_slice().iter().map(|v| v.to_bits());
    for b in std::iter::once(out.misfits[0].to_bits()).chain(bits) {
        digest = (digest ^ b).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let count = |name: &'static str| perforad::obs::counter(name).get();
    println!(
        "warm start: probes={} compiles={} hits={} lowering={:?} degraded={} digest={digest:016x}",
        count("jit.toolchain_probes"),
        count("jit.compiles"),
        count("jit.artifact_hits"),
        plan.tuned().lowering,
        out.degraded,
    );
}

/// `tuned`, a tuner's schedule, is what a fresh `compile_schedule` of
/// `adj` under `opts` compiles: the same groups, plan fingerprints,
/// emitted native modules and tiles.
fn assert_fresh(
    tag: &str,
    tuned: &Schedule,
    adj: &Adjoint,
    ws: &Workspace,
    bind: &Binding,
    opts: &SchedOptions,
) {
    let fresh = compile_schedule(adj, ws, bind, opts).expect("a fresh compile");
    assert!(Arc::ptr_eq(&tuned.source, &adj.nests), "{tag}");
    assert_eq!(
        (&tuned.tile, tuned.policy, tuned.lowering, tuned.fused()),
        (&fresh.tile, fresh.policy, fresh.lowering, fresh.fused()),
        "{tag}"
    );
    assert_eq!(tuned.group_count(), fresh.group_count(), "{tag}");
    for (g, (a, b)) in tuned.groups.iter().zip(&fresh.groups).enumerate() {
        assert_eq!(a.nests, b.nests, "{tag} group {g}");
        assert_eq!(
            a.plan.fingerprint(),
            b.plan.fingerprint(),
            "{tag} group {g}"
        );
        let module = |plan: &Plan| group_module(plan).map_err(|e| e.to_string());
        assert_eq!(module(&a.plan), module(&b.plan), "{tag} group {g}");
        assert_eq!(a.tiles[..], b.tiles[..], "{tag} group {g}");
    }
}

/// A 1-D or 2-D star of one to three `c`-weighted terms, offsets in
/// `-1 ..= 1`.
fn random_star(rng: &mut common::Rng) -> String {
    let counters = &["i", "j"][..rng.range_usize(1, 2)];
    let centre: String = counters.iter().map(|c| format!("[{c}]")).collect();
    let terms: Vec<String> = (0..rng.range_usize(1, 3))
        .map(|_| {
            let at: String = counters
                .iter()
                .map(|c| match rng.range_i64(-1, 1) {
                    0 => format!("[{c}]"),
                    o => format!("[{c}{o:+}]"),
                })
                .collect();
            format!("{:?}*c{centre}*u{at}", rng.range_i64(1, 7) as f64 * 0.25)
        })
        .collect();
    let bounds: Vec<String> = counters
        .iter()
        .map(|c| format!("{c} in 1 .. n-2"))
        .collect();
    format!(
        "for {} {{ r{centre} = {}; }}",
        bounds.join(", "),
        terms.join(" + ")
    )
}

/// A star's workspace at extent `n` per dimension of `rank`.
fn star_arrays(rank: usize, n: usize) -> Workspace {
    let mut ws = Workspace::new();
    for name in ["u", "c", "r", "u_b", "r_b"] {
        ws.insert(name, Grid::zeros(&vec![n; rank]));
    }
    ws
}

/// A memory hit is a compile: it re-tiles the compiled work the tuner
/// kept, planning no statement, into the schedule a fresh
/// `compile_schedule` builds under the winner's options — on random 1-D
/// and 2-D stars, the 3-D star and the c-active wave adjoint. A hit
/// whose parameter bits, dims, accumulate set or fusion differ from the
/// kept work's compiles again, equal to a fresh compile still, and keeps
/// the new work.
#[test]
fn a_hit_is_a_compile() {
    let _guard = obs_test();
    let pool = ThreadPool::new(1);
    let tuner = TuneOptions::default()
        .with_measure(Measure::Model)
        .with_jit(false);
    let options = |tuner: &TuneOptions, report: &TuneReport| SchedOptions {
        accumulate: tuner.accumulate.clone(),
        ..SchedOptions::from_tuned(&report.config)
    };
    // Tune `adj` (a search, or a hit left by an equal work), then hit it:
    // no statement planned, and the schedule a fresh compile builds.
    let retile = |tag: &str, adj: &Adjoint, ws: &mut Workspace, bind: &Binding| {
        autotune_adjoint(adj, ws, bind, &pool, &tuner).expect("tuned");
        let ((hit, report), planned) = hit_planned(adj, ws, bind, &pool, &tuner);
        assert_eq!(planned, 0, "{tag}: a hit plans nothing");
        assert_fresh(tag, &hit, adj, ws, bind, &options(&tuner, &report));
    };
    let act = star_activity();
    let mut rng = common::Rng::new(0x4E17_C0DE);
    for draw in 0..40 {
        let text = random_star(&mut rng);
        let adj = parse_stencil(&text)
            .unwrap()
            .adjoint(&act, &AdjointOptions::default());
        let adj = adj.unwrap();
        let n = rng.range_usize(12, 13);
        let mut ws = star_arrays(adj.nests[0].rank(), n);
        let bind = Binding::new().size("n", n as i64).size("hit", 1);
        retile(&format!("draw {draw}: {text}"), &adj, &mut ws, &bind);
    }

    // The 3-D star and the c-active wave adjoint, then every input the
    // work key leaves out, changed one at a time against the kept work.
    let star = star3d().adjoint(&act, &AdjointOptions::default()).unwrap();
    let (star_ws, star_bind) = star_workspace();
    let (wave_ws, wave_bind) = wave3d::workspace(16, 0.1);
    let kernels = [
        (
            "star",
            star,
            star_ws,
            star_bind,
            star_arrays(3, 17),
            ["u_b", "u_b"],
        ),
        (
            "wave",
            wave_adjoint(),
            wave_ws,
            wave_bind,
            wave3d::workspace(17, 0.1).0,
            ["u_1_b", "c_b"],
        ),
    ];
    for (name, adj, mut ws, bind, mut wider, carried) in kernels {
        let bind = bind.size("hit", 1);
        retile(name, &adj, &mut ws, &bind);
        let key = cache_key(fingerprint_nests(&adj.nests, false, &bind), pool.size());
        // Tune with `tuner` against `ws` and `bind`: a hit that compiles
        // (it must not re-tile what it kept), then one that re-tiles what
        // that compile kept.
        let recompile = |tag: &str, ws: &mut Workspace, bind: &Binding, tuner: &TuneOptions| {
            let ((hit, report), planned) = hit_planned(&adj, ws, bind, &pool, tuner);
            assert!(planned > 0, "{name}, {tag}: the kept work does not fit");
            assert_fresh(tag, &hit, &adj, ws, bind, &options(tuner, &report));
            let (_, planned) = hit_planned(&adj, ws, bind, &pool, tuner);
            assert_eq!(planned, 0, "{name}, {tag}: the new work is kept");
        };
        // `D`'s last bit (the star has no parameter: add one).
        let d = bind.params.get(&Symbol::new("D")).copied().unwrap_or(0.5);
        let nudged = bind.clone().param("D", f64::from_bits(d.to_bits() ^ 1));
        recompile("D's last bit", &mut ws, &nudged, &tuner);
        recompile("D back", &mut ws, &bind, &tuner);
        // Wider arrays under the same sizes.
        recompile("dims", &mut wider, &bind, &tuner);
        recompile("dims back", &mut ws, &bind, &tuner);
        // Accumulate mode, carrying the adjoint's state.
        let accumulate = tuner.clone().with_accumulate(carried);
        recompile("accumulate", &mut ws, &bind, &accumulate);
        recompile("plain again", &mut ws, &bind, &tuner);
        // The kept outcome asks for the other fusion choice.
        let (mut entry, work) = memory_lookup(&key, |_, _| true).expect("a kept outcome");
        entry.config.fuse = !entry.config.fuse;
        memory_store(&key, entry, work.expect("a kept work"));
        recompile("fuse", &mut ws, &bind, &tuner);
    }
}

/// A cold Model-mode search compiles the work once per fusion choice and
/// tiles every scored candidate from it: 18 candidates of the 3-D star,
/// two works of 161 statements each.
#[test]
fn a_cold_search_plans_each_fusion_choice_once() {
    let _guard = obs_test();
    let adj = star3d()
        .adjoint(&star_activity(), &AdjointOptions::default())
        .unwrap();
    let (mut ws, bind) = star_workspace();
    let pool = ThreadPool::new(1);
    let tuner = TuneOptions::default()
        .without_cache()
        .with_measure(Measure::Model)
        .with_jit(false)
        .with_top_k(64);
    let (stmts, works) = (
        perforad::obs::counter("exec.stmts_planned"),
        perforad::obs::counter("sched.compiles"),
    );
    let before = (stmts.get(), works.get());
    perforad::obs::set_enabled(true);
    let tuned = autotune_adjoint(&adj, &mut ws, &bind, &pool, &tuner);
    perforad::obs::set_enabled(false);
    let report = tuned.expect("tuned").1;
    assert!(!report.cache_hit);
    assert_eq!((report.candidates, report.timed), (18, 18));
    let choices: BTreeSet<bool> = report.predictions.iter().map(|(c, _)| c.fuse).collect();
    assert_eq!(choices.len(), 2);
    assert_eq!(
        (stmts.get() - before.0, works.get() - before.1),
        (2 * 161, 2),
        "one work per fusion choice, not one per candidate"
    );
}
