//! Integration tests for the `perforad-tune` autotuning subsystem:
//! cache round-trips, fixed-seed determinism, and the property that a
//! tuned schedule's gradient is bitwise-identical to the untuned serial
//! reference — whatever configuration the tuner picks.

use perforad::exec::run as run_plan;
use perforad::pde::{heat2d, wave3d};
use perforad::prelude::*;
use perforad::tune::{cache_key, fingerprint_nests, CacheEntry, TuneCache};

fn tmp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("perforad_{tag}_{}.json", std::process::id()))
}

#[test]
fn tuning_cache_round_trips_an_identical_config() {
    let config = TunedConfig {
        strategy: TunedStrategy::Serial,
        lowering: Lowering::Rows,
        policy: TilePolicy::Static,
        tile: vec![16, 32, 512],
        fuse: false,
        cse: true,
        threads: 1,
        checkpoint: Some(8),
    };
    let entry = CacheEntry {
        config: config.clone(),
        seconds: 4.2e-3,
    };
    let path = tmp_path("itest_cache_roundtrip");
    let _ = std::fs::remove_file(&path);
    let mut cache = TuneCache::new();
    cache.insert("some|key", entry.clone());
    cache.save(&path).unwrap();
    let loaded = TuneCache::load(&path).unwrap();
    let read = loaded.lookup("some|key").expect("entry survives the file");
    assert_eq!(read.config, config, "write→read→identical TunedConfig");
    assert_eq!(read.seconds, entry.seconds);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tuner_end_to_end_through_the_file_cache() {
    // Same (work, machine) key, two independent tuner invocations with no
    // shared memory layer: the second must return the first's config
    // without timing anything.
    let path = tmp_path("itest_tuner_file_cache");
    let _ = std::fs::remove_file(&path);
    let (ws, bind) = heat2d::workspace(20, 0.2);
    let adj = heat2d::nest()
        .adjoint(&heat2d::activity(), &AdjointOptions::default())
        .unwrap();
    let pool = ThreadPool::new(2);
    let run = || {
        let mut ws = ws.clone();
        let mut opts = TuneOptions::default()
            .with_cache_path(&path)
            .with_measure(Measure::Synthetic { seed: 99 });
        opts.memory_cache = false;
        let (schedule, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        (schedule, report.config)
    };
    let (_, first) = run();
    let (_, second) = run();
    assert_eq!(first, second, "file-cache hit must reproduce the config");

    // The tuner no longer offers the interpreter, but a cache written
    // before that may name it: such an entry must still parse, be
    // honoured, and run bitwise-identically to the serial reference.
    assert_ne!(first.lowering, Lowering::PerPoint);
    let key = cache_key(fingerprint_nests(&adj.nests, false, &bind), pool.size());
    let mut cache = TuneCache::load(&path).unwrap();
    let mut entry = cache.lookup(&key).expect("the tuner's own key").clone();
    entry.config.lowering = Lowering::PerPoint;
    cache.insert(&key, entry);
    cache.save(&path).unwrap();
    let (schedule, legacy) = run();
    assert_eq!(legacy.lowering, Lowering::PerPoint);
    let (mut ws_ref, mut ws_run) = (ws.clone(), ws.clone());
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run_plan(&plan, &mut ws_ref, ExecMode::serial()).unwrap();
    run_tuned(&schedule, &legacy, &mut ws_run, &pool).unwrap();
    assert_eq!(ws_ref.grid("u_1_b").max_abs_diff(ws_run.grid("u_1_b")), 0.0);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tuner_is_deterministic_under_a_fixed_seed() {
    let bind = Binding::new().size("n", 24).param("D", 0.1);
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity(), &AdjointOptions::default())
        .unwrap();
    let pool = ThreadPool::new(2);
    let pick = |seed: u64| {
        let (mut ws, _) = wave3d::workspace(24, 0.1);
        let opts = TuneOptions::default()
            .without_cache()
            .with_top_k(6)
            .with_measure(Measure::Synthetic { seed });
        let (_, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        report.config
    };
    assert_eq!(pick(2024), pick(2024), "same seed, same winner");
    assert_eq!(pick(7), pick(7));
}

// Bitwise property: whatever point of the search space the tuner lands
// on, running the tuned schedule on a fresh workspace reproduces the
// untuned serial interpreter reference exactly. Different seeds steer the
// synthetic measure to different winners, so several distinct
// configurations get checked. (Comparison always uses fresh workspaces —
// the adjoint accumulates with `+=`, so tuning runs dirty theirs.)
#[test]
fn property_tuned_gradient_is_bitwise_identical_on_wave3d() {
    let n = 14;
    // Serial reference.
    let (mut ws_ref, bind) = wave3d::workspace(n, 0.1);
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity(), &AdjointOptions::default())
        .unwrap();
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    let pool = ThreadPool::new(3);
    let mut seen = Vec::new();
    for seed in [1u64, 7, 42, 1234, 98765] {
        let opts = TuneOptions::default()
            .without_cache()
            .with_top_k(8)
            .with_measure(Measure::Synthetic { seed });
        let (mut ws_tune, _) = wave3d::workspace(n, 0.1);
        let (schedule, report) = autotune_adjoint(&adj, &mut ws_tune, &bind, &pool, &opts).unwrap();
        let cfg = report.config;
        let (mut ws_run, _) = wave3d::workspace(n, 0.1);
        run_tuned(&schedule, &cfg, &mut ws_run, &pool).unwrap();
        for arr in ["u_1_b", "u_2_b"] {
            assert_eq!(
                ws_ref.grid(arr).max_abs_diff(ws_run.grid(arr)),
                0.0,
                "seed {seed}, array {arr}, config {}",
                cfg.describe()
            );
        }
        seen.push(cfg.describe());
    }
    seen.sort();
    seen.dedup();
    assert!(
        seen.len() > 1,
        "five seeds should land on more than one configuration: {seen:?}"
    );
}

#[test]
fn property_tuned_gradient_is_bitwise_identical_on_heat2d() {
    let n = 40;
    let (mut ws_ref, bind) = heat2d::workspace(n, 0.2);
    let adj = heat2d::nest()
        .adjoint(&heat2d::activity(), &AdjointOptions::default())
        .unwrap();
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    let pool = ThreadPool::new(3);
    for seed in [3u64, 11, 77, 2048] {
        let opts = TuneOptions::default()
            .without_cache()
            .with_top_k(8)
            .with_measure(Measure::Synthetic { seed });
        let (mut ws_tune, _) = heat2d::workspace(n, 0.2);
        let (schedule, report) = autotune_adjoint(&adj, &mut ws_tune, &bind, &pool, &opts).unwrap();
        let cfg = report.config;
        let (mut ws_run, _) = heat2d::workspace(n, 0.2);
        run_tuned(&schedule, &cfg, &mut ws_run, &pool).unwrap();
        assert_eq!(
            ws_ref.grid("u_1_b").max_abs_diff(ws_run.grid("u_1_b")),
            0.0,
            "seed {seed}, config {}",
            cfg.describe()
        );
    }
}

#[test]
fn schedule_autotune_through_the_prelude() {
    // The facade exposes the whole loop: compile, autotune in place
    // (wall-clock measure — the production path), run tuned.
    let nest =
        parse_stencil("for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }")
            .unwrap();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adjoint = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let build = || {
        Workspace::new()
            .with("u", Grid::from_fn(&[513], |ix| (ix[0] as f64).cos()))
            .with("c", Grid::full(&[513], 0.5))
            .with("r", Grid::zeros(&[513]))
            .with("u_b", Grid::zeros(&[513]))
            .with("r_b", Grid::full(&[513], 1.0))
    };
    let bind = Binding::new().size("n", 512);
    let pool = ThreadPool::new(2);

    let mut ws_ref = build();
    let plan = compile_adjoint(&adjoint, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    let mut ws = build();
    let mut schedule = compile_schedule(&adjoint, &ws, &bind, &SchedOptions::default()).unwrap();
    let opts = TuneOptions::default()
        .without_cache()
        .with_top_k(3)
        .with_measure(Measure::Wall { samples: 1 });
    let cfg = schedule.autotune(&mut ws, &bind, &pool, &opts).unwrap();
    assert_eq!(schedule.lowering, cfg.lowering);

    let mut ws_run = build();
    run_tuned(&schedule, &cfg, &mut ws_run, &pool).unwrap();
    assert_eq!(ws_ref.grid("u_b").max_abs_diff(ws_run.grid("u_b")), 0.0);
}

#[test]
fn json_round_trips_every_tuned_config_combination() {
    // The cache format now also backs the serve wire protocol, so the
    // FULL TunedConfig surface must survive write→read identically:
    // every strategy × lowering × policy, checkpoint present and absent.
    let mut cache = TuneCache::new();
    let mut expected = Vec::new();
    let mut i = 0usize;
    for strategy in [TunedStrategy::Serial, TunedStrategy::Parallel] {
        for lowering in [Lowering::PerPoint, Lowering::Rows, Lowering::Jit] {
            for policy in [TilePolicy::Static, TilePolicy::Dynamic] {
                for checkpoint in [None, Some(1), Some(4096)] {
                    let config = TunedConfig {
                        strategy,
                        lowering,
                        policy,
                        tile: vec![1 + i as i64, 64, 100_000],
                        fuse: i % 2 == 0,
                        cse: i % 3 == 0,
                        threads: 1 + i % 8,
                        checkpoint,
                    };
                    let key = format!("combo|{i}");
                    cache.insert(
                        &key,
                        CacheEntry {
                            config: config.clone(),
                            seconds: 1e-6 * (i + 1) as f64,
                        },
                    );
                    expected.push((key, config));
                    i += 1;
                }
            }
        }
    }
    let reloaded = TuneCache::from_json(&cache.to_json()).unwrap();
    assert_eq!(reloaded.len(), expected.len());
    for (key, config) in &expected {
        let got = reloaded.lookup(key).expect("entry survives");
        assert_eq!(&got.config, config, "round trip must be identical: {key}");
    }
}

#[test]
fn json_checkpoint_null_and_absent_both_mean_none() {
    // Pre-checkpoint cache files have no `checkpoint` field at all;
    // current files write an explicit null when no time loop was tuned.
    // Both must load as `checkpoint: None`, neither as an error.
    let version = {
        // Recover the current CACHE_VERSION from a written cache rather
        // than hard-coding it here.
        let doc = perforad::obs::json::parse(&TuneCache::new().to_json()).unwrap();
        doc.get("version").and_then(|v| v.as_i64()).unwrap()
    };
    let body = |checkpoint_field: &str| {
        format!(
            "{{\"version\":{version},\"entries\":[{{\"key\":\"k\",\
             \"strategy\":\"Parallel\",\"lowering\":\"Jit\",\"policy\":\"Dynamic\",\
             \"tile\":[8,8],\"fuse\":true,\"cse\":false,\"threads\":4{checkpoint_field},\
             \"seconds\":0.001}}]}}"
        )
    };
    for field in ["", ",\"checkpoint\":null"] {
        let cache = TuneCache::from_json(&body(field)).unwrap();
        let entry = cache.lookup("k").expect("entry loads");
        assert_eq!(entry.config.checkpoint, None, "field {field:?}");
        assert_eq!(entry.config.lowering, Lowering::Jit);
    }
    // And an explicit budget still comes through.
    let cache = TuneCache::from_json(&body(",\"checkpoint\":17")).unwrap();
    assert_eq!(cache.lookup("k").unwrap().config.checkpoint, Some(17));
}

#[test]
fn json_malformed_cache_input_is_an_error_or_clean_miss_never_a_panic() {
    // Truncated / corrupt documents: Err, not panic.
    for bad in [
        "",
        "{",
        "{\"version\":",
        "{\"version\":1,\"entries\":[{\"key\":\"k\"}]}",
        "[1,2,3]",
        "{\"version\":1}",
    ] {
        let _ = TuneCache::from_json(bad); // Err or empty — must not panic
    }
    // Unknown enum values inside an otherwise valid document are errors.
    let version = {
        let doc = perforad::obs::json::parse(&TuneCache::new().to_json()).unwrap();
        doc.get("version").and_then(|v| v.as_i64()).unwrap()
    };
    let doc = format!(
        "{{\"version\":{version},\"entries\":[{{\"key\":\"k\",\
         \"strategy\":\"Quantum\",\"lowering\":\"Rows\",\"policy\":\"Static\",\
         \"tile\":[8],\"fuse\":true,\"cse\":false,\"threads\":1,\
         \"checkpoint\":null,\"seconds\":0.1}}]}}"
    );
    assert!(TuneCache::from_json(&doc).is_err());
    // A version mismatch is a CLEAN MISS (empty cache), not an error —
    // old cache files must never wedge a new binary.
    let stale = "{\"version\":0,\"entries\":[{\"key\":\"k\"}]}";
    let cache = TuneCache::from_json(stale).unwrap();
    assert!(cache.is_empty());
}
