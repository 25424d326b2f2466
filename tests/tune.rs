//! Integration tests for the `perforad-tune` autotuning subsystem:
//! cache round-trips, fixed-seed determinism, and the property that a
//! tuned schedule's gradient is bitwise-identical to the untuned serial
//! reference — whatever configuration the tuner picks.

use perforad::exec::run as run_plan;
use perforad::pde::{heat2d, wave3d};
use perforad::prelude::*;
use perforad::tune::cache::CACHE_VERSION;
use perforad::tune::{cache_key, fingerprint_nests, CacheEntry, TuneCache};

mod common;

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
    // The facade exposes the whole loop: autotune the adjoint
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
    let opts = TuneOptions::default()
        .without_cache()
        .with_top_k(3)
        .with_measure(Measure::Wall { samples: 1 });
    let (schedule, report) = autotune_adjoint(&adjoint, &mut ws, &bind, &pool, &opts).unwrap();
    let cfg = report.config;
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
             \"tile\":[8,8],\"fuse\":true,\"threads\":4{checkpoint_field},\
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
         \"tile\":[8],\"fuse\":true,\"threads\":1,\
         \"checkpoint\":null,\"seconds\":0.1}}]}}"
    );
    assert!(TuneCache::from_json(&doc).is_err());
    // A version mismatch is a CLEAN MISS (empty cache), not an error —
    // old cache files must never wedge a new binary.
    let stale = "{\"version\":0,\"entries\":[{\"key\":\"k\"}]}";
    let cache = TuneCache::from_json(stale).unwrap();
    assert!(cache.is_empty());
}

/// A tuner that never executes and never builds, over one cache file:
/// the model's first candidate wins, so a search is cheap and countable.
fn file_tuner(path: &std::path::Path) -> TuneOptions {
    let mut opts = TuneOptions::default()
        .with_cache_path(path)
        .with_measure(Measure::Model)
        .with_jit(false)
        .with_top_k(1);
    opts.memory_cache = false;
    opts
}

/// The one key a tuner wrote into the fresh file at `path`.
fn written_key(path: &std::path::Path) -> String {
    let doc = perforad::obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let entries = doc.get("entries").and_then(|e| e.as_array()).unwrap();
    assert_eq!(entries.len(), 1);
    let key = entries[0].get("key").and_then(|k| k.as_str()).unwrap();
    key.to_string()
}

/// A tuning file as the version-2 writer left it, each entry still
/// carrying a `"cse"` flag.
const V2_FILE: &str = concat!(
    r#"{"version":2,"entries":[{"key":"00ab12cd34ef5678|v2|x86_64|linux|t1","#,
    r#""strategy":"Serial","lowering":"Rows","policy":"Dynamic","tile":[64,1024],"#,
    r#""fuse":true,"cse":false,"threads":1,"checkpoint":null,"seconds":0.00125}]}"#,
);

/// A version-2 file is a clean version miss — not a quarantine — and the
/// tuner's next save replaces it with a current file, which writes no
/// `"cse"` and round-trips.
#[test]
fn a_version_2_file_is_a_clean_miss_that_the_next_save_replaces() {
    assert_eq!(CACHE_VERSION, 3);
    let path = tmp_path("itest_v2_file");
    let corrupt = path.with_extension("json.corrupt");
    let _ = std::fs::remove_file(&corrupt);
    std::fs::write(&path, V2_FILE).unwrap();
    assert!(TuneCache::load(&path).unwrap().is_empty(), "a version miss");
    assert!(path.exists(), "a version miss is not a quarantine");
    assert!(!corrupt.exists(), "and leaves no .corrupt file");
    let (ws, bind) = heat2d::workspace(20, 0.2);
    let adj = heat2d::nest()
        .adjoint(&heat2d::activity(), &AdjointOptions::default())
        .unwrap();
    let pool = ThreadPool::new(1);
    let tune = || autotune_adjoint(&adj, &mut ws.clone(), &bind, &pool, &file_tuner(&path));
    let (_, searched) = tune().unwrap();
    assert!(!searched.cache_hit);
    assert!(!corrupt.exists());
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with(r#"{"version":3,"#), "{text}");
    assert!(!text.contains(r#""cse""#), "{text}");
    let written = written_key(&path);
    assert!(written.contains("|v3|"), "{written}");
    let reloaded = TuneCache::load(&path).unwrap();
    assert_eq!(reloaded.to_json(), text, "a v3 file round-trips");
    assert_eq!(reloaded.lookup(&written).unwrap().config, searched.config);
    let (_, hit) = tune().unwrap();
    assert!(hit.cache_hit, "the v3 entry is hit");
    let _ = std::fs::remove_file(&path);
}

/// A cached entry that parses but no longer compiles — a tile edge
/// below 1, or a 2-edge tile under a 3-D work key — is a miss: the tuner
/// searches again and overwrites it, instead of failing every call.
#[test]
fn a_cached_entry_that_no_longer_compiles_is_searched_again() {
    let path = tmp_path("itest_unusable_entry");
    let _ = std::fs::remove_file(&path);
    let (ws, bind) = wave3d::workspace(12, 0.1);
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity(), &AdjointOptions::default())
        .unwrap();
    let pool = ThreadPool::new(1);
    let tune = || autotune_adjoint(&adj, &mut ws.clone(), &bind, &pool, &file_tuner(&path));
    let (_, searched) = tune().unwrap();
    assert!(!searched.cache_hit);
    let key = written_key(&path);
    for tile in [vec![0], vec![8, 8]] {
        let mut file = TuneCache::load(&path).unwrap();
        let mut entry = file.lookup(&key).unwrap().clone();
        entry.config.tile = tile.clone();
        file.insert(&key, entry);
        file.save(&path).unwrap();
        let (_, report) = tune().unwrap_or_else(|e| panic!("tile {tile:?}: {e}"));
        assert!(!report.cache_hit, "tile {tile:?} is a miss");
        assert_eq!(report.config, searched.config);
        let rewritten = TuneCache::load(&path).unwrap();
        assert_eq!(rewritten.lookup(&key).unwrap().config, searched.config);
        let (_, hit) = tune().unwrap();
        assert!(hit.cache_hit, "the replaced entry is hit again");
    }
    let _ = std::fs::remove_file(&path);
}

/// Seeded fuzzing of the cache reader: a valid file under byte flips,
/// truncations and spliced entries. `TuneCache::load` never panics, and
/// each outcome is one of three — its entries (which write back as they
/// read), a clean version miss, or a quarantine. An entry that survives,
/// put under a real work key, either compiles or is searched again.
#[test]
fn fuzzed_cache_files_load_as_entries_a_version_miss_or_a_quarantine() {
    let path = tmp_path("itest_fuzzed_cache");
    let corrupt = path.with_extension("json.corrupt");
    let real = tmp_path("itest_fuzzed_cache_real");
    let _ = std::fs::remove_file(&real);
    let (ws, bind) = heat2d::workspace(20, 0.2);
    let adj = heat2d::nest()
        .adjoint(&heat2d::activity(), &AdjointOptions::default())
        .unwrap();
    let pool = ThreadPool::new(1);
    let tune = || autotune_adjoint(&adj, &mut ws.clone(), &bind, &pool, &file_tuner(&real));
    let (_, searched) = tune().unwrap();
    let key = written_key(&real);
    // The base file: the tuner's own entry and three of other shapes.
    let mut base = TuneCache::load(&real).unwrap();
    for (k, tile, checkpoint) in [
        ("a|v2|t8", vec![16, 32, 512], None),
        ("b\"|t1", vec![], Some(12)),
        ("c|v2|t4", vec![8, 4096], Some(0)),
    ] {
        let mut entry = base.lookup(&key).unwrap().clone();
        (entry.config.tile, entry.config.checkpoint) = (tile, checkpoint);
        base.insert(k, entry);
    }
    let base = base.to_json().into_bytes();
    let mut rng = common::Rng::new(0x7C0F_F1E5);
    let mut seen = std::collections::BTreeSet::new();
    let (mut hits, mut searches) = (0, 0);
    for round in 0..1000 {
        let mut bytes = base.clone();
        for _ in 0..rng.range_usize(1, 3) {
            let at = rng.range_usize(0, bytes.len().saturating_sub(1));
            match rng.range_usize(0, 2) {
                0 if !bytes.is_empty() => bytes[at] ^= 1 << rng.range_usize(0, 7),
                1 => bytes.truncate(at),
                _ => {
                    let from = rng.range_usize(0, base.len() - 1);
                    let to = rng.range_usize(from, (from + 300).min(base.len()));
                    let at = at.min(bytes.len());
                    bytes.splice(at..at, base[from..to].iter().copied());
                }
            }
        }
        let _ = std::fs::remove_file(&corrupt);
        std::fs::write(&path, &bytes).unwrap();
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let loaded = TuneCache::load(&path).unwrap_or_else(|e| panic!("round {round}: {e}"));
        let version = perforad::obs::json::parse(&text)
            .ok()
            .and_then(|doc| doc.get("version").and_then(|v| v.as_i64()));
        let outcome = if !path.exists() {
            assert!(
                corrupt.exists(),
                "round {round}: a quarantine keeps the file"
            );
            "quarantine"
        } else if version == Some(CACHE_VERSION as i64) {
            "entries"
        } else {
            "version miss"
        };
        if outcome == "entries" {
            let again = TuneCache::from_json(&loaded.to_json()).unwrap();
            assert_eq!(again.to_json(), loaded.to_json(), "round {round}");
        } else {
            assert!(loaded.is_empty(), "round {round} ({outcome}): {text}");
        }
        seen.insert(outcome);
        // Each surviving entry, under the real key: a hit that compiles,
        // or a miss that searches and rewrites it.
        for k in [key.as_str(), "a|v2|t8", "b\"|t1", "c|v2|t4"] {
            let Some(entry) = loaded.lookup(k) else {
                continue;
            };
            let mut file = TuneCache::new();
            file.insert(&key, entry.clone());
            file.save(&real).unwrap();
            let (_, report) = tune().unwrap_or_else(|e| panic!("round {round}, {k}: {e}"));
            if report.cache_hit {
                hits += 1;
                assert_eq!(report.config, entry.config, "round {round}");
            } else {
                searches += 1;
                assert_eq!(report.config, searched.config, "round {round}");
            }
        }
    }
    // Every outcome was reached, and surviving entries went both ways.
    assert_eq!(seen.len(), 3, "{seen:?}");
    assert!(hits > 0 && searches > 0, "hits {hits}, searches {searches}");
    for p in [&path, &corrupt, &real] {
        let _ = std::fs::remove_file(p);
    }
}
