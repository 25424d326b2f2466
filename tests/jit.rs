//! Property tests for the JIT native lowering: random expression trees
//! and adjoint decompositions compiled three ways — the stack
//! interpreter, the register-IR row executor, and `perforad-jit`'s
//! natively compiled fused groups — must agree **bitwise** across random
//! shapes, boundary strategies (guards, zero padding), fusion on/off, and
//! parallel execution. A tuner test asserts that a
//! Jit winner round-trips through the persistent `TunedConfig` cache.
//!
//! The same compiler builds `print_module`'s standalone wave3d and
//! Burgers modules, the one numerical check of that printer.
//!
//! On toolchain-less runners every test here degrades to a skip with a
//! printed reason instead of failing — exactly like the runtime, which
//! falls back to the row executor.

use perforad::exec::{compile_adjoint, compile_nests, run, ExecMode};
use perforad::jit::{available, emit::group_module, prepare_schedule, JitOptions};
use perforad::prelude::*;
use perforad::sched::{compile_schedule_nests, run_schedule_serial};
use perforad::symbolic::{Cond, Rel};
use perforad::tune::{
    autotune_adjoint, cache_key, fingerprint_nests, CacheEntry, Measure, TuneCache, TuneOptions,
};

mod common;
use common::{assert_bitwise, Rng};

/// Skip (with a reason) on hosts that can neither build nor load native
/// code — the `#[ignore]`-with-reason equivalent for a runtime property.
macro_rules! require_toolchain {
    () => {
        if !available() {
            eprintln!("skipped: no rustc toolchain available for JIT tests");
            return;
        }
    };
}

fn jit_opts(tag: &str) -> (JitOptions, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("perforad-jit-it-{tag}-{}", std::process::id()));
    (JitOptions::default().with_cache_dir(&dir), dir)
}

/// Random expression tree over the full op vocabulary: the rows property
/// suite's ops plus `sign`, `powi`, `powf`, `exp`, `tan`, `ln` and `sqrt`
/// — every method a native module calls through its `#![no_std]`
/// footer. `powf`, `ln` and `sqrt` take non-negative (`ln` positive)
/// arguments, `exp` a bounded one, a negative `powi` exponent a base of
/// at least 0.5 and one above 3 a base in [−1, 1], so no tree reaches NaN
/// or infinity.
fn random_expr(rng: &mut Rng, depth: usize, u: &Array, c: &Array, i: &Symbol) -> Expr {
    if depth == 0 {
        return match rng.range_i64(0, 4) {
            0 => u.at(vec![i + rng.range_i64(-2, 2)]),
            1 => c.at(ix![i]),
            2 => Expr::int(rng.range_i64(-3, 3)),
            3 => Expr::sym(i.clone()) * Expr::float(0.125),
            _ => u.at(ix![i]),
        };
    }
    let a = random_expr(rng, depth - 1, u, c, i);
    let b = random_expr(rng, depth - 1, u, c, i);
    match rng.range_i64(0, 16) {
        0 => a + b,
        1 => a * b,
        2 => -a,
        3 => a.sin(),
        4 => a.cos(),
        5 => a.tanh(),
        6 => a.max(b),
        7 => a.min(b),
        8 => Expr::select(Cond::new(a, Rel::Ge, Expr::zero()), b, Expr::float(0.5)),
        9 => a.abs(),
        10 => a.sign(),
        11 => match rng.range_i64(-3, 7) {
            k if k < 0 => (a.abs() + Expr::float(0.5)).powi(k),
            k if k > 3 => a.sin().powi(k),
            k => a.powi(k),
        },
        12 => a.abs().pow(Expr::float(1.5)),
        13 => a.tan(),
        14 => (a.abs() + Expr::float(0.5)).ln(),
        15 => a.abs().sqrt(),
        _ => a.sin().exp(),
    }
}

/// `u` holds `+0.0`, `-0.0` and equal neighbours every eight points, so
/// `max`, `min`, `sign` and `select` meet their ties.
fn ws_1d(n: usize, seed_pattern: u64) -> Workspace {
    let u = |ix: &[usize]| match ix[0] % 8 {
        0 => 0.0,
        1 => -0.0,
        2 | 3 => 0.75,
        _ => ((ix[0] as f64) * 0.61).sin() * 2.0 - 0.3,
    };
    Workspace::new()
        .with("u", Grid::from_fn(&[n], u))
        .with(
            "c",
            Grid::from_fn(&[n], |ix| {
                0.4 + ((ix[0] as u64 * seed_pattern) % 7) as f64 * 0.1
            }),
        )
        .with("r", Grid::zeros(&[n]))
}

/// Random trees through the whole op vocabulary: the JIT-compiled
/// schedule agrees bitwise with interpreter and rows. The last case is
/// zero-padded over the whole extent, so loads run off both ends. The
/// modules compiled call every method the `#![no_std]` footer reroutes.
#[test]
fn random_trees_jit_bitwise_identical() {
    require_toolchain!();
    const CASES: usize = 48;
    let (opts, dir) = jit_opts("trees");
    let mut rng = Rng::new(0x51ED_2001);
    let (u, c) = (Array::new("u"), Array::new("c"));
    let i = Symbol::new("i");
    let n_sym = Symbol::new("n");
    let mut calls = [".tan()", ".ln()", ".sqrt()", ".powi(-", ".powf("].map(|c| (c, 0));
    for case in 0..CASES {
        let padded = case == CASES - 1;
        let depth = rng.range_usize(1, 4);
        let expr = random_expr(&mut rng, depth, &u, &c, &i);
        let n = rng.range_usize(16, 47);
        let bounds = match padded {
            true => (Idx::constant(0), Idx::sym(n_sym.clone()) - 1),
            false => (Idx::constant(2), Idx::sym(n_sym.clone()) - 3),
        };
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i]),
            expr,
            vec![i.clone()],
            vec![bounds],
        )
        .expect("generated nest is valid");
        let bind = Binding::new().size("n", n as i64);
        let mut ws_ref = ws_1d(n, 3 + case as u64);
        let plan = compile_nests(std::slice::from_ref(&nest), &ws_ref, &bind, padded).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();
        let mut ws_rows = ws_1d(n, 3 + case as u64);
        run(&plan, &mut ws_rows, ExecMode::serial().rows()).unwrap();

        let mut ws_jit = ws_1d(n, 3 + case as u64);
        let s = compile_schedule_nests(
            std::slice::from_ref(&nest),
            &ws_jit,
            &bind,
            padded,
            &SchedOptions::default().with_jit(),
        )
        .unwrap();
        let report = prepare_schedule(&s, &bind, &opts).expect("prepare");
        assert_eq!(report.groups, 1, "case {case}");
        let module = group_module(&s.groups[0].plan).unwrap();
        for (call, count) in &mut calls {
            *count += module.matches(*call).count();
        }
        run_schedule_serial(&s, &mut ws_jit).unwrap();
        assert_bitwise(
            &format!("case {case}, n {n}: jit vs interpreter: {nest}"),
            &ws_jit,
            &ws_ref,
            &["r"],
        );
        assert_bitwise(
            &format!("case {case}: jit vs rows"),
            &ws_jit,
            &ws_rows,
            &["r"],
        );
    }
    assert!(calls.iter().all(|&(_, n)| n > 0), "{calls:?}");
    let _ = std::fs::remove_dir_all(dir);
}

fn stencil_1d(offsets: &[i64], coeffs: &[i64], nonlinear: bool) -> LoopNest {
    let i = Symbol::new("i");
    let n = Symbol::new("n");
    let u = Array::new("u");
    let mut terms = Vec::new();
    for (&o, &a) in offsets.iter().zip(coeffs) {
        let mut t = Expr::int(a) * u.at(vec![&i + o]);
        if nonlinear {
            t = t * u.at(ix![&i]);
        }
        terms.push(t);
    }
    let max_o = (*offsets.iter().max().unwrap()).max(0);
    let min_o = (*offsets.iter().min().unwrap()).min(0);
    make_loop_nest(
        &Array::new("r").at(ix![&i]),
        Expr::add_all(terms),
        vec![i.clone()],
        vec![(Idx::constant(-min_o), Idx::sym(n) - 1 - max_o)],
    )
    .expect("generated stencil is valid")
}

/// Every boundary strategy (disjoint fusion groups, hoisted guards, zero
/// padding), serial and parallel: the native lowering agrees bitwise with
/// the interpreter.
#[test]
fn adjoint_strategies_jit_bitwise_identical() {
    require_toolchain!();
    let (opts, dir) = jit_opts("strategies");
    let mut rng = Rng::new(0x51ED_2002);
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let pool = ThreadPool::new(3);
    let pool2 = ThreadPool::new(2);
    for case in 0..6 {
        let offsets = rng.offset_set(-3, 3, 4);
        let coeffs = rng.coeffs(-4, 4, offsets.len());
        let nonlinear = case % 3 == 0;
        let n = rng.range_usize(18, 49);
        let nest = stencil_1d(&offsets, &coeffs, nonlinear);
        let bind = Binding::new().size("n", n as i64);

        let max_o = (*offsets.iter().max().unwrap()).max(0);
        let min_o = (*offsets.iter().min().unwrap()).min(0);
        let (lo, hi) = ((-min_o) as usize, (n as i64 - 1 - max_o) as usize);
        let build = || {
            Workspace::new()
                .with(
                    "u",
                    Grid::from_fn(&[n], |ix| ((ix[0] * 5 + 2) % 11) as f64 - 5.0),
                )
                .with("r", Grid::zeros(&[n]))
                .with("u_b", Grid::zeros(&[n]))
                .with(
                    "r_b",
                    Grid::from_fn(&[n], |ix| {
                        if ix[0] >= lo && ix[0] <= hi {
                            ((ix[0] * 3) % 5) as f64 - 2.0
                        } else {
                            0.0
                        }
                    }),
                )
        };
        for strategy in [
            BoundaryStrategy::Disjoint,
            BoundaryStrategy::Guarded,
            BoundaryStrategy::Padded,
        ] {
            let adj = nest
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let mut ws_ref = build();
            let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
            run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

            let padded = strategy == BoundaryStrategy::Padded;
            let sopts = SchedOptions::default().with_jit();
            let mut ws_jit = build();
            let s = compile_schedule_nests(&adj.nests, &ws_jit, &bind, padded, &sopts).unwrap();
            prepare_schedule(&s, &bind, &opts).expect("prepare");
            run_schedule_serial(&s, &mut ws_jit).unwrap();
            assert_bitwise(
                &format!("case {case} {strategy:?} serial jit"),
                &ws_jit,
                &ws_ref,
                &["u_b"],
            );

            // Parallel native tiles agree too (disjoint write sets).
            let mut ws_par = build();
            run_schedule(&s, &mut ws_par, &pool).unwrap();
            assert_bitwise(
                &format!("case {case} {strategy:?} parallel jit"),
                &ws_par,
                &ws_ref,
                &["u_b"],
            );

            // Rank-1 rows clipped to 1, 2, 3 and 5 points on 2 threads:
            // shorter than a vector, and every vector-loop remainder.
            for edge in [1, 2, 3, 5] {
                let mut ws_t = build();
                let st = sopts.clone().with_tile(&[edge]);
                let s = compile_schedule_nests(&adj.nests, &ws_t, &bind, padded, &st).unwrap();
                prepare_schedule(&s, &bind, &opts).expect("prepare");
                run_schedule(&s, &mut ws_t, &pool2).unwrap();
                assert_bitwise(
                    &format!("case {case} {strategy:?} tile edge {edge}"),
                    &ws_t,
                    &ws_ref,
                    &["u_b"],
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// 2-D guarded and padded adjoints: hoisted guard boxes clamp both
/// dimensions, padded loads zero whole out-of-extent rows.
#[test]
fn adjoint_2d_jit_bitwise_identical() {
    require_toolchain!();
    let (opts, dir) = jit_opts("twod");
    let mut rng = Rng::new(0x51ED_2003);
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let (i, j) = (Symbol::new("i"), Symbol::new("j"));
    let n_sym = Symbol::new("n");
    let pool2 = ThreadPool::new(2);
    for case in 0..4 {
        let u = Array::new("u");
        let k = rng.range_usize(2, 4);
        let mut terms = Vec::new();
        let mut max_o = 0i64;
        for _ in 0..k {
            let (oi, oj) = (rng.range_i64(-2, 2), rng.range_i64(-2, 2));
            max_o = max_o.max(oi.abs()).max(oj.abs());
            let a = rng.range_i64(-3, 3);
            terms.push(Expr::int(if a == 0 { 1 } else { a }) * u.at(vec![&i + oi, &j + oj]));
        }
        let n = rng.range_usize(12, 25);
        let b = (Idx::constant(max_o), Idx::sym(n_sym.clone()) - 1 - max_o);
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i, &j]),
            Expr::add_all(terms),
            vec![i.clone(), j.clone()],
            vec![b.clone(), b],
        )
        .expect("2-D stencil is valid");
        let bind = Binding::new().size("n", n as i64);
        let lo = max_o as usize;
        let hi = n - 1 - max_o as usize;
        let build = || {
            Workspace::new()
                .with(
                    "u",
                    Grid::from_fn(&[n, n], |ix| ((ix[0] * 7 + ix[1] * 3) % 9) as f64 - 4.0),
                )
                .with("r", Grid::zeros(&[n, n]))
                .with("u_b", Grid::zeros(&[n, n]))
                .with(
                    "r_b",
                    Grid::from_fn(&[n, n], |ix| {
                        let interior = ix.iter().all(|&x| x >= lo && x <= hi);
                        if interior {
                            ((ix[0] * 2 + ix[1]) % 5) as f64 - 2.0
                        } else {
                            0.0
                        }
                    }),
                )
        };
        for strategy in [BoundaryStrategy::Guarded, BoundaryStrategy::Padded] {
            let adj = nest
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let mut ws_ref = build();
            let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
            run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

            let padded = strategy == BoundaryStrategy::Padded;
            let mut ws_jit = build();
            let s = compile_schedule_nests(
                &adj.nests,
                &ws_jit,
                &bind,
                padded,
                &SchedOptions::default().with_jit().with_tile(&[5, 7]),
            )
            .unwrap();
            prepare_schedule(&s, &bind, &opts).expect("prepare");
            run_schedule_serial(&s, &mut ws_jit).unwrap();
            assert_bitwise(
                &format!("case {case} {strategy:?}"),
                &ws_jit,
                &ws_ref,
                &["u_b"],
            );

            // Innermost tile edges 1, 2, 3 and 5 on 2 threads: rows
            // shorter than a vector, and every vector-loop remainder.
            for edge in [1, 2, 3, 5] {
                let mut ws_t = build();
                let st = SchedOptions::default().with_jit().with_tile(&[5, edge]);
                let s = compile_schedule_nests(&adj.nests, &ws_t, &bind, padded, &st).unwrap();
                prepare_schedule(&s, &bind, &opts).expect("prepare");
                run_schedule(&s, &mut ws_t, &pool2).unwrap();
                assert_bitwise(
                    &format!("case {case} {strategy:?} tile edge {edge}"),
                    &ws_t,
                    &ws_ref,
                    &["u_b"],
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Fusion on and off produce different group decompositions (1 group vs
/// one per nest) — both compile natively and agree bitwise; an
/// *unprepared* Jit schedule silently falls back to rows and still
/// agrees.
#[test]
fn fusion_groups_and_fallback_jit_bitwise_identical() {
    require_toolchain!();
    let (opts, dir) = jit_opts("fusion");
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let i = Symbol::new("i");
    let n_sym = Symbol::new("n");
    let (u, c) = (Array::new("u"), Array::new("c"));
    let nest = make_loop_nest(
        &Array::new("r").at(ix![&i]),
        c.at(ix![&i]) * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1])),
        vec![i.clone()],
        vec![(Idx::constant(1), Idx::sym(n_sym) - 1)],
    )
    .unwrap();
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let n = 193usize;
    let bind = Binding::new().size("n", n as i64);
    let build = || {
        Workspace::new()
            .with(
                "u",
                Grid::from_fn(&[n + 1], |ix| (ix[0] as f64).sin() + 1.5),
            )
            .with("c", Grid::from_fn(&[n + 1], |ix| 0.5 + 0.01 * ix[0] as f64))
            .with("r", Grid::zeros(&[n + 1]))
            .with("u_b", Grid::zeros(&[n + 1]))
            .with("r_b", Grid::from_fn(&[n + 1], |ix| (ix[0] as f64).cos()))
    };
    let mut ws_ref = build();
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    for fuse in [true, false] {
        let mut ws = build();
        let sopts = SchedOptions::default().with_jit().with_fuse(fuse);
        let s = compile_schedule_nests(&adj.nests, &ws, &bind, false, &sopts).unwrap();
        assert_eq!(s.group_count(), if fuse { 1 } else { 5 });
        let report = prepare_schedule(&s, &bind, &opts).expect("prepare");
        assert_eq!(report.groups, s.group_count());
        run_schedule_serial(&s, &mut ws).unwrap();
        assert_bitwise(&format!("fuse={fuse}"), &ws, &ws_ref, &["u_b"]);
    }

    // Fallback: a Jit schedule for a *different* size was never prepared
    // in this process — it must run (through rows) and stay bitwise
    // correct rather than fail.
    let n2 = 87usize;
    let bind2 = Binding::new().size("n", n2 as i64);
    let build2 = || {
        Workspace::new()
            .with("u", Grid::from_fn(&[n2 + 1], |ix| (ix[0] as f64).cos()))
            .with("c", Grid::full(&[n2 + 1], 0.75))
            .with("r", Grid::zeros(&[n2 + 1]))
            .with("u_b", Grid::zeros(&[n2 + 1]))
            .with("r_b", Grid::full(&[n2 + 1], 1.0))
    };
    let mut ws_ref2 = build2();
    let plan2 = compile_adjoint(&adj, &ws_ref2, &bind2).unwrap();
    run(&plan2, &mut ws_ref2, ExecMode::serial()).unwrap();
    let mut ws2 = build2();
    let s2 = compile_schedule_nests(
        &adj.nests,
        &ws2,
        &bind2,
        false,
        &SchedOptions::default().with_jit(),
    )
    .unwrap();
    // No prepare_schedule on purpose.
    run_schedule_serial(&s2, &mut ws2).unwrap();
    assert_bitwise("unprepared jit falls back", &ws2, &ws_ref2, &["u_b"]);
    let _ = std::fs::remove_dir_all(dir);
}

/// A Jit winner round-trips through the persistent `TunedConfig` cache:
/// a fresh tuner (memory layer off) reads the file, re-prepares the
/// native module, and returns a runnable Jit configuration.
#[test]
fn jit_candidate_round_trips_through_tuned_config_cache() {
    require_toolchain!();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let i = Symbol::new("i");
    let n_sym = Symbol::new("n");
    let u = Array::new("u");
    let nest = make_loop_nest(
        &Array::new("r").at(ix![&i]),
        2.0 * u.at(ix![&i - 1]) + 3.0 * u.at(ix![&i + 1]),
        vec![i.clone()],
        vec![(Idx::constant(1), Idx::sym(n_sym) - 1)],
    )
    .unwrap();
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let n = 257usize;
    let bind = Binding::new().size("n", n as i64);
    let mut ws = Workspace::new()
        .with("u", Grid::from_fn(&[n + 1], |ix| (ix[0] as f64).sin()))
        .with("r", Grid::zeros(&[n + 1]))
        .with("u_b", Grid::zeros(&[n + 1]))
        .with("r_b", Grid::full(&[n + 1], 1.0));
    let pool = ThreadPool::new(2);

    // Seed the file cache with a Jit winner under the real key.
    let cache_path = std::env::temp_dir().join(format!(
        "perforad_jit_tuned_cache_{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&cache_path);
    let key = cache_key(fingerprint_nests(&adj.nests, false, &bind), pool.size());
    let jit_config = TunedConfig {
        lowering: Lowering::Jit,
        threads: pool.size(),
        tile: vec![1 << 12],
        ..TunedConfig::default()
    };
    let mut file = TuneCache::new();
    file.insert(
        &key,
        CacheEntry {
            config: jit_config.clone(),
            seconds: 1e-4,
        },
    );
    file.save(&cache_path).unwrap();

    // A fresh tuner instance must hit the file, hand back the Jit
    // config, and (via its prepare step) make it natively runnable.
    let mut topts = TuneOptions::default()
        .with_cache_path(&cache_path)
        .with_measure(Measure::Wall { samples: 1 });
    topts.memory_cache = false;
    let (schedule, report) =
        autotune_adjoint(&adj, &mut ws, &bind, &pool, &topts).expect("cached tune");
    assert!(report.cache_hit, "file cache must hit");
    assert_eq!(report.config, jit_config);
    assert_eq!(report.config.lowering, Lowering::Jit);
    assert_eq!(schedule.lowering, Lowering::Jit);

    // And the result is bitwise-correct against the serial interpreter.
    let mut ws_ref = Workspace::new()
        .with("u", Grid::from_fn(&[n + 1], |ix| (ix[0] as f64).sin()))
        .with("r", Grid::zeros(&[n + 1]))
        .with("u_b", Grid::zeros(&[n + 1]))
        .with("r_b", Grid::full(&[n + 1], 1.0));
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();
    let mut ws_run = Workspace::new()
        .with("u", Grid::from_fn(&[n + 1], |ix| (ix[0] as f64).sin()))
        .with("r", Grid::zeros(&[n + 1]))
        .with("u_b", Grid::zeros(&[n + 1]))
        .with("r_b", Grid::full(&[n + 1], 1.0));
    run_tuned(&schedule, &report.config, &mut ws_run, &pool).unwrap();
    assert_bitwise("tuned jit", &ws_run, &ws_ref, &["u_b"]);
    let _ = std::fs::remove_file(&cache_path);
}

/// The 3-D wave workspace at `n³` with every input drawn from `Rng` (the
/// seed `u_b` nonzero only on the interior the primal writes).
fn wave_ws(n: usize, seed: u64) -> Workspace {
    let mut rng = Rng::new(seed);
    let dims = [n, n, n];
    let mut ws = Workspace::new();
    for name in ["u_1", "u_2"] {
        ws.insert(name, Grid::from_fn(&dims, |_| 2.0 * rng.unit() - 1.0));
    }
    ws.insert("c", Grid::from_fn(&dims, |_| 0.5 + rng.unit()));
    ws.insert(
        "u_b",
        Grid::from_fn(&dims, |ix| {
            let v = rng.unit() - 0.4;
            if ix.iter().all(|&x| x >= 1 && x <= n - 2) {
                v
            } else {
                0.0
            }
        }),
    );
    for name in ["u", "u_1_b", "u_2_b", "c_b"] {
        ws.insert(name, Grid::zeros(&dims));
    }
    ws
}

/// Recorded while the emitter still printed one loop nest per statement,
/// over every configuration below run twice, with per-statement CSE off and on —
/// which wrote the same bits, so each run's bytes are hashed twice now
/// that plans compile one way. The emitter may fuse loops and keep
/// increments in registers; it may never change a bit.
const GOLDEN_WAVE_DIGEST: u64 = 0xfb0d_a396_20f9_9095;

/// The paper's headline kernel through the native lowering: both activity
/// maps, `Disjoint` and `Guarded`, serially and on a
/// 2-thread pool with a tile shape that clips every nest — each
/// bitwise-equal to `Lowering::PerPoint`, and all of them together equal
/// to the digest recorded before the emitter fused its loops.
#[test]
fn wave3d_adjoint_jit_bitwise_identical_and_golden() {
    use perforad::pde::wave3d;
    require_toolchain!();
    let (opts, dir) = jit_opts("wave3d");
    let n = 12usize;
    let bind = Binding::new().size("n", n as i64).param("D", 0.1);
    let pool = ThreadPool::new(2);
    let outputs = ["u_1_b", "u_2_b", "c_b"];
    let mut bytes = Vec::new();
    for (act, tag) in [
        (wave3d::activity(), "activity"),
        (wave3d::activity_with_c(), "activity_with_c"),
    ] {
        for strategy in [BoundaryStrategy::Disjoint, BoundaryStrategy::Guarded] {
            let adj = wave3d::nest()
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let mut ws_ref = wave_ws(n, 0x51ED_2005);
            let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
            run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

            let sopts = SchedOptions::default().with_jit().with_tile(&[3, 5, 7]);
            let mut ws_ser = wave_ws(n, 0x51ED_2005);
            let s = compile_schedule_nests(&adj.nests, &ws_ser, &bind, false, &sopts).unwrap();
            let report = prepare_schedule(&s, &bind, &opts).expect("prepare");
            assert_eq!(
                report.compiled + report.loaded + report.registered,
                s.group_count()
            );
            run_schedule_serial(&s, &mut ws_ser).unwrap();
            let mut ws_par = wave_ws(n, 0x51ED_2005);
            run_schedule(&s, &mut ws_par, &pool).unwrap();
            let mut run_bytes = Vec::new();
            for name in outputs {
                for (ws, how) in [(&ws_ser, "serial"), (&ws_par, "2 threads")] {
                    assert_bitwise(
                        &format!("{tag} {strategy:?} {how}: {name}"),
                        ws,
                        &ws_ref,
                        &[name],
                    );
                }
                for v in ws_par.grid(name).as_slice() {
                    run_bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            bytes.extend_from_slice(&run_bytes);
            bytes.extend_from_slice(&run_bytes);
        }
    }
    let got = perforad::exec::fnv1a64(&bytes);
    assert_eq!(got, GOLDEN_WAVE_DIGEST, "digest {got:#018x}");
    let _ = std::fs::remove_dir_all(dir);
}

/// Recorded at PR 15's tree, before the seismic time loop's primal step
/// left the row executor: the step the JIT now runs there may never
/// change a bit.
const GOLDEN_PRIMAL_DIGEST: u64 = 0xd111_347e_abd1_83b3;

/// The primal wave step as the seismic stepper compiles it — a one-nest
/// schedule — through `Jit`, `Rows` and `PerPoint`, serially and on a
/// 2-thread pool with a tile shape that clips the nest: bitwise-equal
/// after every one of 10 chained steps (`u_2 ← u_1 ← u`), and the final
/// state equal to the digest recorded while that step still ran rows.
#[test]
fn wave3d_primal_jit_bitwise_identical_and_golden() {
    use perforad::pde::wave3d;
    require_toolchain!();
    let (opts, dir) = jit_opts("wave3d-primal");
    let n = 12usize;
    let bind = Binding::new().size("n", n as i64).param("D", 0.1);
    let pool = ThreadPool::new(2);
    // One workspace per lowering × drive, the per-point serial one first.
    let mut runs = Vec::new();
    for lowering in [Lowering::PerPoint, Lowering::Rows, Lowering::Jit] {
        let sopts = SchedOptions::default()
            .with_lowering(lowering)
            .with_tile(&[3, 5, 7]);
        for parallel in [false, true] {
            let ws = wave_ws(n, 0x9E37_2016);
            let s = compile_schedule_nests(&[wave3d::nest()], &ws, &bind, false, &sopts).unwrap();
            if lowering == Lowering::Jit {
                let report = prepare_schedule(&s, &bind, &opts).expect("prepare");
                assert_eq!(
                    report.compiled + report.loaded + report.registered,
                    s.group_count()
                );
            }
            runs.push((s, ws, parallel, lowering));
        }
    }
    for step in 0..10 {
        for (s, ws, parallel, _) in &mut runs {
            if *parallel {
                run_schedule(s, ws, &pool).unwrap();
            } else {
                run_schedule_serial(s, ws).unwrap();
            }
        }
        let (reference, rest) = runs.split_first_mut().unwrap();
        for (_, ws, parallel, lowering) in rest.iter_mut() {
            assert_bitwise(
                &format!("step {step}: {lowering:?} parallel={parallel}"),
                ws,
                &reference.1,
                &["u"],
            );
        }
        // Rotate every state: u_2 ← u_1 ← u (`u` is reassigned on the
        // whole interior by the next step).
        for (_, ws, ..) in &mut runs {
            for (dst, src) in [("u_2", "u_1"), ("u_1", "u")] {
                let next = ws.grid(src).clone();
                *ws.grid_mut(dst) = next;
            }
        }
    }
    let mut bytes = Vec::new();
    let (_, ws_jit, ..) = runs.last().unwrap();
    for name in ["u_1", "u_2"] {
        for v in ws_jit.grid(name).as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let got = perforad::exec::fnv1a64(&bytes);
    assert_eq!(got, GOLDEN_PRIMAL_DIGEST, "digest {got:#018x}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `print_module`'s output compiled and run: the wave3d and Burgers
/// modules (primal and adjoint) plus a generated `main` build standalone
/// with the JIT's compiler (`PERFORAD_JIT_RUSTC`, then `RUSTC`, then
/// `rustc`) at `-O`. The binary reads every array a module's top-level
/// function takes from a little-endian `f64` file, calls it over its full
/// range and writes back the arrays it assigns. Each primal must match
/// the per-point evaluator to 1e-14, each adjoint the row executor to 1e-13.
#[test]
fn printed_modules_compile_and_match_the_executors() {
    use perforad::pde::{burgers, wave3d};
    use std::fmt::Write as _;
    require_toolchain!();
    let dir = std::env::temp_dir().join(format!("perforad-printed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).display().to_string();
    let (wave, wave_bind) = wave3d::workspace(12, 0.1);
    let (burgers, burgers_bind) = burgers::workspace(128, 0.3, 0.1);
    let mut body = String::new();
    let mut mods = String::new();
    let io = r#"fn read(path: &str) -> Vec<f64> {
    let bytes = std::fs::read(path).unwrap();
    bytes.chunks_exact(8).map(|b| f64::from_le_bytes(b.try_into().unwrap())).collect()
}

fn write(path: &str, values: &[f64]) {
    let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(path, bytes).unwrap();
}
"#;
    // Per module: the executors' result, the arrays it writes, the bound.
    let mut checks = Vec::new();
    for (name, source) in common::printed_paper_kernels() {
        std::fs::write(dir.join(format!("{name}.rs")), &source).unwrap();
        let (ws, bind, nest, act) = if name.starts_with("wave3d") {
            (&wave, &wave_bind, wave3d::nest(), wave3d::activity())
        } else {
            (
                &burgers,
                &burgers_bind,
                burgers::nest(),
                burgers::activity(),
            )
        };
        let (plan, mode, bound) = if name.ends_with("primal") {
            (compile_nest(&nest, ws, bind), ExecMode::serial(), 1e-14)
        } else {
            let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
            (
                compile_adjoint(&adj, ws, bind),
                ExecMode::serial().rows(),
                1e-13,
            )
        };
        let mut expect = ws.clone();
        run(&plan.unwrap(), &mut expect, mode).unwrap();

        // The top-level function: `pub fn {name}(lo0: i64, hi0: i64, sizes: i64…,
        // params: f64…, outputs: &mut [f64]…, inputs: &[f64]…, dims)`.
        let head = format!("pub fn {name}(");
        let args = source
            .lines()
            .find_map(|line| line.strip_prefix(head.as_str()))
            .and_then(|line| line.strip_suffix(") {"))
            .expect("the module's top-level function");
        let mut call = Vec::new();
        let mut written = Vec::new();
        let _ = writeln!(mods, "mod {name};");
        let _ = writeln!(body, "    {{");
        for arg in args.split(", ") {
            let (arg, ty) = arg.split_once(": ").unwrap();
            call.push(match (arg, ty) {
                ("lo0", _) => "i64::MIN".to_string(),
                ("hi0", _) => "i64::MAX".to_string(),
                (_, "i64") => bind.sizes[&Symbol::new(arg)].to_string(),
                (_, "f64") => {
                    let bits = bind.params[&Symbol::new(arg)].to_bits();
                    format!("f64::from_bits({bits:#x})")
                }
                (_, "&mut [f64]" | "&[f64]") => {
                    let path = file(&format!("{name}.{arg}"));
                    let bytes: Vec<u8> = ws
                        .grid(arg)
                        .as_slice()
                        .iter()
                        .flat_map(|v| v.to_le_bytes())
                        .collect();
                    std::fs::write(&path, bytes).unwrap();
                    let out = ty.starts_with("&mut");
                    let _ = writeln!(
                        body,
                        "        let {}{arg} = read({path:?});",
                        if out { "mut " } else { "" }
                    );
                    if out {
                        written.push((arg.to_string(), path));
                    }
                    format!("{}{arg}", if out { "&mut " } else { "&" })
                }
                _ => format!("&{:?}", ws.grid("u").dims()),
            });
        }
        let _ = writeln!(body, "        {name}::{name}({});", call.join(", "));
        for (arg, path) in &written {
            let _ = writeln!(body, "        write({path:?}, &{arg});");
        }
        let _ = writeln!(body, "    }}");
        checks.push((name, expect, written, bound));
    }
    let main = format!("{mods}\n{io}\nfn main() {{\n{body}}}\n");
    let main_rs = dir.join("main.rs");
    std::fs::write(&main_rs, &main).unwrap();

    let rustc = JitOptions::default()
        .rustc
        .unwrap_or_else(|| "rustc".into());
    let bin = dir.join("printed");
    let built = std::process::Command::new(&rustc)
        .args(["--edition", "2021", "-O", "-o"])
        .arg(&bin)
        .arg(&main_rs)
        .output()
        .unwrap();
    assert!(
        built.status.success(),
        "{}\n{main}",
        String::from_utf8_lossy(&built.stderr)
    );
    let ran = std::process::Command::new(&bin).output().unwrap();
    assert!(
        ran.status.success(),
        "{}",
        String::from_utf8_lossy(&ran.stderr)
    );

    for (name, expect, written, bound) in checks {
        assert!(!written.is_empty(), "{name} writes an array");
        for (arr, path) in written {
            let bytes = std::fs::read(path).unwrap();
            let got: Vec<f64> = bytes
                .chunks_exact(8)
                .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
                .collect();
            let want = expect.grid(&arr).as_slice();
            assert_eq!(got.len(), want.len(), "{name}.{arr}");
            for (k, (a, b)) in got.iter().zip(want).enumerate() {
                assert!(
                    (a - b).abs() <= bound,
                    "{name}.{arr}[{k}]: printed {a} vs {b}"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
