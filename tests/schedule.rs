//! Gradient-equivalence tests for the `perforad-sched` subsystem: the
//! fused, tiled, multi-threaded `run_schedule` must agree with (a) the
//! serial unfused adjoint executor and (b) the independent tape-AD
//! baseline, on the §3.2 1-D stencil and the 2-D heat kernel — and every
//! scheduled nest must remain gather-only.

use perforad::autodiff::tape_adjoint;
use perforad::prelude::*;
use perforad::symbolic::MapCtx;
use std::collections::BTreeMap;

/// The §3.2 stencil: r[i] = c[i]*(2 u[i-1] - 3 u[i] + 4 u[i+1]).
fn paper_1d() -> LoopNest {
    parse_stencil("for i in 1 .. n-1 { r[i] = c[i]*(2.0*u[i-1] - 3.0*u[i] + 4.0*u[i+1]); }")
        .unwrap()
}

fn setup_1d(n: usize) -> (Workspace, Binding) {
    let ws = Workspace::new()
        .with(
            "u",
            Grid::from_fn(&[n + 1], |ix| ((ix[0] * 13 + 5) % 17) as f64 / 3.0 - 2.0),
        )
        .with(
            "c",
            Grid::from_fn(&[n + 1], |ix| 0.5 + ((ix[0] * 7) % 5) as f64 / 4.0),
        )
        .with("r", Grid::zeros(&[n + 1]))
        .with("u_b", Grid::zeros(&[n + 1]))
        .with(
            "r_b",
            Grid::from_fn(&[n + 1], |ix| {
                if ix[0] >= 1 && ix[0] < n {
                    ((ix[0] * 11 + 3) % 7) as f64 - 3.0
                } else {
                    0.0
                }
            }),
        );
    (ws, Binding::new().size("n", n as i64))
}

#[test]
fn paper_1d_fused_schedule_matches_serial_and_tape() {
    let nest = paper_1d();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let n = 301usize;

    // (a) Serial unfused reference.
    let (mut ws_ref, bind) = setup_1d(n);
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    // (b) Independent tape-AD reference.
    let (ws0, _) = setup_1d(n);
    let store = MapCtx::new()
        .index("n", n as i64)
        .array1("u", ws0.grid("u").as_slice().to_vec())
        .array1("c", ws0.grid("c").as_slice().to_vec())
        .array1("r", vec![0.0; n + 1]);
    let mut seeds = BTreeMap::new();
    seeds.insert(Symbol::new("r"), ws0.grid("r_b").as_slice().to_vec());
    let tape = tape_adjoint(&nest, &act, &store, &seeds).unwrap();
    let tape_ub = &tape[&Symbol::new("u_b")];

    // Fused, tiled, multi-threaded — both policies, several tile sizes.
    for policy in [TilePolicy::Dynamic, TilePolicy::Static] {
        for tile in [4i64, 17, 4096] {
            let (mut ws, _) = setup_1d(n);
            let opts = SchedOptions::default()
                .with_tile(&[tile])
                .with_policy(policy);
            let s = compile_schedule(&adj, &ws, &bind, &opts).unwrap();
            // The disjoint 1-D adjoint fuses all 5 nests into one region,
            // and every scheduled nest stays gather-only.
            assert_eq!(s.group_count(), 1, "{}", s.describe());
            assert_eq!(s.max_fused(), 5);
            assert!(s.gather_only());
            for g in &s.groups {
                for &k in &g.nests {
                    assert!(adj.nests[k].is_gather(), "nest {k} is not gather-only");
                }
            }

            let pool = ThreadPool::new(4);
            run_schedule(&s, &mut ws, &pool).unwrap();

            // Bitwise vs the serial unfused adjoint (identical per-point
            // arithmetic, disjoint writes).
            assert_eq!(
                ws.grid("u_b").max_abs_diff(ws_ref.grid("u_b")),
                0.0,
                "policy {policy:?} tile {tile}: fused differs from serial unfused"
            );
            // Within 1e-12 of the independent tape baseline.
            for (k, (a, b)) in ws.grid("u_b").as_slice().iter().zip(tape_ub).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "policy {policy:?} tile {tile} index {k}: {a} vs tape {b}"
                );
            }
        }
    }
}

#[test]
fn heat2d_fused_schedule_matches_serial_and_tape() {
    use perforad::pde::heat2d;
    let nest = heat2d::nest();
    let act = heat2d::activity();
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let n = 40usize;

    // (a) Serial unfused reference.
    let (mut ws_ref, bind) = heat2d::workspace(n, 0.2);
    let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
    run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

    // (b) Independent tape-AD reference.
    let (ws0, _) = heat2d::workspace(n, 0.2);
    let store = MapCtx::new()
        .index("n", n as i64)
        .scalar("D", 0.2)
        .array("u_1", vec![n, n], ws0.grid("u_1").as_slice().to_vec())
        .array("u", vec![n, n], vec![0.0; n * n]);
    let mut seeds = BTreeMap::new();
    seeds.insert(Symbol::new("u"), ws0.grid("u_b").as_slice().to_vec());
    let tape = tape_adjoint(&nest, &act, &store, &seeds).unwrap();
    let tape_ub = &tape[&Symbol::new("u_1_b")];

    // Fused, tiled, multi-threaded.
    for policy in [TilePolicy::Dynamic, TilePolicy::Static] {
        let (mut ws, _) = heat2d::workspace(n, 0.2);
        let opts = SchedOptions::default()
            .with_tile(&[8, 8])
            .with_policy(policy);
        let s = compile_schedule(&adj, &ws, &bind, &opts).unwrap();
        // Fig. 3's 17 disjoint nests fuse into one region, all gather.
        assert_eq!(s.group_count(), 1, "{}", s.describe());
        assert_eq!(s.max_fused(), 17);
        assert!(s.gather_only());

        let pool = ThreadPool::new(4);
        run_schedule(&s, &mut ws, &pool).unwrap();

        assert_eq!(
            ws.grid("u_1_b").max_abs_diff(ws_ref.grid("u_1_b")),
            0.0,
            "policy {policy:?}: fused differs from serial unfused"
        );
        for (k, (a, b)) in ws.grid("u_1_b").as_slice().iter().zip(tape_ub).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "policy {policy:?} index {k}: {a} vs tape {b}"
            );
        }
    }
}

#[test]
fn overlapping_write_regions_are_never_fused() {
    // Two gather nests whose write boxes on `w` overlap must be split into
    // two barrier-separated groups; disjoint variants fuse into one.
    use perforad::sched::compile_schedule_nests;
    let i = Symbol::new("i");
    let u = Array::new("u");
    let mk = |lo: i64, hi: i64| {
        perforad::core::make_loop_nest(
            &Array::new("w").at(ix![&i]),
            u.at(ix![&i]) * 2.0,
            vec![i.clone()],
            vec![(Idx::constant(lo), Idx::constant(hi))],
        )
        .unwrap()
    };
    let ws = Workspace::new()
        .with("u", Grid::zeros(&[64]))
        .with("w", Grid::zeros(&[64]));
    let bind = Binding::new();

    let overlapping = [mk(1, 30), mk(20, 50)];
    let s =
        compile_schedule_nests(&overlapping, &ws, &bind, false, &SchedOptions::default()).unwrap();
    assert_eq!(s.group_count(), 2, "{}", s.describe());
    assert!(s.graph().conflicts(0, 1));

    let disjoint = [mk(1, 30), mk(31, 50)];
    let s = compile_schedule_nests(&disjoint, &ws, &bind, false, &SchedOptions::default()).unwrap();
    assert_eq!(s.group_count(), 1, "{}", s.describe());
    assert_eq!(s.max_fused(), 2);
}

#[test]
fn scheduled_wave3d_gradient_is_deterministic_across_thread_counts() {
    // The fused gather schedule is bitwise deterministic: any thread count
    // must reproduce the single-thread result exactly.
    use perforad::pde::wave3d;
    let (ws, bind) = wave3d::workspace(12, 0.1);
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity(), &AdjointOptions::default())
        .unwrap();
    let s = compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
    assert_eq!(s.group_count(), 1);
    assert_eq!(s.max_fused(), 53);

    let mut reference: Option<Workspace> = None;
    for threads in [1usize, 2, 5] {
        let (mut ws, _) = wave3d::workspace(12, 0.1);
        let pool = ThreadPool::new(threads);
        run_schedule(&s, &mut ws, &pool).unwrap();
        match &reference {
            None => reference = Some(ws),
            Some(r) => {
                for arr in ["u_1_b", "u_2_b"] {
                    assert_eq!(
                        r.grid(arr).max_abs_diff(ws.grid(arr)),
                        0.0,
                        "{arr} differs at {threads} threads"
                    );
                }
            }
        }
    }
}
