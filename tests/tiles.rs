//! Hull tiles are bitwise the nest-by-nest order. A tile is a box of its
//! plan's iteration hull — the bounding box of the plan's nests — and runs
//! every nest's part of it: nest by nest on the interpreter and the row
//! executor, in one call of the group's native entry on the JIT, where the
//! nests whose rows line up run as row families (a row's boundary points
//! inside the core's row loop). Only the order of points changes, never
//! the order of the updates to one point, so every run must equal running
//! each nest on its own, over its whole box, on the per-point interpreter.
//!
//! Checked over random DSL stencils of rank 1 to 3, the `Disjoint`,
//! `Guarded` and `Padded` decompositions, plain and accumulate mode,
//! every lowering (`Jit` with a toolchain), tile edges that cut a family
//! mid-row (innermost edge 1 and 3, outer edge 1) and edges at or past the
//! extents — so both the clamped and the constant-length family paths run
//! — serially and on a 2-worker pool.
//!
//! Stencils from the same generator check the gather proof by brute
//! force: every tile's write set, enumerated point by point, is disjoint
//! from every other tile's in a gather plan and never read, while the
//! scatter adjoint's tiles overlap — and the one tile driver refuses to
//! run them plainly.

use perforad::exec::regir::RegOp;
use perforad::exec::{compile_nests_opts, tile_plan, ExecError, Plan, PlanOptions, Strategy, Tile};
use perforad::jit::{available, emit::group_module};
use perforad::prelude::*;
use perforad::sched::{compile_schedule_nests, run_schedule_serial, SchedError};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

mod common;
use common::{assert_bitwise, Rng};

const COUNTERS: [&str; 3] = ["i", "j", "k"];

/// A random gather stencil in the DSL, `r = Σ a·c[x+p]·u[x+q]` with some
/// terms through `sin`, over the box that keeps every offset in range. The
/// first term reads `c` and `u` at different innermost offsets, so the
/// disjoint adjoint splits its rows into segments — a row family. The
/// offsets shrink with the rank, so the 3-D adjoint stays a few dozen
/// nests.
fn random_stencil(rng: &mut Rng, rank: usize) -> String {
    let reach = [2, 2, 1][rank - 1];
    let counters = &COUNTERS[..rank];
    let mut used = 1;
    let mut at = |rng: &mut Rng, array: &str, inner: Option<i64>| {
        let mut access = array.to_string();
        for (d, c) in counters.iter().enumerate() {
            let o = match inner {
                Some(o) if d + 1 == rank => o,
                _ => rng.range_i64(-reach, reach),
            };
            used = used.max(o.abs());
            access += &match o {
                0 => format!("[{c}]"),
                _ => format!("[{c}{o:+}]"),
            };
        }
        access
    };
    let mut terms = Vec::new();
    for t in 0..rng.range_usize(2, 3) {
        let a = [0.5, 1.0, 1.5, 2.0, 0.25][rng.range_usize(0, 4)];
        let (p, q) = match t {
            0 => (Some(0), Some([-1, 1][rng.range_usize(0, 1)])),
            _ => (None, None),
        };
        let term = format!("{a:?}*{}*{}", at(rng, "c", p), at(rng, "u", q));
        terms.push(match rng.range_i64(0, 2) {
            0 => format!("sin({term})"),
            _ => term,
        });
    }
    let bounds: Vec<String> = counters
        .iter()
        .map(|c| format!("{c} in {used} .. n-{}", 1 + used))
        .collect();
    let centre: String = counters.iter().map(|c| format!("[{c}]")).collect();
    format!(
        "for {} {{ r{centre} = {}; }}",
        bounds.join(", "),
        terms.join(" + ")
    )
}

/// Row families in the native module the emitter prints from `s`'s first
/// group's plan: one constant-length fast path each.
fn families(s: &Schedule) -> usize {
    let plan = &s.groups[0].plan;
    let last = plan.rank() - 1;
    let module = group_module(plan).unwrap();
    module.matches(&format!("if __tl{last} <= ")).count()
}

/// Random inputs, and random values in the two targets the adjoint adds
/// into — an accumulate plan adds to them, a plain one updates them.
fn workspace(rng: &mut Rng, dims: &[usize]) -> Workspace {
    let mut ws = Workspace::new();
    for name in ["u", "c", "r", "r_b", "u_b", "c_b"] {
        ws.insert(name, Grid::from_fn(dims, |_| 2.0 * rng.unit() - 1.0));
    }
    ws
}

const TARGETS: [&str; 2] = ["u_b", "c_b"];

/// The reference: every nest compiled and run on its own, over its whole
/// box, on the per-point interpreter, in plan order.
fn nest_by_nest(
    nests: &[LoopNest],
    ws: &Workspace,
    bind: &Binding,
    opts: PlanOptions,
) -> Workspace {
    let mut ws = ws.clone();
    for nest in nests {
        let plan = compile_nests_opts(std::slice::from_ref(nest), &ws, bind, opts.clone()).unwrap();
        run(&plan, &mut ws, ExecMode::serial()).unwrap();
    }
    ws
}

/// Per rank: edges of 1 everywhere, innermost 3 under outer 1 and 2 (a
/// family cut mid-row), an innermost edge one short of the extent (a tile
/// that misses only a row's last point), outer 1 under an innermost edge
/// past the extent, and every edge past the extents (one tile,
/// constant-length families).
fn edge_sets(rank: usize, n: usize) -> Vec<Vec<i64>> {
    let past = n as i64 + 5;
    let with = |outer: i64, inner: i64| {
        let mut e = vec![outer; rank];
        e[rank - 1] = inner;
        e
    };
    vec![
        with(1, 1),
        with(1, 3),
        with(2, 3),
        with(1, n as i64 - 1),
        with(1, past),
        with(past, past),
    ]
}

#[test]
fn hull_tiles_are_bitwise_the_nest_by_nest_order() {
    let mut rng = Rng::new(0x7113_2031);
    let act = ["u", "c", "r"]
        .into_iter()
        .fold(ActivityMap::new(), ActivityMap::with_suffixed);
    let dir = std::env::temp_dir().join(format!("perforad-tiles-{}", std::process::id()));
    let jit = JitOptions::default().with_cache_dir(&dir);
    let mut lowerings = vec![Lowering::PerPoint, Lowering::Rows];
    if available() {
        lowerings.push(Lowering::Jit);
    } else {
        eprintln!("no rustc toolchain: Jit not covered");
    }
    let pool = ThreadPool::new(2);
    let mut runs = 0;
    let mut family_cases = 0;
    for case in 0..6 {
        let rank = 1 + case % 3;
        let text = random_stencil(&mut rng, rank);
        let nest = parse_stencil(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let n = [14, 10, 8][rank - 1] + rng.range_usize(0, 2);
        let dims = vec![n; rank];
        let bind = Binding::new().size("n", n as i64);
        let inputs = workspace(&mut rng, &dims);
        for strategy in [
            BoundaryStrategy::Disjoint,
            BoundaryStrategy::Guarded,
            BoundaryStrategy::Padded,
        ] {
            let adj = nest
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let padded = strategy == BoundaryStrategy::Padded;
            for accumulate in [false, true] {
                // A guarded nest's increments to one array sit under
                // different guards: accumulate mode refuses it.
                if accumulate && strategy == BoundaryStrategy::Guarded {
                    continue;
                }
                // Accumulate mode carries both targets: it adds into them.
                let carried = accumulate.then(|| TARGETS.map(Symbol::new).into());
                let popts = PlanOptions {
                    padded,
                    accumulate: carried.clone(),
                };
                let want = nest_by_nest(&adj.nests, &inputs, &bind, popts);
                if strategy == BoundaryStrategy::Disjoint && !accumulate {
                    let s = compile_schedule_nests(
                        &adj.nests,
                        &inputs,
                        &bind,
                        false,
                        &SchedOptions::default(),
                    )
                    .unwrap();
                    family_cases += (families(&s) > 0) as usize;
                }
                assert_ne!(
                    want.grid("u_b").as_slice(),
                    inputs.grid("u_b").as_slice(),
                    "{text}: the reference wrote something"
                );
                for &lowering in &lowerings {
                    let base = SchedOptions {
                        accumulate: carried.clone(),
                        ..SchedOptions::default().with_lowering(lowering)
                    };
                    for edges in edge_sets(rank, n) {
                        let tag = format!(
                            "{text} n={n} {strategy:?} accumulate={accumulate} \
                             {lowering:?} tile {edges:?}"
                        );
                        let opts = base.clone().with_tile(&edges);
                        let s = compile_schedule_nests(&adj.nests, &inputs, &bind, padded, &opts)
                            .unwrap_or_else(|e| panic!("{tag}: {e}"));
                        if lowering == Lowering::Jit {
                            prepare_schedule(&s, &bind, &jit)
                                .unwrap_or_else(|e| panic!("{tag}: {e}"));
                        }
                        let mut serial = inputs.clone();
                        run_schedule_serial(&s, &mut serial).unwrap();
                        assert_bitwise(&format!("{tag}, serial"), &serial, &want, &TARGETS);
                        let mut pooled = inputs.clone();
                        run_schedule(&s, &mut pooled, &pool).unwrap();
                        assert_bitwise(&format!("{tag}, 2 workers"), &pooled, &want, &TARGETS);
                        runs += 2;
                    }
                    // `exec::run` on the same plans: whole-row slabs of the
                    // hull on the pool, the whole hull serially.
                    let s =
                        compile_schedule_nests(&adj.nests, &inputs, &bind, padded, &base).unwrap();
                    for strategy_of in [Strategy::Serial, Strategy::Parallel(&pool)] {
                        let mut ws = inputs.clone();
                        for g in &s.groups {
                            let mode = ExecMode {
                                strategy: strategy_of,
                                lowering,
                            };
                            run(&g.plan, &mut ws, mode).unwrap();
                        }
                        let tag = format!("{text} {strategy:?} {accumulate} {lowering:?} run");
                        assert_bitwise(&tag, &ws, &want, &TARGETS);
                        runs += 1;
                    }
                }
            }
        }
    }
    assert!(runs > 400, "{runs} runs compared");
    assert_eq!(family_cases, 6, "every disjoint adjoint has a row family");
    let _ = std::fs::remove_dir_all(dir);
}

/// A workspace may bind an array shared, read-only (an `Arc<Grid>` that a
/// checkpoint snapshot holds too). On every lowering, a plan that only
/// reads the shared arrays runs bit for bit as on owned ones — serially and
/// on two workers — and a plan that writes one is refused before any tile
/// runs: the owned target it also writes is left as it was.
#[test]
fn shared_inputs_run_bitwise_and_a_shared_target_is_refused() {
    let mut rng = Rng::new(0x5AA2_ED33);
    let act = ["u", "c", "r"]
        .into_iter()
        .fold(ActivityMap::new(), ActivityMap::with_suffixed);
    let dir = std::env::temp_dir().join(format!("perforad-shared-{}", std::process::id()));
    let jit = JitOptions::default().with_cache_dir(&dir);
    let mut lowerings = vec![Lowering::PerPoint, Lowering::Rows];
    if available() {
        lowerings.push(Lowering::Jit);
    }
    let pool = ThreadPool::new(2);
    for rank in 1..=3 {
        let text = random_stencil(&mut rng, rank);
        let nest = parse_stencil(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let n = [14, 10, 8][rank - 1];
        let bind = Binding::new().size("n", n as i64);
        let inputs = workspace(&mut rng, &vec![n; rank]);
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        // The adjoint reads `u`, `c` and `r_b`, and adds into the targets.
        let share = |ws: &Workspace, names: &[&str]| {
            let mut ws = ws.clone();
            for name in names {
                ws.insert_shared(*name, Arc::new(inputs.grid(name).clone()));
            }
            ws
        };
        let (reads, writes) = (share(&inputs, &["u", "c", "r_b"]), share(&inputs, &["c_b"]));
        for &lowering in &lowerings {
            let opts = SchedOptions::default().with_lowering(lowering);
            let s = compile_schedule_nests(&adj.nests, &inputs, &bind, false, &opts).unwrap();
            if lowering == Lowering::Jit {
                prepare_schedule(&s, &bind, &jit).unwrap();
            }
            let mut want = inputs.clone();
            run_schedule_serial(&s, &mut want).unwrap();
            let tag = format!("{text} {lowering:?}");
            let mut serial = reads.clone();
            run_schedule_serial(&s, &mut serial).unwrap();
            assert_bitwise(&format!("{tag}, serial"), &serial, &want, &TARGETS);
            let mut pooled = reads.clone();
            run_schedule(&s, &mut pooled, &pool).unwrap();
            assert_bitwise(&format!("{tag}, 2 workers"), &pooled, &want, &TARGETS);

            let refused = ExecError::SharedWrite("c_b".into());
            let mut ws = writes.clone();
            let err = run_schedule_serial(&s, &mut ws).unwrap_err();
            assert_eq!(err, SchedError::Exec(refused.clone()), "{tag}");
            for strategy in [Strategy::Serial, Strategy::Parallel(&pool)] {
                for g in s
                    .groups
                    .iter()
                    .filter(|g| g.plan.arrays().contains(&"c_b".into()))
                {
                    let mut ws = writes.clone();
                    let err = run(&g.plan, &mut ws, ExecMode { strategy, lowering }).unwrap_err();
                    assert_eq!(err, refused, "{tag}");
                    let untouched = ws.grid("u_b").as_slice() == inputs.grid("u_b").as_slice();
                    assert!(untouched, "{tag}: a tile ran before the refusal");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// What `tile` writes, point by point: each nest's part of the box, the
/// statements whose guard holds there, each at its write offsets.
fn write_set(plan: &Plan, tile: &Tile) -> BTreeSet<(usize, Vec<i64>)> {
    let mut writes = BTreeSet::new();
    for nest in plan.nests().iter().filter(|n| !n.empty) {
        let lo: Vec<i64> = (0..plan.rank())
            .map(|d| tile.lo()[d].max(nest.lo[d]))
            .collect();
        let hi: Vec<i64> = (0..plan.rank())
            .map(|d| tile.hi()[d].min(nest.hi[d]))
            .collect();
        if lo.iter().zip(&hi).any(|(l, h)| l > h) {
            continue;
        }
        let mut point = lo.clone();
        'points: loop {
            for st in &nest.stmts {
                let guarded = st
                    .guard
                    .as_ref()
                    .is_some_and(|g| g.iter().zip(&point).any(|(&(l, h), &p)| p < l || p > h));
                if !guarded {
                    let at = point
                        .iter()
                        .zip(st.write_offsets.iter())
                        .map(|(p, o)| p + o);
                    writes.insert((st.out_slot, at.collect()));
                }
            }
            // Next point, innermost dimension fastest.
            for d in (0..point.len()).rev() {
                if point[d] < hi[d] {
                    point[d] += 1;
                    continue 'points;
                }
                point[d] = lo[d];
            }
            break;
        }
    }
    writes
}

/// [`random_stencil`] plus a term reading `u` at the centre: its first term
/// reads `u` one point off, so the conventional adjoint writes `u_b` at two
/// offsets.
fn two_offset_stencil(rng: &mut Rng, rank: usize) -> String {
    let centre: String = COUNTERS[..rank].iter().map(|c| format!("[{c}]")).collect();
    let text = random_stencil(rng, rank);
    text.replace("; }", &format!(" + 0.5*u{centre}; }}"))
}

/// True when two tiles of `plan` cut with `edges` write one slot.
fn tiles_overlap(plan: &Plan, edges: &[i64]) -> bool {
    let mut writer: HashMap<(usize, Vec<i64>), usize> = HashMap::new();
    for (k, tile) in tile_plan(plan, edges).iter().enumerate() {
        for w in write_set(plan, tile) {
            if writer.insert(w, k).is_some_and(|other| other != k) {
                return true;
            }
        }
    }
    false
}

/// True when no statement of `plan` loads from a slot one writes.
fn reads_no_written_slot(plan: &Plan) -> bool {
    let stmts = || plan.nests().iter().flat_map(|n| &n.stmts);
    let written: BTreeSet<usize> = stmts().map(|st| st.out_slot).collect();
    let ops = stmts().flat_map(|st| &st.prog.ops);
    !ops.into_iter().any(|op| match op {
        RegOp::Load { slot, .. } | RegOp::LoadPadded { slot, .. } => {
            written.contains(&(*slot as usize))
        }
        _ => false,
    })
}

#[test]
fn write_sets_are_disjoint_exactly_when_the_plan_is_gather() {
    let mut rng = Rng::new(0x3217_7ea5);
    let act = ["u", "c", "r"]
        .into_iter()
        .fold(ActivityMap::new(), ActivityMap::with_suffixed);
    let pool = ThreadPool::new(2);
    let (mut gather_tilings, mut refusals) = (0, 0);
    for case in 0..6 {
        let rank = 1 + case % 3;
        let text = two_offset_stencil(&mut rng, rank);
        let nest = parse_stencil(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let n = [10, 8, 6][rank - 1] + rng.range_usize(0, 2);
        let bind = Binding::new().size("n", n as i64);
        let inputs = workspace(&mut rng, &vec![n; rank]);
        for strategy in [
            BoundaryStrategy::Disjoint,
            BoundaryStrategy::Guarded,
            BoundaryStrategy::Padded,
        ] {
            let adj = nest
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let popts = PlanOptions {
                padded: strategy == BoundaryStrategy::Padded,
                ..PlanOptions::default()
            };
            let plan = compile_nests_opts(&adj.nests, &inputs, &bind, popts).unwrap();
            assert!(plan.gather_only(), "{text} {strategy:?}");
            assert!(reads_no_written_slot(&plan));
            for edges in edge_sets(rank, n) {
                let tag = format!("{text} n={n} {strategy:?} tile {edges:?}");
                assert!(!tiles_overlap(&plan, &edges), "{tag}");
                gather_tilings += 1;
            }
        }

        // The conventional adjoint writes around its centre: some tiling of
        // at least two tiles writes one slot twice, so the driver runs its
        // tiles plainly neither on the pool nor one after another.
        let scatter = nest.scatter_adjoint(&act).unwrap();
        let scatter = std::slice::from_ref(&scatter);
        let plan = compile_nests_opts(scatter, &inputs, &bind, PlanOptions::default()).unwrap();
        assert!(!plan.gather_only(), "{text}");
        assert!(reads_no_written_slot(&plan));
        let edges = edge_sets(rank, n)
            .into_iter()
            .find(|e| tile_plan(&plan, e).len() >= 2 && tiles_overlap(&plan, e))
            .unwrap_or_else(|| panic!("{text}: no tiling of the scatter adjoint overlaps"));
        let opts = SchedOptions::default().with_tile(&edges);
        let s = compile_schedule_nests(scatter, &inputs, &bind, false, &opts).unwrap();
        assert!(s.tile_count() > 1);
        let refused = SchedError::Exec(ExecError::ScatterNeedsAtomics);
        let mut ws = inputs.clone();
        assert_eq!(run_schedule(&s, &mut ws, &pool).unwrap_err(), refused);
        assert_eq!(run_schedule_serial(&s, &mut ws).unwrap_err(), refused);
        assert_eq!(ws.grid("u_b").as_slice(), inputs.grid("u_b").as_slice());
        refusals += 2;

        // As one tile on the calling thread it runs: the serial reference.
        let one = compile_schedule_nests(scatter, &inputs, &bind, false, &SchedOptions::default());
        let one = one.unwrap();
        assert_eq!(one.tile_count(), 1);
        run_schedule_serial(&one, &mut ws).unwrap();
        let mut want = inputs.clone();
        run(&plan, &mut want, ExecMode::serial()).unwrap();
        assert_bitwise(&format!("{text} scatter, one tile"), &ws, &want, &TARGETS);
    }
    assert_eq!(gather_tilings, 6 * 3 * 6);
    assert_eq!(refusals, 12);
}
