//! Accumulate mode's contract (`PlanOptions::accumulate`): a nest's `+=`
//! updates to one array at one point are summed from `+0.0` in statement
//! order and added once to an array that carries state, or stored into
//! one that does not (its first touch assigns). At every point a nest
//! writes that is bit for bit "zero a scratch grid, run in plain mode, add
//! the scratch into the target" — for an assigned array, into a zeroed
//! target; every other point keeps its value, `-0.0` and NaN included.
//! Checked over random stencils on every lowering, with and without CSE;
//! increments that summing first would round differently, and two writes
//! to one point of an assigned array, are refused; and plans that differ
//! in mode or in their assigned arrays never share a fingerprint, so their
//! native modules live side by side.

use perforad::core::nest::{Bound, Statement};
use perforad::exec::{compile_nests_opts, native_lookup, ExecError, Plan, PlanOptions};
use perforad::jit::available;
use perforad::pde::wave3d;
use perforad::prelude::*;
use perforad::sched::{compile_schedule_nests, run_schedule_serial};
use perforad::symbolic::Access;

mod common;
use common::Rng;

/// `r = Σ a·c[x+p]·u[x+q]` (some terms through `sin`) over a rank-1 or
/// rank-2 box that keeps every offset in range: with `u` and `c` active
/// the adjoint adds into both `u_b` and `c_b`, several terms per nest.
fn random_stencil(rng: &mut Rng, rank: usize) -> LoopNest {
    let counters: Vec<Symbol> = ["i", "j"][..rank].iter().map(|&c| Symbol::new(c)).collect();
    let at = |a: &str, off: &[i64]| {
        let ix = counters
            .iter()
            .zip(off)
            .map(|(c, &o)| Idx::sym(c.clone()) + o);
        Array::new(a).at(ix.collect::<Vec<_>>())
    };
    let mut reach = 0i64;
    let mut terms = Vec::new();
    for _ in 0..rng.range_usize(1, 3) {
        let mut offset = || {
            let o: Vec<i64> = (0..rank).map(|_| rng.range_i64(-2, 2)).collect();
            reach = reach.max(o.iter().map(|x| x.abs()).max().unwrap_or(0));
            o
        };
        let (p, q) = (offset(), offset());
        let a = rng.range_i64(1, 3) as f64 * if rng.range_i64(0, 1) == 0 { 1.0 } else { -0.5 };
        let term = a * at("c", &p) * at("u", &q);
        terms.push(if rng.range_i64(0, 2) == 0 {
            term.sin()
        } else {
            term
        });
    }
    let n = Idx::sym(Symbol::new("n"));
    let bound = (Idx::constant(reach), n - 1 - reach);
    make_loop_nest(
        &at("r", &vec![0; rank]),
        Expr::add_all(terms),
        counters.clone(),
        vec![bound; rank],
    )
    .expect("random stencil is valid")
}

const TARGETS: [&str; 2] = ["u_b", "c_b"];

/// Accumulate mode carrying `carried`.
fn carrying(carried: &[&str]) -> Option<std::collections::BTreeSet<Symbol>> {
    Some(carried.iter().map(|&a| Symbol::new(a)).collect())
}

/// Random inputs; the two targets hold random values with `-0.0` and NaN
/// sprinkled in, or zeros (the scratch of the reference run).
fn workspace(rng: &mut Rng, dims: &[usize], scratch: bool) -> Workspace {
    let mut ws = Workspace::new();
    for name in ["u", "c", "r", "r_b"] {
        ws.insert(name, Grid::from_fn(dims, |_| 2.0 * rng.unit() - 1.0));
    }
    for name in TARGETS {
        let seeded = |_: &[usize]| match rng.range_i64(0, 9) {
            _ if scratch => 0.0,
            0 => -0.0,
            1 => f64::NAN,
            _ => 4.0 * rng.unit() - 2.0,
        };
        ws.insert(name, Grid::from_fn(dims, seeded));
    }
    ws
}

/// Which linear indices of array `name` some statement of `plan` writes.
fn written(plan: &Plan, name: &str, mask: &mut [bool]) {
    let Ok(slot) = plan.arrays().binary_search(&Symbol::new(name)) else {
        return;
    };
    for nest in plan.nests().iter().filter(|n| !n.empty) {
        for st in nest.stmts.iter().filter(|s| s.out_slot == slot) {
            let (lo, hi) = nest.stmt_box(st);
            if (0..plan.rank()).any(|d| lo[d] > hi[d]) {
                continue;
            }
            let mut point = lo.clone();
            loop {
                let lin: i64 = (0..plan.rank())
                    .map(|d| (point[d] + st.write_offsets[d]) * plan.strides()[d] as i64)
                    .sum();
                mask[lin as usize] = true;
                let Some(d) = (0..plan.rank()).rev().find(|&d| point[d] < hi[d]) else {
                    break;
                };
                point[d] += 1;
                point[d + 1..].copy_from_slice(&lo[d + 1..]);
            }
        }
    }
}

fn bits(g: &Grid) -> Vec<u64> {
    g.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The contract on random 1-D and 2-D stencils, `Disjoint` and `Padded`
/// decompositions, CSE on and off: `PerPoint`, `Rows` and (with a
/// toolchain) `Jit` in accumulate mode against the scratch-then-add
/// reference, at every point of both targets — carrying both, or
/// assigning one at its first touch: then that one holds `+0.0 + sum` on
/// its write footprint (the reference over a zeroed target) and its seed
/// elsewhere, and the other the carried contract.
#[test]
fn accumulate_mode_adds_the_scratch_sum_once_and_leaves_unwritten_points_alone() {
    let mut rng = Rng::new(0xACC0_2027);
    let act = ["u", "c", "r"]
        .into_iter()
        .fold(ActivityMap::new(), ActivityMap::with_suffixed);
    let dir = std::env::temp_dir().join(format!("perforad-acc-{}", std::process::id()));
    let jit = JitOptions::default().with_cache_dir(&dir);
    let mut lowerings = vec![Lowering::PerPoint, Lowering::Rows];
    if available() {
        lowerings.push(Lowering::Jit);
    } else {
        eprintln!("no rustc toolchain: Jit not covered");
    }
    let mut unwritten = 0;
    for case in 0..12 {
        let rank = 1 + case % 2;
        let nest = random_stencil(&mut rng, rank);
        let n = rng.range_usize(9, 14);
        let dims = vec![n; rank];
        let bind = Binding::new().size("n", n as i64);
        for strategy in [BoundaryStrategy::Disjoint, BoundaryStrategy::Padded] {
            let adj = nest
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let seed = rng.next();
            let inputs = || workspace(&mut Rng::new(seed), &dims, false);
            let zeroed = || workspace(&mut Rng::new(seed), &dims, true);
            for cse in [false, true] {
                let plain = SchedOptions::default().with_cse(cse);
                let mut scratch = zeroed();
                let s = compile_schedule(&adj, &scratch, &bind, &plain).unwrap();
                run_schedule_serial(&s, &mut scratch).unwrap();
                // Carry both targets, or assign one of them.
                let modes: [&[&str]; 3] = [&TARGETS, &TARGETS[1..], &TARGETS[..1]];
                for (&lowering, carried) in lowerings.iter().flat_map(|l| modes.map(|m| (l, m))) {
                    // Native code for the first cases only: a build each,
                    // and an assigned target on the first case alone.
                    let assigns = carried.len() < TARGETS.len();
                    if lowering == Lowering::Jit && (case >= 4 || assigns && case > 0) {
                        continue;
                    }
                    let tag = format!(
                        "case {case} {strategy:?} cse={cse} {lowering:?} carrying {carried:?}: \
                         {nest}"
                    );
                    let opts = SchedOptions {
                        accumulate: carrying(carried),
                        ..plain.clone().with_lowering(lowering)
                    };
                    let mut ws = inputs();
                    let acc = compile_schedule(&adj, &ws, &bind, &opts)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    if lowering == Lowering::Jit {
                        prepare_schedule(&acc, &bind, &jit)
                            .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    }
                    run_schedule_serial(&acc, &mut ws).unwrap();
                    let seeded = inputs();
                    for name in TARGETS {
                        let mut mask = vec![false; dims.iter().product()];
                        s.groups
                            .iter()
                            .for_each(|g| written(&g.plan, name, &mut mask));
                        assert!(mask.contains(&true), "{tag}");
                        unwritten += mask.iter().filter(|&&w| !w).count();
                        let (seed, sum) = (seeded.grid(name), scratch.grid(name));
                        let assigned = !carried.contains(&name);
                        let want = (mask.iter().enumerate()).map(|(k, &w)| {
                            let s = seed.as_slice()[k];
                            match (w, assigned) {
                                (true, false) => (s + sum.as_slice()[k]).to_bits(),
                                (true, true) => (0.0 + sum.as_slice()[k]).to_bits(),
                                (false, _) => s.to_bits(),
                            }
                        });
                        let got = bits(ws.grid(name));
                        for (k, (g, w)) in got.iter().zip(want).enumerate() {
                            assert_eq!(*g, w, "{tag}: {name}[{k}] (written: {})", mask[k]);
                        }
                    }
                }
            }
        }
    }
    assert!(unwritten > 0, "some point no nest writes was checked");
    let _ = std::fs::remove_dir_all(dir);
}

/// `w[i + off] += rhs`, optionally guarded to `i ∈ guard`.
fn add(w: &str, off: i64, rhs: Expr, guard: Option<(i64, i64)>) -> Statement {
    let i = Symbol::new("i");
    let st = Statement::add_assign(Access::new(w, vec![Idx::sym(i.clone()) + off]), rhs);
    match guard {
        Some((lo, hi)) => st.with_guard(perforad::core::nest::Guard {
            ranges: vec![(i, Bound::new(lo, hi))],
        }),
        None => st,
    }
}

/// Increments that summing first would round differently are refused,
/// not re-rounded: one array's under two guards or at two offsets, or
/// mixed with `=`. The same nests compile in plain mode, and a guarded
/// or scatter adjoint is refused as a whole.
#[test]
fn increments_that_summing_would_reround_are_refused() {
    let i = Symbol::new("i");
    let u = || Array::new("u").at(ix![&i]);
    let ws = Workspace::new()
        .with("u", Grid::zeros(&[10]))
        .with("w", Grid::zeros(&[10]))
        .with("v", Grid::zeros(&[10]));
    let bind = Binding::new();
    let nest = |body: Vec<Statement>| LoopNest::new(vec![i.clone()], vec![Bound::new(1, 8)], body);
    let compile = |body: Vec<Statement>, accumulate: bool| {
        let opts = PlanOptions {
            accumulate: accumulate.then(|| ["w", "v"].map(Symbol::new).into()),
            ..PlanOptions::default()
        };
        compile_nests_opts(&[nest(body)], &ws, &bind, opts)
    };
    let refused = |m: &str| Err::<usize, _>(ExecError::Unsupported(m.to_string()));
    let cases = [
        (
            vec![add("w", 0, u(), None), add("w", 0, u(), Some((2, 5)))],
            "accumulated `w` has increments under different guards within one nest",
        ),
        (
            vec![add("w", 0, u(), None), add("w", 1, u(), None)],
            "accumulated `w` has increments at different offsets within one nest",
        ),
        (
            vec![
                Statement::assign(Access::new("w", ix![&i]), u()),
                add("v", 0, u(), None),
                add("w", 0, u(), None),
            ],
            "accumulated `w` mixes `=` with `+=` within one nest",
        ),
    ];
    for (body, why) in cases {
        assert!(compile(body.clone(), false).is_ok(), "{why}");
        assert_eq!(compile(body, true).map(|p| p.statements()), refused(why));
    }
    // Two arrays, each at one offset under one guard: one statement each.
    let body = vec![
        add("w", 0, u(), None),
        add("v", 1, u(), Some((2, 5))),
        add("w", 0, 2.0 * u(), None),
        add("v", 1, u() * u(), Some((2, 5))),
    ];
    assert_eq!(compile(body, true).map(|p| p.statements()), Ok(2));

    let star = make_loop_nest(
        &Array::new("r").at(ix![&i]),
        2.0 * Array::new("x").at(ix![&i - 1]) - Array::new("x").at(ix![&i + 1]),
        vec![i.clone()],
        vec![(Idx::constant(1), Idx::sym("n") - 2)],
    )
    .unwrap();
    let act = ActivityMap::new().with_suffixed("x").with_suffixed("r");
    let ws = ["x", "r", "x_b", "r_b"]
        .into_iter()
        .fold(Workspace::new(), |ws, a| ws.with(a, Grid::zeros(&[12])));
    let bind = Binding::new().size("n", 12);
    let accumulate = SchedOptions::default().with_accumulate(["x_b"]);
    let guarded = star
        .adjoint(
            &act,
            &AdjointOptions::default().with_strategy(BoundaryStrategy::Guarded),
        )
        .unwrap();
    let scatter = star.scatter_adjoint(&act).unwrap();
    for (nests, why) in [
        (&guarded.nests[..], "different guards"),
        (std::slice::from_ref(&scatter), "different offsets"),
    ] {
        let err = compile_schedule_nests(nests, &ws, &bind, false, &accumulate).unwrap_err();
        assert!(err.to_string().contains(why), "{err}");
    }
}

/// An array assigned at its first touch must be written once per point:
/// two nests (or two statements) writing one point of it are refused —
/// the second store would drop the first's sum — while the same nests
/// compile when the array carries state, or writes it at disjoint points.
#[test]
fn two_writes_to_one_point_of_an_assigned_array_are_refused() {
    let i = Symbol::new("i");
    let ws = Workspace::new()
        .with("u", Grid::zeros(&[12]))
        .with("w", Grid::zeros(&[12]));
    let nest = |lo: i64, hi: i64, off: i64| {
        let u = Array::new("u").at(ix![&i]);
        let st = Statement::add_assign(Access::new("w", vec![Idx::sym(i.clone()) + off]), u);
        LoopNest::new(vec![i.clone()], vec![Bound::new(lo, hi)], vec![st])
    };
    let compile = |nests: &[LoopNest], carried: &[&str]| {
        let opts = PlanOptions {
            accumulate: carrying(carried),
            ..PlanOptions::default()
        };
        compile_nests_opts(nests, &ws, &Binding::new(), opts).map(|p| p.assigned().count())
    };
    let refused = Err(ExecError::Unsupported(
        "assigned `w` is written twice at one point".to_string(),
    ));
    // The refusal names the plan, not any one lowering.
    let text = refused.as_ref().unwrap_err().to_string();
    assert_eq!(
        text,
        "unsupported plan: assigned `w` is written twice at one point"
    );
    // Overlapping boxes; boxes apart that a write offset brings together.
    for nests in [
        [nest(1, 6, 0), nest(6, 9, 0)],
        [nest(1, 4, 0), nest(5, 8, -1)],
    ] {
        assert_eq!(compile(&nests, &[]), refused);
        assert!(compile(&nests, &["w"]).is_ok());
    }
    assert_eq!(compile(&[nest(1, 5, 0), nest(6, 9, 0)], &[]), Ok(1));
    // An empty nest writes nothing.
    assert_eq!(compile(&[nest(1, 9, 0), nest(5, 4, 0)], &[]), Ok(1));
}

/// The plain-mode name of the c-active wave adjoint group at `n = 16`
/// (artifact `…_e656486ac77bc080.so`), as `tests/names.rs` pins it.
const PLAIN_WAVE_GROUP_PLAN: u64 = 0xe656_486a_c77b_c080;

/// One adjoint compiled in both modes: two fingerprints, the plain one
/// unchanged, and a third for the seismic sweep's plan, which differs from
/// the accumulate one only in assigning λ_{t−1} (`u_2_b`). With a
/// toolchain, two native modules in one process, each running its own
/// mode's bits on the same inputs.
#[test]
fn fingerprints_keep_plain_and_accumulate_plans_apart() {
    let (ws, bind) = wave3d::workspace(16, 0.1);
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .unwrap();
    let carried = ["u_1_b", "u_2_b", "c_b"];
    let compile_carrying = |carried: Option<&[&str]>, lowering: Lowering| {
        let opts = SchedOptions {
            accumulate: carried.and_then(carrying),
            ..SchedOptions::default().with_lowering(lowering)
        };
        let s = compile_schedule(&adj, &ws, &bind, &opts).unwrap();
        assert_eq!(s.group_count(), 1);
        s
    };
    let compile = |accumulate: bool, lowering: Lowering| {
        compile_carrying(accumulate.then_some(&carried[..]), lowering)
    };
    let plain = compile(false, Lowering::Jit);
    let acc = compile(true, Lowering::Jit);
    let fp = |s: &Schedule| s.groups[0].plan.fingerprint();
    assert_eq!(fp(&plain), PLAIN_WAVE_GROUP_PLAN, "{:#018x}", fp(&plain));
    assert_ne!(fp(&acc), fp(&plain));
    assert!(acc.groups[0].plan.accumulate() && !plain.groups[0].plan.accumulate());
    let sweep = compile_carrying(Some(&["u_1_b", "c_b"]), Lowering::Jit);
    assert_ne!(fp(&sweep), fp(&acc), "the assigned set shows in the name");
    assert_ne!(fp(&sweep), fp(&plain));
    let assigned: Vec<&str> = sweep.groups[0].plan.assigned().map(|a| a.name()).collect();
    assert_eq!(assigned, ["u_2_b"]);
    assert_eq!(acc.groups[0].plan.assigned().count(), 0);
    if !available() {
        eprintln!("skipped the native half: no rustc toolchain");
        return;
    }
    let dir = std::env::temp_dir().join(format!("perforad-acc-fp-{}", std::process::id()));
    let opts = JitOptions::default().with_cache_dir(&dir);
    for s in [&plain, &acc] {
        let report = prepare_schedule(s, &bind, &opts).expect("prepare");
        assert_eq!(report.compiled + report.loaded + report.registered, 1);
    }
    assert!([&plain, &acc]
        .iter()
        .all(|s| native_lookup(fp(s)).is_some()));
    let mut rng = Rng::new(0xF1A6_2027);
    let mut seeded = ws.clone();
    for name in ["u_1_b", "u_2_b", "c_b"] {
        *seeded.grid_mut(name) = Grid::from_fn(&[16; 3], |_| rng.unit() - 0.5);
    }
    let run = |s: &Schedule| {
        let mut out = seeded.clone();
        run_schedule_serial(s, &mut out).unwrap();
        ["u_1_b", "u_2_b", "c_b"].map(|name| bits(out.grid(name)))
    };
    let (native_plain, native_acc) = (run(&plain), run(&acc));
    assert_eq!(native_plain, run(&compile(false, Lowering::PerPoint)));
    assert_eq!(native_acc, run(&compile(true, Lowering::PerPoint)));
    assert_ne!(native_plain, native_acc, "the two modes round differently");
    for s in [&plain, &acc] {
        let name = format!("_{:016x}.so", fp(s));
        let found = std::fs::read_dir(&dir).unwrap().flatten();
        let found = found.filter(|e| e.file_name().to_string_lossy().ends_with(&name));
        assert_eq!(found.count(), 1, "one artifact named {name}");
    }
    let _ = std::fs::remove_dir_all(dir);
}
