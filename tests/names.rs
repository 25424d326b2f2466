//! Names must not move: the tuner keys its cache on
//! `tune::fingerprint_nests`, and `exec::Plan::fingerprint` names both the
//! native registry entry and the on-disk JIT artifact. A change that makes
//! compilation cheaper may not change either — a tuning cache or artifact
//! directory filled by an earlier build must still be *hit*.
//!
//! Every constant here was recorded before the change it guards: the
//! first six at PR 17's tree, before schedule analysis went from once per
//! statement to once per adjoint term; the `WIDE` set and the printed
//! modules at PR 20's tree, before `Idx` stopped being a `BTreeMap`.
//! The paper-kernel set was recorded while wave3d, Burgers and heat2d
//! were still built term by term in Rust, before each became one DSL text.
//! The emitted group modules were recorded while every statement was
//! still compiled to stack bytecode first and lowered to its register
//! program from that, before `regir` lowered straight from the
//! expression: the same programs, under the same names, op for op.
//!
//! The work keys and plan fingerprints — `GOLDEN_*_NESTS` and the two plan
//! constants — were re-recorded once, deliberately, when both names went
//! from hashing bytes (the printed nests; each program's key byte by byte)
//! to hashing structure a word at a time, with the tuning cache's format
//! at 2 and the JIT's at 7 so that no older entry or artifact can match.
//! Every printed and emitted module held. `printed_work` keeps the old
//! key's text, and `equal_work_keys_print_equal_nests` holds the new key
//! to it.
//!
//! `GOLDEN_SIN_PLANS` was recorded while plans could still be compiled
//! with per-statement CSE, before that switch was deleted: the plain
//! plans it names, which every served path compiled, did not move.

use perforad::codegen::rust::print_module;
use perforad::core::nest::{AssignOp, Bound, Statement};
use perforad::exec::native::fnv1a64;
use perforad::pde::{burgers, heat2d, wave3d};
use perforad::prelude::*;
use perforad::sched::compile_schedule_nests;
use perforad::symbolic::Access;
use perforad::tune::fingerprint_nests;

mod common;

const N: usize = 16;

/// The three star stencils of the benchmark's `cold_compile`, with fixed
/// coefficients.
const STARS: [&str; 3] = [
    "for i in 1 .. n-2 { r[i] = c[i]*(0.5*u[i-1] - 1.25*u[i] + 0.75*u[i+1]); }",
    "for i in 1 .. n-2, j in 1 .. n-2 { r[i][j] = c[i][j]*(0.5*u[i-1][j] + 0.75*u[i+1][j] \
     + 1.5*u[i][j-1] + 0.25*u[i][j+1] - 1.25*u[i][j]); }",
    "for i in 1 .. n-2, j in 1 .. n-2, k in 1 .. n-2 { r[i][j][k] = c[i][j][k]*(\
     0.5*u[i-1][j][k] + 0.75*u[i+1][j][k] + 1.5*u[i][j-1][k] + 0.25*u[i][j+1][k] \
     + 1.75*u[i][j][k-1] + 0.625*u[i][j][k+1] - 1.25*u[i][j][k]); }",
];

fn star_adjoint(text: &str) -> Adjoint {
    star_adjoint_with(text, &AdjointOptions::default())
}

fn star_adjoint_with(text: &str, opts: &AdjointOptions) -> Adjoint {
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    parse_stencil(text)
        .expect("stencil parses")
        .adjoint(&act, opts)
        .expect("adjoint")
}

fn wave_adjoint() -> Adjoint {
    wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("wave adjoint")
}

const GOLDEN_STAR_NESTS: [u64; 3] = [
    0x8ff9_baae_67a6_1fdb,
    0x23e3_afe1_64a0_9083,
    0x9217_85bd_3c02_429e,
];
const GOLDEN_WAVE_NESTS: u64 = 0xd861_c5c8_cdc8_7056;
const GOLDEN_WAVE_GROUP_PLAN: u64 = 0x52fc_42db_6b98_4bdc;
const GOLDEN_PRIMAL_PLAN: u64 = 0x549b_9a91_7044_23dd;

#[test]
fn tuner_work_fingerprints_are_golden() {
    let bind = Binding::new().size("n", N as i64);
    let got: Vec<u64> = STARS
        .iter()
        .map(|text| fingerprint_nests(&star_adjoint(text).nests, false, &bind))
        .collect();
    assert_eq!(got, GOLDEN_STAR_NESTS, "stars {got:#018x?}");
    let wave = fingerprint_nests(&wave_adjoint().nests, false, &bind);
    assert_eq!(wave, GOLDEN_WAVE_NESTS, "wave {wave:#018x}");
    // The float parameter is not part of the work.
    assert_eq!(
        wave,
        fingerprint_nests(&wave_adjoint().nests, false, &bind.clone().param("D", 0.1))
    );
}

/// A nest whose upper bound is a general affine form: `i in [m, n - m + 1]`.
fn two_symbol_nest() -> LoopNest {
    let i = Symbol::new("i");
    let (n, m) = (Idx::sym("n"), Idx::sym("m"));
    let u = Array::new("u");
    LoopNest::new(
        vec![i.clone()],
        vec![Bound::new(m.clone(), n - m + 1)],
        vec![Statement::assign(
            Access::new("r", ix![&i]),
            2.0 * u.at(ix![&i - 1]) - u.at(ix![&i + 1]),
        )],
    )
}

/// 3-D star under `Guarded`, `Padded`, `merged()`; the Burgers adjoint
/// (`Select` in the printed form); the adjoint of the `n - m + 1` nest.
const GOLDEN_WIDE_NESTS: [u64; 5] = [
    0x8b7e_bc40_6e09_2a27,
    0x8eaa_81c0_81b4_a233,
    0x3887_1533_3130_f2f9,
    0xac44_7e83_f04a_c605,
    0x4325_5bd7_8750_f912,
];
const GOLDEN_STAR_MODULES: [u64; 3] = [
    0xe36d_498a_8d56_0dcb,
    0x4cf5_ed3a_d5a0_8cfe,
    0x5304_f1d9_e8ba_fc39,
];

#[test]
fn work_fingerprints_of_every_printed_form_are_golden() {
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let star = parse_stencil(STARS[2]).expect("stencil parses");
    let adjoint = |nest: &LoopNest, act: &ActivityMap, opts: AdjointOptions| {
        nest.adjoint(act, &opts).expect("adjoint")
    };
    let adjoints = [
        adjoint(
            &star,
            &act,
            AdjointOptions::default().with_strategy(BoundaryStrategy::Guarded),
        ),
        adjoint(
            &star,
            &act,
            AdjointOptions::default().with_strategy(BoundaryStrategy::Padded),
        ),
        adjoint(&star, &act, AdjointOptions::default().merged()),
        adjoint(
            &burgers::nest(),
            &burgers::activity(),
            AdjointOptions::default(),
        ),
        adjoint(&two_symbol_nest(), &act, AdjointOptions::default()),
    ];
    assert!(
        adjoints[3].to_string().contains(" ? "),
        "a Select is printed"
    );
    assert!(
        adjoints[4].to_string().contains("-m + n + 2"),
        "{}",
        adjoints[4]
    );
    let bind = Binding::new().size("n", N as i64).size("m", 2);
    let got: Vec<u64> = adjoints
        .iter()
        .map(|adj| fingerprint_nests(&adj.nests, adj.strategy == BoundaryStrategy::Padded, &bind))
        .collect();
    assert_eq!(got, GOLDEN_WIDE_NESTS, "{got:#018x?}");
}

#[test]
fn printed_star_modules_are_golden() {
    let got: Vec<u64> = STARS
        .iter()
        .map(|text| fnv1a64(print_module("star", &star_adjoint(text).nests).as_bytes()))
        .collect();
    assert_eq!(got, GOLDEN_STAR_MODULES, "{got:#018x?}");
}

/// The Burgers and heat2d adjoints' work, and `print_module` of the
/// wave3d and Burgers kernels (primal, adjoint, primal, adjoint).
const GOLDEN_BURGERS_NESTS: u64 = 0x55a8_b1fd_e1d8_d9aa;
const GOLDEN_HEAT_NESTS: u64 = 0xc4f2_411e_f013_bd5c;
const GOLDEN_PAPER_MODULES: [u64; 4] = [
    0x8910_1c35_6d10_0c2b,
    0x4df7_fc6a_861e_b275,
    0xc4de_f483_cb13_d016,
    0xfeee_4138_5c97_77c0,
];

#[test]
fn paper_kernels_are_golden() {
    let bind = Binding::new().size("n", N as i64);
    let work = |nest: LoopNest, act: &ActivityMap| {
        let adj = nest.adjoint(act, &AdjointOptions::default()).unwrap();
        fingerprint_nests(&adj.nests, false, &bind)
    };
    let got = work(burgers::nest(), &burgers::activity());
    assert_eq!(got, GOLDEN_BURGERS_NESTS, "burgers {got:#018x}");
    let got = work(heat2d::nest(), &heat2d::activity());
    assert_eq!(got, GOLDEN_HEAT_NESTS, "heat2d {got:#018x}");

    let got: Vec<u64> = common::printed_paper_kernels()
        .iter()
        .map(|(_, source)| fnv1a64(source.as_bytes()))
        .collect();
    assert_eq!(got, GOLDEN_PAPER_MODULES, "{got:#018x?}");
}

#[test]
fn plan_fingerprints_are_golden() {
    let (ws, bind) = wave3d::workspace(N, 0.1);
    let adj = wave_adjoint();
    let schedule = compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
    assert_eq!(schedule.group_count(), 1);
    let group = schedule.groups[0].plan.fingerprint();
    assert_eq!(group, GOLDEN_WAVE_GROUP_PLAN, "wave group {group:#018x}");
    // The fingerprint covers the plan, not how its tiles are cut or run.
    let tuned = SchedOptions::default().with_jit().with_tile(&[3, 5, 7]);
    let again = compile_schedule(&adj, &ws, &bind, &tuned).unwrap();
    assert_eq!(again.groups[0].plan.fingerprint(), group);

    let primal = compile_schedule_nests(
        &[wave3d::nest()],
        &ws,
        &bind,
        false,
        &SchedOptions::default(),
    )
    .unwrap();
    let primal = primal.groups[0].plan.fingerprint();
    assert_eq!(primal, GOLDEN_PRIMAL_PLAN, "primal {primal:#018x}");
}

/// `group_module` of the n = 16 wave adjoint group, its seismic back step
/// (accumulate mode, carrying `u_1_b` and `c_b`), the wave primal, and
/// the n = 64 Burgers adjoint under `Guarded` and `Padded`: the register
/// programs rows and the JIT run, op for op and register for register.
const GOLDEN_GROUP_MODULES: [u64; 5] = [
    0x5ef3_931b_9869_25d9,
    0x5703_7c60_4e94_450e,
    0x9db2_f35b_161b_e6d3,
    0x1e86_f7b9_0bce_3c60,
    0x1349_294c_2700_0e48,
];

/// The one module of `schedule`'s one group.
fn module_of(schedule: &Schedule) -> u64 {
    assert_eq!(schedule.group_count(), 1);
    let module = perforad::jit::emit::group_module(&schedule.groups[0].plan).unwrap();
    fnv1a64(module.as_bytes())
}

#[test]
fn emitted_group_modules_are_golden() {
    let (mut ws, bind) = wave3d::workspace(N, 0.1);
    let adj = wave_adjoint();
    let group = compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
    ws.insert("c_b", Grid::zeros(&[N; 3]));
    let accumulate = SchedOptions::default().with_accumulate(["u_1_b", "c_b"]);
    let back = compile_schedule(&adj, &ws, &bind, &accumulate).unwrap();
    assert_eq!(group.groups[0].plan.unique_programs(), 9);
    assert_eq!(back.groups[0].plan.unique_programs(), 35);
    let primal = compile_schedule_nests(
        &[wave3d::nest()],
        &ws,
        &bind,
        false,
        &SchedOptions::default(),
    )
    .unwrap();
    let mut got = vec![module_of(&group), module_of(&back), module_of(&primal)];
    let (ws, bind) = burgers::workspace(64, 0.3, 0.1);
    for strategy in [BoundaryStrategy::Guarded, BoundaryStrategy::Padded] {
        let opts = AdjointOptions::default().with_strategy(strategy);
        let adj = burgers::nest()
            .adjoint(&burgers::activity(), &opts)
            .unwrap();
        let schedule = compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
        got.push(module_of(&schedule));
    }
    assert_eq!(got, GOLDEN_GROUP_MODULES, "{got:#018x?}");
}

/// `r[i] = sin(u[i]*u[i+1]) + sin(u[i]*u[i+1])*u[i-1]` at n = 33: the
/// primal's plan fingerprint and module, then the adjoint's, in
/// accumulate mode carrying `u_b` — a sum whose members each compute their
/// own sines.
const GOLDEN_SIN_PLANS: [(u64, u64); 2] = [
    (0x8f72_d793_4a03_ccf3, 0xdc26_cb11_90bd_fc26),
    (0x372f_f2e1_0f1d_5eb1, 0xed10_89c8_eb24_b5c7),
];

#[test]
fn sin_plans_are_golden() {
    let text = "for i in 1 .. n-2 { r[i] = sin(u[i]*u[i+1]) + sin(u[i]*u[i+1])*u[i-1]; }";
    let nest = parse_stencil(text).expect("stencil parses");
    let mut ws = Workspace::new();
    for name in ["u", "r", "u_b", "r_b"] {
        ws.insert(name, Grid::zeros(&[33]));
    }
    let bind = Binding::new().size("n", 33);
    let named = |schedule: &Schedule| (schedule.groups[0].plan.fingerprint(), module_of(schedule));
    let plain = SchedOptions::default();
    let primal =
        compile_schedule_nests(std::slice::from_ref(&nest), &ws, &bind, false, &plain).unwrap();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let accumulate = plain.with_accumulate(["u_b"]);
    let adjoint = compile_schedule(&adj, &ws, &bind, &accumulate).unwrap();
    let got = [named(&primal), named(&adjoint)];
    assert_eq!(got, GOLDEN_SIN_PLANS, "{got:#018x?}");
}

/// The text the work key hashed before it was re-keyed to structure: each
/// nest as its `Display` prints it, then `;`, then the padded flag and the
/// sizes. Kept as the reference the structural key is held to.
fn printed_work(nests: &[LoopNest], padded: bool, bind: &Binding) -> String {
    let mut text: String = nests.iter().map(|n| format!("{n};")).collect();
    text += &format!("|padded={padded}");
    for (sym, v) in &bind.sizes {
        text += &format!("|{sym}={v}");
    }
    text
}

/// Disjoint, Guarded, Padded and `merged()`, in that order.
fn strategies() -> [AdjointOptions; 4] {
    let with = |s| AdjointOptions::default().with_strategy(s);
    [
        with(BoundaryStrategy::Disjoint),
        with(BoundaryStrategy::Guarded),
        with(BoundaryStrategy::Padded),
        AdjointOptions::default().merged(),
    ]
}

/// A 1-D or 2-D star over two coefficients and offsets in `-1 ..= 1`,
/// so that draws repeat.
fn random_star(rng: &mut common::Rng) -> String {
    let counters = &["i", "j"][..rng.range_usize(1, 2)];
    let centre: String = counters.iter().map(|c| format!("[{c}]")).collect();
    let mut terms = Vec::new();
    for _ in 0..rng.range_usize(1, 2) {
        let a = [0.5, 1.5][rng.range_usize(0, 1)];
        let at: String = counters
            .iter()
            .map(|c| match rng.range_i64(-1, 1) {
                0 => format!("[{c}]"),
                o => format!("[{c}{o:+}]"),
            })
            .collect();
        let term = format!("{a:?}*c{centre}*u{at}");
        terms.push(match rng.range_usize(0, 3) {
            0 => format!("sin({term})"),
            _ => term,
        });
    }
    let bounds: Vec<String> = counters
        .iter()
        .map(|c| format!("{c} in 1 .. n-2"))
        .collect();
    let (bounds, terms) = (bounds.join(", "), terms.join(" + "));
    format!("for {bounds} {{ r{centre} = {terms}; }}")
}

/// Every work the key tests below name: random stars under a random
/// strategy at one of two sizes, then the paper kernels, primal and under
/// every strategy — `(nests, padded, binding, workspace)`.
fn works() -> Vec<(Vec<LoopNest>, bool, Binding, Workspace)> {
    let mut works = Vec::new();
    let mut rng = common::Rng::new(0x4E41_4D45);
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    for _ in 0..200 {
        let star = parse_stencil(&random_star(&mut rng)).expect("stencil parses");
        let k = rng.range_usize(0, 3);
        let adj = star.adjoint(&act, &strategies()[k]).expect("adjoint");
        let n = rng.range_usize(12, 13);
        let mut ws = Workspace::new();
        for name in ["u", "c", "r", "u_b", "r_b"] {
            ws.insert(name, Grid::zeros(&vec![n; star.rank()]));
        }
        let bind = Binding::new().size("n", n as i64);
        works.push((adj.nests.to_vec(), k == 2, bind, ws));
    }
    let (wave_ws, wave_bind) = wave3d::workspace(N, 0.1);
    let (burgers_ws, burgers_bind) = burgers::workspace(N, 0.3, 0.1);
    let (heat_ws, heat_bind) = heat2d::workspace(N, 0.2);
    let kernels = [
        (
            wave3d::nest(),
            wave3d::activity_with_c(),
            wave_ws,
            wave_bind,
        ),
        (
            burgers::nest(),
            burgers::activity(),
            burgers_ws,
            burgers_bind,
        ),
        (heat2d::nest(), heat2d::activity(), heat_ws, heat_bind),
    ];
    for (nest, act, mut ws, bind) in kernels {
        ws.insert("c_b", Grid::zeros(ws.grid("u").dims()));
        works.push((vec![nest.clone()], false, bind.clone(), ws.clone()));
        for (k, opts) in strategies().iter().enumerate() {
            let adj = nest.adjoint(&act, opts).expect("adjoint");
            works.push((adj.nests.to_vec(), k == 2, bind.clone(), ws.clone()));
        }
    }
    works
}

/// The work key tells apart every pair of works the printed text did, and
/// on these inputs no more: equal keys print equal text and back.
#[test]
fn equal_work_keys_print_equal_nests() {
    let works = works();
    let mut by_key = std::collections::HashMap::new();
    let mut texts = std::collections::HashSet::new();
    for (nests, padded, bind, _) in &works {
        let text = printed_work(nests, *padded, bind);
        let key = fingerprint_nests(nests, *padded, bind);
        let named = by_key.entry(key).or_insert_with(|| text.clone());
        assert_eq!(*named, text, "{key:#018x} names two works");
        texts.insert(text);
    }
    assert_eq!(by_key.len(), texts.len());
    assert!(by_key.len() < works.len(), "some works repeat");
}

/// Equal plan fingerprints emit equal native modules: the name under
/// which an artifact is stored and looked up holds what it runs.
#[test]
fn equal_plan_fingerprints_emit_equal_modules() {
    let mut by_name = std::collections::HashMap::new();
    let (mut plans, mut repeats) = (0, 0);
    for (nests, padded, bind, ws) in works() {
        let schedule = compile_schedule_nests(&nests, &ws, &bind, padded, &SchedOptions::default())
            .expect("schedule compiles");
        for group in &schedule.groups {
            let module = perforad::jit::emit::group_module(&group.plan).map_err(|e| e.to_string());
            let fingerprint = group.plan.fingerprint();
            match by_name.entry(fingerprint) {
                std::collections::hash_map::Entry::Occupied(named) => {
                    assert_eq!(
                        *named.get(),
                        module,
                        "{fingerprint:#018x} names two modules"
                    );
                    repeats += 1;
                }
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(module);
                }
            }
            plans += 1;
        }
    }
    assert!(
        repeats > 0 && plans > repeats,
        "{repeats} of {plans} plans repeat"
    );
}

/// One field changed moves the work key: a coefficient's last mantissa
/// bit, an index offset, a bound, `=` against `+=`, an array name, the
/// padded flag, a size, a guard end. A float parameter does not.
#[test]
fn one_field_moves_the_work_key() {
    let bind = Binding::new().size("n", N as i64);
    let key = |nests: &[LoopNest]| fingerprint_nests(nests, false, &bind);
    let parsed = |text: &str| vec![parse_stencil(text).expect("stencil parses")];
    let edited = |edit: &dyn Fn(&mut LoopNest)| {
        let mut nests = parsed(STARS[0]);
        edit(&mut nests[0]);
        key(&nests)
    };
    let next_bit = format!("{:?}", f64::from_bits(1.25f64.to_bits() + 1));
    assert_eq!(next_bit, "1.2500000000000002");
    let base = key(&parsed(STARS[0]));
    let moved = [
        key(&parsed(&STARS[0].replace("1.25", &next_bit))),
        key(&parsed(&STARS[0].replace("u[i+1]", "u[i+2]"))),
        edited(&|n| n.bounds[0].hi = n.bounds[0].hi.shift(-1)),
        edited(&|n| n.body[0].op = AssignOp::AddAssign),
        edited(&|n| n.body[0].lhs.array = Symbol::new("q")),
        fingerprint_nests(&parsed(STARS[0]), true, &bind),
        fingerprint_nests(&parsed(STARS[0]), false, &bind.clone().size("n", 17)),
    ];
    let distinct: std::collections::HashSet<u64> = moved.iter().copied().chain([base]).collect();
    assert_eq!(distinct.len(), moved.len() + 1, "{moved:#018x?}");
    // The end of the first guard of the Guarded adjoint.
    let mut guarded = star_adjoint_with(STARS[0], &strategies()[1]).nests.to_vec();
    let before = key(&guarded);
    let guard = guarded.iter_mut().find_map(|n| n.body[0].guard.as_mut());
    let end = &mut guard.expect("a guarded statement").ranges[0].1.hi;
    *end = end.shift(-1);
    assert_ne!(key(&guarded), before);
    let with_param = bind.clone().param("D", 0.25);
    assert_eq!(
        fingerprint_nests(&parsed(STARS[0]), false, &with_param),
        base
    );
}

/// How a plan is cut into tiles, lowered and scheduled is no part of its
/// name; its constants are, a float parameter's value among them (it is
/// inlined into the compiled program).
#[test]
fn a_plan_is_named_by_what_it_computes() {
    let (ws, bind) = wave3d::workspace(N, 0.1);
    let adj = wave_adjoint();
    let fingerprint = |bind: &Binding, opts: &SchedOptions| {
        let schedule = compile_schedule(&adj, &ws, bind, opts).unwrap();
        schedule.groups[0].plan.fingerprint()
    };
    let base = fingerprint(&bind, &SchedOptions::default());
    for opts in [
        SchedOptions::default().with_tile(&[3, 5, 7]),
        SchedOptions::default().with_lowering(Lowering::PerPoint),
        SchedOptions::default().with_jit(),
        SchedOptions::default().with_policy(TilePolicy::Dynamic),
    ] {
        assert_eq!(fingerprint(&bind, &opts), base, "{opts:?}");
    }
    let other_d = Binding::new().size("n", N as i64).param("D", 0.2);
    assert_ne!(fingerprint(&other_d, &SchedOptions::default()), base);
}
