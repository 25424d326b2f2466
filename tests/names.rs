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
//! The emitted group modules and the CSE plans were recorded while every
//! statement was still compiled to stack bytecode first and lowered to its
//! register program from that, before `regir` lowered straight from the
//! expression: the same programs, under the same names, op for op.

use perforad::codegen::rust::print_module;
use perforad::core::nest::{Bound, Statement};
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
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    parse_stencil(text)
        .expect("stencil parses")
        .adjoint(&act, &AdjointOptions::default())
        .expect("adjoint")
}

fn wave_adjoint() -> Adjoint {
    wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("wave adjoint")
}

const GOLDEN_STAR_NESTS: [u64; 3] = [
    0xa663_acc8_84be_519f,
    0x41ad_bbd5_8345_9c22,
    0xd5b9_dcde_9271_2a26,
];
const GOLDEN_WAVE_NESTS: u64 = 0xb3f8_2370_26db_3d52;
const GOLDEN_WAVE_GROUP_PLAN: u64 = 0xe656_486a_c77b_c080;
const GOLDEN_PRIMAL_PLAN: u64 = 0x9156_2532_1b21_bc84;

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
    0xc3a2_1831_f177_7830,
    0x8f13_fa69_e4e5_58b7,
    0x82c5_861e_338f_4f64,
    0x3c14_31d8_c351_b165,
    0x520f_fd49_8454_3226,
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
const GOLDEN_BURGERS_NESTS: u64 = 0xbcdc_7e23_3561_c7e5;
const GOLDEN_HEAT_NESTS: u64 = 0xfe4a_0e91_3026_0fff;
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

/// `r[i] = sin(u[i]*u[i+1]) + sin(u[i]*u[i+1])*u[i-1]` at n = 33, compiled
/// with CSE: the primal's plan fingerprint and module, then the adjoint's,
/// in accumulate mode carrying `u_b` — a sum whose members' six CSE
/// temporaries are numbered one after another.
const GOLDEN_CSE_PLANS: [(u64, u64); 2] = [
    (0x5d4b_cdbe_d2a1_add0, 0xc43c_e9c3_e1f8_530d),
    (0x0367_47c8_9671_4b99, 0x06ee_9a8d_ae24_7321),
];

#[test]
fn cse_plans_are_golden() {
    let text = "for i in 1 .. n-2 { r[i] = sin(u[i]*u[i+1]) + sin(u[i]*u[i+1])*u[i-1]; }";
    let nest = parse_stencil(text).expect("stencil parses");
    let mut ws = Workspace::new();
    for name in ["u", "r", "u_b", "r_b"] {
        ws.insert(name, Grid::zeros(&[33]));
    }
    let bind = Binding::new().size("n", 33);
    let named = |schedule: &Schedule| (schedule.groups[0].plan.fingerprint(), module_of(schedule));
    let cse = SchedOptions::default().with_cse(true);
    let primal =
        compile_schedule_nests(std::slice::from_ref(&nest), &ws, &bind, false, &cse).unwrap();
    let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
    let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
    let accumulate = cse.with_accumulate(["u_b"]);
    let adjoint = compile_schedule(&adj, &ws, &bind, &accumulate).unwrap();
    let got = [named(&primal), named(&adjoint)];
    assert_eq!(got, GOLDEN_CSE_PLANS, "{got:#018x?}");
}
