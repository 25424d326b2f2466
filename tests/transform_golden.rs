//! The transformation's output must not move while its cost does: for
//! each kernel, a digest of the adjoint as `Display` prints it, its nest
//! count, every fused group's `Plan::fingerprint` and a digest of the
//! group's emitted native module (`jit::emit::group_module`).
//!
//! Recorded before the parser, the adjoint and schedule compilation were
//! made to allocate less, and before the dependence graph compared only
//! the nest pairs whose boxes can overlap: a change of heap traffic or of
//! the graph's algorithm that moves a canonical form, a nest order, a
//! name or an emitted byte fails here.

use perforad::exec::native::fnv1a64;
use perforad::jit::emit::group_module;
use perforad::pde::wave3d;
use perforad::prelude::*;

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

/// The radius-`r` 3-D star over `[r, n-r-1]^3`: `c` times a weighted sum
/// of `u` at every offset `±1 ..= ±r` along each axis, minus the centre.
fn radius_star(r: i64) -> String {
    let mut terms = Vec::new();
    for (d, axis) in ["i", "j", "k"].iter().enumerate() {
        for o in 1..=r {
            for sign in [-1, 1] {
                let at: String = ["i", "j", "k"]
                    .iter()
                    .map(|c| match (c == axis, sign) {
                        (false, _) => format!("[{c}]"),
                        (true, -1) => format!("[{c}-{o}]"),
                        (true, _) => format!("[{c}+{o}]"),
                    })
                    .collect();
                let w = (d as i64 * 2 * r + 2 * o + (sign + 1) / 2) as f64 * 0.0625;
                terms.push(format!("{w:?}*u{at}"));
            }
        }
    }
    format!(
        "for i in {r} .. n-{hi}, j in {r} .. n-{hi}, k in {r} .. n-{hi} {{ \
         r[i][j][k] = c[i][j][k]*({} - 1.25*u[i][j][k]); }}",
        terms.join(" + "),
        hi = r + 1
    )
}

fn star_activity() -> ActivityMap {
    ActivityMap::new().with_suffixed("u").with_suffixed("r")
}

fn star_workspace(rank: usize) -> (Workspace, Binding) {
    let mut ws = Workspace::new();
    for name in ["u", "c", "r", "u_b", "r_b"] {
        ws.insert(name, Grid::zeros(&vec![N; rank]));
    }
    (ws, Binding::new().size("n", N as i64))
}

/// What one compiled kernel pins: the digest of the adjoint's `Display`,
/// its nest count, and each group's plan fingerprint and module digest.
type Pinned = (u64, usize, Vec<(u64, u64)>);
type Golden = (u64, usize, &'static [(u64, u64)]);

fn assert_golden(tag: &str, got: &Pinned, golden: Golden) {
    assert_eq!((got.0, got.1, &got.2[..]), golden, "{tag}: {got:#018x?}");
}

fn pinned(adj: &Adjoint, ws: &Workspace, bind: &Binding, opts: &SchedOptions) -> Pinned {
    let schedule = compile_schedule(adj, ws, bind, opts).expect("schedule compiles");
    let groups = schedule
        .groups
        .iter()
        .map(|g| {
            let module = group_module(&g.plan).expect("a gather plan emits");
            (g.plan.fingerprint(), fnv1a64(module.as_bytes()))
        })
        .collect();
    (
        fnv1a64(adj.to_string().as_bytes()),
        adj.nest_count(),
        groups,
    )
}

fn star(text: &str, rank: usize) -> Pinned {
    let adj = parse_stencil(text)
        .expect("stencil parses")
        .adjoint(&star_activity(), &AdjointOptions::default())
        .expect("adjoint");
    let (ws, bind) = star_workspace(rank);
    pinned(&adj, &ws, &bind, &SchedOptions::default())
}

#[test]
fn the_benchmark_stars_are_golden() {
    for (d, (text, golden)) in STARS.iter().zip(GOLDEN_STARS).enumerate() {
        assert_golden(&format!("rank {}", d + 1), &star(text, d + 1), golden);
    }
}

#[test]
fn the_accumulating_wave_adjoint_is_golden() {
    let (mut ws, bind) = wave3d::workspace(N, 0.1);
    ws.insert("c_b", Grid::zeros(&[N; 3]));
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("wave adjoint");
    let accumulate = SchedOptions::default().with_accumulate(["u_1_b", "c_b"]);
    let got = pinned(&adj, &ws, &bind, &accumulate);
    assert_golden("wave", &got, GOLDEN_WAVE);
}

#[test]
fn the_radius_two_star_is_golden() {
    assert_golden("r = 2", &star(&radius_star(2), 3), GOLDEN_RADIUS_TWO);
}

const GOLDEN_STARS: [Golden; 3] = [
    (
        0x8ff8_1ce6_718c_d245,
        5,
        &[(0x5154_004f_71bc_c12c, 0x3303_b3fe_2d5c_2985)],
    ),
    (
        0x234a_a5c8_2bd0_038b,
        17,
        &[(0x088c_9540_c647_3c20, 0xa6fe_8865_17a1_1475)],
    ),
    (
        0xe9c3_eda9_ba4a_47ef,
        53,
        &[(0x024d_b6ec_d6e0_ea46, 0xbc17_929b_c826_7e5a)],
    ),
];

/// The module digest is `tests/names.rs`' seismic back step's too.
const GOLDEN_WAVE: Golden = (
    0x6053_d332_06e4_6a7d,
    53,
    &[(0x6cce_a597_bce3_e90e, 0x5703_7c60_4e94_450e)],
);

const GOLDEN_RADIUS_TWO: Golden = (
    0x34eb_1d41_ac3b_a09a,
    249,
    &[(0xd51a_bff7_a936_3712, 0xea0a_317f_78c1_5903)],
);
