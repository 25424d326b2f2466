//! The JIT's emitter: one fusion group's compiled [`Plan`] printed as a
//! self-contained Rust module.
//!
//! The plan is the only input. Loop bounds are each nest's resolved
//! bounds, intersected with each statement's guard box; a write target is
//! the statement's slot, write offsets and operator; every right-hand side
//! is the statement's register program — the [`RegProgram`] the row
//! executor interprets — printed as straight-line `let` bindings in a
//! block of its own, one IEEE operation per register op, the same one the
//! row executor performs. rustc neither reassociates floats nor contracts
//! them into FMA, so native code and rows agree bit for bit by
//! construction, and the artifact registered under [`Plan::fingerprint`]
//! is built from exactly the plan that fingerprint names. Sizes and
//! parameters are already folded into the plan's bounds and constants;
//! constants print through `f64::from_bits`.

use crate::JitError;
use perforad_exec::kernel::{NestPlan, StmtPlan};
use perforad_exec::regir::{Reg, RegOp, RegProgram};
use perforad_exec::Plan;
use perforad_symbolic::Func;
use std::fmt::Write;

/// The module's one exported symbol, the group entry.
pub(crate) const ENTRY: &str = "pf_g";

/// Render an `f64` so the compiled constant is bit-exact — `from_bits`
/// round-trips every value (the decimal comment is for human readers).
fn exact_f64(v: f64) -> String {
    format!("f64::from_bits({:#018x}u64) /* {v} */", v.to_bits())
}

/// A load of `slot` at linear offset `rel` from the point's index `__i`.
fn load(slot: u16, rel: i64) -> String {
    match rel {
        0 => format!("*__a{slot}.offset(__i)"),
        k => format!("*__a{slot}.offset(__i + ({k}))"),
    }
}

/// A statement's right-hand side: its register program as a block of
/// `let`s, so the registers of different statements never meet. A
/// register the program reuses is a shadowing `let`.
fn rhs(plan: &Plan, prog: &RegProgram, pad: &str) -> String {
    let r = |reg: Reg| format!("__r{reg}");
    let mut out = String::from("{\n");
    for op in &prog.ops {
        let value = match *op {
            RegOp::Const { v, .. } => exact_f64(v),
            RegOp::Counter { dim, .. } => format!("__c{dim} as f64"),
            RegOp::Load { slot, rel, .. } => load(slot, rel.into()),
            // Zero padding: every dimension bounds-checked, 0.0 outside
            // the extents.
            RegOp::LoadPadded { slot, pad, .. } => {
                let offsets = &prog.pads[pad as usize].offsets;
                let mut rel = 0;
                let mut checks = Vec::with_capacity(offsets.len());
                for (d, o) in offsets.iter().enumerate() {
                    rel += o * plan.strides()[d] as i64;
                    let dim = plan.dims()[d];
                    checks.push(format!("(__c{d} + ({o})) >= 0 && (__c{d} + ({o})) < {dim}"));
                }
                let checks = checks.join(" && ");
                format!("if {checks} {{ {} }} else {{ 0.0f64 }}", load(slot, rel))
            }
            RegOp::Add { a, b, .. } => format!("{} + {}", r(a), r(b)),
            RegOp::Mul { a, b, .. } => format!("{} * {}", r(a), r(b)),
            RegOp::Neg { a, .. } => format!("-{}", r(a)),
            RegOp::Powi { a, k, .. } => format!("{}.powi({k}i32)", r(a)),
            RegOp::Powf { a, b, .. } => format!("{}.powf({})", r(a), r(b)),
            RegOp::Call1 {
                f: Func::Sign, a, ..
            } => format!(
                "if {0} > 0.0 {{ 1.0 }} else if {0} < 0.0 {{ -1.0 }} else {{ 0.0 }}",
                r(a)
            ),
            RegOp::Call1 { f, a, .. } => format!("{}.{}()", r(a), f.name()),
            RegOp::Max { a, b, .. } => {
                format!("if {0} >= {1} {{ {0} }} else {{ {1} }}", r(a), r(b))
            }
            RegOp::Min { a, b, .. } => {
                format!("if {0} <= {1} {{ {0} }} else {{ {1} }}", r(a), r(b))
            }
            RegOp::Select {
                rel,
                lhs,
                rhs,
                then_v,
                else_v,
                ..
            } => format!(
                "if {} {} {} {{ {} }} else {{ {} }}",
                r(lhs),
                rel.symbol(),
                r(rhs),
                r(then_v),
                r(else_v)
            ),
        };
        let _ = writeln!(out, "{pad}    let {}: f64 = {value};", r(op.dst()));
    }
    let _ = write!(out, "{pad}    {}\n{pad}}}", r(prog.result));
    out
}

/// One run of a nest readied for the group entry: its constant box (nest
/// bounds ∩ guard), its row body, and the call the entry makes of it with
/// `__len`, `__i0`, the outer counters `__c{d}` and the row's first
/// innermost index `__l{last}` in scope.
struct Run {
    lo: Vec<i64>,
    hi: Vec<i64>,
    body: String,
    call: String,
}

impl Run {
    fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l > h)
    }
}

/// Ready one nest's runs and their row bodies. Each maximal run of
/// consecutive statements with the same effective box (under the default
/// `Disjoint` strategy that is the whole nest) becomes **one** loop nest —
/// the paper's Fig.-4 form — with the runtime tile box clamped on top, so
/// any sub-box of the iteration space is valid. The group entry loops the
/// outer dimensions and hands each innermost row to the run's
/// `#[inline(always)]` row body `{name}_r{k}`, which holds the run's
/// statements in plan order and keeps one local accumulator per written
/// array: loaded at that array's first `+=` (never, when its first op is
/// `=`), updated in plan order, stored once at the end of the body. An
/// accumulate-mode plan needs nothing else: it has already merged each
/// nest's `+=` statements to one array into one summed statement.
///
/// A row body receives every array its run writes as a `&mut [f64]` over
/// exactly that row's points at the write offset, and every array the
/// run's programs load as a `*const f64` — which tells the compiler what
/// the gather transformation proved: stores never feed loads, so the row
/// vectorises ([`group_module`] states when that contract holds).
///
/// This moves data, not arithmetic, so the bits are the row executor's:
/// no right-hand side can observe a deferred store, and every location
/// still receives its statements' updates in plan order, one rounding per
/// update. A run ends where two statements write one array at *different*
/// offsets — there point-major and statement-major order differ, and
/// separate loops keep the latter.
fn nest_runs(plan: &Plan, name: &str, nest: &NestPlan) -> Vec<Run> {
    let last = plan.rank() - 1;
    let mut runs: Vec<(Vec<i64>, Vec<i64>, Vec<&StmtPlan>)> = Vec::new();
    for st in &nest.stmts {
        let (lo, hi) = nest.stmt_box(st);
        match runs.last_mut() {
            Some((rlo, rhi, run))
                if (&*rlo, &*rhi) == (&lo, &hi)
                    && run.iter().all(|t| {
                        t.out_slot != st.out_slot || t.write_offsets == st.write_offsets
                    }) =>
            {
                run.push(st)
            }
            _ => runs.push((lo, hi, vec![st])),
        }
    }

    let mut out = Vec::with_capacity(runs.len());
    for (k, (lo, hi, run)) in runs.into_iter().enumerate() {
        // The body first: it decides which arrays the run accumulates
        // into, in first-write order.
        let pad = "        ";
        let mut body = String::new();
        let mut accs: Vec<&StmtPlan> = Vec::new();
        let mut reads: Vec<u16> = Vec::new();
        for st in &run {
            for op in &st.prog.ops {
                if let RegOp::Load { slot, .. } | RegOp::LoadPadded { slot, .. } = *op {
                    reads.push(slot);
                }
            }
            let (slot, value) = (st.out_slot, rhs(plan, &st.prog, pad));
            let w = format!("__w{slot}");
            let first = !accs.iter().any(|a| a.out_slot == slot);
            let _ = match (first, st.overwrite) {
                (true, true) => writeln!(body, "{pad}let mut {w}: f64 = {value};"),
                (true, false) => writeln!(
                    body,
                    "{pad}let mut {w}: f64 = *__o{slot}.get_unchecked(__x);\n{pad}{w} += {value};"
                ),
                (false, true) => writeln!(body, "{pad}{w} = {value};"),
                (false, false) => writeln!(body, "{pad}{w} += {value};"),
            };
            if first {
                accs.push(st);
            }
        }
        for st in &accs {
            let slot = st.out_slot;
            let _ = writeln!(body, "{pad}*__o{slot}.get_unchecked_mut(__x) = __w{slot};");
        }
        reads.sort_unstable();
        reads.dedup();

        let mut params = vec!["__len: usize".to_string(), "__i0: isize".to_string()];
        let mut args = vec!["__len".to_string(), "__i0".to_string()];
        for d in 0..last {
            params.push(format!("__c{d}: i64"));
            args.push(format!("__c{d}"));
        }
        params.push(format!("__l{last}: i64"));
        args.push(format!("__l{last}"));
        for st in &accs {
            params.push(format!("__o{}: &mut [f64]", st.out_slot));
            args.push(format!(
                "core::slice::from_raw_parts_mut(__a{}.offset(__i0 + ({})), __len)",
                st.out_slot, st.write_rel
            ));
        }
        for slot in &reads {
            params.push(format!("__a{slot}: *const f64"));
            args.push(format!("__a{slot}"));
        }
        let mut f = String::new();
        let _ = writeln!(
            f,
            "#[inline(always)]\nunsafe fn {name}_r{k}({}) {{",
            params.join(", ")
        );
        let _ = writeln!(f, "    for __x in 0..__len {{");
        let _ = writeln!(f, "{pad}let __c{last} = __l{last} + __x as i64;");
        let _ = writeln!(f, "{pad}let __i = __i0 + __x as isize;");
        f.push_str(&body);
        let _ = writeln!(f, "    }}\n}}");
        out.push(Run {
            lo,
            hi,
            body: f,
            call: format!("{name}_r{k}({})", args.join(", ")),
        });
    }
    out
}

/// What the group entry runs, in plan order of each item's first run:
/// row families (several runs, innermost order) and single runs.
///
/// Nests form row families only when their order is free: the plan writes
/// only centre points (`gather_only`) and no two runs' boxes meet, so
/// running them in any order updates every point exactly as plan order
/// does. Then the runs of single-run nests with identical outer-dimension
/// boxes — whose innermost ranges are disjoint, the boxes being so — share
/// one family. Every other run is an item of its own.
fn items(nests: &[Vec<Run>], gather: bool, last: usize) -> Vec<Vec<&Run>> {
    let live: Vec<&Run> = nests.iter().flatten().filter(|r| !r.is_empty()).collect();
    let apart = |a: &Run, b: &Run| (0..=last).any(|d| a.hi[d] < b.lo[d] || b.hi[d] < a.lo[d]);
    let free = gather && (0..live.len()).all(|i| live[i + 1..].iter().all(|b| apart(live[i], b)));
    // (joinable, runs): a family so far, or a run of a nest with several.
    let mut items: Vec<(bool, Vec<&Run>)> = Vec::new();
    for nest in nests {
        let runs: Vec<&Run> = nest.iter().filter(|r| !r.is_empty()).collect();
        if free && runs.len() == 1 {
            let run = runs[0];
            let same_rows =
                |m: &Run| m.lo[..last] == run.lo[..last] && m.hi[..last] == run.hi[..last];
            match items.iter_mut().find(|(f, m)| *f && same_rows(m[0])) {
                Some((_, members)) => members.push(run),
                None => items.push((true, vec![run])),
            }
        } else {
            items.extend(runs.into_iter().map(|r| (false, vec![r])));
        }
    }
    items
        .into_iter()
        .map(|(_, mut runs)| {
            runs.sort_by_key(|r| r.lo[last]);
            runs
        })
        .collect()
}

/// Emit one item of the entry — a row family, or a single run: one walk
/// of the shared outer box (the tile clamped to it), and per row each
/// run's innermost segment in innermost order, clamped to the tile once.
/// When the tile spans a family's innermost range every segment has a
/// constant length instead (a one-point face is straight-line code, the
/// core a loop with a known trip count).
fn item(e: &mut String, runs: &[&Run], row: &str, last: usize) {
    let family = runs.len() > 1;
    // Open (or close) the loops over the outer dimensions.
    let walk = |e: &mut String, pad: &mut String, open: bool| {
        for d in 0..last {
            if open {
                let _ = writeln!(e, "{pad}for __c{d} in __l{d}..=__h{d} {{");
                pad.push_str("    ");
            } else {
                pad.truncate(pad.len() - 4);
                let _ = writeln!(e, "{pad}}}");
            }
        }
    };
    // One row segment: a slice is only ever made of a non-empty one.
    let segment = |run: &Run, len: String, lo: String| {
        format!(
            "let (__len, __l{last}) = ({len}, {lo}); \
             let __i0 = ({row}__l{last}) as isize; {};",
            run.call
        )
    };
    let _ = writeln!(e, "    {{");
    for d in 0..last {
        let _ = writeln!(
            e,
            "        let __l{d} = __tl{d}.max({}i64); let __h{d} = __th{d}.min({}i64);",
            runs[0].lo[d], runs[0].hi[d]
        );
    }
    let mut pad = "        ".to_string();
    if family {
        let (lo, hi) = (runs[0].lo[last], runs[runs.len() - 1].hi[last]);
        let _ = writeln!(
            e,
            "{pad}if __tl{last} <= {lo}i64 && __th{last} >= {hi}i64 {{"
        );
        pad.push_str("    ");
        walk(e, &mut pad, true);
        for r in runs {
            let len = format!("{}usize", r.hi[last] - r.lo[last] + 1);
            let _ = writeln!(
                e,
                "{pad}{{ {} }}",
                segment(r, len, format!("{}i64", r.lo[last]))
            );
        }
        walk(e, &mut pad, false);
        pad.truncate(pad.len() - 4);
        let _ = writeln!(e, "{pad}}} else {{");
        pad.push_str("    ");
    }
    let mut live = Vec::with_capacity(runs.len());
    for (j, r) in runs.iter().enumerate() {
        let _ = writeln!(
            e,
            "{pad}let (__m{j}l, __m{j}h) = (__tl{last}.max({}i64), __th{last}.min({}i64));",
            r.lo[last], r.hi[last]
        );
        live.push(format!("__m{j}l <= __m{j}h"));
    }
    let _ = writeln!(e, "{pad}if {} {{", live.join(" || "));
    pad.push_str("    ");
    walk(e, &mut pad, true);
    for (j, r) in runs.iter().enumerate() {
        let len = format!("(__m{j}h - __m{j}l + 1) as usize");
        let seg = segment(r, len, format!("__m{j}l"));
        let _ = match family {
            true => writeln!(e, "{pad}if {} {{ {seg} }}", live[j]),
            false => writeln!(e, "{pad}{seg}"),
        };
    }
    walk(e, &mut pad, false);
    while pad.len() > 4 {
        pad.truncate(pad.len() - 4);
        let _ = writeln!(e, "{pad}}}");
    }
}

/// Print one fusion group's plan as a crate-root source module: every
/// nest's row bodies and **one** `extern "C"` entry point, `pf_g`, taking
/// an inclusive per-rank box of the plan's iteration hull and the plan's
/// array base pointers in slot order. The entry runs every nest's part of
/// the box: row families share one outer walk, every other run keeps its
/// own, so the boundary points of a row run inside the core's row loop
/// rather than in passes of their own over arrays the core already
/// streamed.
///
/// **Aliasing contract.** A row body gets every array it writes as a
/// `&mut [f64]` over its segment of one innermost row and every array it
/// reads as a `*const f64`. The plan proved that no nest reads an array
/// the group writes (F2 of `perforad_exec::tile`), a run writes each array
/// at one offset (so a run never holds two slices of one array), the
/// plan's arrays are distinct row-major allocations (innermost stride 1,
/// so a row is a slice), the members of a row family are called one after
/// another on disjoint segments of a row, and concurrent tiles have
/// disjoint boxes — so no live `&mut` row overlaps anything else.
///
/// The module is valid Rust with `std` or, as [`crate::prepare_schedule`]
/// builds it, between a `#![no_std]` line and the crate's footer, which
/// gives `f64` the methods `core` lacks; it calls nothing else. Compile
/// with `rustc --crate-type cdylib` and load via `dlopen`
/// (`prepare_schedule` drives both). A rank-0 plan has no rows and is
/// refused.
pub fn group_module(plan: &Plan) -> Result<String, JitError> {
    let Some(last) = plan.rank().checked_sub(1) else {
        return Err(JitError::Unsupported("a rank-0 plan has no rows".into()));
    };
    let nests: Vec<Vec<Run>> = (plan.nests().iter().enumerate())
        .map(|(k, nest)| nest_runs(plan, &format!("pf_n{k}"), nest))
        .collect();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by perforad-jit from a compiled plan — do not edit by hand."
    );
    let _ = writeln!(
        out,
        "// Aliasing contract: a row body `*_r{{k}}` gets each array it writes as a\n\
         // `&mut [f64]` over its segment of one innermost row and each array it\n\
         // reads as a `*const f64`. The plan proved no nest reads an array the\n\
         // group writes; a run writes each array at one offset, the arrays are\n\
         // distinct allocations, a row family's members run one after another on\n\
         // disjoint segments of a row and concurrent tiles have disjoint boxes,\n\
         // so no live `&mut` row overlaps anything else."
    );
    let _ = writeln!(
        out,
        "#![allow(unused_variables, unused_parens, unused_mut, clippy::all)]\n"
    );
    let items = items(&nests, plan.gather_only(), last);
    // Row bodies of runs that never execute are not emitted.
    for run in items.iter().flatten() {
        out.push_str(&run.body);
    }
    let _ = writeln!(out, "\n#[no_mangle]");
    let _ = writeln!(
        out,
        "pub unsafe extern \"C\" fn {ENTRY}(__lo: *const i64, __hi: *const i64, \
         __arrs: *const *mut f64) {{"
    );
    for slot in 0..plan.arrays().len() {
        let _ = writeln!(out, "    let __a{slot} = *__arrs.add({slot});");
    }
    for d in 0..=last {
        let _ = writeln!(
            out,
            "    let __tl{d} = *__lo.add({d}); let __th{d} = *__hi.add({d});"
        );
    }
    // The index of a row's first point: outer counters × strides plus the
    // row's first innermost index.
    let row = (0..last)
        .map(|d| format!("__c{d}*{} + ", plan.strides()[d]))
        .collect::<String>();
    for runs in &items {
        item(&mut out, runs, &row, last);
    }
    let _ = writeln!(out, "}}");
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use perforad_core::{
        make_loop_nest, ActivityMap, AdjointOptions, Bound, BoundaryStrategy, Guard, LoopNest,
        Statement,
    };
    use perforad_exec::{
        compile_adjoint, compile_nest, compile_nests, compile_nests_opts, Binding, ExecError, Grid,
        PlanOptions, Workspace,
    };
    use perforad_symbolic::{ix, Access, Array, Expr, Idx, Symbol};

    fn paper_1d() -> LoopNest {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let (u, c, r) = (Array::new("u"), Array::new("c"), Array::new("r"));
        make_loop_nest(
            &r.at(ix![&i]),
            c.at(ix![&i])
                * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1])),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(n) - 1)],
        )
        .unwrap()
    }

    /// The paper's 3-D wave step, `u = 2·u_1 − u_2 + c·D·∇²u_1` over
    /// `1 ..= n-2` in every dimension.
    pub(crate) fn wave_nest() -> LoopNest {
        let [i, j, k] = ["i", "j", "k"].map(Symbol::new);
        let at = |a: &str, o: [i64; 3]| Array::new(a).at(vec![&i + o[0], &j + o[1], &k + o[2]]);
        let centre = || at("u_1", [0; 3]);
        let neighbours = [
            [-1, 0, 0],
            [1, 0, 0],
            [0, -1, 0],
            [0, 1, 0],
            [0, 0, -1],
            [0, 0, 1],
        ];
        let lap = (neighbours.into_iter()).fold(-6.0 * centre(), |sum, o| sum + at("u_1", o));
        let d = Expr::sym(Symbol::new("D"));
        let rhs = 2.0 * centre() - at("u_2", [0; 3]) + at("c", [0; 3]) * d * lap;
        let b = (Idx::constant(1), Idx::sym(Symbol::new("n")) - 2);
        let u = Array::new("u").at(ix![&i, &j, &k]);
        make_loop_nest(&u, rhs, vec![i, j, k], vec![b.clone(), b.clone(), b]).unwrap()
    }

    fn ws_of(names: &[&str], dims: &[usize]) -> Workspace {
        let with = |ws: Workspace, name: &&str| ws.with(*name, Grid::zeros(dims));
        names.iter().fold(Workspace::new(), with)
    }

    #[test]
    fn one_extern_c_entry_point_with_baked_constants() {
        let ws = ws_of(&["c", "r", "u"], &[33]);
        let plan = compile_nest(&paper_1d(), &ws, &Binding::new().size("n", 32)).unwrap();
        let code = group_module(&plan).unwrap();
        assert!(code.contains("pub unsafe extern \"C\" fn pf_g("), "{code}");
        assert_eq!(code.matches("extern \"C\" fn").count(), 1, "{code}");
        assert_eq!(code.matches("#[no_mangle]").count(), 1, "{code}");
        // Bounds are the plan's (1 ..= n-1 at n=32), tile-clamped.
        assert!(code.contains("let __tl0 = *__lo.add(0);"), "{code}");
        assert!(code.contains("__tl0.max(1i64)"), "{code}");
        assert!(code.contains("__th0.min(31i64)"), "{code}");
        // Constants are bit-exact.
        assert!(
            code.contains(&exact_f64(2.0)) && code.contains(&exact_f64(-3.0)),
            "{code}"
        );
        // Loads go through raw slot pointers, not slices.
        assert!(code.contains("*__a2.offset("), "{code}");
    }

    #[test]
    fn padded_loads_are_bounds_checked_and_guards_hoisted() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let stmt =
            Statement::add_assign(Access::new("r", ix![&i]), u.at(ix![&i - 1])).with_guard(Guard {
                ranges: vec![(i.clone(), Bound::new(3, 9))],
            });
        let nest = LoopNest::new(vec![i.clone()], vec![Bound::new(0, 20)], vec![stmt]);
        let ws = ws_of(&["r", "u"], &[21]);
        let plan = compile_nests(&[nest], &ws, &Binding::new(), true).unwrap();
        let code = group_module(&plan).unwrap();
        // Guard intersected into the constant bounds (3..=9, not 0..=20).
        assert!(code.contains(".max(3i64)"), "{code}");
        assert!(code.contains(".min(9i64)"), "{code}");
        // Padded load checks the extents and falls back to 0.0.
        assert!(
            code.contains(
                "if (__c0 + (-1)) >= 0 && (__c0 + (-1)) < 21 \
                 { *__a1.offset(__i + (-1)) } else { 0.0f64 }"
            ),
            "{code}"
        );
        assert!(code.contains("+=") && !code.contains("] = "), "{code}");
    }

    /// The paper's 3-D wave adjoint (`c` passive) at `n = 16` as one
    /// group module; slots in name order: `c`, `u_1_b`, `u_2_b`, `u_b`.
    fn wave_module(strategy: BoundaryStrategy) -> String {
        let act = ActivityMap::new()
            .with_suffixed("u")
            .with_suffixed("u_1")
            .with_suffixed("u_2");
        let adj = wave_nest()
            .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
            .unwrap();
        let ws = ws_of(&["c", "u_1_b", "u_2_b", "u_b"], &[16, 16, 16]);
        let bind = Binding::new().size("n", 16).param("D", 0.1);
        group_module(&compile_adjoint(&adj, &ws, &bind).unwrap()).unwrap()
    }

    /// The row bodies of a module, as (name, source) pairs in order.
    fn row_bodies(module: &str) -> Vec<(&str, &str)> {
        let entry = module.find("#[no_mangle]").expect("entry point");
        let marker = "#[inline(always)]\nunsafe fn ";
        module[..entry]
            .split(marker)
            .skip(1)
            .map(|f| (&f[..f.find('(').unwrap()], f))
            .collect()
    }

    /// The entry point of a module.
    fn entry_of(module: &str) -> &str {
        &module[module.find("#[no_mangle]").expect("entry point")..]
    }

    #[test]
    fn wave_adjoint_is_one_entry_with_one_loop_per_nest_and_register_accumulators() {
        let module = wave_module(BoundaryStrategy::Disjoint);
        assert_eq!(module.matches("extern \"C\" fn").count(), 1, "{module}");
        assert!(module.contains("pub unsafe extern \"C\" fn pf_g("));
        let rows = row_bodies(&module);
        assert_eq!(rows.len(), 53);
        for (k, (name, f)) in rows.iter().enumerate() {
            assert!(name.ends_with("_r0"), "{name}");
            assert_eq!(f.matches("for __x in 0..__len").count(), 1, "{f}");
            assert!(rows[..k].iter().all(|(other, _)| other != name), "{name}");
        }
        // The core nest carries all eight increments (seven into `u_1_b`,
        // one into `u_2_b`): one load and one store per target.
        let (name, row) = rows
            .iter()
            .find(|(_, f)| f.matches("+=").count() == 8)
            .expect("core nest");
        assert_eq!(*name, "pf_n26_r0");
        for slot in [1, 2] {
            let load = format!("let mut __w{slot}: f64 = *__o{slot}.get_unchecked(__x);");
            let store = format!("*__o{slot}.get_unchecked_mut(__x) = __w{slot};");
            assert_eq!(row.matches(&load).count(), 1, "{row}");
            assert_eq!(row.matches(&store).count(), 1, "{row}");
            assert_eq!(row.matches(&format!("__o{slot}.")).count(), 2, "{row}");
        }
        // The row base is computed once per row; loads are base + constant.
        let entry = entry_of(&module);
        assert!(
            entry.contains("let __i0 = (__c0*256 + __c1*16 + __l2) as isize;"),
            "{entry}"
        );
        assert!(row.contains("*__a3.offset(__i + (-256))"), "{row}");
    }

    /// Inside the entry, the nests whose single runs share an outer box
    /// form a row family: one walk of the (i, j) box, and per row the five
    /// k-segments 0, 1, 2..=13, 14 and 15 in innermost order — constant
    /// lengths when the tile spans k, clamped once per tile otherwise.
    #[test]
    fn wave_adjoint_runs_each_rows_boundary_points_inside_the_core_row_loop() {
        let module = wave_module(BoundaryStrategy::Disjoint);
        let entry = entry_of(&module);
        // Nine families of five (k = 0, 1, the core, 14, 15 beside each
        // other), eight nests on their own. Every run has its clamped
        // segment; a family's members have a constant-length one too.
        let families = entry.matches("if __tl2 <= 0i64 && __th2 >= 15i64 {");
        let fast = entry.matches("i64); let __i0").count();
        let clamped = entry.matches(") as usize, __m").count();
        assert_eq!((families.count(), fast, clamped), (9, 45, 53), "{entry}");
        // The core family's fast path: two one-point segments either side
        // of the core row, whose length is a constant.
        let core = entry
            .find(
                "{ let (__len, __l2) = (12usize, 2i64); \
                 let __i0 = (__c0*256 + __c1*16 + __l2) as isize; pf_n26_r0(",
            )
            .expect("constant-length core row");
        let before = &entry[..core];
        let family = &before[before.rfind("if __tl2 <= ").unwrap()..];
        assert!(family.contains("(1usize, 0i64)") && family.contains("(1usize, 1i64)"));
        let after = &entry[core..];
        let k14 = after.find("(1usize, 14i64)").unwrap();
        let k15 = after.find("(1usize, 15i64)").unwrap();
        assert!(
            k14 < k15 && k15 < after.find("} else {").unwrap(),
            "{entry}"
        );
        // Its clamped path: the core segment is the family's third member.
        assert!(entry.contains("let (__m2l, __m2h) = (__tl2.max(2i64), __th2.min(13i64));"));
        assert!(entry.contains(
            "if __m2l <= __m2h { let (__len, __l2) = ((__m2h - __m2l + 1) as usize, __m2l); \
             let __i0 = (__c0*256 + __c1*16 + __l2) as isize; pf_n26_r0("
        ));
    }

    #[test]
    fn row_body_takes_written_arrays_as_mut_slices_and_read_arrays_as_const_ptrs() {
        let module = wave_module(BoundaryStrategy::Disjoint);
        // `u_1_b`, `u_2_b` written; `c`, `u_b` read.
        assert!(
            module.contains(
                "unsafe fn pf_n26_r0(__len: usize, __i0: isize, __c0: i64, __c1: i64, \
                 __l2: i64, __o1: &mut [f64], __o2: &mut [f64], \
                 __a0: *const f64, __a3: *const f64) {"
            ),
            "{module}"
        );
        // Each slice is exactly the row segment, at the write offset; no
        // slice is made of an empty segment: the fast path's lengths are
        // constants of at least 1, the clamped path checks first.
        let call = "pf_n26_r0(__len, __i0, __c0, __c1, __l2, \
                    core::slice::from_raw_parts_mut(__a1.offset(__i0 + (0)), __len), \
                    core::slice::from_raw_parts_mut(__a2.offset(__i0 + (0)), __len), \
                    __a0, __a3);";
        let entry = entry_of(&module);
        let lines: Vec<&str> = entry.lines().filter(|l| l.contains("pf_n26_r0(")).collect();
        assert_eq!(lines.len(), 2, "{entry}");
        for line in lines {
            assert!(line.trim_end().ends_with(&format!("{call} }}")), "{line}");
            let guarded = line.trim_start().starts_with("if __m2l <= __m2h {");
            let constant = line
                .trim_start()
                .starts_with("{ let (__len, __l2) = (12usize,");
            assert!(guarded || constant, "{line}");
        }
        // A written array is never touched through its raw pointer, and a
        // row body never sees a `*mut`.
        let (_, row) = row_bodies(&module)
            .into_iter()
            .find(|(name, _)| *name == "pf_n26_r0")
            .unwrap();
        assert!(!row.contains("__a1") && !row.contains("__a2"), "{row}");
        assert!(!row.contains("*mut"), "{row}");
    }

    #[test]
    fn guarded_statements_with_different_boxes_keep_their_own_loops() {
        let module = wave_module(BoundaryStrategy::Guarded);
        let rows = row_bodies(&module);
        let entry = entry_of(&module);
        // The core nest plus six boundary slabs. A slab's guarded
        // statements have boxes of their own: consecutive runs never share
        // one (runs are maximal), each run that can execute has its row
        // body and one loop of the entry, in run order, and `u_2_b`'s
        // statement is last in each slab and so is its store.
        let loops: Vec<&str> = entry.split("    {\n        let __l0 = ").skip(1).collect();
        // A loop's box: its outer clamps and its innermost segment.
        let bounds = |l: &str| l.split("if __m").next().unwrap().to_string();
        assert_eq!(loops.len(), rows.len(), "{entry}");
        assert_eq!(
            rows.iter().filter(|(n, _)| n.starts_with("pf_n0_")).count(),
            1
        );
        let mut adjacent = 0;
        for k in 1..7 {
            let prefix = format!("pf_n{k}_r");
            let mine: Vec<&(&str, &str)> = rows
                .iter()
                .filter(|(n, _)| n.starts_with(&prefix))
                .collect();
            let calls: Vec<&str> = loops
                .iter()
                .copied()
                .filter(|l| l.contains(&prefix))
                .collect();
            assert!(mine.len() > 1, "{module}");
            assert_eq!(mine.len(), calls.len(), "{entry}");
            // Runs `_r{j}` and `_r{j+1}` never share a box; a run that
            // cannot execute is not emitted, so the runs either side of it
            // may.
            let run = |name: &str| name[prefix.len()..].parse::<usize>().unwrap();
            for (r, l) in mine.windows(2).zip(calls.windows(2)) {
                if run(r[1].0) == run(r[0].0) + 1 {
                    assert_ne!(bounds(l[0]), bounds(l[1]), "{entry}");
                    adjacent += 1;
                }
            }
            for ((name, row), l) in mine.iter().zip(&calls) {
                assert!(l.contains(&format!("{name}(")), "{entry}");
                assert!(row.contains(") = __w"), "{row}");
            }
            assert!(mine[mine.len() - 1].1.contains(") = __w2;"), "{module}");
        }
        assert!(adjacent >= 6, "{adjacent} adjacent runs: {entry}");
    }

    /// A 1-D disjoint adjoint is one row family: every nest's single run,
    /// in innermost order, straight-line when the tile spans them. Nests
    /// whose boxes meet keep their own loops, in plan order.
    #[test]
    fn families_form_only_where_nest_order_is_free() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_1d()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let ws = ws_of(&["c", "r_b", "u_b"], &[33]);
        let plan = compile_adjoint(&adj, &ws, &Binding::new().size("n", 32)).unwrap();
        let code = group_module(&plan).unwrap();
        let entry = entry_of(&code);
        assert_eq!(
            entry
                .matches("if __tl0 <= 0i64 && __th0 >= 32i64 {")
                .count(),
            1,
            "{entry}"
        );
        for (len, lo) in [(1, 0), (1, 1), (29, 2), (1, 31), (1, 32)] {
            let segment = format!(
                "{{ let (__len, __l0) = ({len}usize, {lo}i64); let __i0 = (__l0) as isize;"
            );
            assert!(entry.contains(&segment), "{entry}");
        }
        assert_eq!(entry.matches("let (__m").count(), 5, "one item: {entry}");

        // Two nests over overlapping boxes: plan order, one loop each.
        let i = Symbol::new("i");
        let nest = |lo, hi, k: f64| {
            let rhs = k * Array::new("u").at(ix![&i]);
            let st = Statement::add_assign(Access::new("r", ix![&i]), rhs);
            LoopNest::new(vec![i.clone()], vec![Bound::new(lo, hi)], vec![st])
        };
        let nests = [nest(2, 9, 2.0), nest(5, 20, 3.0)];
        let plan = compile_nests(&nests, &ws_of(&["r", "u"], &[24]), &Binding::new(), false);
        let code = group_module(&plan.unwrap()).unwrap();
        let entry = entry_of(&code);
        assert!(!entry.contains("__tl0 <= "), "{entry}");
        let first = entry.find("pf_n0_r0(").unwrap();
        assert!(first < entry.find("pf_n1_r0(").unwrap(), "{entry}");
    }

    /// A 1-D module over `r`, `u` (slots 0, 1) from explicit statements,
    /// the plan compiled with `opts`.
    fn module_1d(body: Vec<Statement>, opts: PlanOptions) -> Result<String, ExecError> {
        let nest = LoopNest::new(vec![Symbol::new("i")], vec![Bound::new(2, 20)], body);
        let ws = ws_of(&["r", "u"], &[24]);
        let plan = compile_nests_opts(&[nest], &ws, &Binding::new(), opts)?;
        Ok(group_module(&plan).unwrap())
    }

    /// Each statement's registers live in a block of its own, so one body
    /// holds any number of programs.
    #[test]
    fn registers_of_one_body_do_not_collide() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let shared = |o: i64| (u.at(vec![&i + o]) * u.at(ix![&i])).sin();
        let body = || {
            vec![
                Statement::add_assign(Access::new("r", ix![&i]), shared(-1) * shared(-1).cos()),
                Statement::add_assign(Access::new("r", ix![&i]), shared(1) + shared(1).cos()),
            ]
        };
        let code = module_1d(body(), PlanOptions::default()).unwrap();
        // One body, one block per statement, each numbering from `__r0`.
        assert_eq!(code.matches("for __x in").count(), 1, "{code}");
        assert_eq!(code.matches("__w0 += {").count(), 2, "{code}");
        assert_eq!(code.matches("let __r0: f64 = ").count(), 2, "{code}");
        // Each statement computes both of its sines.
        assert_eq!(code.matches(".sin()").count(), 4, "{code}");
    }

    #[test]
    fn assign_then_add_assign_emits_no_load_of_the_target() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let code = module_1d(
            vec![
                Statement::assign(Access::new("r", ix![&i]), u.at(ix![&i - 1])),
                Statement::add_assign(Access::new("r", ix![&i]), u.at(ix![&i + 1])),
            ],
            PlanOptions::default(),
        )
        .unwrap();
        assert_eq!(code.matches("for __x in").count(), 1, "{code}");
        let row = row_bodies(&code)[0].1;
        let set = row.find("let mut __w0: f64 = {").expect("assignment");
        let add = row.find("__w0 += {").expect("increment");
        let (left, right) = (
            row.find("*__a1.offset(__i + (-1))").unwrap(),
            row.find("*__a1.offset(__i + (1))").unwrap(),
        );
        assert!(set < left && left < add && add < right, "{row}");
        // The row body's only mention of the target is its one store.
        assert_eq!(row.matches("__o0.").count(), 1, "{row}");
        assert!(
            row.contains("*__o0.get_unchecked_mut(__x) = __w0;"),
            "{row}"
        );
        // Rank 1: no outer loop, one call over the clamped row.
        assert!(code.contains("let __i0 = (__l0) as isize;"), "{code}");
        assert_eq!(code.matches("for __c").count(), 0, "{code}");
    }

    /// Accumulate mode needs no case of its own: the plan has merged a
    /// nest's increments to one array into one statement summing from
    /// `0.0`, which a carried target receives as one `+=` and an assigned
    /// one as one store, with no load. What summing first would round
    /// differently, the plan refuses.
    #[test]
    fn accumulate_sums_from_zero_and_adds_once_per_run() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let add = |o: i64| Statement::add_assign(Access::new("r", ix![&i]), u.at(vec![&i + o]));
        let carrying = |carried: &[&str]| PlanOptions {
            accumulate: Some(carried.iter().map(|&a| Symbol::new(a)).collect()),
            ..PlanOptions::default()
        };
        let accumulate = carrying(&["r"]);
        let code = module_1d(vec![add(-1), add(1)], accumulate.clone()).unwrap();
        let row = row_bodies(&code)[0].1;
        assert_eq!(row.matches("__w0 += {").count(), 1, "{row}");
        let zero = row.find(&exact_f64(0.0)).expect("the sum starts from 0.0");
        let (left, right) = (
            row.find("*__a1.offset(__i + (-1))").unwrap(),
            row.find("*__a1.offset(__i + (1))").unwrap(),
        );
        assert!(zero < left && left < right, "{row}");
        assert!(
            row.contains("let mut __w0: f64 = *__o0.get_unchecked(__x);"),
            "{row}"
        );
        assert!(
            row.contains("*__o0.get_unchecked_mut(__x) = __w0;"),
            "{row}"
        );
        assert_eq!(row.matches("__o0.").count(), 2, "{row}");

        let assigned = module_1d(vec![add(-1), add(1)], carrying(&[])).unwrap();
        let row = row_bodies(&assigned)[0].1;
        assert!(row.contains("let mut __w0: f64 = {"), "{row}");
        assert!(
            row.find(&exact_f64(0.0)).is_some(),
            "the sum starts from 0.0"
        );
        assert_eq!(row.matches("__w0 += {").count(), 0, "{row}");
        assert_eq!(row.matches("__o0.").count(), 1, "{row}");

        let guarded = add(1).with_guard(Guard {
            ranges: vec![(i.clone(), Bound::new(3, 9))],
        });
        let set = Statement::assign(Access::new("r", ix![&i]), u.at(ix![&i]));
        for body in [vec![add(-1), guarded], vec![set, add(1)]] {
            let err = module_1d(body, accumulate.clone()).unwrap_err();
            assert!(matches!(err, ExecError::Unsupported(_)), "{err}");
        }
    }

    #[test]
    fn writes_to_one_array_at_different_offsets_are_not_fused() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let code = module_1d(
            vec![
                Statement::add_assign(Access::new("r", ix![&i - 1]), u.at(ix![&i])),
                Statement::add_assign(Access::new("r", ix![&i + 1]), u.at(ix![&i])),
            ],
            PlanOptions::default(),
        )
        .unwrap();
        // Two runs, two row bodies, called in plan order — each with the
        // one slice of `r` its statement writes.
        assert_eq!(row_bodies(&code).len(), 2, "{code}");
        let first = code
            .find("pf_n0_r0(__len, __i0, __l0, core::slice::from_raw_parts_mut(__a0.offset(__i0 + (-1)), __len), __a1);")
            .expect("first call");
        let second = code
            .find("pf_n0_r1(__len, __i0, __l0, core::slice::from_raw_parts_mut(__a0.offset(__i0 + (1)), __len), __a1);")
            .expect("second call");
        assert!(first < second, "{code}");
    }

    /// `max`, `min` and `sign` print the row executor's comparisons, not
    /// `f64::max`/`f64::min`, which differ on signed zeros and NaN.
    #[test]
    fn comparisons_print_the_row_executors_semantics() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let (l, r) = (u.at(ix![&i - 1]), u.at(ix![&i + 1]));
        let code = module_1d(
            vec![
                Statement::assign(Access::new("r", ix![&i]), l.clone().max(r.clone())),
                Statement::add_assign(Access::new("r", ix![&i]), l.min(r)),
                Statement::add_assign(Access::new("r", ix![&i]), u.at(ix![&i]).sign()),
            ],
            PlanOptions::default(),
        )
        .unwrap();
        let max = "let __r2: f64 = if __r0 >= __r1 { __r0 } else { __r1 };";
        let min = "let __r2: f64 = if __r0 <= __r1 { __r0 } else { __r1 };";
        let sign = "let __r1: f64 = \
                    if __r0 > 0.0 { 1.0 } else if __r0 < 0.0 { -1.0 } else { 0.0 };";
        for want in [max, min, sign] {
            assert!(code.contains(want), "{want}: {code}");
        }
        assert!(
            !code.contains(".max(__r") && !code.contains(".min(__r"),
            "{code}"
        );
    }

    #[test]
    fn a_rank_0_plan_is_unsupported() {
        let copy = Statement::assign(
            Access::new("r", Vec::<Idx>::new()),
            Array::new("u").at(vec![]),
        );
        let nest = LoopNest::new(vec![], vec![], vec![copy]);
        let plan =
            compile_nests(&[nest], &ws_of(&["r", "u"], &[]), &Binding::new(), false).unwrap();
        let err = group_module(&plan).unwrap_err();
        assert!(matches!(err, JitError::Unsupported(_)), "{err}");
    }

    #[test]
    fn exact_f64_round_trips_awkward_values() {
        for v in [0.1, -0.0, 1.0 / 3.0, 2.0f64.powi(-60), 6.02e23] {
            let s = exact_f64(v);
            let bits: u64 = s
                .strip_prefix("f64::from_bits(0x")
                .and_then(|r| r.split("u64").next())
                .map(|h| u64::from_str_radix(h, 16).unwrap())
                .unwrap();
            assert_eq!(f64::from_bits(bits).to_bits(), v.to_bits(), "{s}");
        }
    }
}
