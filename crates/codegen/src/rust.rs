//! Rust back-end: generates compilable, chunk-parallelisable kernels.
//!
//! This is the "new back-ends are easy to add" design point of PerforAD
//! (§3.1), and it powers the static-kernel path of the benchmarks: the
//! generated functions are checked into `perforad-pde`, golden-tested
//! against this generator, and compiled by rustc at full optimisation —
//! playing the role of the Intel C compiler in the paper's setup.
//!
//! Each nest becomes `fn {name}_nest{k}(lo0, hi0, sizes…, params…, outs…,
//! ins…, dims)`, taking the outermost counter range as arguments so a
//! harness can chunk it across threads; `{name}` runs every nest serially.

use perforad_core::{AssignOp, LoopNest};
use perforad_symbolic::{subst, Expr, Func, Idx, Node, Number, Symbol};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Render an index expression as Rust (i64 arithmetic over counters/sizes).
fn r_idx(ix: &Idx) -> String {
    format!("{ix}")
}

fn r_number(n: &Number) -> String {
    match n {
        Number::Int(i) => format!("{i}f64"),
        Number::Rat(r) => format!("({}f64/{}f64)", r.numer(), r.denom()),
        Number::Float(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{x:.1}")
            } else {
                format!("{x}f64")
            }
        }
    }
}

/// Render a linear index for an access: `((i - 1)*s0 + (j)*s1 + (k)) as usize`.
fn r_access_index(indices: &[Idx]) -> String {
    if indices.len() == 1 {
        return format!("({}) as usize", r_idx(&indices[0]));
    }
    let mut parts = Vec::with_capacity(indices.len());
    let last = indices.len() - 1;
    for (d, ix) in indices.iter().enumerate() {
        if d == last {
            parts.push(format!("({})", r_idx(ix)));
        } else {
            parts.push(format!("({})*s{d}", r_idx(ix)));
        }
    }
    format!("({}) as usize", parts.join(" + "))
}

/// Render an expression as Rust source (all scalars `f64`).
pub fn r_expr(e: &Expr) -> String {
    match e.node() {
        Node::Num(n) => r_number(n),
        Node::Sym(s) => format!("({} as f64)", s.name()),
        Node::Access(a) => format!("{}[{}]", a.array.name(), r_access_index(&a.indices)),
        Node::Add(ts) => {
            let parts: Vec<String> = ts.iter().map(r_expr).collect();
            format!("({})", parts.join(" + "))
        }
        Node::Mul(fs) => {
            let parts: Vec<String> = fs.iter().map(r_expr).collect();
            format!("({})", parts.join("*"))
        }
        Node::Pow(b, x) => match x.as_int() {
            Some(k) if i32::try_from(k).is_ok() => format!("{}.powi({k})", r_expr(b)),
            _ => format!("{}.powf({})", r_expr(b), r_expr(x)),
        },
        Node::Call(f, args) => {
            let a0 = r_expr(&args[0]);
            match f {
                Func::Sin => format!("{a0}.sin()"),
                Func::Cos => format!("{a0}.cos()"),
                Func::Tan => format!("{a0}.tan()"),
                Func::Exp => format!("{a0}.exp()"),
                Func::Ln => format!("{a0}.ln()"),
                Func::Sqrt => format!("{a0}.sqrt()"),
                Func::Abs => format!("{a0}.abs()"),
                Func::Sign => format!(
                    "(if {a0} > 0.0 {{ 1.0 }} else if {a0} < 0.0 {{ -1.0 }} else {{ 0.0 }})"
                ),
                Func::Tanh => format!("{a0}.tanh()"),
                Func::Max => format!("{a0}.max({})", r_expr(&args[1])),
                Func::Min => format!("{a0}.min({})", r_expr(&args[1])),
            }
        }
        Node::Select(c, a, b) => format!(
            "(if {} {} {} {{ {} }} else {{ {} }})",
            r_expr(&c.lhs),
            c.rel.symbol(),
            r_expr(&c.rhs),
            r_expr(a),
            r_expr(b)
        ),
        Node::UFun(app) => {
            let args: Vec<String> = app.args.iter().map(r_expr).collect();
            format!("{}({})", app.name, args.join(", "))
        }
        Node::UDeriv(app, wrt) => {
            let args: Vec<String> = app.args.iter().map(r_expr).collect();
            format!("{}_d{}({})", app.name, app.params[*wrt], args.join(", "))
        }
    }
}

struct Signature {
    outputs: Vec<Symbol>,
    inputs: Vec<Symbol>,
    params: Vec<Symbol>,
    sizes: Vec<Symbol>,
    rank: usize,
}

fn signature(nests: &[LoopNest]) -> Signature {
    let mut outputs = BTreeSet::new();
    let mut inputs = BTreeSet::new();
    let mut params = BTreeSet::new();
    let mut sizes = BTreeSet::new();
    let mut rank = 0usize;
    for nest in nests {
        rank = rank.max(nest.rank());
        outputs.extend(nest.outputs());
        inputs.extend(nest.inputs());
        params.extend(nest.parameters());
        sizes.extend(nest.bound_symbols());
    }
    for o in &outputs {
        inputs.remove(o);
    }
    Signature {
        outputs: outputs.into_iter().collect(),
        inputs: inputs.into_iter().collect(),
        params: params.into_iter().collect(),
        sizes: sizes.into_iter().collect(),
        rank,
    }
}

fn args_decl(sig: &Signature) -> String {
    let mut args: Vec<String> = vec!["lo0: i64".into(), "hi0: i64".into()];
    for s in &sig.sizes {
        args.push(format!("{}: i64", s.name()));
    }
    for p in &sig.params {
        args.push(format!("{}: f64", p.name()));
    }
    for o in &sig.outputs {
        args.push(format!("{}: &mut [f64]", o.name()));
    }
    for i in &sig.inputs {
        args.push(format!("{}: &[f64]", i.name()));
    }
    args.push(format!("dims: &[usize; {}]", sig.rank));
    args.join(", ")
}

fn args_call(sig: &Signature, lo: &str, hi: &str) -> String {
    let mut args: Vec<String> = vec![lo.to_string(), hi.to_string()];
    for s in &sig.sizes {
        args.push(s.name().to_string());
    }
    for p in &sig.params {
        args.push(p.name().to_string());
    }
    for o in &sig.outputs {
        args.push(o.name().to_string());
    }
    for i in &sig.inputs {
        args.push(i.name().to_string());
    }
    args.push("dims".into());
    args.join(", ")
}

/// Generate one nest function. The outermost loop runs `lo0..=hi0` clamped
/// to the nest bounds, so callers can chunk it across threads.
pub fn r_nest_fn(name: &str, nest: &LoopNest) -> String {
    let sig = signature(std::slice::from_ref(nest));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "#[allow(non_snake_case, unused_variables, unused_parens, clippy::all)]"
    );
    let _ = writeln!(out, "pub fn {name}({}) {{", args_decl(&sig));
    // Strides.
    for d in 0..sig.rank.saturating_sub(1) {
        let terms: Vec<String> = (d + 1..sig.rank).map(|k| format!("dims[{k}]")).collect();
        let _ = writeln!(out, "    let s{d} = ({}) as i64;", terms.join("*"));
    }
    // Loops.
    let mut depth = 1usize;
    for (d, (c, b)) in nest.counters.iter().zip(&nest.bounds).enumerate() {
        let (lo, hi) = if d == 0 {
            (
                format!("({}).max(lo0)", r_idx(&b.lo)),
                format!("({}).min(hi0)", r_idx(&b.hi)),
            )
        } else {
            (r_idx(&b.lo), r_idx(&b.hi))
        };
        let _ = writeln!(out, "{}for {c} in {lo}..=({hi}) {{", "    ".repeat(depth));
        depth += 1;
    }
    let pad = "    ".repeat(depth);
    for s in &nest.body {
        let mut close_guard = false;
        if let Some(g) = &s.guard {
            let conds: Vec<String> = g
                .ranges
                .iter()
                .map(|(c, b)| format!("({}) <= {c} && {c} <= ({})", r_idx(&b.lo), r_idx(&b.hi)))
                .collect();
            let _ = writeln!(out, "{pad}if {} {{", conds.join(" && "));
            close_guard = true;
        }
        let inner_pad = if close_guard {
            format!("{pad}    ")
        } else {
            pad.clone()
        };
        let op = match s.op {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
        };
        let _ = writeln!(
            out,
            "{inner_pad}{}[{}] {op} {};",
            s.lhs.array.name(),
            r_access_index(&s.lhs.indices),
            r_expr(&s.rhs)
        );
        if close_guard {
            let _ = writeln!(out, "{pad}}}");
        }
    }
    for d in (1..depth).rev() {
        let _ = writeln!(out, "{}}}", "    ".repeat(d));
    }
    let _ = writeln!(out, "}}");
    out
}

/// Generate a module with one function per nest plus a serial driver.
pub fn print_module(name: &str, nests: &[LoopNest]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by perforad-codegen (Rust back-end) — do not edit by hand."
    );
    let _ = writeln!(
        out,
        "// Regenerate with the `golden_rust` test in perforad-codegen.\n"
    );
    for (k, nest) in nests.iter().enumerate() {
        out.push_str(&r_nest_fn(&format!("{name}_nest{k}"), nest));
        let _ = writeln!(out);
    }
    // Serial driver over all nests with per-nest full outer ranges.
    let sig = signature(nests);
    let _ = writeln!(
        out,
        "#[allow(non_snake_case, unused_variables, unused_parens, clippy::all)]"
    );
    let _ = writeln!(out, "pub fn {name}({}) {{", args_decl(&sig));
    for (k, nest) in nests.iter().enumerate() {
        let nsig = signature(std::slice::from_ref(nest));
        let lo = format!("({}).max(lo0)", r_idx(&nest.bounds[0].lo));
        let hi = format!("({}).min(hi0)", r_idx(&nest.bounds[0].hi));
        let _ = writeln!(out, "    {name}_nest{k}({});", args_call(&nsig, &lo, &hi));
    }
    let _ = writeln!(out, "}}");
    out
}

// ---------------------------------------------------------------------------
// JIT back-end: one tile-granular, guard-hoisted `extern "C"` entry point
// per fused group.
//
// The functions above generate *build-time* kernels (checked into
// `perforad-pde`, idiomatic slices, symbolic sizes as arguments). The
// `perforad-jit` crate instead compiles *run-time* schedules: sizes and
// parameters are known, so they are baked in as constants, and each fused
// group becomes one self-contained `extern "C"` function that takes only
// an inclusive box of the group's iteration hull (so the tile-granular
// executors can drive arbitrary sub-boxes) and the group's array base
// pointers in plan slot order; it runs every nest's part of the box.
// Guards are hoisted into the loop bounds, and numeric
// constants are emitted via `f64::from_bits` so the compiled code is
// **bitwise identical** to the interpreter and row executor: the renderer
// mirrors the bytecode compiler's traversal (left-folded sums/products,
// `-1·x` as negation, `powi` for integer exponents, the VM's exact
// max/min/sign semantics).
// ---------------------------------------------------------------------------

use std::collections::BTreeMap;

/// Everything the JIT emitter needs to generate one fused group's module:
/// the group's nests (plan order) plus the resolved layout and bindings
/// the plan was compiled against.
pub struct JitGroupSpec<'a> {
    /// Symbol prefix: the entry point is `{prefix}_g`, and run `j` of nest
    /// `k` has the row body `{prefix}_n{k}_r{j}`.
    pub prefix: &'a str,
    /// The group's loop nests, in the same order as the compiled plan's.
    pub nests: &'a [LoopNest],
    /// Array slot order of the plan (index = slot).
    pub arrays: &'a [Symbol],
    /// Shared extents of every array.
    pub dims: &'a [usize],
    /// Shared element strides.
    pub strides: &'a [usize],
    /// Zero-padding load semantics (the Padded boundary strategy).
    pub padded: bool,
    /// Apply per-statement CSE exactly as plan compilation does.
    pub cse: bool,
    /// The plan's accumulate mode: each run's accumulator for a `+=`
    /// array starts from `0.0` and is added to the array once, instead of
    /// starting from the array's value and being stored over it.
    pub accumulate: bool,
    /// Integer size bindings (loop bounds, guard bounds).
    pub sizes: &'a BTreeMap<Symbol, i64>,
    /// Floating-point parameter bindings, inlined as exact constants.
    pub params: &'a BTreeMap<Symbol, f64>,
}

/// Render an `f64` so the compiled constant is bit-exact — `from_bits`
/// round-trips every value (the decimal comment is for human readers).
fn exact_f64(v: f64) -> String {
    format!("f64::from_bits({:#018x}u64) /* {v} */", v.to_bits())
}

struct JitCtx<'a> {
    spec: &'a JitGroupSpec<'a>,
    counters: &'a [Symbol],
    /// Index of the statement being rendered within its nest.
    stmt: usize,
    temps: Vec<Symbol>,
}

impl JitCtx<'_> {
    fn counter_var(&self, d: usize) -> String {
        format!("__c{d}")
    }

    /// Statements of one fused body share a scope, so a CSE temporary
    /// carries its statement's index.
    fn temp_var(&self, t: &Symbol) -> String {
        format!("{}_{}", t.name(), self.stmt)
    }

    fn slot(&self, s: &Symbol) -> Result<usize, String> {
        self.spec
            .arrays
            .iter()
            .position(|a| a == s)
            .ok_or_else(|| format!("array `{s}` has no slot in the plan"))
    }
}

/// The constant element offset of an access at constant offsets from the
/// counters.
fn jit_linear_offset(strides: &[usize], offsets: &[i64]) -> i64 {
    let terms = offsets.iter().zip(strides).map(|(o, &s)| o * s as i64);
    terms.sum()
}

/// Mirror of the bytecode compiler's expression traversal, rendering Rust
/// that evaluates in the same order with the same primitive semantics.
fn jit_expr(e: &Expr, ctx: &JitCtx) -> Result<String, String> {
    Ok(match e.node() {
        Node::Num(n) => exact_f64(n.to_f64()),
        Node::Sym(s) => {
            if ctx.temps.contains(s) {
                ctx.temp_var(s)
            } else if let Some(d) = ctx.counters.iter().position(|c| c == s) {
                format!("({} as f64)", ctx.counter_var(d))
            } else {
                return Err(format!("unbound parameter `{s}` (substitute first)"));
            }
        }
        Node::Access(a) => {
            let slot = ctx.slot(&a.array)?;
            let mut offsets = Vec::with_capacity(a.indices.len());
            for (d, ix) in a.indices.iter().enumerate() {
                let c = ctx
                    .counters
                    .get(d)
                    .ok_or_else(|| format!("access `{a}` outranks the nest"))?;
                offsets.push(
                    ix.is_offset_of(c)
                        .ok_or_else(|| format!("non-stencil access `{a}`"))?,
                );
            }
            // The point's own index `__i` (computed once per iteration)
            // plus the offsets folded into one constant.
            let lin = match jit_linear_offset(ctx.spec.strides, &offsets) {
                0 => "__i".to_string(),
                k => format!("__i + ({k})"),
            };
            if ctx.spec.padded {
                // LoadPadded semantics: every dimension bounds-checked,
                // 0.0 outside the physical extents.
                let checks: Vec<String> = offsets
                    .iter()
                    .enumerate()
                    .map(|(d, o)| {
                        let c = ctx.counter_var(d);
                        let dim = ctx.spec.dims[d];
                        format!("({c} + ({o})) >= 0 && ({c} + ({o})) < {dim}")
                    })
                    .collect();
                format!(
                    "(if {} {{ *__a{slot}.offset({lin}) }} else {{ 0.0f64 }})",
                    checks.join(" && ")
                )
            } else {
                // Parenthesised so postfix method calls bind to the
                // loaded value, not the raw pointer.
                format!("(*__a{slot}.offset({lin}))")
            }
        }
        Node::Add(ts) => {
            let parts: Result<Vec<String>, String> = ts.iter().map(|t| jit_expr(t, ctx)).collect();
            format!("({})", parts?.join(" + "))
        }
        Node::Mul(fs) => {
            // `-1 * rest` is a negation, exactly as the VM compiles it.
            let negate = matches!(fs[0].as_num(), Some(n) if n.to_f64() == -1.0);
            let rest = if negate { &fs[1..] } else { &fs[..] };
            let parts: Result<Vec<String>, String> =
                rest.iter().map(|t| jit_expr(t, ctx)).collect();
            let prod = format!("({})", parts?.join("*"));
            if negate {
                format!("(-{prod})")
            } else {
                prod
            }
        }
        Node::Pow(b, x) => match x.as_int() {
            Some(k) if i32::try_from(k).is_ok() => format!("{}.powi({k}i32)", jit_expr(b, ctx)?),
            _ => format!("{}.powf({})", jit_expr(b, ctx)?, jit_expr(x, ctx)?),
        },
        Node::Call(f, args) => {
            let a0 = jit_expr(&args[0], ctx)?;
            match f {
                Func::Sin => format!("{a0}.sin()"),
                Func::Cos => format!("{a0}.cos()"),
                Func::Tan => format!("{a0}.tan()"),
                Func::Exp => format!("{a0}.exp()"),
                Func::Ln => format!("{a0}.ln()"),
                Func::Sqrt => format!("{a0}.sqrt()"),
                Func::Abs => format!("{a0}.abs()"),
                Func::Tanh => format!("{a0}.tanh()"),
                // __max/__min/__sign are module helpers replicating the
                // VM's comparisons (f64::max differs on signed zeros).
                Func::Sign => format!("__sign({a0})"),
                Func::Max => format!("__max({a0}, {})", jit_expr(&args[1], ctx)?),
                Func::Min => format!("__min({a0}, {})", jit_expr(&args[1], ctx)?),
            }
        }
        Node::Select(c, a, b) => format!(
            "(if {} {} {} {{ {} }} else {{ {} }})",
            jit_expr(&c.lhs, ctx)?,
            c.rel.symbol(),
            jit_expr(&c.rhs, ctx)?,
            jit_expr(a, ctx)?,
            jit_expr(b, ctx)?
        ),
        Node::UFun(app) | Node::UDeriv(app, _) => {
            return Err(format!("uninterpreted function `{}`", app.name))
        }
    })
}

fn jit_resolve(ix: &Idx, sizes: &BTreeMap<Symbol, i64>) -> Result<i64, String> {
    ix.eval(sizes)
        .ok_or_else(|| format!("unresolved bound `{ix}`"))
}

/// One statement readied for emission.
struct JitStmt {
    /// Constant effective box: nest bounds ∩ guard ("guard hoisting").
    lo: Vec<i64>,
    hi: Vec<i64>,
    /// Write target: plan slot and constant offsets from the counters.
    slot: usize,
    woffs: Vec<i64>,
    op: AssignOp,
    /// CSE temporaries as `let` lines in binding order (exactly the VM's
    /// StoreTmp sequence), then the rewritten right-hand side.
    lets: Vec<String>,
    rhs: String,
}

fn jit_stmt(
    si: usize,
    nest: &LoopNest,
    spec: &JitGroupSpec,
    sub: &BTreeMap<Symbol, Expr>,
) -> Result<JitStmt, String> {
    let s = &nest.body[si];
    let mut lo = Vec::with_capacity(nest.rank());
    let mut hi = Vec::with_capacity(nest.rank());
    for b in &nest.bounds {
        lo.push(jit_resolve(&b.lo, spec.sizes)?);
        hi.push(jit_resolve(&b.hi, spec.sizes)?);
    }
    if let Some(g) = &s.guard {
        for (c, b) in &g.ranges {
            let d = nest
                .counters
                .iter()
                .position(|x| x == c)
                .ok_or_else(|| format!("guard counter `{c}` not in nest"))?;
            lo[d] = lo[d].max(jit_resolve(&b.lo, spec.sizes)?);
            hi[d] = hi[d].min(jit_resolve(&b.hi, spec.sizes)?);
        }
    }
    let mut woffs = Vec::with_capacity(nest.rank());
    for (d, ix) in s.lhs.indices.iter().enumerate() {
        woffs.push(
            ix.is_offset_of(&nest.counters[d])
                .ok_or_else(|| format!("non-constant write index `{ix}`"))?,
        );
    }
    let rhs = subst::subst_sym(&s.rhs, sub);
    let (bindings, rewritten) = if spec.cse {
        perforad_symbolic::cse::eliminate_one(&rhs, "__cse")
    } else {
        (Vec::new(), rhs)
    };
    let ctx = JitCtx {
        spec,
        counters: &nest.counters,
        stmt: si,
        temps: bindings.iter().map(|(t, _)| t.clone()).collect(),
    };
    let mut lets = Vec::with_capacity(bindings.len());
    for (t, bexpr) in &bindings {
        lets.push(format!(
            "let {}: f64 = {};",
            ctx.temp_var(t),
            jit_expr(bexpr, &ctx)?
        ));
    }
    Ok(JitStmt {
        lo,
        hi,
        slot: ctx.slot(&s.lhs.array)?,
        op: s.op,
        rhs: jit_expr(&rewritten, &ctx)?,
        lets,
        woffs,
    })
}

/// One run of a nest readied for the group entry: its constant box (nest
/// bounds ∩ guard), its row body, and the call the entry makes of it with
/// `__len`, `__i0`, the outer counters `__c{d}` and the row's first
/// innermost index `__l{last}` in scope.
struct JitRun {
    lo: Vec<i64>,
    hi: Vec<i64>,
    body: String,
    call: String,
}

impl JitRun {
    fn is_empty(&self) -> bool {
        self.lo.iter().zip(&self.hi).any(|(l, h)| l > h)
    }
}

/// Ready one nest's runs and their row bodies. Each maximal run of
/// consecutive statements with the same effective box (nest bounds ∩
/// guard, hoisted into constant loop bounds; under the default `Disjoint`
/// strategy that is the whole nest) becomes **one** loop nest — the
/// paper's Fig.-4 form — with the runtime tile box clamped on top, so any
/// sub-box of the iteration space is valid. The group entry loops the
/// outer dimensions and hands each innermost row to the run's
/// `#[inline(always)]` row body `{name}_r{k}`, which holds the run's
/// statements in source order and keeps one local accumulator per written
/// array: loaded at that array's first `+=` (never, when its first op is
/// `=`), updated in source order, stored once at the end of the body.
/// Under [`JitGroupSpec::accumulate`] a `+=` accumulator starts from
/// `0.0` instead and is added to the array once — the plan's one summed
/// increment per point — so an array whose increments would span two
/// runs, or mix with `=`, is an `Err` (the group then runs on rows).
///
/// A row body receives every array its run writes as a `&mut [f64]` over
/// exactly that row's points at the write offset, and every array the
/// nest reads as a `*const f64` — which tells the compiler what the gather
/// transformation proved: stores never feed loads, so the row vectorises
/// ([`jit_group_module`] states when that contract holds).
///
/// This moves data, not arithmetic, so the bits are the interpreter's:
/// no right-hand side can observe a deferred store, and every location
/// still receives its statements' updates in source order, one rounding
/// per update. A run ends where two statements write one array at
/// *different* offsets — there point-major and statement-major order
/// differ, and separate loops keep the latter.
fn jit_nest(name: &str, nest: &LoopNest, spec: &JitGroupSpec) -> Result<Vec<JitRun>, String> {
    let rank = nest.rank();
    if rank != spec.dims.len() {
        return Err(format!(
            "nest rank {rank} vs layout rank {}",
            spec.dims.len()
        ));
    }
    let last = rank - 1;
    let mut sub: BTreeMap<Symbol, Expr> = BTreeMap::new();
    for (s, v) in spec.params {
        sub.insert(s.clone(), Expr::float(*v));
    }
    for (s, v) in spec.sizes {
        sub.insert(s.clone(), Expr::int(*v));
    }
    let mut runs: Vec<Vec<JitStmt>> = Vec::new();
    for si in 0..nest.body.len() {
        let s = jit_stmt(si, nest, spec, &sub)?;
        match runs.last_mut() {
            Some(run)
                if (&run[0].lo, &run[0].hi) == (&s.lo, &s.hi)
                    && run.iter().all(|t| t.slot != s.slot || t.woffs == s.woffs) =>
            {
                run.push(s)
            }
            _ => runs.push(vec![s]),
        }
    }
    // Every statement rendered, so every input has a slot.
    let inputs = nest.inputs();
    let reads: Vec<usize> = (0..spec.arrays.len())
        .filter(|&slot| inputs.contains(&spec.arrays[slot]))
        .collect();

    let mut out = Vec::with_capacity(runs.len());
    // Accumulate mode: the arrays earlier runs summed into. A second run
    // would add a second partial sum — one rounding more than the plan.
    let mut summed: Vec<usize> = Vec::new();
    for (k, run) in runs.iter().enumerate() {
        // The body first: it decides which arrays the run accumulates
        // into, in first-write order.
        let pad = "        ";
        let mut body = String::new();
        let mut accs: Vec<&JitStmt> = Vec::new();
        for s in run {
            for l in &s.lets {
                let _ = writeln!(body, "{pad}{l}");
            }
            let (slot, w, rhs) = (s.slot, format!("__w{}", s.slot), &s.rhs);
            let first = accs.iter().find(|a| a.slot == slot);
            if spec.accumulate && first.is_some_and(|a| a.op != s.op) {
                return Err(format!(
                    "accumulated `{}` mixes `=` and `+=`",
                    spec.arrays[slot]
                ));
            }
            let _ = match (first.is_some(), s.op) {
                (false, AssignOp::Assign) => writeln!(body, "{pad}let mut {w}: f64 = {rhs};"),
                (false, AssignOp::AddAssign) if spec.accumulate => {
                    if summed.contains(&slot) {
                        let array = &spec.arrays[slot];
                        return Err(format!("accumulated `{array}` spans two runs of one nest"));
                    }
                    summed.push(slot);
                    writeln!(body, "{pad}let mut {w}: f64 = 0.0; {w} += {rhs};")
                }
                (false, AssignOp::AddAssign) => writeln!(
                    body,
                    "{pad}let mut {w}: f64 = *__o{slot}.get_unchecked(__x); {w} += {rhs};"
                ),
                (true, AssignOp::Assign) => writeln!(body, "{pad}{w} = {rhs};"),
                (true, AssignOp::AddAssign) => writeln!(body, "{pad}{w} += {rhs};"),
            };
            if first.is_none() {
                accs.push(s);
            }
        }
        for s in &accs {
            let store = match s.op {
                AssignOp::AddAssign if spec.accumulate => "+=",
                _ => "=",
            };
            let _ = writeln!(
                body,
                "{pad}*__o{0}.get_unchecked_mut(__x) {store} __w{0};",
                s.slot
            );
        }

        let mut params = vec!["__len: usize".to_string(), "__i0: isize".to_string()];
        let mut args = vec!["__len".to_string(), "__i0".to_string()];
        for d in 0..last {
            params.push(format!("__c{d}: i64"));
            args.push(format!("__c{d}"));
        }
        params.push(format!("__l{last}: i64"));
        args.push(format!("__l{last}"));
        for s in &accs {
            params.push(format!("__o{}: &mut [f64]", s.slot));
            args.push(format!(
                "core::slice::from_raw_parts_mut(__a{}.offset(__i0 + ({})), __len)",
                s.slot,
                jit_linear_offset(spec.strides, &s.woffs)
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
        out.push(JitRun {
            lo: run[0].lo.clone(),
            hi: run[0].hi.clone(),
            body: f,
            call: format!("{name}_r{k}({})", args.join(", ")),
        });
    }
    Ok(out)
}

/// What the group entry runs, in plan order of each item's first run:
/// row families (several runs, innermost order) and single runs.
///
/// Nests form row families only when their order is free: every nest of
/// the group writes only its centre points (`gather`) and no two runs'
/// boxes meet, so running them in any order updates every point exactly
/// as plan order does. Then the runs of single-run nests with identical
/// outer-dimension boxes — whose innermost ranges are disjoint, the boxes
/// being so — share one family. Every other run is an item of its own.
fn jit_items(nests: &[Vec<JitRun>], gather: bool, last: usize) -> Vec<Vec<&JitRun>> {
    let live: Vec<&JitRun> = nests.iter().flatten().filter(|r| !r.is_empty()).collect();
    let apart = |a: &JitRun, b: &JitRun| (0..=last).any(|d| a.hi[d] < b.lo[d] || b.hi[d] < a.lo[d]);
    let free = gather && (0..live.len()).all(|i| live[i + 1..].iter().all(|b| apart(live[i], b)));
    // (joinable, runs): a family so far, or a run of a nest with several.
    let mut items: Vec<(bool, Vec<&JitRun>)> = Vec::new();
    for nest in nests {
        let runs: Vec<&JitRun> = nest.iter().filter(|r| !r.is_empty()).collect();
        if free && runs.len() == 1 {
            let run = runs[0];
            let same_rows =
                |m: &JitRun| m.lo[..last] == run.lo[..last] && m.hi[..last] == run.hi[..last];
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
fn jit_item(e: &mut String, runs: &[&JitRun], row: &str, last: usize) {
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
    let segment = |run: &JitRun, len: String, lo: String| {
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

/// Generate a self-contained crate-root source module for one fused
/// group: the bitwise-exact helper prelude, every nest's row bodies
/// (`jit_nest`), and **one** `extern "C"` entry point `{prefix}_g`
/// taking an inclusive per-rank box of the group's iteration hull and the
/// plan's array base pointers in slot order. The entry runs every nest's
/// part of the box: row families (`jit_items`) share one outer walk,
/// every other run keeps its own (`jit_item`), so the boundary points of
/// a row run inside the core's row loop rather than in passes of their
/// own over arrays the core already streamed.
///
/// **Aliasing contract.** A row body gets every array it writes as a
/// `&mut [f64]` over its segment of one innermost row and every array it
/// reads as a `*const f64`. No nest of the group reads an array the group
/// writes (checked here; an `Err` sends the schedule to the rows tier), a
/// run writes each array at one offset (so a run never holds two slices of
/// one array), the plan's arrays are distinct allocations, the members of
/// a row family are called one after another on disjoint segments of a
/// row, and concurrent tiles have disjoint boxes — so no live `&mut` row
/// overlaps anything else. The innermost stride must be 1.
///
/// Compile with `rustc --crate-type cdylib` and load via `dlopen`
/// (`perforad-jit` drives both).
pub fn jit_group_module(spec: &JitGroupSpec) -> Result<String, String> {
    let rank = spec.dims.len();
    if rank == 0 {
        return Err("rank-0 layout".to_string());
    }
    let last = rank - 1;
    if spec.strides[last] != 1 {
        return Err(format!("innermost stride {} is not 1", spec.strides[last]));
    }
    let written: BTreeSet<Symbol> = spec.nests.iter().flat_map(|n| n.outputs()).collect();
    for nest in spec.nests {
        if let Some(a) = nest.inputs().intersection(&written).next() {
            return Err(format!("a nest reads `{a}`, which the group also writes"));
        }
    }
    let nests = (spec.nests.iter().enumerate())
        .map(|(k, nest)| jit_nest(&format!("{}_n{k}", spec.prefix), nest, spec))
        .collect::<Result<Vec<_>, _>>()?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "// Generated by perforad-codegen (JIT back-end) — do not edit by hand."
    );
    let _ = writeln!(
        out,
        "// Aliasing contract: a row body `*_r{{k}}` gets each array it writes as a\n\
         // `&mut [f64]` over its segment of one innermost row and each array it\n\
         // reads as a `*const f64`. No nest reads an array the group writes, a run\n\
         // writes each array at one offset, the arrays are distinct allocations,\n\
         // a row family's members run one after another on disjoint segments of\n\
         // a row and concurrent tiles have disjoint boxes, so no live `&mut` row\n\
         // overlaps anything else."
    );
    let _ = writeln!(
        out,
        "#![allow(unused_variables, unused_parens, unused_mut, clippy::all)]\n"
    );
    // The VM's exact comparison semantics (f64::max/min differ on signed
    // zeros and NaNs; Sign has bespoke zero handling).
    let _ = writeln!(
        out,
        "#[inline(always)]\nfn __max(a: f64, b: f64) -> f64 {{ if a >= b {{ a }} else {{ b }} }}"
    );
    let _ = writeln!(
        out,
        "#[inline(always)]\nfn __min(a: f64, b: f64) -> f64 {{ if a <= b {{ a }} else {{ b }} }}"
    );
    let _ = writeln!(
        out,
        "#[inline(always)]\nfn __sign(a: f64) -> f64 {{ \
         if a > 0.0 {{ 1.0 }} else if a < 0.0 {{ -1.0 }} else {{ 0.0 }} }}\n"
    );
    let gather = spec.nests.iter().all(LoopNest::is_gather);
    let items = jit_items(&nests, gather, last);
    // Row bodies of runs that never execute are not emitted.
    for run in items.iter().flatten() {
        out.push_str(&run.body);
    }
    let _ = writeln!(out, "\n#[no_mangle]");
    let _ = writeln!(
        out,
        "pub unsafe extern \"C\" fn {}_g(__lo: *const i64, __hi: *const i64, \
         __arrs: *const *mut f64) {{",
        spec.prefix
    );
    for slot in 0..spec.arrays.len() {
        let _ = writeln!(out, "    let __a{slot} = *__arrs.add({slot});");
    }
    for d in 0..rank {
        let _ = writeln!(
            out,
            "    let __tl{d} = *__lo.add({d}); let __th{d} = *__hi.add({d});"
        );
    }
    // The index of a row's first point: outer counters × strides plus the
    // row's first innermost index.
    let row = (0..last)
        .map(|d| format!("__c{d}*{} + ", spec.strides[d]))
        .collect::<String>();
    for runs in &items {
        jit_item(&mut out, runs, &row, last);
    }
    let _ = writeln!(out, "}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_core::make_loop_nest;
    use perforad_symbolic::{ix, Array};

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

    #[test]
    fn expression_rendering() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = u.at(ix![&i]).powi(2);
        assert_eq!(r_expr(&e), "u[(i) as usize].powi(2)");
        let e = u.at(ix![&i]).max(Expr::zero());
        assert_eq!(r_expr(&e), "u[(i) as usize].max(0f64)");
    }

    #[test]
    fn nest_function_compiles_shape() {
        let code = r_nest_fn("stencil1d", &paper_1d());
        assert!(code.contains("pub fn stencil1d(lo0: i64, hi0: i64, n: i64, r: &mut [f64], c: &[f64], u: &[f64], dims: &[usize; 1]) {"), "{code}");
        assert!(
            code.contains("for i in (1).max(lo0)..=((n - 1).min(hi0)) {"),
            "{code}"
        );
        assert!(code.contains("r[(i) as usize] ="), "{code}");
    }

    #[test]
    fn module_has_driver() {
        let code = print_module("stencil1d", &[paper_1d()]);
        assert!(code.contains("pub fn stencil1d_nest0("), "{code}");
        assert!(
            code.contains("pub fn stencil1d(") && code.contains("stencil1d_nest0("),
            "{code}"
        );
    }

    #[test]
    fn three_d_access_uses_strides() {
        let (i, j, k) = (Symbol::new("i"), Symbol::new("j"), Symbol::new("k"));
        let u = Array::new("u");
        let e = u.at(ix![&i - 1, &j, &k + 1]);
        assert_eq!(r_expr(&e), "u[((i - 1)*s0 + (j)*s1 + (k + 1)) as usize]");
    }

    fn jit_spec_1d<'a>(
        arrays: &'a [Symbol],
        sizes: &'a std::collections::BTreeMap<Symbol, i64>,
        params: &'a std::collections::BTreeMap<Symbol, f64>,
        nests: &'a [LoopNest],
        dims: &'a [usize],
        strides: &'a [usize],
        padded: bool,
    ) -> JitGroupSpec<'a> {
        JitGroupSpec {
            prefix: "pf",
            nests,
            arrays,
            dims,
            strides,
            padded,
            cse: false,
            accumulate: false,
            sizes,
            params,
        }
    }

    #[test]
    fn jit_module_emits_one_extern_c_entry_point_with_baked_constants() {
        let nests = [paper_1d()];
        let arrays = [Symbol::new("c"), Symbol::new("r"), Symbol::new("u")];
        let mut sizes = std::collections::BTreeMap::new();
        sizes.insert(Symbol::new("n"), 32i64);
        let params = std::collections::BTreeMap::new();
        let dims = [33usize];
        let strides = [1usize];
        let spec = jit_spec_1d(&arrays, &sizes, &params, &nests, &dims, &strides, false);
        let code = jit_group_module(&spec).unwrap();
        assert!(code.contains("pub unsafe extern \"C\" fn pf_g("), "{code}");
        assert_eq!(code.matches("extern \"C\" fn").count(), 1, "{code}");
        assert_eq!(code.matches("#[no_mangle]").count(), 1, "{code}");
        // Bounds baked in from sizes (1 ..= n-1 at n=32) and tile-clamped.
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
    fn jit_padded_loads_are_bounds_checked_and_guards_hoisted() {
        use perforad_core::{Bound, Guard, Statement};
        let i = Symbol::new("i");
        let u = Array::new("u");
        let stmt = Statement::add_assign(
            perforad_symbolic::Access::new("r", ix![&i]),
            u.at(ix![&i - 1]),
        )
        .with_guard(Guard {
            ranges: vec![(i.clone(), Bound::new(3, 9))],
        });
        let nest = LoopNest::new(vec![i.clone()], vec![Bound::new(0, 20)], vec![stmt]);
        let nests = [nest];
        let arrays = [Symbol::new("r"), Symbol::new("u")];
        let sizes = std::collections::BTreeMap::new();
        let params = std::collections::BTreeMap::new();
        let dims = [21usize];
        let strides = [1usize];
        let spec = jit_spec_1d(&arrays, &sizes, &params, &nests, &dims, &strides, true);
        let code = jit_group_module(&spec).unwrap();
        // Guard intersected into the constant bounds (3..=9, not 0..=20).
        assert!(code.contains(".max(3i64)"), "{code}");
        assert!(code.contains(".min(9i64)"), "{code}");
        // Padded load checks the extents and falls back to 0.0.
        assert!(code.contains("else { 0.0f64 }"), "{code}");
        assert!(code.contains("< 21"), "{code}");
        assert!(code.contains("+=") && !code.contains("] = "), "{code}");
    }

    /// The paper's 3-D wave adjoint (`c` passive) at `n = 16` as one
    /// group module; slots in name order: `c`, `u_1_b`, `u_2_b`, `u_b`.
    fn wave_module(strategy: perforad_core::BoundaryStrategy, cse: bool) -> String {
        use perforad_core::{ActivityMap, AdjointOptions};
        let nest = crate::parse_stencil(
            "for i in 1 .. n-2, j in 1 .. n-2, k in 1 .. n-2 {
                u[i][j][k] = 2.0*u_1[i][j][k] - u_2[i][j][k] + c[i][j][k]*D*(
                    u_1[i-1][j][k] + u_1[i+1][j][k] + u_1[i][j-1][k] + u_1[i][j+1][k]
                    + u_1[i][j][k-1] + u_1[i][j][k+1] - 6.0*u_1[i][j][k]);
            }",
        )
        .unwrap();
        let act = ActivityMap::new()
            .with_suffixed("u")
            .with_suffixed("u_1")
            .with_suffixed("u_2");
        let adj = nest
            .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
            .unwrap();
        let arrays = ["c", "u_1_b", "u_2_b", "u_b"].map(Symbol::new);
        let sizes = BTreeMap::from([(Symbol::new("n"), 16i64)]);
        let params = BTreeMap::from([(Symbol::new("D"), 0.1)]);
        jit_group_module(&JitGroupSpec {
            prefix: "pf",
            nests: &adj.nests,
            arrays: &arrays,
            dims: &[16, 16, 16],
            strides: &[256, 16, 1],
            padded: false,
            cse,
            accumulate: false,
            sizes: &sizes,
            params: &params,
        })
        .unwrap()
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
    fn jit_wave_adjoint_is_one_entry_with_one_loop_per_nest_and_register_accumulators() {
        let module = wave_module(perforad_core::BoundaryStrategy::Disjoint, false);
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
    fn jit_wave_adjoint_runs_each_rows_boundary_points_inside_the_core_row_loop() {
        let module = wave_module(perforad_core::BoundaryStrategy::Disjoint, false);
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
    fn jit_row_body_takes_written_arrays_as_mut_slices_and_read_arrays_as_const_ptrs() {
        let module = wave_module(perforad_core::BoundaryStrategy::Disjoint, false);
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
    fn jit_guarded_statements_with_different_boxes_keep_their_own_loops() {
        let module = wave_module(perforad_core::BoundaryStrategy::Guarded, false);
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
    fn jit_families_form_only_where_nest_order_is_free() {
        use perforad_core::{ActivityMap, AdjointOptions, Bound, Statement};
        use perforad_symbolic::Access;
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_1d()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let arrays = ["c", "r_b", "u_b"].map(Symbol::new);
        let sizes = BTreeMap::from([(Symbol::new("n"), 32i64)]);
        let params = BTreeMap::new();
        let spec = jit_spec_1d(&arrays, &sizes, &params, &adj.nests, &[33], &[1], false);
        let code = jit_group_module(&spec).unwrap();
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
        let arrays = [Symbol::new("r"), Symbol::new("u")];
        let (sizes, params) = (BTreeMap::new(), BTreeMap::new());
        let spec = jit_spec_1d(&arrays, &sizes, &params, &nests, &[24], &[1], false);
        let code = jit_group_module(&spec).unwrap();
        let entry = entry_of(&code);
        assert!(!entry.contains("__tl0 <= "), "{entry}");
        let first = entry.find("pf_n0_r0(").unwrap();
        assert!(first < entry.find("pf_n1_r0(").unwrap(), "{entry}");
    }

    /// A 1-D module over `r`, `u` (slots 0, 1) from explicit statements.
    fn module_1d(body: Vec<perforad_core::Statement>, cse: bool) -> Result<String, String> {
        module_1d_in(body, cse, false)
    }

    /// [`module_1d`], in plain or accumulate mode.
    fn module_1d_in(
        body: Vec<perforad_core::Statement>,
        cse: bool,
        accumulate: bool,
    ) -> Result<String, String> {
        let i = Symbol::new("i");
        let nests = [LoopNest::new(
            vec![i],
            vec![perforad_core::Bound::new(2, 20)],
            body,
        )];
        let arrays = [Symbol::new("r"), Symbol::new("u")];
        let (sizes, params) = (BTreeMap::new(), BTreeMap::new());
        let spec = jit_spec_1d(&arrays, &sizes, &params, &nests, &[24], &[1], false);
        jit_group_module(&JitGroupSpec {
            cse,
            accumulate,
            ..spec
        })
    }

    #[test]
    fn jit_cse_temporaries_of_one_body_do_not_collide() {
        use perforad_core::Statement;
        use perforad_symbolic::Access;
        let i = Symbol::new("i");
        let u = Array::new("u");
        let shared = |o: i64| (u.at(vec![&i + o]) * u.at(ix![&i])).sin();
        let code = module_1d(
            vec![
                Statement::add_assign(Access::new("r", ix![&i]), shared(-1) * shared(-1).cos()),
                Statement::add_assign(Access::new("r", ix![&i]), shared(1) + shared(1).cos()),
            ],
            true,
        )
        .unwrap();
        // One body, one temporary per statement, each used by its own.
        assert_eq!(code.matches("for __x in").count(), 1, "{code}");
        assert_eq!(code.matches("let __cse0_0: f64 = ").count(), 1, "{code}");
        assert_eq!(code.matches("let __cse0_1: f64 = ").count(), 1, "{code}");
        assert_eq!(code.matches("let __cse").count(), 2, "{code}");
        assert!(
            code.contains("__w0 += (__cse0_1 + __cse0_1.cos());"),
            "{code}"
        );
    }

    #[test]
    fn jit_assign_then_add_assign_emits_no_load_of_the_target() {
        use perforad_core::Statement;
        use perforad_symbolic::Access;
        let i = Symbol::new("i");
        let u = Array::new("u");
        let code = module_1d(
            vec![
                Statement::assign(Access::new("r", ix![&i]), u.at(ix![&i - 1])),
                Statement::add_assign(Access::new("r", ix![&i]), u.at(ix![&i + 1])),
            ],
            false,
        )
        .unwrap();
        assert_eq!(code.matches("for __x in").count(), 1, "{code}");
        assert!(
            code.contains("let mut __w0: f64 = (*__a1.offset(__i + (-1)));"),
            "{code}"
        );
        assert!(
            code.contains("__w0 += (*__a1.offset(__i + (1)));"),
            "{code}"
        );
        // The row body's only mention of the target is its one store.
        let row = row_bodies(&code)[0].1;
        assert_eq!(row.matches("__o0.").count(), 1, "{row}");
        assert!(
            row.contains("*__o0.get_unchecked_mut(__x) = __w0;"),
            "{row}"
        );
        // Rank 1: no outer loop, one call over the clamped row.
        assert!(code.contains("let __i0 = (__l0) as isize;"), "{code}");
        assert_eq!(code.matches("for __c").count(), 0, "{code}");
    }

    /// Accumulate mode: the run's accumulator starts from `0.0` and is
    /// added to the target once; an array whose increments span two runs,
    /// or mix with `=`, is refused rather than summed twice.
    #[test]
    fn jit_accumulate_sums_from_zero_and_adds_once_per_run() {
        use perforad_core::{Bound, Guard, Statement};
        use perforad_symbolic::Access;
        let i = Symbol::new("i");
        let u = Array::new("u");
        let add = |o: i64| Statement::add_assign(Access::new("r", ix![&i]), u.at(vec![&i + o]));
        let code = module_1d_in(vec![add(-1), add(1)], false, true).unwrap();
        let row = row_bodies(&code)[0].1;
        assert!(
            row.contains("let mut __w0: f64 = 0.0; __w0 += (*__a1.offset(__i + (-1)));"),
            "{row}"
        );
        assert!(row.contains("__w0 += (*__a1.offset(__i + (1)));"), "{row}");
        assert!(
            row.contains("*__o0.get_unchecked_mut(__x) += __w0;"),
            "{row}"
        );
        assert_eq!(row.matches("__o0.").count(), 1, "{row}");

        let guarded = add(1).with_guard(Guard {
            ranges: vec![(i.clone(), Bound::new(3, 9))],
        });
        let err = module_1d_in(vec![add(-1), guarded.clone()], false, true).unwrap_err();
        assert!(err.contains("spans two runs"), "{err}");
        // Plain mode keeps the two runs.
        assert!(module_1d(vec![add(-1), guarded], false).is_ok());
        let set = Statement::assign(Access::new("r", ix![&i]), u.at(ix![&i]));
        let err = module_1d_in(vec![set, add(1)], false, true).unwrap_err();
        assert!(err.contains("mixes `=` and `+=`"), "{err}");
    }

    #[test]
    fn jit_writes_to_one_array_at_different_offsets_are_not_fused() {
        use perforad_core::Statement;
        use perforad_symbolic::Access;
        let i = Symbol::new("i");
        let u = Array::new("u");
        let code = module_1d(
            vec![
                Statement::add_assign(Access::new("r", ix![&i - 1]), u.at(ix![&i])),
                Statement::add_assign(Access::new("r", ix![&i + 1]), u.at(ix![&i])),
            ],
            false,
        )
        .unwrap();
        // Two runs, two row bodies, called in source order — each with the
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

    #[test]
    fn jit_rejects_what_the_aliasing_contract_cannot_cover() {
        use perforad_core::Statement;
        use perforad_symbolic::Access;
        let i = Symbol::new("i");
        let (r, u) = (Array::new("r"), Array::new("u"));
        // A nest that reads an array it writes, even in another statement.
        let err = module_1d(
            vec![
                Statement::add_assign(Access::new("r", ix![&i]), u.at(ix![&i])),
                Statement::add_assign(Access::new("u", ix![&i]), r.at(ix![&i - 1])),
            ],
            false,
        )
        .unwrap_err();
        assert!(err.contains("also writes"), "{err}");
        // A layout whose innermost stride is not 1: a row is not a slice.
        let nests = [paper_1d()];
        let arrays = [Symbol::new("c"), Symbol::new("r"), Symbol::new("u")];
        let sizes = BTreeMap::from([(Symbol::new("n"), 32i64)]);
        let params = BTreeMap::new();
        let spec = jit_spec_1d(&arrays, &sizes, &params, &nests, &[33], &[2], false);
        let err = jit_group_module(&spec).unwrap_err();
        assert!(err.contains("innermost stride"), "{err}");
    }

    #[test]
    fn jit_rejects_unbound_parameters() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i]),
            Expr::sym(Symbol::new("D")) * u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(0), Idx::constant(7))],
        )
        .unwrap();
        let nests = [nest];
        let arrays = [Symbol::new("r"), Symbol::new("u")];
        let sizes = std::collections::BTreeMap::new();
        let params = std::collections::BTreeMap::new(); // D missing
        let dims = [8usize];
        let strides = [1usize];
        let spec = jit_spec_1d(&arrays, &sizes, &params, &nests, &dims, &strides, false);
        let err = jit_group_module(&spec).unwrap_err();
        assert!(err.contains("unbound parameter"), "{err}");
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
