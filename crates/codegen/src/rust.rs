//! Rust back-end: generates compilable, chunk-parallelisable kernels.
//!
//! This is the "new back-ends are easy to add" design point of PerforAD
//! (§3.1). [`print_module`] prints a standalone module that rustc
//! compiles at full optimisation — the role the Intel C compiler plays in
//! the paper's setup; `tests/jit.rs` compiles the wave and Burgers
//! modules and holds them to the executors.
//!
//! Each nest becomes `fn {name}_nest{k}(lo0, hi0, sizes…, params…, outs…,
//! ins…, dims)`, taking the outermost counter range as arguments so a
//! harness can chunk it across threads; `{name}` runs every nest serially.

use perforad_core::{AssignOp, LoopNest};
use perforad_symbolic::{Expr, Func, Idx, Node, Number, Symbol};
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
fn r_expr(e: &Expr) -> String {
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
fn r_nest_fn(name: &str, nest: &LoopNest) -> String {
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
}
