//! C back-end with OpenMP pragmas — PerforAD's `printfunction` equivalent.
//!
//! Generates listings in the style of Fig. 5 and Fig. 7 of the paper:
//! gather nests get `#pragma omp parallel for`, scatter nests can be
//! emitted with `#pragma omp atomic` safeguards (the manually parallelised
//! Tapenade baseline), `max`/`min` become `fmax`/`fmin`, and piecewise
//! derivatives print as ternary operators.

use perforad_core::{AssignOp, LoopNest};
use perforad_symbolic::{Expr, Func, Idx, Node, Number, Rel};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Options for the C printer.
#[derive(Clone, Debug)]
pub struct COptions {
    /// Emit `#pragma omp parallel for` on gather nests.
    pub openmp: bool,
    /// Emit `#pragma omp atomic` before scatter increments (when false,
    /// scatter nests are emitted serial, like raw Tapenade output).
    pub atomics: bool,
    /// Floating-point C type.
    pub scalar_type: &'static str,
}

impl Default for COptions {
    fn default() -> Self {
        COptions {
            openmp: true,
            atomics: false,
            scalar_type: "double",
        }
    }
}

fn c_idx(ix: &Idx) -> String {
    format!("{ix}")
}

fn c_number(n: &Number) -> String {
    match n {
        Number::Int(i) => format!("{i}"),
        Number::Rat(r) => format!("({}.0/{}.0)", r.numer(), r.denom()),
        Number::Float(x) => {
            if x.fract() == 0.0 && x.abs() < 1e15 {
                format!("{x:.1}")
            } else {
                format!("{x}")
            }
        }
    }
}

#[derive(PartialEq, PartialOrd, Clone, Copy)]
enum Prec {
    Add,
    Mul,
    Unary,
    Atom,
}

/// Render an expression as C.
pub fn c_expr(e: &Expr) -> String {
    let mut s = String::new();
    write_expr(&mut s, e, Prec::Add);
    s
}

fn write_expr(out: &mut String, e: &Expr, ctx: Prec) {
    match e.node() {
        Node::Num(n) => {
            let txt = c_number(n);
            if n.to_f64() < 0.0 && ctx > Prec::Add {
                let _ = write!(out, "({txt})");
            } else {
                out.push_str(&txt);
            }
        }
        Node::Sym(s) => out.push_str(s.name()),
        Node::Access(a) => {
            out.push_str(a.array.name());
            for ix in a.indices.iter() {
                let _ = write!(out, "[{}]", c_idx(ix));
            }
        }
        Node::Add(ts) => {
            let paren = ctx > Prec::Add;
            if paren {
                out.push('(');
            }
            for (k, t) in ts.iter().enumerate() {
                if k == 0 {
                    write_expr(out, t, Prec::Add);
                    continue;
                }
                if let Some((mag, rest)) = negated_view(t) {
                    out.push_str(" - ");
                    match rest {
                        Some(r) => {
                            if !mag.is_one() {
                                let _ = write!(out, "{}*", c_number(&mag));
                            }
                            write_expr(out, &r, Prec::Mul);
                        }
                        None => out.push_str(&c_number(&mag)),
                    }
                } else {
                    out.push_str(" + ");
                    write_expr(out, t, Prec::Add);
                }
            }
            if paren {
                out.push(')');
            }
        }
        Node::Mul(fs) => {
            let paren = ctx > Prec::Mul;
            if paren {
                out.push('(');
            }
            // Separate numerator and denominator (negative powers).
            let mut num: Vec<Expr> = Vec::new();
            let mut den: Vec<Expr> = Vec::new();
            let mut negate = false;
            for (k, f) in fs.iter().enumerate() {
                if k == 0 {
                    if let Node::Num(n) = f.node() {
                        if n.to_f64() < 0.0 {
                            negate = true;
                            let mag = n.neg();
                            if !mag.is_one() {
                                num.push(Expr::num(mag));
                            }
                            continue;
                        }
                    }
                }
                if let Node::Pow(b, x) = f.node() {
                    if let Some(k) = x.as_int() {
                        if k < 0 {
                            den.push(b.clone().powi(-k));
                            continue;
                        }
                    }
                }
                num.push(f.clone());
            }
            if negate {
                out.push('-');
            }
            if num.is_empty() {
                out.push_str("1.0");
            }
            for (k, f) in num.iter().enumerate() {
                if k > 0 {
                    out.push('*');
                }
                write_expr(out, f, Prec::Unary);
            }
            for d in &den {
                out.push('/');
                write_expr(out, d, Prec::Unary);
            }
            if paren {
                out.push(')');
            }
        }
        Node::Pow(b, x) => match x.as_int() {
            Some(-1) => {
                out.push_str("(1.0/");
                write_expr(out, b, Prec::Atom);
                out.push(')');
            }
            Some(k) if k >= 0 => {
                let _ = write!(out, "pow({}, {k})", c_expr(b));
            }
            Some(k) => {
                let _ = write!(out, "(1.0/pow({}, {}))", c_expr(b), -k);
            }
            None => {
                let _ = write!(out, "pow({}, {})", c_expr(b), c_expr(x));
            }
        },
        Node::Call(f, args) => {
            let name = match f {
                Func::Sin => "sin",
                Func::Cos => "cos",
                Func::Tan => "tan",
                Func::Exp => "exp",
                Func::Ln => "log",
                Func::Sqrt => "sqrt",
                Func::Abs => "fabs",
                Func::Sign => {
                    // no libm sign; emit a nested ternary
                    let x = c_expr(&args[0]);
                    let _ = write!(out, "(({x}) > 0.0 ? 1.0 : (({x}) < 0.0 ? -1.0 : 0.0))");
                    return;
                }
                Func::Tanh => "tanh",
                Func::Max => "fmax",
                Func::Min => "fmin",
            };
            let _ = write!(out, "{name}(");
            for (k, a) in args.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, Prec::Add);
            }
            out.push(')');
        }
        Node::Select(c, a, b) => {
            let _ = write!(
                out,
                "(({} {} {}) ? {} : {})",
                c_expr(&c.lhs),
                c_rel(c.rel),
                c_expr(&c.rhs),
                c_expr(a),
                c_expr(b)
            );
        }
        Node::UFun(app) => {
            let _ = write!(out, "{}(", app.name);
            for (k, a) in app.args.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, Prec::Add);
            }
            out.push(')');
        }
        Node::UDeriv(app, wrt) => {
            let _ = write!(out, "{}_d{}(", app.name, app.params[*wrt]);
            for (k, a) in app.args.iter().enumerate() {
                if k > 0 {
                    out.push_str(", ");
                }
                write_expr(out, a, Prec::Add);
            }
            out.push(')');
        }
    }
}

fn c_rel(r: Rel) -> &'static str {
    r.symbol()
}

fn negated_view(t: &Expr) -> Option<(Number, Option<Expr>)> {
    match t.node() {
        Node::Num(n) if n.to_f64() < 0.0 => Some((n.neg(), None)),
        Node::Mul(fs) => {
            if let Node::Num(n) = fs[0].node() {
                if n.to_f64() < 0.0 {
                    let rest: Vec<Expr> = fs[1..].to_vec();
                    let rest = if rest.len() == 1 {
                        rest.into_iter().next().unwrap()
                    } else {
                        Expr::mul_all(rest)
                    };
                    return Some((n.neg(), Some(rest)));
                }
            }
            None
        }
        _ => None,
    }
}

/// Emit one loop nest as C.
pub fn c_nest(nest: &LoopNest, opts: &COptions, indent: usize) -> String {
    let mut out = String::new();
    let pad = |d: usize| "    ".repeat(d);
    let gather = nest.is_gather();
    if opts.openmp && gather {
        let privates: Vec<&str> = nest.counters.iter().map(|c| c.name()).collect();
        let _ = writeln!(
            out,
            "{}#pragma omp parallel for private({})",
            pad(indent),
            privates.join(",")
        );
    } else if opts.openmp && opts.atomics {
        let privates: Vec<&str> = nest.counters.iter().map(|c| c.name()).collect();
        let _ = writeln!(
            out,
            "{}#pragma omp parallel for private({})",
            pad(indent),
            privates.join(",")
        );
    }
    for (d, (c, b)) in nest.counters.iter().zip(&nest.bounds).enumerate() {
        let _ = writeln!(
            out,
            "{}for ( {c} = {}; {c} <= {}; {c}++ ) {{",
            pad(indent + d),
            c_idx(&b.lo),
            c_idx(&b.hi)
        );
    }
    let body_pad = pad(indent + nest.counters.len());
    for s in &nest.body {
        let mut line = String::new();
        if let Some(g) = &s.guard {
            let conds: Vec<String> = g
                .ranges
                .iter()
                .map(|(c, b)| format!("{} <= {c} && {c} <= {}", c_idx(&b.lo), c_idx(&b.hi)))
                .collect();
            let _ = writeln!(out, "{body_pad}if ({}) {{", conds.join(" && "));
            line.push_str("    ");
        }
        if !gather && s.op == AssignOp::AddAssign && opts.atomics {
            let _ = writeln!(out, "{body_pad}{line}#pragma omp atomic");
        }
        let op = match s.op {
            AssignOp::Assign => "=",
            AssignOp::AddAssign => "+=",
        };
        let mut lhs = s.lhs.array.name().to_string();
        for ix in s.lhs.indices.iter() {
            let _ = write!(lhs, "[{}]", c_idx(ix));
        }
        let _ = writeln!(out, "{body_pad}{line}{lhs} {op} {};", c_expr(&s.rhs));
        if s.guard.is_some() {
            let _ = writeln!(out, "{body_pad}}}");
        }
    }
    for d in (0..nest.counters.len()).rev() {
        let _ = writeln!(out, "{}}}", pad(indent + d));
    }
    out
}

/// Emit a complete C function around a list of loop nests — PerforAD's
/// `printfunction(name=…, loopnestlist=…)`.
pub fn print_function(name: &str, nests: &[LoopNest], opts: &COptions) -> String {
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
    // Arrays written take precedence over reads in the signature.
    for o in &outputs {
        inputs.remove(o);
    }
    let stars = "*".repeat(rank);
    let mut args: Vec<String> = Vec::new();
    for a in outputs.iter().chain(inputs.iter()) {
        args.push(format!("{} {}{}", opts.scalar_type, stars, a.name()));
    }
    for p in &params {
        args.push(format!("{} {}", opts.scalar_type, p.name()));
    }
    for s in &sizes {
        args.push(format!("int {}", s.name()));
    }

    let mut out = String::new();
    let _ = writeln!(out, "void {name}({}) {{", args.join(", "));
    let counters: BTreeSet<&str> = nests
        .iter()
        .flat_map(|n| n.counters.iter().map(|c| c.name()))
        .collect();
    let _ = writeln!(
        out,
        "    int {};",
        counters.into_iter().collect::<Vec<_>>().join(", ")
    );
    for nest in nests {
        let _ = writeln!(out);
        out.push_str(&c_nest(nest, opts, 1));
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
    use perforad_symbolic::{ix, Array, Symbol};

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
        let e = 2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]);
        assert_eq!(c_expr(&e), "2.0*u[i - 1] - 3.0*u[i]");
        let e = u.at(ix![&i]).max(Expr::zero());
        assert_eq!(c_expr(&e), "fmax(u[i], 0)");
        let e = Expr::one() / u.at(ix![&i]);
        assert_eq!(c_expr(&e), "(1.0/u[i])");
    }

    #[test]
    fn primal_nest_has_omp_pragma() {
        let code = c_nest(&paper_1d(), &COptions::default(), 0);
        assert!(
            code.contains("#pragma omp parallel for private(i)"),
            "{code}"
        );
        assert!(code.contains("for ( i = 1; i <= n - 1; i++ ) {"), "{code}");
        assert!(
            code.contains("r[i] = c[i]*(2.0*u[i - 1] - 3.0*u[i] + 4.0*u[i + 1]);"),
            "{code}"
        );
    }

    #[test]
    fn adjoint_core_loop_matches_paper_shape() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_1d()
            .adjoint(&act, &AdjointOptions::default().merged())
            .unwrap();
        let core = adj.core_nest().unwrap();
        let code = c_nest(core, &COptions::default(), 0);
        // §3.2 final loop: ub[j] += 4 c[j-1] rb[j-1] - 3 c[j] rb[j] + 2 c[j+1] rb[j+1]
        assert!(
            code.contains(
                "u_b[i] += 4.0*c[i - 1]*r_b[i - 1] - 3.0*c[i]*r_b[i] + 2.0*c[i + 1]*r_b[i + 1];"
            ),
            "{code}"
        );
    }

    #[test]
    fn scatter_with_atomics_emits_pragma() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let sc = paper_1d().scatter_adjoint(&act).unwrap();
        let opts = COptions {
            atomics: true,
            ..Default::default()
        };
        let code = c_nest(&sc, &opts, 0);
        assert!(code.contains("#pragma omp atomic"), "{code}");
    }

    #[test]
    fn function_signature_contains_arrays_params_sizes() {
        let code = print_function("stencil1d", &[paper_1d()], &COptions::default());
        assert!(
            code.starts_with("void stencil1d(double *r, double *c, double *u, int n) {"),
            "{code}"
        );
        assert!(code.contains("int i;"), "{code}");
    }

    #[test]
    fn select_prints_ternary_like_figure_7() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let acc = match u.at(ix![&i]).node() {
            Node::Access(a) => a.clone(),
            _ => unreachable!(),
        };
        let e = u.at(ix![&i]).max(Expr::zero());
        let d = perforad_symbolic::diff(&e, &perforad_symbolic::DiffVar::Access(acc)).unwrap();
        assert_eq!(c_expr(&d), "((u[i] >= 0) ? 1 : 0)");
    }
}
