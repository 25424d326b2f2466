//! Canonicalising smart constructors and the recursive simplifier.
//!
//! The canonical form is deliberately conservative — the goal is the subset
//! of SymPy that PerforAD exercises, with deterministic output:
//!
//! * `Add`/`Mul` are flattened, n-ary, and sorted by a total order;
//! * numeric constants are folded (exactly where possible) and identical
//!   terms/factors are collected (`x + x → 2*x`, `x*x → x^2`);
//! * `0`/`1` identities are applied; `Select` with equal branches or a
//!   constant-decidable condition collapses.
//!
//! Products are *not* auto-expanded; use [`expand`] where distribution is
//! wanted (e.g. before merging adjoint statements).

use crate::expr::{cmp_product, cmp_slices, Cond, Expr, Func, Node};
use crate::number::Number;
use std::cmp::Ordering;

/// Canonical n-ary sum.
pub fn add_vec(terms: Vec<Expr>) -> Expr {
    let mut num = Number::zero();
    let flat = terms.iter().map(|t| match t.node() {
        Node::Add(inner) => inner.len(),
        _ => 1,
    });
    let mut coeffs: Vec<(Split, Number)> = Vec::with_capacity(flat.sum());
    for t in &terms {
        collect_term(t, &mut num, &mut coeffs);
    }
    // Terms are emitted in order of their *residual* (coefficient
    // stripped), with the numeric constant last — the readable, SymPy-like
    // order. This is deterministic, which is all canonical form requires.
    let kept = coeffs.iter().filter(|(_, c)| !c.is_zero()).count();
    let with_num = !num.is_zero() || kept == 0;
    if kept + with_num as usize == 1 {
        // A sum of one term is a node of its own, never a term it was
        // given with the same coefficient.
        return match coeffs.into_iter().find(|(_, c)| !c.is_zero()) {
            Some((split, c)) => split.with_coeff(c, false),
            None => Expr::num(num),
        };
    }
    let mut out: Vec<Expr> = Vec::with_capacity(kept + with_num as usize);
    for (split, c) in coeffs {
        if !c.is_zero() {
            out.push(split.with_coeff(c, true));
        }
    }
    if with_num {
        out.push(Expr::num(num));
    }
    Expr::raw(Node::Add(out))
}

/// Fold `t` into a sum: a nested sum term by term, a number into `num`,
/// anything else into the sorted coefficient list by its residual.
fn collect_term(t: &Expr, num: &mut Number, coeffs: &mut Vec<(Split, Number)>) {
    match t.node() {
        Node::Add(inner) => {
            for t in inner {
                collect_term(t, num, coeffs);
            }
        }
        Node::Num(n) => *num = num.add(*n),
        _ => {
            let (c, split) = Split::new(t);
            match coeffs.binary_search_by(|(s, _)| s.cmp(&split)) {
                Ok(k) => coeffs[k].1 = coeffs[k].1.add(c),
                Err(k) => coeffs.insert(k, (split, Number::zero().add(c))),
            }
        }
    }
}

/// A canonical term split into a numeric coefficient and a residual
/// without building the residual: `term` is the first term met with that
/// residual, a product led by its coefficient when `led` is set (the
/// residual is its other factors), else its own residual.
struct Split {
    term: Expr,
    lead: Option<Number>,
}

impl Split {
    fn new(term: &Expr) -> (Number, Split) {
        let lead = match term.node() {
            Node::Mul(fs) => fs[0].as_num(),
            _ => None,
        };
        let split = Split {
            term: term.clone(),
            lead,
        };
        (lead.unwrap_or(Number::one()), split)
    }

    /// The residual: `Ok` with its factors when it is a product of two or
    /// more, else `Err` with the residual itself.
    fn view(&self) -> Result<&[Expr], &Expr> {
        match (self.lead, self.term.node()) {
            (Some(_), Node::Mul(fs)) if fs.len() > 2 => Ok(&fs[1..]),
            (Some(_), Node::Mul(fs)) => Err(&fs[1]),
            _ => Err(&self.term),
        }
    }

    /// The order of the residuals, as built expressions compare.
    fn cmp(&self, other: &Split) -> Ordering {
        match (self.view(), other.view()) {
            (Err(a), Err(b)) => a.cmp(b),
            (Ok(a), Ok(b)) => cmp_slices(a, b),
            (Ok(a), Err(b)) => cmp_product(a, b),
            (Err(a), Ok(b)) => cmp_product(b, a).reverse(),
        }
    }

    /// `c * residual` in canonical form; with `reuse`, the term itself
    /// when it already carries exactly `c`.
    fn with_coeff(self, c: Number, reuse: bool) -> Expr {
        if reuse && self.lead == Some(c) {
            return self.term;
        }
        let rest = match self.view() {
            Ok(fs) => fs,
            Err(e) if c.is_one() => return e.clone(),
            Err(e) => match e.node() {
                Node::Mul(fs) => fs,
                Node::Num(n) => return Expr::num(c.mul(*n)),
                _ => std::slice::from_ref(e),
            },
        };
        if c.is_one() {
            return Expr::raw(Node::Mul(rest.to_vec()));
        }
        let mut v = Vec::with_capacity(rest.len() + 1);
        v.push(Expr::num(c));
        v.extend(rest.iter().cloned());
        v.sort();
        Expr::raw(Node::Mul(v))
    }
}

/// Canonical n-ary product.
pub fn mul_vec(factors: Vec<Expr>) -> Expr {
    let mut num = Number::one();
    let mut bases: Vec<Base> = Vec::with_capacity(factors.len());
    for f in &factors {
        collect_factor(f, &mut num, &mut bases);
    }
    // A numeric factor met, whose node a product's coefficient may share.
    let met = factors.iter().find(|f| f.as_num().is_some());
    if num.is_zero() {
        return Expr::zero();
    }
    // Each base to its power, in the order first met; a number folds.
    bases.retain_mut(|b| {
        let e = match std::mem::take(&mut b.exps) {
            exps if exps.is_empty() => Expr::int(b.ones),
            exps => add_vec(exps),
        };
        let p = pow(b.base.clone(), e);
        match p.as_num() {
            Some(n) => {
                num = num.mul(n);
                false
            }
            None => {
                b.base = p;
                true
            }
        }
    });
    if bases.is_empty() {
        return Expr::num(num);
    }
    if bases.len() == 1 && num.is_one() {
        return bases.pop().expect("one power").base;
    }
    let mut out: Vec<Expr> = Vec::with_capacity(bases.len() + 1);
    out.extend(bases.into_iter().map(|b| b.base));
    if !num.is_one() {
        out.push(match met {
            Some(f) if f.as_num() == Some(num) => f.clone(),
            _ => Expr::num(num),
        });
    }
    out.sort();
    Expr::raw(Node::Mul(out))
}

/// A product's base and the exponents it was met with: `ones` unit
/// exponents while no other was met, else every exponent in order.
struct Base {
    base: Expr,
    ones: i64,
    exps: Vec<Expr>,
}

/// Fold `f` into a product: a nested product factor by factor, a number
/// into `num`, anything else as an exponent of its base.
fn collect_factor(f: &Expr, num: &mut Number, bases: &mut Vec<Base>) {
    let (base, exponent) = match f.node() {
        Node::Mul(inner) => {
            for f in inner {
                collect_factor(f, num, bases);
            }
            return;
        }
        Node::Num(n) => {
            *num = num.mul(*n);
            return;
        }
        Node::Pow(b, e) => (b, Some(e)),
        _ => (f, None),
    };
    let k = match bases
        .iter()
        .position(|b| b.base.cmp(base) == Ordering::Equal)
    {
        Some(k) => k,
        None => {
            bases.push(Base {
                base: base.clone(),
                ones: 0,
                exps: Vec::new(),
            });
            bases.len() - 1
        }
    };
    let b = &mut bases[k];
    match exponent {
        None if b.exps.is_empty() => b.ones += 1,
        None => b.exps.push(Expr::one()),
        Some(e) => {
            if b.exps.is_empty() {
                b.exps = vec![Expr::one(); b.ones as usize];
            }
            b.exps.push(e.clone());
        }
    }
}

/// Canonical power.
pub fn pow(base: Expr, exponent: Expr) -> Expr {
    if exponent.is_zero() {
        // Convention x^0 = 1 (also 0^0 = 1, as in SymPy's generated code paths).
        return Expr::one();
    }
    if exponent.is_one() {
        return base;
    }
    if base.is_one() {
        return Expr::one();
    }
    if base.is_zero() {
        if let Some(n) = exponent.as_num() {
            if n.to_f64() > 0.0 {
                return Expr::zero();
            }
        }
        return Expr::raw(Node::Pow(base, exponent));
    }
    if let (Some(b), Some(e)) = (base.as_num(), exponent.as_num()) {
        if let Some(k) = e.as_int() {
            if k.abs() <= 64 {
                return Expr::num(b.powi(k));
            }
        }
        if !b.is_exact() || !e.is_exact() {
            return Expr::float(b.to_f64().powf(e.to_f64()));
        }
    }
    if let Some(k) = exponent.as_int() {
        match base.node() {
            // (b^m)^k = b^(m k) for integer m, k.
            Node::Pow(b2, e2) => {
                if let Some(m) = e2.as_int() {
                    return pow(b2.clone(), Expr::int(m * k));
                }
            }
            // (a b)^k = a^k b^k for integer k.
            Node::Mul(fs) => {
                let parts: Vec<Expr> = fs.iter().map(|f| pow(f.clone(), Expr::int(k))).collect();
                return mul_vec(parts);
            }
            _ => {}
        }
    }
    Expr::raw(Node::Pow(base, exponent))
}

/// Canonical elementary function application.
pub fn call(f: Func, args: Vec<Expr>) -> Expr {
    assert_eq!(args.len(), f.arity(), "arity mismatch for {}", f.name());
    // Exact folds for the order-based functions.
    match f {
        Func::Abs => {
            if let Some(n) = args[0].as_num() {
                return Expr::num(if n.to_f64() < 0.0 { n.neg() } else { n });
            }
        }
        Func::Sign => {
            if let Some(n) = args[0].as_num() {
                let v = n.to_f64();
                return Expr::int(if v > 0.0 {
                    1
                } else if v < 0.0 {
                    -1
                } else {
                    0
                });
            }
        }
        Func::Max | Func::Min => {
            if args[0] == args[1] {
                return args[0].clone();
            }
            if let (Some(a), Some(b)) = (args[0].as_num(), args[1].as_num()) {
                let take_first = match f {
                    Func::Max => a.to_f64() >= b.to_f64(),
                    _ => a.to_f64() <= b.to_f64(),
                };
                return Expr::num(if take_first { a } else { b });
            }
        }
        _ => {}
    }
    // Special exact values at 0/1 and float folding for unary functions.
    if f.arity() == 1 {
        if let Some(n) = args[0].as_num() {
            let x = n.to_f64();
            if n.is_exact() {
                #[allow(clippy::redundant_guards)] // float literal patterns are forbidden
                match (f, x) {
                    (Func::Sin | Func::Tan | Func::Tanh | Func::Sqrt, v) if v == 0.0 => {
                        return Expr::zero()
                    }
                    (Func::Cos | Func::Exp, v) if v == 0.0 => return Expr::one(),
                    (Func::Ln | Func::Sqrt, v) if v == 1.0 => {
                        return if f == Func::Ln {
                            Expr::zero()
                        } else {
                            Expr::one()
                        }
                    }
                    _ => {}
                }
            } else {
                let v = match f {
                    Func::Sin => x.sin(),
                    Func::Cos => x.cos(),
                    Func::Tan => x.tan(),
                    Func::Exp => x.exp(),
                    Func::Ln => x.ln(),
                    Func::Sqrt => x.sqrt(),
                    Func::Abs => x.abs(),
                    Func::Sign => {
                        if x > 0.0 {
                            1.0
                        } else if x < 0.0 {
                            -1.0
                        } else {
                            0.0
                        }
                    }
                    Func::Tanh => x.tanh(),
                    Func::Max | Func::Min => unreachable!(),
                };
                return Expr::float(v);
            }
        }
    }
    Expr::raw(Node::Call(f, args))
}

/// Canonical ternary select.
pub fn select(c: Cond, then: Expr, els: Expr) -> Expr {
    if then == els {
        return then;
    }
    if let (Some(a), Some(b)) = (c.lhs.as_num(), c.rhs.as_num()) {
        return if c.rel.holds(a.to_f64(), b.to_f64()) {
            then
        } else {
            els
        };
    }
    Expr::raw(Node::Select(c, then, els))
}

/// Recursively re-canonicalise an expression (useful after substitution).
pub fn simplify(e: &Expr) -> Expr {
    match e.node() {
        Node::Num(_) | Node::Sym(_) | Node::Access(_) => e.clone(),
        Node::Add(ts) => add_vec(ts.iter().map(simplify).collect()),
        Node::Mul(fs) => mul_vec(fs.iter().map(simplify).collect()),
        Node::Pow(b, x) => pow(simplify(b), simplify(x)),
        Node::Call(f, args) => call(*f, args.iter().map(simplify).collect()),
        Node::Select(c, a, b) => select(
            Cond::new(simplify(&c.lhs), c.rel, simplify(&c.rhs)),
            simplify(a),
            simplify(b),
        ),
        Node::UFun(app) => {
            let mut app = app.clone();
            app.args = app.args.iter().map(simplify).collect();
            Expr::ufun(app)
        }
        Node::UDeriv(app, k) => {
            let mut app = app.clone();
            app.args = app.args.iter().map(simplify).collect();
            Expr::uderiv(app, *k)
        }
    }
}

/// Distribute products over sums (and small integer powers of sums).
pub fn expand(e: &Expr) -> Expr {
    match e.node() {
        Node::Num(_) | Node::Sym(_) | Node::Access(_) => e.clone(),
        Node::Add(ts) => add_vec(ts.iter().map(expand).collect()),
        Node::Mul(fs) => {
            let fs: Vec<Expr> = fs.iter().map(expand).collect();
            // Cartesian distribution over Add factors.
            let mut sums: Vec<Vec<Expr>> = vec![vec![]];
            for f in fs {
                let choices: Vec<Expr> = match f.node() {
                    Node::Add(ts) => ts.clone(),
                    _ => vec![f.clone()],
                };
                if choices.len() == 1 {
                    for s in &mut sums {
                        s.push(choices[0].clone());
                    }
                } else {
                    let mut next = Vec::with_capacity(sums.len() * choices.len());
                    for s in &sums {
                        for c in &choices {
                            let mut s2 = s.clone();
                            s2.push(c.clone());
                            next.push(s2);
                        }
                    }
                    sums = next;
                }
            }
            add_vec(sums.into_iter().map(mul_vec).collect())
        }
        Node::Pow(b, x) => {
            let b = expand(b);
            let x = expand(x);
            if let (Node::Add(bs), Some(k)) = (b.node(), x.as_int()) {
                if (2..=4).contains(&k) {
                    // Distribute term lists directly; going through `mul_vec`
                    // would just re-collect the identical sums into a power.
                    let mut acc: Vec<Expr> = bs.clone();
                    for _ in 1..k {
                        let mut next = Vec::with_capacity(acc.len() * bs.len());
                        for t in &acc {
                            for s in bs {
                                next.push(mul_vec(vec![t.clone(), s.clone()]));
                            }
                        }
                        acc = next;
                    }
                    return add_vec(acc);
                }
            }
            pow(b, x)
        }
        Node::Call(f, args) => call(*f, args.iter().map(expand).collect()),
        Node::Select(c, a, b) => select(
            Cond::new(expand(&c.lhs), c.rel, expand(&c.rhs)),
            expand(a),
            expand(b),
        ),
        Node::UFun(_) | Node::UDeriv(..) => simplify(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Array;
    use crate::ix;
    use crate::symbol::Symbol;

    /// The sum and product constructors as they were while every
    /// coefficient split built its residual and every collection was a
    /// `BTreeMap`: the reference the allocation-lean ones are held to.
    mod reference {
        use crate::expr::{Expr, Node};
        use crate::number::Number;
        use std::collections::BTreeMap;

        /// Canonical n-ary sum.
        pub(super) fn add_vec(terms: Vec<Expr>) -> Expr {
            let mut num = Number::zero();
            let mut coeffs: BTreeMap<Expr, Number> = BTreeMap::new();
            let mut stack: Vec<Expr> = terms;
            stack.reverse();
            while let Some(t) = stack.pop() {
                match t.node() {
                    Node::Add(inner) => stack.extend(inner.iter().rev().cloned()),
                    Node::Num(n) => num = num.add(*n),
                    _ => {
                        let (c, rest) = split_coeff(&t);
                        let e = coeffs.entry(rest).or_insert(Number::zero());
                        *e = e.add(c);
                    }
                }
            }
            // Terms are emitted in BTreeMap order of their *residual* (coefficient
            // stripped), with the numeric constant last — the readable, SymPy-like
            // order. This is deterministic, which is all canonical form requires.
            let mut out: Vec<Expr> = Vec::with_capacity(coeffs.len() + 1);
            for (rest, c) in coeffs {
                if c.is_zero() {
                    continue;
                }
                out.push(apply_coeff(c, rest));
            }
            if !num.is_zero() || out.is_empty() {
                out.push(Expr::num(num));
            }
            match out.len() {
                0 => Expr::zero(),
                1 => out.pop().unwrap(),
                _ => Expr::raw(Node::Add(out)),
            }
        }

        /// Canonical n-ary product.
        pub(super) fn mul_vec(factors: Vec<Expr>) -> Expr {
            let mut num = Number::one();
            // base -> accumulated exponent terms
            let mut powers: BTreeMap<Expr, Vec<Expr>> = BTreeMap::new();
            let mut order: Vec<Expr> = Vec::new(); // insertion order of bases (for stability pre-sort)
            let mut stack: Vec<Expr> = factors;
            stack.reverse();
            while let Some(f) = stack.pop() {
                match f.node() {
                    Node::Mul(inner) => stack.extend(inner.iter().rev().cloned()),
                    Node::Num(n) => num = num.mul(*n),
                    Node::Pow(b, e) => {
                        if !powers.contains_key(b) {
                            order.push(b.clone());
                        }
                        powers.entry(b.clone()).or_default().push(e.clone());
                    }
                    _ => {
                        if !powers.contains_key(&f) {
                            order.push(f.clone());
                        }
                        powers.entry(f.clone()).or_default().push(Expr::one());
                    }
                }
            }
            if num.is_zero() {
                return Expr::zero();
            }
            let mut out: Vec<Expr> = Vec::with_capacity(order.len() + 1);
            for base in order {
                let exps = powers.remove(&base).unwrap();
                let e = add_vec(exps);
                let p = super::pow(base, e);
                match p.node() {
                    Node::Num(n) => num = num.mul(*n),
                    _ => out.push(p),
                }
            }
            if out.is_empty() {
                return Expr::num(num);
            }
            if !num.is_one() {
                out.push(Expr::num(num));
            }
            match out.len() {
                1 => out.pop().unwrap(),
                _ => {
                    out.sort();
                    Expr::raw(Node::Mul(out))
                }
            }
        }

        /// Split a canonical term into `(numeric coefficient, residual factor)`.
        fn split_coeff(t: &Expr) -> (Number, Expr) {
            match t.node() {
                Node::Num(n) => (*n, Expr::one()),
                Node::Mul(fs) => {
                    if let Node::Num(n) = fs[0].node() {
                        let rest: Vec<Expr> = fs[1..].to_vec();
                        let rest = if rest.len() == 1 {
                            rest.into_iter().next().unwrap()
                        } else {
                            Expr::raw(Node::Mul(rest))
                        };
                        (*n, rest)
                    } else {
                        (Number::one(), t.clone())
                    }
                }
                _ => (Number::one(), t.clone()),
            }
        }

        /// Rebuild `coeff * rest` in canonical form.
        fn apply_coeff(c: Number, rest: Expr) -> Expr {
            if c.is_one() {
                return rest;
            }
            match rest.node() {
                Node::Mul(fs) => {
                    let mut v = Vec::with_capacity(fs.len() + 1);
                    v.push(Expr::num(c));
                    v.extend(fs.iter().cloned());
                    v.sort();
                    Expr::raw(Node::Mul(v))
                }
                Node::Num(n) => Expr::num(c.mul(*n)),
                _ => {
                    let mut v = vec![Expr::num(c), rest];
                    v.sort();
                    Expr::raw(Node::Mul(v))
                }
            }
        }
    }

    fn u_at(off: i64) -> Expr {
        let i = Symbol::new("i");
        Array::new("u").at(ix![&i + off])
    }

    #[test]
    fn add_collects_like_terms() {
        let x = u_at(0);
        let e = Expr::add_all(vec![x.clone(), x.clone()]);
        assert_eq!(e, Expr::mul_all(vec![Expr::int(2), x]));
    }

    #[test]
    fn add_cancels_to_zero() {
        let x = u_at(1);
        let e = Expr::add_all(vec![x.clone(), Expr::mul_all(vec![Expr::int(-1), x])]);
        assert!(e.is_zero());
    }

    #[test]
    fn mul_collects_powers() {
        let x = u_at(0);
        let e = Expr::mul_all(vec![x.clone(), x.clone()]);
        assert_eq!(e, x.powi(2));
    }

    #[test]
    fn mul_zero_annihilates() {
        let x = u_at(0);
        assert!(Expr::mul_all(vec![Expr::zero(), x]).is_zero());
    }

    #[test]
    fn numeric_folding_is_exact() {
        let e = Expr::add_all(vec![Expr::rational(1, 3), Expr::rational(1, 6)]);
        assert_eq!(e, Expr::rational(1, 2));
        let e = Expr::mul_all(vec![Expr::int(2), Expr::rational(1, 2)]);
        assert!(e.is_one());
    }

    #[test]
    fn nested_sums_flatten() {
        let x = u_at(0);
        let y = u_at(1);
        let inner = Expr::add_all(vec![x.clone(), y.clone()]);
        let e = Expr::add_all(vec![inner, x.clone()]);
        // x appears twice -> coefficient 2
        let expected = Expr::add_all(vec![Expr::mul_all(vec![Expr::int(2), x]), y]);
        assert_eq!(e, expected);
    }

    #[test]
    fn pow_rules() {
        let x = u_at(0);
        assert!(x.clone().powi(0).is_one());
        assert_eq!(x.clone().powi(1), x);
        assert_eq!(x.clone().powi(2).powi(3), x.clone().powi(6));
        assert_eq!(Expr::int(2).powi(10), Expr::int(1024));
        assert_eq!(Expr::int(2).powi(-2), Expr::rational(1, 4));
    }

    #[test]
    fn call_folding() {
        assert!(Expr::zero().sin().is_zero());
        assert!(Expr::zero().exp().is_one());
        assert_eq!(Expr::float(2.0).max(Expr::float(3.0)), Expr::float(3.0));
        assert_eq!(Expr::int(-4).abs(), Expr::int(4));
        let x = u_at(0);
        assert_eq!(x.clone().max(x.clone()), x);
    }

    #[test]
    fn select_simplification() {
        let x = u_at(0);
        let y = u_at(1);
        let c = Cond::new(Expr::int(1), crate::expr::Rel::Ge, Expr::int(0));
        assert_eq!(select(c, x.clone(), y.clone()), x);
        let c2 = Cond::new(x.clone(), crate::expr::Rel::Ge, Expr::zero());
        assert_eq!(select(c2, y.clone(), y.clone()), y);
    }

    #[test]
    fn expand_distributes() {
        let x = u_at(0);
        let y = u_at(1);
        // 2*(x + y) -> 2x + 2y
        let e = Expr::mul_all(vec![
            Expr::int(2),
            Expr::add_all(vec![x.clone(), y.clone()]),
        ]);
        let ex = expand(&e);
        let expected = Expr::add_all(vec![
            Expr::mul_all(vec![Expr::int(2), x.clone()]),
            Expr::mul_all(vec![Expr::int(2), y.clone()]),
        ]);
        assert_eq!(ex, expected);
        // (x + y)^2 -> x^2 + 2xy + y^2
        let sq = expand(&Expr::add_all(vec![x.clone(), y.clone()]).powi(2));
        let expected = Expr::add_all(vec![
            x.clone().powi(2),
            Expr::mul_all(vec![Expr::int(2), x.clone(), y.clone()]),
            y.clone().powi(2),
        ]);
        assert_eq!(sq, expected);
    }

    #[test]
    fn canonical_order_is_deterministic() {
        let x = u_at(0);
        let y = u_at(1);
        let a = Expr::add_all(vec![x.clone(), y.clone()]);
        let b = Expr::add_all(vec![y, x]);
        assert_eq!(a, b);
    }

    #[test]
    fn simplify_is_idempotent() {
        let x = u_at(0);
        let e = Expr::add_all(vec![
            Expr::mul_all(vec![Expr::float(2.0), x.clone()]),
            x.clone().powi(2),
            Expr::int(3),
        ]);
        assert_eq!(simplify(&e), e);
        assert_eq!(simplify(&simplify(&e)), simplify(&e));
    }

    /// A random expression over integers, rationals, signed zeros and
    /// other floats, symbols and accesses, its sums and products built by
    /// `add` and `mul`.
    fn random_expr(
        rng: &mut u64,
        depth: u32,
        add: fn(Vec<Expr>) -> Expr,
        mul: fn(Vec<Expr>) -> Expr,
    ) -> Expr {
        let mut draw = |n: u64| {
            *rng ^= *rng << 13;
            *rng ^= *rng >> 7;
            *rng ^= *rng << 17;
            *rng % n
        };
        let kind = if depth == 0 { draw(5) } else { draw(9) };
        match kind {
            0 => Expr::int(draw(7) as i64 - 3),
            1 => Expr::float([0.5, -0.5, 0.0, -0.0, 1.0, 2.0, 0.25, -1.0][draw(8) as usize]),
            2 => Expr::rational(draw(3) as i64 + 1, draw(3) as i64 + 2),
            3 => Expr::sym(["x", "y"][draw(2) as usize]),
            4 => u_at(draw(3) as i64 - 1),
            5 | 6 => {
                let n = draw(4) + 1;
                let terms = (0..n).map(|_| random_expr(rng, depth - 1, add, mul));
                add(terms.collect())
            }
            7 => {
                let n = draw(4) + 1;
                let factors = (0..n).map(|_| random_expr(rng, depth - 1, add, mul));
                mul(factors.collect())
            }
            _ => {
                let (a, b) = (
                    random_expr(rng, depth - 1, add, mul),
                    random_expr(rng, depth - 1, add, mul),
                );
                add(vec![a, mul(vec![Expr::int(-1), b])])
            }
        }
    }

    #[test]
    fn sums_and_products_match_the_reference() {
        for seed in 1..3000u64 {
            let (mut a, mut b) = (seed * 0x9E37_79B9, seed * 0x9E37_79B9);
            let got = random_expr(&mut a, 3, add_vec, mul_vec);
            let want = random_expr(&mut b, 3, reference::add_vec, reference::mul_vec);
            assert_eq!(got, want, "seed {seed}");
            assert_eq!(got.to_string(), want.to_string(), "seed {seed}");
        }
    }

    #[test]
    fn small_integers_are_shared_and_floats_are_not() {
        let shared = |a: Expr, b: Expr| std::ptr::eq(a.node(), b.node());
        for i in -1..=2 {
            assert!(shared(Expr::int(i), Expr::int(i)), "{i}");
        }
        assert!(!shared(Expr::int(3), Expr::int(3)));
        assert!(!shared(Expr::float(1.0), Expr::float(1.0)));
        assert_ne!(Expr::float(0.0), Expr::float(-0.0));
        assert_ne!(Expr::int(0), Expr::float(0.0));
    }
}
