//! Substitution: index shifting, scalar binding, access replacement.
//!
//! The adjoint transformation's *shift* step (§3.3.2) replaces every loop
//! counter `c` by `c - o` inside a derivative expression; this module
//! implements that as affine substitution over the indices of every array
//! access (and over bare counter symbols, should they appear).

use crate::expr::{Access, Cond, Expr, Node};
use crate::idx::Idx;
use crate::symbol::Symbol;
use std::collections::BTreeMap;

/// Rebuild an expression applying `f` to each leaf access and `g` to each
/// leaf symbol, re-canonicalising on the way up.
fn rebuild(
    e: &Expr,
    on_access: &impl Fn(&Access) -> Expr,
    on_sym: &impl Fn(&Symbol) -> Expr,
) -> Expr {
    match e.node() {
        Node::Num(_) => e.clone(),
        Node::Sym(s) => on_sym(s),
        Node::Access(a) => on_access(a),
        Node::Add(ts) => Expr::add_all(ts.iter().map(|t| rebuild(t, on_access, on_sym)).collect()),
        Node::Mul(fs) => Expr::mul_all(fs.iter().map(|t| rebuild(t, on_access, on_sym)).collect()),
        Node::Pow(b, x) => rebuild(b, on_access, on_sym).pow(rebuild(x, on_access, on_sym)),
        Node::Call(f, args) => Expr::call(
            *f,
            args.iter().map(|t| rebuild(t, on_access, on_sym)).collect(),
        ),
        Node::Select(c, a, b) => Expr::select(
            Cond::new(
                rebuild(&c.lhs, on_access, on_sym),
                c.rel,
                rebuild(&c.rhs, on_access, on_sym),
            ),
            rebuild(a, on_access, on_sym),
            rebuild(b, on_access, on_sym),
        ),
        Node::UFun(app) => {
            let mut app = app.clone();
            app.args = app
                .args
                .iter()
                .map(|t| rebuild(t, on_access, on_sym))
                .collect();
            Expr::ufun(app)
        }
        Node::UDeriv(app, k) => {
            let mut app = app.clone();
            app.args = app
                .args
                .iter()
                .map(|t| rebuild(t, on_access, on_sym))
                .collect();
            Expr::uderiv(app, *k)
        }
    }
}

/// Convert an affine index expression into a scalar expression.
pub fn idx_to_expr(ix: &Idx) -> Expr {
    let mut terms: Vec<Expr> = ix
        .terms()
        .map(|(s, c)| Expr::int(c) * Expr::sym(s.clone()))
        .collect();
    if ix.offset() != 0 || terms.is_empty() {
        terms.push(Expr::int(ix.offset()));
    }
    Expr::add_all(terms)
}

/// Substitute affine expressions for symbols *inside array indices* (and for
/// bare occurrences of the same symbols in scalar position).
pub fn subst_idx(e: &Expr, map: &BTreeMap<Symbol, Idx>) -> Expr {
    rebuild(
        e,
        &|a| {
            let indices = a.indices.iter().map(|ix| ix.subst(map)).collect();
            Expr::access(Access::new(a.array.clone(), indices))
        },
        &|s| match map.get(s) {
            Some(rep) => idx_to_expr(rep),
            None => Expr::sym(s.clone()),
        },
    )
}

/// Shift counters by a constant vector: counter `counters[d] ↦ counters[d] + delta[d]`.
pub fn shift(e: &Expr, counters: &[Symbol], delta: &[i64]) -> Expr {
    assert_eq!(counters.len(), delta.len());
    let map: BTreeMap<Symbol, Idx> = counters
        .iter()
        .zip(delta)
        .map(|(c, &d)| (c.clone(), Idx::sym(c.clone()) + d))
        .collect();
    subst_idx(e, &map)
}

/// Substitute scalar expressions for scalar symbols (array indices untouched).
pub fn subst_sym(e: &Expr, map: &BTreeMap<Symbol, Expr>) -> Expr {
    rebuild(e, &|a| Expr::access(a.clone()), &|s| match map.get(s) {
        Some(rep) => rep.clone(),
        None => Expr::sym(s.clone()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Array;
    use crate::ix;

    #[test]
    fn shift_moves_all_indices() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let c = Array::new("c");
        let e = c.at(ix![&i]) * u.at(ix![&i - 1]);
        let shifted = shift(&e, std::slice::from_ref(&i), &[1]);
        let expected = c.at(ix![&i + 1]) * u.at(ix![&i]);
        assert_eq!(shifted, expected);
    }

    #[test]
    fn shift_multidim() {
        let i = Symbol::new("i");
        let j = Symbol::new("j");
        let u = Array::new("u");
        let e = u.at(ix![&i - 1, &j + 2]);
        let shifted = shift(&e, &[i.clone(), j.clone()], &[1, -2]);
        assert_eq!(shifted, u.at(ix![&i, &j]));
    }

    #[test]
    fn subst_sym_binds_parameters() {
        let d = Symbol::new("D");
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = Expr::sym(d.clone()) * u.at(ix![&i]);
        let mut map = BTreeMap::new();
        map.insert(d, Expr::float(0.25));
        let bound = subst_sym(&e, &map);
        assert_eq!(bound, 0.25 * u.at(ix![&i]));
    }

    #[test]
    fn idx_to_expr_roundtrip_values() {
        let n = Symbol::new("n");
        let e = idx_to_expr(&(Idx::sym(n.clone()) - 2));
        // n - 2 with n = 10 evaluates to 8 via substitution.
        let mut map = BTreeMap::new();
        map.insert(n, Expr::int(10));
        assert_eq!(subst_sym(&e, &map).as_int(), Some(8));
    }

    #[test]
    fn counter_in_scalar_position_is_substituted() {
        let i = Symbol::new("i");
        let e = Expr::sym(i.clone()) + 1;
        let mut map = BTreeMap::new();
        map.insert(i.clone(), Idx::sym(i.clone()) + 5);
        let shifted = subst_idx(&e, &map);
        let expected = Expr::sym(i) + 6;
        assert_eq!(shifted, expected);
    }
}
