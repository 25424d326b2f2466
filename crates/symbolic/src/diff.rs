//! Symbolic differentiation.
//!
//! PerforAD differentiates the loop body with respect to each *individual
//! array access* (e.g. `∂f/∂u[i-1]`, treating `u[i]` as an independent
//! variable), then assembles the program-level derivative with automatic
//! differentiation techniques (§3.3.1 of the paper). Piecewise functions
//! (`max`, `min`, `abs`) differentiate to [`Select`] expressions, which the
//! back-ends print as C ternary operators — matching the Burgers adjoint of
//! Fig. 7.
//!
//! [`Select`]: crate::expr::Node::Select

use crate::error::SymError;
use crate::expr::{Access, Cond, Expr, Func, Node, Rel};
use crate::symbol::Symbol;

/// What to differentiate with respect to.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DiffVar {
    /// A scalar symbol.
    Sym(Symbol),
    /// A specific array access — other accesses to the same array at
    /// different indices are independent.
    Access(Access),
}

impl From<Symbol> for DiffVar {
    fn from(s: Symbol) -> Self {
        DiffVar::Sym(s)
    }
}

impl From<Access> for DiffVar {
    fn from(a: Access) -> Self {
        DiffVar::Access(a)
    }
}

/// Compute `∂e/∂v` symbolically.
///
/// Returns an error only for second derivatives of uninterpreted functions,
/// which first-order reverse mode never needs.
pub fn diff(e: &Expr, v: &DiffVar) -> Result<Expr, SymError> {
    Ok(match e.node() {
        Node::Num(_) => Expr::zero(),
        Node::Sym(s) => match v {
            DiffVar::Sym(vs) if s == vs => Expr::one(),
            _ => Expr::zero(),
        },
        Node::Access(a) => match v {
            DiffVar::Access(va) if a == va => Expr::one(),
            _ => Expr::zero(),
        },
        Node::Add(ts) => {
            let parts = ts
                .iter()
                .map(|t| diff(t, v))
                .collect::<Result<Vec<_>, _>>()?;
            Expr::add_all(parts)
        }
        Node::Mul(fs) => {
            // Product rule: sum over factors of (d factor) * rest. Most
            // factors do not depend on `v`: the list grows as needed.
            let mut terms = Vec::new();
            for (k, fk) in fs.iter().enumerate() {
                let dk = diff(fk, v)?;
                if dk.is_zero() {
                    continue;
                }
                let mut part = Vec::with_capacity(fs.len());
                part.push(dk);
                for (j, fj) in fs.iter().enumerate() {
                    if j != k {
                        part.push(fj.clone());
                    }
                }
                terms.push(Expr::mul_all(part));
            }
            Expr::add_all(terms)
        }
        Node::Pow(b, x) => {
            let db = diff(b, v)?;
            let dx = diff(x, v)?;
            if dx.is_zero() {
                // d(b^e) = e * b^(e-1) * db
                if db.is_zero() {
                    Expr::zero()
                } else {
                    x.clone() * b.clone().pow(x.clone() - Expr::one()) * db
                }
            } else {
                // General case: b^e * (de * ln b + e * db / b).
                let inner = dx * b.clone().ln() + x.clone() * db * b.clone().powi(-1);
                b.clone().pow(x.clone()) * inner
            }
        }
        Node::Call(f, args) => diff_call(*f, args, v)?,
        Node::Select(c, a, b) => {
            // Sub-gradient convention: the condition is locally constant.
            let da = diff(a, v)?;
            let db = diff(b, v)?;
            Expr::select(c.clone(), da, db)
        }
        Node::UFun(app) => {
            // Chain rule through the uninterpreted call:
            //   d f(args) = sum_k derivative(f, p_k)(args) * d args_k
            let mut terms = Vec::new();
            for (k, arg) in app.args.iter().enumerate() {
                let darg = diff(arg, v)?;
                if darg.is_zero() {
                    continue;
                }
                terms.push(Expr::uderiv(app.clone(), k) * darg);
            }
            Expr::add_all(terms)
        }
        Node::UDeriv(app, _) => {
            // Only an error if the derivative actually depends on v.
            let mut depends = false;
            for arg in &app.args {
                if !diff(arg, v)?.is_zero() {
                    depends = true;
                    break;
                }
            }
            if depends {
                return Err(SymError::SecondOrderUninterpreted(
                    app.name.name().to_string(),
                ));
            }
            Expr::zero()
        }
    })
}

fn diff_call(f: Func, args: &[Expr], v: &DiffVar) -> Result<Expr, SymError> {
    let x = &args[0];
    let dx = diff(x, v)?;
    Ok(match f {
        Func::Sin => x.clone().cos() * dx,
        Func::Cos => -(x.clone().sin()) * dx,
        Func::Tan => (Expr::one() + x.clone().tan().powi(2)) * dx,
        Func::Exp => x.clone().exp() * dx,
        Func::Ln => dx * x.clone().powi(-1),
        Func::Sqrt => Expr::rational(1, 2) * x.clone().sqrt().powi(-1) * dx,
        Func::Abs => x.clone().sign() * dx,
        Func::Sign => Expr::zero(),
        Func::Tanh => (Expr::one() - x.clone().tanh().powi(2)) * dx,
        Func::Max => {
            let y = &args[1];
            let dy = diff(y, v)?;
            if dx == dy {
                return Ok(dx);
            }
            Expr::select(Cond::new(x.clone(), Rel::Ge, y.clone()), dx, dy)
        }
        Func::Min => {
            let y = &args[1];
            let dy = diff(y, v)?;
            if dx == dy {
                return Ok(dx);
            }
            Expr::select(Cond::new(x.clone(), Rel::Le, y.clone()), dx, dy)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Array, UFunApp};
    use crate::ix;

    fn setup() -> (Symbol, Array, Expr, Expr, Expr) {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let um = u.at(ix![&i - 1]);
        let uc = u.at(ix![&i]);
        let up = u.at(ix![&i + 1]);
        (i, u, um, uc, up)
    }

    fn d(e: &Expr, v: impl Into<DiffVar>) -> Expr {
        diff(e, &v.into()).unwrap()
    }

    #[test]
    fn accesses_are_independent_variables() {
        let (_, _, um, uc, up) = setup();
        let e = 2.0 * &um - 3.0 * &uc + 4.0 * &up;
        let a_um: Access = match um.node() {
            Node::Access(a) => a.clone(),
            _ => unreachable!(),
        };
        assert_eq!(d(&e, a_um), Expr::float(2.0));
        let a_up: Access = match up.node() {
            Node::Access(a) => a.clone(),
            _ => unreachable!(),
        };
        assert_eq!(d(&e, a_up), Expr::float(4.0));
    }

    #[test]
    fn product_rule() {
        let (_, _, _, uc, up) = setup();
        let e = &uc * &up;
        let a: Access = match uc.node() {
            Node::Access(a) => a.clone(),
            _ => unreachable!(),
        };
        assert_eq!(d(&e, a), up);
    }

    #[test]
    fn power_rule() {
        let (_, _, _, uc, _) = setup();
        let a: Access = match uc.node() {
            Node::Access(x) => x.clone(),
            _ => unreachable!(),
        };
        let e = uc.clone().powi(3);
        assert_eq!(d(&e, a), 3 * uc.clone().powi(2));
    }

    #[test]
    fn chain_rule_through_sin() {
        let (_, _, _, uc, _) = setup();
        let a: Access = match uc.node() {
            Node::Access(x) => x.clone(),
            _ => unreachable!(),
        };
        let e = (2.0 * &uc).sin();
        assert_eq!(d(&e, a), (2.0 * &uc).cos() * 2.0);
    }

    #[test]
    fn max_gives_select_matching_paper() {
        // d/du Max(u(i), 0) = (u(i) >= 0) ? 1 : 0 — the ternary of Fig. 7.
        let (_, _, _, uc, _) = setup();
        let a: Access = match uc.node() {
            Node::Access(x) => x.clone(),
            _ => unreachable!(),
        };
        let e = uc.clone().max(Expr::zero());
        let de = d(&e, a.clone());
        match de.node() {
            Node::Select(c, t, f) => {
                assert_eq!(c.rel, Rel::Ge);
                assert!(t.is_one());
                assert!(f.is_zero());
            }
            other => panic!("expected Select, got {other:?}"),
        }
        // And Min uses <=.
        let e = uc.clone().min(Expr::zero());
        let de = d(&e, a);
        match de.node() {
            Node::Select(c, ..) => assert_eq!(c.rel, Rel::Le),
            other => panic!("expected Select, got {other:?}"),
        }
    }

    #[test]
    fn scalar_symbol_derivative() {
        let c = Symbol::new("C");
        let (_, _, _, uc, _) = setup();
        let e = Expr::sym(c.clone()) * &uc;
        assert_eq!(d(&e, c), uc);
    }

    #[test]
    fn uninterpreted_function_chain_rule() {
        let (_, _, um, uc, _) = setup();
        let app = UFunApp::new(
            "f",
            vec![Symbol::new("a"), Symbol::new("b")],
            vec![um.clone(), uc.clone()],
        );
        let e = Expr::ufun(app.clone());
        let a: Access = match um.node() {
            Node::Access(x) => x.clone(),
            _ => unreachable!(),
        };
        let de = d(&e, a);
        assert_eq!(de, Expr::uderiv(app, 0));
    }

    #[test]
    fn second_order_uninterpreted_errors() {
        let (_, _, um, _, _) = setup();
        let app = UFunApp::new("f", vec![Symbol::new("a")], vec![um.clone()]);
        let e = Expr::uderiv(app, 0);
        let a: Access = match um.node() {
            Node::Access(x) => x.clone(),
            _ => unreachable!(),
        };
        assert!(diff(&e, &DiffVar::Access(a)).is_err());
    }

    #[test]
    fn derivative_of_unrelated_access_is_zero() {
        let (_, _, um, uc, _) = setup();
        let a: Access = match um.node() {
            Node::Access(x) => x.clone(),
            _ => unreachable!(),
        };
        assert!(d(&uc, a).is_zero());
    }
}
