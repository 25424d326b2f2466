//! Generic expression evaluation.
//!
//! Evaluation is generic over the scalar type `T: Scalar`, which serves two
//! purposes: plain `f64` evaluation for tests and reference executions, and
//! evaluation over the tape-AD `Var` type in `perforad-autodiff` — that is
//! how the *conventional* adjoint baseline (the Tapenade/ADIC stand-in of
//! §3.6) is produced from the very same loop-nest IR.

use crate::error::SymError;
use crate::expr::{Expr, Func, Node, UFunApp};
use crate::idx::Idx;
use crate::symbol::Symbol;
use std::collections::BTreeMap;

/// Scalar number types an [`Expr`] can be evaluated over.
pub trait Scalar: Clone {
    fn from_f64(v: f64) -> Self;
    /// The primal value — used to decide branches of `Select`/`max`/`min`.
    fn value(&self) -> f64;
    fn add(&self, o: &Self) -> Self;
    fn sub(&self, o: &Self) -> Self;
    fn mul(&self, o: &Self) -> Self;
    fn div(&self, o: &Self) -> Self;
    fn neg(&self) -> Self;
    fn powi(&self, k: i64) -> Self;
    fn powf(&self, e: &Self) -> Self;
    fn sin(&self) -> Self;
    fn cos(&self) -> Self;
    fn tan(&self) -> Self;
    fn exp(&self) -> Self;
    fn ln(&self) -> Self;
    fn sqrt(&self) -> Self;
    fn abs(&self) -> Self;
    fn sign(&self) -> Self;
    fn tanh(&self) -> Self;
    fn max2(&self, o: &Self) -> Self;
    fn min2(&self, o: &Self) -> Self;
}

impl Scalar for f64 {
    fn from_f64(v: f64) -> Self {
        v
    }
    fn value(&self) -> f64 {
        *self
    }
    fn add(&self, o: &Self) -> Self {
        self + o
    }
    fn sub(&self, o: &Self) -> Self {
        self - o
    }
    fn mul(&self, o: &Self) -> Self {
        self * o
    }
    fn div(&self, o: &Self) -> Self {
        self / o
    }
    fn neg(&self) -> Self {
        -self
    }
    fn powi(&self, k: i64) -> Self {
        f64::powi(*self, k as i32)
    }
    fn powf(&self, e: &Self) -> Self {
        f64::powf(*self, *e)
    }
    fn sin(&self) -> Self {
        f64::sin(*self)
    }
    fn cos(&self) -> Self {
        f64::cos(*self)
    }
    fn tan(&self) -> Self {
        f64::tan(*self)
    }
    fn exp(&self) -> Self {
        f64::exp(*self)
    }
    fn ln(&self) -> Self {
        f64::ln(*self)
    }
    fn sqrt(&self) -> Self {
        f64::sqrt(*self)
    }
    fn abs(&self) -> Self {
        f64::abs(*self)
    }
    fn sign(&self) -> Self {
        if *self > 0.0 {
            1.0
        } else if *self < 0.0 {
            -1.0
        } else {
            0.0
        }
    }
    fn tanh(&self) -> Self {
        f64::tanh(*self)
    }
    fn max2(&self, o: &Self) -> Self {
        if self >= o {
            *self
        } else {
            *o
        }
    }
    fn min2(&self, o: &Self) -> Self {
        if self <= o {
            *self
        } else {
            *o
        }
    }
}

/// Environment an expression is evaluated against.
pub trait EvalContext<T: Scalar> {
    /// Value of a scalar symbol (physical parameter).
    fn scalar(&self, s: &Symbol) -> Result<T, SymError>;
    /// Integer value of an index symbol (loop counter or extent).
    fn index_value(&self, s: &Symbol) -> Result<i64, SymError>;
    /// Load an array element at fully resolved integer indices.
    fn load(&self, array: &Symbol, indices: &[i64]) -> Result<T, SymError>;
    /// Interpretation for uninterpreted functions (optional).
    fn ufun(&self, app: &UFunApp, _args: &[T]) -> Result<T, SymError> {
        Err(SymError::UninterpretedEval(app.name.name().to_string()))
    }
    /// Interpretation for uninterpreted derivatives (optional).
    fn uderiv(&self, app: &UFunApp, _wrt: usize, _args: &[T]) -> Result<T, SymError> {
        Err(SymError::UninterpretedEval(app.name.name().to_string()))
    }
}

fn resolve_idx<T: Scalar, C: EvalContext<T>>(ix: &Idx, ctx: &C) -> Result<i64, SymError> {
    let mut acc = ix.offset();
    for (s, c) in ix.terms() {
        acc += c * ctx.index_value(s)?;
    }
    Ok(acc)
}

/// Evaluate an expression.
pub fn eval<T: Scalar, C: EvalContext<T>>(e: &Expr, ctx: &C) -> Result<T, SymError> {
    Ok(match e.node() {
        Node::Num(n) => T::from_f64(n.to_f64()),
        Node::Sym(s) => {
            // A symbol may be a scalar parameter or an index symbol used in
            // scalar position (e.g. after substitution); prefer scalars.
            match ctx.scalar(s) {
                Ok(v) => v,
                Err(_) => T::from_f64(ctx.index_value(s)? as f64),
            }
        }
        Node::Access(a) => {
            let idx = a
                .indices
                .iter()
                .map(|ix| resolve_idx(ix, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            ctx.load(&a.array, &idx)?
        }
        Node::Add(ts) => {
            let mut it = ts.iter();
            let mut acc = eval(it.next().unwrap(), ctx)?;
            for t in it {
                acc = acc.add(&eval(t, ctx)?);
            }
            acc
        }
        Node::Mul(fs) => {
            let mut it = fs.iter();
            let mut acc = eval(it.next().unwrap(), ctx)?;
            for t in it {
                acc = acc.mul(&eval(t, ctx)?);
            }
            acc
        }
        Node::Pow(b, x) => {
            let bv = eval(b, ctx)?;
            match x.as_int() {
                Some(k) => bv.powi(k),
                None => {
                    let xv = eval(x, ctx)?;
                    bv.powf(&xv)
                }
            }
        }
        Node::Call(f, args) => {
            let a0 = eval(&args[0], ctx)?;
            match f {
                Func::Sin => a0.sin(),
                Func::Cos => a0.cos(),
                Func::Tan => a0.tan(),
                Func::Exp => a0.exp(),
                Func::Ln => a0.ln(),
                Func::Sqrt => a0.sqrt(),
                Func::Abs => a0.abs(),
                Func::Sign => a0.sign(),
                Func::Tanh => a0.tanh(),
                Func::Max => {
                    let a1 = eval(&args[1], ctx)?;
                    a0.max2(&a1)
                }
                Func::Min => {
                    let a1 = eval(&args[1], ctx)?;
                    a0.min2(&a1)
                }
            }
        }
        Node::Select(c, a, b) => {
            let lv = eval(&c.lhs, ctx)?;
            let rv = eval(&c.rhs, ctx)?;
            if c.rel.holds(lv.value(), rv.value()) {
                eval(a, ctx)?
            } else {
                eval(b, ctx)?
            }
        }
        Node::UFun(app) => {
            let args = app
                .args
                .iter()
                .map(|a| eval(a, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            ctx.ufun(app, &args)?
        }
        Node::UDeriv(app, wrt) => {
            let args = app
                .args
                .iter()
                .map(|a| eval(a, ctx))
                .collect::<Result<Vec<_>, _>>()?;
            ctx.uderiv(app, *wrt, &args)?
        }
    })
}

/// A simple map-backed evaluation context, convenient for tests.
#[derive(Default, Clone)]
pub struct MapCtx {
    pub scalars: BTreeMap<Symbol, f64>,
    pub indices: BTreeMap<Symbol, i64>,
    /// Arrays stored dense row-major: `(dims, data)`. 1-D arrays may instead
    /// be registered via [`MapCtx::array1`].
    pub arrays: BTreeMap<Symbol, (Vec<usize>, Vec<f64>)>,
}

impl MapCtx {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn scalar(mut self, name: &str, v: f64) -> Self {
        self.scalars.insert(Symbol::new(name), v);
        self
    }

    pub fn index(mut self, name: &str, v: i64) -> Self {
        self.indices.insert(Symbol::new(name), v);
        self
    }

    pub fn array1(mut self, name: &str, data: Vec<f64>) -> Self {
        let dims = vec![data.len()];
        self.arrays.insert(Symbol::new(name), (dims, data));
        self
    }

    pub fn array(mut self, name: &str, dims: Vec<usize>, data: Vec<f64>) -> Self {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        self.arrays.insert(Symbol::new(name), (dims, data));
        self
    }
}

impl EvalContext<f64> for MapCtx {
    fn scalar(&self, s: &Symbol) -> Result<f64, SymError> {
        self.scalars
            .get(s)
            .copied()
            .ok_or_else(|| SymError::UnboundSymbol(s.name().to_string()))
    }

    fn index_value(&self, s: &Symbol) -> Result<i64, SymError> {
        self.indices
            .get(s)
            .copied()
            .ok_or_else(|| SymError::UnboundIndex(s.name().to_string()))
    }

    fn load(&self, array: &Symbol, indices: &[i64]) -> Result<f64, SymError> {
        let (dims, data) = self
            .arrays
            .get(array)
            .ok_or_else(|| SymError::UnboundArray(array.name().to_string()))?;
        if indices.len() != dims.len() {
            return Err(SymError::Eval(format!(
                "rank mismatch on `{array}`: {} indices, {} dims",
                indices.len(),
                dims.len()
            )));
        }
        let mut lin: usize = 0;
        for (ix, d) in indices.iter().zip(dims) {
            if *ix < 0 || *ix as usize >= *d {
                return Err(SymError::Eval(format!(
                    "index {ix} out of range 0..{d} on `{array}`"
                )));
            }
            lin = lin * d + *ix as usize;
        }
        Ok(data[lin])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{Array, Expr};
    use crate::ix;

    #[test]
    fn evaluates_stencil_body() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let c = Array::new("c");
        let e = c.at(ix![&i])
            * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1]));
        let ctx = MapCtx::new()
            .index("i", 1)
            .array1("u", vec![1.0, 2.0, 3.0])
            .array1("c", vec![0.0, 10.0, 0.0]);
        let v = eval::<f64, _>(&e, &ctx).unwrap();
        // 10 * (2*1 - 3*2 + 4*3) = 10 * 8 = 80
        assert_eq!(v, 80.0);
    }

    #[test]
    fn select_follows_condition() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let cond = crate::expr::Cond::new(u.at(ix![&i]), crate::expr::Rel::Ge, Expr::zero());
        let e = Expr::select(cond, Expr::int(1), Expr::int(-1));
        let mut ctx = MapCtx::new().index("i", 0).array1("u", vec![5.0]);
        assert_eq!(eval::<f64, _>(&e, &ctx).unwrap(), 1.0);
        ctx.arrays.get_mut(&Symbol::new("u")).unwrap().1[0] = -5.0;
        assert_eq!(eval::<f64, _>(&e, &ctx).unwrap(), -1.0);
    }

    #[test]
    fn unbound_reports_errors() {
        let e = Expr::sym(Symbol::new("D"));
        let ctx = MapCtx::new();
        assert!(matches!(
            eval::<f64, _>(&e, &ctx),
            Err(SymError::UnboundIndex(_)) // falls through scalar -> index
        ));
        let u = Array::new("u").at(ix![&Symbol::new("i")]);
        let ctx = MapCtx::new().index("i", 0);
        assert!(matches!(
            eval::<f64, _>(&u, &ctx),
            Err(SymError::UnboundArray(_))
        ));
    }

    #[test]
    fn out_of_range_is_checked() {
        let i = Symbol::new("i");
        let u = Array::new("u").at(ix![&i + 5]);
        let ctx = MapCtx::new().index("i", 0).array1("u", vec![1.0, 2.0]);
        assert!(eval::<f64, _>(&u, &ctx).is_err());
    }

    #[test]
    fn max_min_powers() {
        let e = Expr::sym(Symbol::new("a")).max(Expr::sym(Symbol::new("b")));
        let ctx = MapCtx::new().scalar("a", 2.0).scalar("b", 7.0);
        assert_eq!(eval::<f64, _>(&e, &ctx).unwrap(), 7.0);
        let e = Expr::sym(Symbol::new("a")).powi(3);
        assert_eq!(eval::<f64, _>(&e, &ctx).unwrap(), 8.0);
    }

    #[test]
    fn derivative_evaluates_like_finite_difference() {
        // d/du(i) of u(i)^2 * sin(u(i+1)) at specific values.
        let i = Symbol::new("i");
        let u = Array::new("u");
        let uc = u.at(ix![&i]);
        let acc = match uc.node() {
            Node::Access(a) => a.clone(),
            _ => unreachable!(),
        };
        let e = uc.clone().powi(2) * u.at(ix![&i + 1]).sin();
        let de = crate::diff::diff(&e, &crate::diff::DiffVar::Access(acc)).unwrap();

        let base = vec![1.3, 0.7];
        let ctx = MapCtx::new().index("i", 0).array1("u", base.clone());
        let analytic = eval::<f64, _>(&de, &ctx).unwrap();

        let h = 1e-7;
        let mut up = base.clone();
        up[0] += h;
        let mut dn = base.clone();
        dn[0] -= h;
        let fu = eval::<f64, _>(&e, &MapCtx::new().index("i", 0).array1("u", up)).unwrap();
        let fd = eval::<f64, _>(&e, &MapCtx::new().index("i", 0).array1("u", dn)).unwrap();
        let numeric = (fu - fd) / (2.0 * h);
        assert!((analytic - numeric).abs() < 1e-6, "{analytic} vs {numeric}");
    }
}
