//! Symbolic expression trees.
//!
//! [`Expr`] is an immutable, reference-counted expression in canonical form.
//! All construction goes through the smart constructors in [`mod@crate::simplify`]
//! (re-exported as methods here), so that structurally equal mathematical
//! expressions compare equal — the property the adjoint transformation and
//! golden codegen tests rely on.

use crate::idx::Idx;
use crate::number::Number;
use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An access to an array element at affine indices, e.g. `u[i-1][j]`.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Access {
    pub array: Symbol,
    /// Shared: a clone of an access copies no index.
    pub indices: Arc<[Idx]>,
}

impl Access {
    pub fn new(array: impl Into<Symbol>, indices: Vec<Idx>) -> Self {
        Access {
            array: array.into(),
            indices: indices.into(),
        }
    }

    /// Number of dimensions indexed.
    pub fn rank(&self) -> usize {
        self.indices.len()
    }
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.array)?;
        write!(f, "(")?;
        for (k, ix) in self.indices.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{ix}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Debug for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A named array usable as an expression factory: `u.at(ix![&i - 1, &j])`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Array {
    name: Symbol,
}

impl Array {
    pub fn new(name: impl Into<Symbol>) -> Self {
        Array { name: name.into() }
    }

    pub fn name(&self) -> &Symbol {
        &self.name
    }

    /// Build the access expression `name[indices...]`.
    pub fn at(&self, indices: Vec<Idx>) -> Expr {
        Expr::access(Access::new(self.name.clone(), indices))
    }
}

/// Built-in elementary functions.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Func {
    Sin,
    Cos,
    Tan,
    Exp,
    Ln,
    Sqrt,
    Abs,
    Sign,
    Tanh,
    /// Binary maximum — piecewise differentiable (upwinding schemes).
    Max,
    /// Binary minimum — piecewise differentiable (upwinding schemes).
    Min,
}

impl Func {
    pub fn name(self) -> &'static str {
        match self {
            Func::Sin => "sin",
            Func::Cos => "cos",
            Func::Tan => "tan",
            Func::Exp => "exp",
            Func::Ln => "ln",
            Func::Sqrt => "sqrt",
            Func::Abs => "abs",
            Func::Sign => "sign",
            Func::Tanh => "tanh",
            Func::Max => "max",
            Func::Min => "min",
        }
    }

    pub fn arity(self) -> usize {
        match self {
            Func::Max | Func::Min => 2,
            _ => 1,
        }
    }
}

/// Comparison relation for [`Cond`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Rel {
    Le,
    Lt,
    Ge,
    Gt,
    Eq,
    Ne,
}

impl Rel {
    pub fn symbol(self) -> &'static str {
        match self {
            Rel::Le => "<=",
            Rel::Lt => "<",
            Rel::Ge => ">=",
            Rel::Gt => ">",
            Rel::Eq => "==",
            Rel::Ne => "!=",
        }
    }

    pub fn holds(self, a: f64, b: f64) -> bool {
        match self {
            Rel::Le => a <= b,
            Rel::Lt => a < b,
            Rel::Ge => a >= b,
            Rel::Gt => a > b,
            Rel::Eq => a == b,
            Rel::Ne => a != b,
        }
    }
}

/// A boolean condition `lhs REL rhs` used by [`Node::Select`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cond {
    pub lhs: Expr,
    pub rel: Rel,
    pub rhs: Expr,
}

impl Cond {
    pub fn new(lhs: Expr, rel: Rel, rhs: Expr) -> Self {
        Cond { lhs, rel, rhs }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.rel.symbol(), self.rhs)
    }
}

/// An application of an uninterpreted function: `f(p1 = e1, p2 = e2, ...)`.
///
/// The paper (§3.3.1) uses these for loop bodies too large for symbolic
/// differentiation: the generated adjoint then contains uninterpreted
/// `derivative(f, p_k)` calls, which a back-end maps to a function created
/// manually or by a conventional AD tool.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct UFunApp {
    pub name: Symbol,
    pub params: Vec<Symbol>,
    pub args: Vec<Expr>,
}

impl UFunApp {
    pub fn new(name: impl Into<Symbol>, params: Vec<Symbol>, args: Vec<Expr>) -> Self {
        let app = UFunApp {
            name: name.into(),
            params,
            args,
        };
        assert_eq!(
            app.params.len(),
            app.args.len(),
            "uninterpreted function parameter/argument mismatch"
        );
        app
    }
}

/// The expression node. Public for pattern matching; construct via the
/// methods on [`Expr`] to preserve canonical form.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// Numeric constant.
    Num(Number),
    /// Scalar symbol (loop counter, parameter, extent).
    Sym(Symbol),
    /// Array access at affine indices.
    Access(Access),
    /// N-ary sum, flattened and sorted; at most one leading numeric term.
    Add(Vec<Expr>),
    /// N-ary product, flattened and sorted; at most one leading numeric factor.
    Mul(Vec<Expr>),
    /// Power `base ^ exponent`.
    Pow(Expr, Expr),
    /// Elementary function application.
    Call(Func, Vec<Expr>),
    /// Ternary select `cond ? then : else` (from piecewise derivatives).
    Select(Cond, Expr, Expr),
    /// Uninterpreted function application.
    UFun(UFunApp),
    /// `derivative(f, params[k])(args...)` — uninterpreted partial derivative.
    UDeriv(UFunApp, usize),
}

/// A canonical, immutable symbolic expression.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Expr(Arc<Node>);

impl Expr {
    pub(crate) fn raw(node: Node) -> Expr {
        Expr(Arc::new(node))
    }

    pub fn node(&self) -> &Node {
        &self.0
    }

    // ----- leaf constructors (already canonical) -----

    /// A constant. The integers −1 … 2 are shared process-wide, one node
    /// each; every other constant, every `Float` included, is a node of
    /// its own (`-0.0` and `+0.0` stay distinct).
    pub fn num(n: Number) -> Expr {
        static SMALL: OnceLock<[Expr; 4]> = OnceLock::new();
        match n {
            Number::Int(i @ -1..=2) => {
                let small = SMALL
                    .get_or_init(|| [-1, 0, 1, 2].map(|i| Expr::raw(Node::Num(Number::Int(i)))));
                small[(i + 1) as usize].clone()
            }
            _ => Expr::raw(Node::Num(n)),
        }
    }

    pub fn int(i: i64) -> Expr {
        Expr::num(Number::Int(i))
    }

    pub fn float(f: f64) -> Expr {
        Expr::num(Number::Float(f))
    }

    pub fn rational(num: i64, den: i64) -> Expr {
        Expr::num(Number::rational(num, den))
    }

    pub fn zero() -> Expr {
        Expr::int(0)
    }

    pub fn one() -> Expr {
        Expr::int(1)
    }

    pub fn sym(s: impl Into<Symbol>) -> Expr {
        Expr::raw(Node::Sym(s.into()))
    }

    pub fn access(a: Access) -> Expr {
        Expr::raw(Node::Access(a))
    }

    // ----- canonicalising constructors (implemented in simplify.rs) -----

    pub fn add_all(terms: Vec<Expr>) -> Expr {
        crate::simplify::add_vec(terms)
    }

    pub fn mul_all(factors: Vec<Expr>) -> Expr {
        crate::simplify::mul_vec(factors)
    }

    pub fn pow(self, e: Expr) -> Expr {
        crate::simplify::pow(self, e)
    }

    pub fn powi(self, e: i64) -> Expr {
        crate::simplify::pow(self, Expr::int(e))
    }

    pub fn call(f: Func, args: Vec<Expr>) -> Expr {
        crate::simplify::call(f, args)
    }

    pub fn select(c: Cond, a: Expr, b: Expr) -> Expr {
        crate::simplify::select(c, a, b)
    }

    pub fn ufun(app: UFunApp) -> Expr {
        Expr::raw(Node::UFun(app))
    }

    pub fn uderiv(app: UFunApp, wrt: usize) -> Expr {
        assert!(wrt < app.params.len(), "derivative index out of range");
        Expr::raw(Node::UDeriv(app, wrt))
    }

    // ----- convenience wrappers -----

    pub fn sin(self) -> Expr {
        Expr::call(Func::Sin, vec![self])
    }

    pub fn cos(self) -> Expr {
        Expr::call(Func::Cos, vec![self])
    }

    pub fn tan(self) -> Expr {
        Expr::call(Func::Tan, vec![self])
    }

    pub fn exp(self) -> Expr {
        Expr::call(Func::Exp, vec![self])
    }

    pub fn ln(self) -> Expr {
        Expr::call(Func::Ln, vec![self])
    }

    pub fn sqrt(self) -> Expr {
        Expr::call(Func::Sqrt, vec![self])
    }

    pub fn abs(self) -> Expr {
        Expr::call(Func::Abs, vec![self])
    }

    pub fn sign(self) -> Expr {
        Expr::call(Func::Sign, vec![self])
    }

    pub fn tanh(self) -> Expr {
        Expr::call(Func::Tanh, vec![self])
    }

    pub fn max(self, other: Expr) -> Expr {
        Expr::call(Func::Max, vec![self, other])
    }

    pub fn min(self, other: Expr) -> Expr {
        Expr::call(Func::Min, vec![self, other])
    }

    // ----- queries -----

    pub fn as_num(&self) -> Option<Number> {
        match self.node() {
            Node::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        self.as_num().and_then(|n| match n {
            Number::Int(i) => Some(i),
            _ => None,
        })
    }

    pub fn is_zero(&self) -> bool {
        self.as_num().map(|n| n.is_zero()).unwrap_or(false)
    }

    pub fn is_one(&self) -> bool {
        self.as_num().map(|n| n.is_one()).unwrap_or(false)
    }

    /// Rank used for canonical ordering of terms and factors.
    pub(crate) fn rank(&self) -> u8 {
        match self.node() {
            Node::Num(_) => 0,
            Node::Sym(_) => 1,
            Node::Access(_) => 2,
            Node::Pow(..) => 3,
            Node::Mul(_) => MUL_RANK,
            Node::Add(_) => 5,
            Node::Call(..) => 6,
            Node::Select(..) => 7,
            Node::UFun(_) => 8,
            Node::UDeriv(..) => 9,
        }
    }
}

/// The rank of a product in the canonical order.
const MUL_RANK: u8 = 4;

impl PartialOrd for Expr {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Expr {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.rank()
            .cmp(&other.rank())
            .then_with(|| match (self.node(), other.node()) {
                (Node::Num(a), Node::Num(b)) => a.total_cmp(b),
                (Node::Sym(a), Node::Sym(b)) => a.cmp(b),
                (Node::Access(a), Node::Access(b)) => a.cmp(b),
                (Node::Pow(ab, ae), Node::Pow(bb, be)) => ab.cmp(bb).then_with(|| ae.cmp(be)),
                (Node::Mul(a), Node::Mul(b)) | (Node::Add(a), Node::Add(b)) => cmp_slices(a, b),
                (Node::Call(af, aa), Node::Call(bf, ba)) => {
                    af.cmp(bf).then_with(|| cmp_slices(aa, ba))
                }
                (Node::Select(ac, at, ae), Node::Select(bc, bt, be)) => ac
                    .lhs
                    .cmp(&bc.lhs)
                    .then_with(|| ac.rel.cmp(&bc.rel))
                    .then_with(|| ac.rhs.cmp(&bc.rhs))
                    .then_with(|| at.cmp(bt))
                    .then_with(|| ae.cmp(be)),
                (Node::UFun(a), Node::UFun(b)) => cmp_ufun(a, b),
                (Node::UDeriv(a, ak), Node::UDeriv(b, bk)) => {
                    cmp_ufun(a, b).then_with(|| ak.cmp(bk))
                }
                _ => unreachable!("rank already distinguishes variants"),
            })
    }
}

pub(crate) fn cmp_slices(a: &[Expr], b: &[Expr]) -> Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        let c = x.cmp(y);
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

/// How the product of `factors` (two or more) would compare with `e`,
/// without building it.
pub(crate) fn cmp_product(factors: &[Expr], e: &Expr) -> Ordering {
    match e.node() {
        Node::Mul(fs) => cmp_slices(factors, fs),
        _ => MUL_RANK.cmp(&e.rank()),
    }
}

fn cmp_ufun(a: &UFunApp, b: &UFunApp) -> Ordering {
    a.name
        .cmp(&b.name)
        .then_with(|| a.params.cmp(&b.params))
        .then_with(|| cmp_slices(&a.args, &b.args))
}

// ----- conversions -----

impl From<i64> for Expr {
    fn from(i: i64) -> Self {
        Expr::int(i)
    }
}

impl From<i32> for Expr {
    fn from(i: i32) -> Self {
        Expr::int(i as i64)
    }
}

impl From<f64> for Expr {
    fn from(f: f64) -> Self {
        Expr::float(f)
    }
}

impl From<Symbol> for Expr {
    fn from(s: Symbol) -> Self {
        Expr::sym(s)
    }
}

impl From<&Symbol> for Expr {
    fn from(s: &Symbol) -> Self {
        Expr::sym(s.clone())
    }
}

impl From<Number> for Expr {
    fn from(n: Number) -> Self {
        Expr::num(n)
    }
}

impl From<Access> for Expr {
    fn from(a: Access) -> Self {
        Expr::access(a)
    }
}

// ----- Symbol index arithmetic: `&i - 1` builds an Idx -----

impl std::ops::Add<i64> for &Symbol {
    type Output = Idx;
    fn add(self, rhs: i64) -> Idx {
        Idx::sym(self.clone()) + rhs
    }
}

impl std::ops::Sub<i64> for &Symbol {
    type Output = Idx;
    fn sub(self, rhs: i64) -> Idx {
        Idx::sym(self.clone()) - rhs
    }
}

/// Build a `Vec<Idx>` from mixed symbols, integers and index expressions:
/// `ix![&i - 1, &j, 0]`.
#[macro_export]
macro_rules! ix {
    ($($e:expr),* $(,)?) => {
        vec![ $( $crate::Idx::from($e) ),* ]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_constructors() {
        assert!(Expr::zero().is_zero());
        assert!(Expr::one().is_one());
        assert_eq!(Expr::int(3).as_int(), Some(3));
        assert!(!Expr::float(0.5).is_zero());
    }

    #[test]
    fn structural_equality() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let a = u.at(ix![&i - 1]);
        let b = u.at(ix![&i - 1]);
        assert_eq!(a, b);
        let c = u.at(ix![&i + 1]);
        assert_ne!(a, c);
    }

    #[test]
    fn ordering_is_total_and_rank_based() {
        let i = Symbol::new("i");
        let num = Expr::int(2);
        let sym = Expr::sym(i.clone());
        let acc = Array::new("u").at(ix![&i]);
        assert!(num < sym);
        assert!(sym < acc);
        assert_eq!(acc.cmp(&acc.clone()), std::cmp::Ordering::Equal);
    }

    #[test]
    fn ix_macro_mixes_types() {
        let i = Symbol::new("i");
        let v = ix![&i - 1, &i, 3];
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].is_offset_of(&i), Some(-1));
        assert_eq!(v[2].as_constant(), Some(3));
    }

    #[test]
    #[should_panic(expected = "parameter/argument mismatch")]
    fn ufun_arity_checked() {
        UFunApp::new("f", vec![Symbol::new("a")], vec![]);
    }
}
