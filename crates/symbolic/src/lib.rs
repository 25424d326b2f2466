//! # perforad-symbolic
//!
//! Symbolic algebra substrate for **PerforAD-rs**, a Rust reproduction of
//! *"Automatic Differentiation for Adjoint Stencil Loops"* (ICPP 2019).
//!
//! The original PerforAD is built on SymPy; this crate provides the subset of
//! symbolic computation the stencil transformation needs, from scratch:
//!
//! * canonical expression trees ([`Expr`]) with exact rational constants,
//!   flattening/collecting simplification and deterministic ordering;
//! * affine index expressions ([`Idx`]) and array accesses ([`Access`]);
//! * symbolic differentiation with respect to individual array accesses
//!   ([`mod@diff`]), including piecewise `max`/`min` → ternary [`Node::Select`]
//!   and uninterpreted functions (§3.3.1 of the paper);
//! * substitution/index shifting ([`subst`]) — the §3.3.2 shift step;
//! * evaluation generic over the scalar type ([`mod@eval`]), which lets the same
//!   IR run in `f64` or in the tape-AD `Var` type of `perforad-autodiff`.
//!
//! ```
//! use perforad_symbolic::{Array, Expr, Symbol, ix};
//!
//! let i = Symbol::new("i");
//! let (u, c) = (Array::new("u"), Array::new("c"));
//! // r[i] = c[i]*(2*u[i-1] - 3*u[i] + 4*u[i+1])
//! let body = c.at(ix![&i]) * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1]));
//! assert_eq!(body.to_string(), "c(i)*(2.0*u(i - 1) - 3.0*u(i) + 4.0*u(i + 1))");
//! ```

pub mod cse;
pub mod diff;
pub mod display;
pub mod error;
pub mod eval;
pub mod expr;
pub mod idx;
pub mod number;
pub mod ops;
pub mod simplify;
pub mod subst;
pub mod symbol;
pub mod visit;

pub use cse::{eliminate, eliminate_one, Bindings};
pub use diff::{diff, DiffVar};
pub use error::SymError;
pub use eval::{eval, EvalContext, MapCtx, Scalar};
pub use expr::{Access, Array, Cond, Expr, Func, Node, Rel, UFunApp};
pub use idx::Idx;
pub use number::{Number, Rational};
pub use simplify::{expand, simplify};
pub use symbol::{symbols, Symbol};
