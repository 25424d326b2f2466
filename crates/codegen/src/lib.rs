//! # perforad-codegen
//!
//! Code generation for **PerforAD-rs**: modular front- and back-ends around
//! the loop-nest IR, mirroring the modular design of the original tool
//! (§3.1 of the paper).
//!
//! * [`c`] — C back-end with OpenMP pragmas; regenerates listings in the
//!   style of Fig. 5 (wave equation) and Fig. 7 (Burgers) of the paper,
//!   including ternary operators for piecewise derivatives and optional
//!   `#pragma omp atomic` safeguards on scatter baselines.
//! * [`rust`] — Rust back-end producing compilable kernels, chunkable over
//!   the outermost loop for parallel execution; used to generate the static
//!   kernels in `perforad-pde` (golden-tested against this generator).
//! * [`frontend`] — a small DSL parser (`for i in 1 .. n-1 { r[i] = …; }`),
//!   the "new front-ends" extension point the paper leaves as future work.

pub mod c;
pub mod frontend;
pub mod rust;

pub use c::{c_expr, c_nest, print_function, COptions};
pub use frontend::{parse_expr, parse_stencil, ParseError};
pub use rust::{print_module, r_expr, r_nest_fn};
