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
//! * [`rust`] — Rust back-end: [`print_module`] prints standalone,
//!   compilable kernels, chunkable over the outermost loop for parallel
//!   execution (compiled and checked against the executors in the
//!   workspace's `tests/jit.rs`). The JIT does not print from here:
//!   `perforad_jit::emit` prints a fused group's compiled plan — its
//!   `RegProgram`s — so native code runs the row executor's arithmetic.
//! * [`frontend`] — a small DSL parser (`for i in 1 .. n-1 { r[i] = …; }`),
//!   the "new front-ends" extension point the paper leaves as future work.

pub mod c;
pub mod frontend;
pub mod rust;

pub use c::{c_expr, c_nest, print_function, COptions};
pub use frontend::{parse_expr, parse_stencil, ParseError};
pub use rust::print_module;
