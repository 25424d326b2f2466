//! Stack-bytecode compilation of statement right-hand sides.
//!
//! The original PerforAD prints C code and leaves compilation to icc; this
//! runtime instead compiles each statement body once into a small stack
//! program (constants folded, parameters inlined, array accesses resolved to
//! linear offsets) and evaluates it per grid point. A generated-Rust path
//! (`perforad-codegen` + static kernels in `perforad-pde`) exists for
//! compiled-speed comparisons; both paths implement the same semantics.

use crate::error::ExecError;
use perforad_symbolic::{Expr, Func, Node, Rel, Symbol};

/// One VM instruction. The stack holds `f64` values.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Push a constant.
    Const(f64),
    /// Push the value of counter `d` (as f64) — rare, but counters may
    /// appear in scalar position after substitutions.
    Counter(u16),
    /// Push `arrays[slot][center + rel]` (bounds validated at compile time).
    Load {
        slot: u16,
        rel: i32,
    },
    /// Push the element at `counters + offsets` of `arrays[slot]`, or 0.0
    /// if outside the physical extents (zero-padding semantics).
    LoadPadded {
        slot: u16,
        offsets: Box<[i64]>,
    },
    Add,
    Mul,
    Neg,
    /// Integer power of the top of stack.
    Powi(i32),
    /// `a.powf(b)` — pops b then a.
    Powf,
    /// Unary function application.
    Call1(Func),
    Max,
    Min,
    /// Pops `else_v`, `then_v`, `rhs`, `lhs`; pushes `lhs REL rhs ? then_v : else_v`.
    Select(Rel),
    /// Pop the top of stack into temporary slot `k` (CSE bindings).
    StoreTmp(u16),
    /// Push temporary slot `k`.
    LoadTmp(u16),
}

/// A compiled statement body.
#[derive(Clone, Debug, Default)]
pub struct Program {
    ops: Vec<Op>,
    max_stack: usize,
    n_tmps: usize,
}

/// Compile-time environment: slot numbering and layout.
pub struct CompileCtx<'a> {
    /// Array slot order (index = slot).
    pub arrays: &'a [Symbol],
    /// Loop counters, outermost first.
    pub counters: &'a [Symbol],
    /// Shared element strides of all arrays in the kernel.
    pub strides: &'a [usize],
    /// Compile loads with zero-padding semantics.
    pub padded: bool,
    /// CSE temporary names, by slot (empty when CSE is off).
    pub temps: &'a [Symbol],
}

impl<'a> CompileCtx<'a> {
    fn slot(&self, s: &Symbol) -> Result<u16, ExecError> {
        self.arrays
            .iter()
            .position(|a| a == s)
            .map(|k| k as u16)
            .ok_or_else(|| crate::error::unknown(s))
    }
}

/// Compile an expression (parameters and sizes must already be substituted
/// away; remaining symbols must be loop counters).
pub fn compile(e: &Expr, ctx: &CompileCtx) -> Result<Program, ExecError> {
    let mut prog = Program::default();
    emit(e, ctx, &mut prog.ops)?;
    prog.max_stack = measure_stack(&prog.ops);
    Ok(prog)
}

/// Compile an expression together with CSE temporary bindings: each binding
/// is evaluated in order into a temp slot; the final expression may read any
/// earlier slot.
pub fn compile_with_bindings(
    bindings: &[(Symbol, Expr)],
    e: &Expr,
    ctx: &CompileCtx,
) -> Result<Program, ExecError> {
    let temps: Vec<Symbol> = bindings.iter().map(|(s, _)| s.clone()).collect();
    let inner = CompileCtx {
        arrays: ctx.arrays,
        counters: ctx.counters,
        strides: ctx.strides,
        padded: ctx.padded,
        temps: &temps,
    };
    let mut prog = Program::default();
    for (k, (_, bexpr)) in bindings.iter().enumerate() {
        emit(bexpr, &inner, &mut prog.ops)?;
        prog.ops.push(Op::StoreTmp(k as u16));
    }
    emit(e, &inner, &mut prog.ops)?;
    prog.max_stack = measure_stack(&prog.ops);
    prog.n_tmps = temps.len();
    Ok(prog)
}

fn emit(e: &Expr, ctx: &CompileCtx, out: &mut Vec<Op>) -> Result<(), ExecError> {
    match e.node() {
        Node::Num(n) => out.push(Op::Const(n.to_f64())),
        Node::Sym(s) => {
            if let Some(k) = ctx.temps.iter().position(|t| t == s) {
                out.push(Op::LoadTmp(k as u16));
                return Ok(());
            }
            let d = ctx
                .counters
                .iter()
                .position(|c| c == s)
                .ok_or_else(|| ExecError::UnboundParam(s.name().to_string()))?;
            out.push(Op::Counter(d as u16));
        }
        Node::Access(a) => {
            let slot = ctx.slot(&a.array)?;
            let mut offsets = Vec::with_capacity(a.indices.len());
            for (d, ix) in a.indices.iter().enumerate() {
                let c = ctx.counters.get(d).ok_or_else(|| ExecError::RankMismatch {
                    array: a.array.name().to_string(),
                    rank: a.indices.len(),
                    nest: ctx.counters.len(),
                })?;
                let o = ix
                    .is_offset_of(c)
                    .ok_or_else(|| ExecError::Unsupported(format!("non-stencil access `{a}`")))?;
                offsets.push(o);
            }
            if ctx.padded {
                out.push(Op::LoadPadded {
                    slot,
                    offsets: offsets.into_boxed_slice(),
                });
            } else {
                let rel: i64 = offsets
                    .iter()
                    .zip(ctx.strides)
                    .map(|(&o, &s)| o * s as i64)
                    .sum();
                out.push(Op::Load {
                    slot,
                    rel: rel as i32,
                });
            }
        }
        Node::Add(ts) => {
            emit(&ts[0], ctx, out)?;
            for t in &ts[1..] {
                emit(t, ctx, out)?;
                out.push(Op::Add);
            }
        }
        Node::Mul(fs) => {
            // `-1 * rest` compiles to a negation instead of a multiply.
            let mut rest = fs.as_slice();
            let negate = matches!(fs[0].as_num(), Some(n) if n.to_f64() == -1.0);
            if negate {
                rest = &fs[1..];
            }
            emit(&rest[0], ctx, out)?;
            for t in &rest[1..] {
                emit(t, ctx, out)?;
                out.push(Op::Mul);
            }
            if negate {
                out.push(Op::Neg);
            }
        }
        Node::Pow(b, x) => {
            emit(b, ctx, out)?;
            match x.as_int() {
                Some(k) if i32::try_from(k).is_ok() => out.push(Op::Powi(k as i32)),
                _ => {
                    emit(x, ctx, out)?;
                    out.push(Op::Powf);
                }
            }
        }
        Node::Call(f, args) => match f {
            Func::Max | Func::Min => {
                emit(&args[0], ctx, out)?;
                emit(&args[1], ctx, out)?;
                out.push(if *f == Func::Max { Op::Max } else { Op::Min });
            }
            _ => {
                emit(&args[0], ctx, out)?;
                out.push(Op::Call1(*f));
            }
        },
        Node::Select(c, a, b) => {
            emit(&c.lhs, ctx, out)?;
            emit(&c.rhs, ctx, out)?;
            emit(a, ctx, out)?;
            emit(b, ctx, out)?;
            out.push(Op::Select(c.rel));
        }
        Node::UFun(app) | Node::UDeriv(app, _) => {
            return Err(ExecError::Unsupported(format!(
                "uninterpreted function `{}` (generate code via perforad-codegen instead)",
                app.name
            )));
        }
    }
    Ok(())
}

fn measure_stack(ops: &[Op]) -> usize {
    let mut depth = 0usize;
    let mut max = 0usize;
    for op in ops {
        let (pops, pushes) = match op {
            Op::Const(_) | Op::Counter(_) | Op::Load { .. } | Op::LoadPadded { .. } => (0, 1),
            Op::Add | Op::Mul | Op::Max | Op::Min | Op::Powf => (2, 1),
            Op::Neg | Op::Powi(_) | Op::Call1(_) => (1, 1),
            Op::Select(_) => (4, 1),
            Op::StoreTmp(_) => (1, 0),
            Op::LoadTmp(_) => (0, 1),
        };
        depth -= pops;
        depth += pushes;
        max = max.max(depth);
    }
    max
}

/// Read-only view of one array's storage for VM evaluation.
///
/// Raw pointers (rather than slices) because a kernel mixes shared reads
/// with exclusive writes to *different* arrays owned by the same workspace;
/// disjointness is validated when the plan is built.
#[derive(Clone, Copy)]
pub struct ArrayView {
    pub ptr: *const f64,
    pub len: usize,
}

/// Per-point VM environment.
pub struct PointEnv<'a> {
    pub arrays: &'a [ArrayView],
    /// Current counter values, outermost first.
    pub counters: &'a [i64],
    /// Shared extents (for padded loads).
    pub dims: &'a [usize],
    /// Shared strides.
    pub strides: &'a [usize],
    /// Linear index of `counters` in the shared layout.
    pub center: isize,
}

impl Program {
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// Number of CSE temporary slots this program uses.
    pub fn n_tmps(&self) -> usize {
        self.n_tmps
    }

    /// `0.0 + p1 + p2 + …`, left to right: the increments one nest adds to
    /// one point of an accumulated array, summed from `+0.0` as a zeroed
    /// scratch point would sum them. Each part keeps its own CSE
    /// temporaries (renumbered past the earlier parts').
    pub fn sum_from_zero<'p>(parts: impl IntoIterator<Item = &'p Program>) -> Program {
        let mut sum = Program {
            ops: vec![Op::Const(0.0)],
            max_stack: 0,
            n_tmps: 0,
        };
        for part in parts {
            let base = sum.n_tmps as u16;
            sum.ops.extend(part.ops.iter().map(|op| match op {
                Op::StoreTmp(k) => Op::StoreTmp(base + k),
                Op::LoadTmp(k) => Op::LoadTmp(base + k),
                op => op.clone(),
            }));
            sum.ops.push(Op::Add);
            sum.n_tmps += part.n_tmps;
        }
        sum.max_stack = measure_stack(&sum.ops);
        sum
    }

    /// A stable structural key over the op sequence (constants keyed by
    /// bit pattern). Two programs with equal fingerprints evaluate
    /// identically at every point, so plan compilation dedups on this —
    /// adjoint decompositions repeat the same RHS across many nests.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut key = Vec::with_capacity(self.ops.len() * 2);
        for op in &self.ops {
            match op {
                Op::Const(v) => key.extend([0, v.to_bits()]),
                Op::Counter(d) => key.extend([1, *d as u64]),
                Op::Load { slot, rel } => key.extend([2, *slot as u64, *rel as u32 as u64]),
                Op::LoadPadded { slot, offsets } => {
                    key.extend([3, *slot as u64, offsets.len() as u64]);
                    key.extend(offsets.iter().map(|&o| o as u64));
                }
                Op::Add => key.push(4),
                Op::Mul => key.push(5),
                Op::Neg => key.push(6),
                Op::Powi(k) => key.extend([7, *k as u32 as u64]),
                Op::Powf => key.push(8),
                Op::Call1(f) => key.extend([9, *f as u64]),
                Op::Max => key.push(10),
                Op::Min => key.push(11),
                Op::Select(rel) => key.extend([12, *rel as u64]),
                Op::StoreTmp(k) => key.extend([13, *k as u64]),
                Op::LoadTmp(k) => key.extend([14, *k as u64]),
            }
        }
        key
    }

    /// Evaluate at one grid point. `stack` is caller-provided scratch, so a
    /// hot loop performs no allocation.
    #[inline]
    pub fn eval(&self, env: &PointEnv<'_>, stack: &mut Vec<f64>) -> f64 {
        self.eval_with_tmps(env, stack, &mut [])
    }

    /// Like [`Program::eval`], with caller-provided temp slots (length at
    /// least [`Program::n_tmps`]).
    #[inline]
    pub fn eval_with_tmps(
        &self,
        env: &PointEnv<'_>,
        stack: &mut Vec<f64>,
        tmps: &mut [f64],
    ) -> f64 {
        stack.clear();
        for op in &self.ops {
            match op {
                Op::Const(v) => stack.push(*v),
                Op::Counter(d) => stack.push(env.counters[*d as usize] as f64),
                Op::Load { slot, rel } => {
                    let a = &env.arrays[*slot as usize];
                    let idx = env.center + *rel as isize;
                    debug_assert!(
                        idx >= 0 && (idx as usize) < a.len,
                        "VM load out of range: {idx} not in 0..{}",
                        a.len
                    );
                    // SAFETY: F1 — plan compilation proved every (bounds,
                    // offset) combination of this statement inside the
                    // array, and points are only evaluated inside their
                    // nest's bounds.
                    stack.push(unsafe { *a.ptr.offset(idx) });
                }
                Op::LoadPadded { slot, offsets } => {
                    let a = &env.arrays[*slot as usize];
                    let mut lin: isize = 0;
                    let mut inside = true;
                    for (d, &o) in offsets.iter().enumerate() {
                        let ix = env.counters[d] + o;
                        if ix < 0 || ix as usize >= env.dims[d] {
                            inside = false;
                            break;
                        }
                        lin += ix as isize * env.strides[d] as isize;
                    }
                    if inside {
                        debug_assert!((lin as usize) < a.len);
                        // SAFETY: F1's padded case — every dimension was
                        // checked inside the extents just above.
                        stack.push(unsafe { *a.ptr.offset(lin) });
                    } else {
                        stack.push(0.0);
                    }
                }
                Op::Add => binop(stack, |a, b| a + b),
                Op::Mul => binop(stack, |a, b| a * b),
                Op::Neg => {
                    let a = stack.last_mut().unwrap();
                    *a = -*a;
                }
                Op::Powi(k) => {
                    let a = stack.last_mut().unwrap();
                    *a = a.powi(*k);
                }
                Op::Powf => binop(stack, f64::powf),
                Op::Call1(f) => {
                    let a = stack.last_mut().unwrap();
                    *a = call1(*f, *a);
                }
                Op::Max => binop(stack, |a, b| if a >= b { a } else { b }),
                Op::Min => binop(stack, |a, b| if a <= b { a } else { b }),
                Op::Select(rel) => {
                    let else_v = stack.pop().unwrap();
                    let then_v = stack.pop().unwrap();
                    let rhs = stack.pop().unwrap();
                    let lhs = stack.pop().unwrap();
                    stack.push(if rel.holds(lhs, rhs) { then_v } else { else_v });
                }
                Op::StoreTmp(k) => {
                    tmps[*k as usize] = stack.pop().unwrap();
                }
                Op::LoadTmp(k) => {
                    stack.push(tmps[*k as usize]);
                }
            }
        }
        debug_assert_eq!(stack.len(), 1);
        stack.pop().unwrap()
    }
}

/// Apply a unary function exactly as the VM does — shared by the stack
/// interpreter, the register-IR constant folder, and the row executor so
/// all three stay bitwise-identical (`Sign` in particular has bespoke
/// zero handling).
#[inline]
pub fn call1(f: Func, a: f64) -> f64 {
    match f {
        Func::Sin => a.sin(),
        Func::Cos => a.cos(),
        Func::Tan => a.tan(),
        Func::Exp => a.exp(),
        Func::Ln => a.ln(),
        Func::Sqrt => a.sqrt(),
        Func::Abs => a.abs(),
        Func::Sign => {
            if a > 0.0 {
                1.0
            } else if a < 0.0 {
                -1.0
            } else {
                0.0
            }
        }
        Func::Tanh => a.tanh(),
        Func::Max | Func::Min => unreachable!("binary funcs use Max/Min ops"),
    }
}

#[inline]
fn binop(stack: &mut Vec<f64>, f: impl Fn(f64, f64) -> f64) {
    let b = stack.pop().unwrap();
    let a = stack.last_mut().unwrap();
    *a = f(*a, b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_symbolic::{ix, Array, Cond, Expr};

    fn ctx<'a>(
        arrays: &'a [Symbol],
        counters: &'a [Symbol],
        strides: &'a [usize],
        padded: bool,
    ) -> CompileCtx<'a> {
        CompileCtx {
            arrays,
            counters,
            strides,
            padded,
            temps: &[],
        }
    }

    fn eval1d(e: &Expr, data: &[f64], center: usize) -> f64 {
        let arrays = [Symbol::new("u")];
        let counters = [Symbol::new("i")];
        let strides = [1usize];
        let prog = compile(e, &ctx(&arrays, &counters, &strides, false)).unwrap();
        let views = [ArrayView {
            ptr: data.as_ptr(),
            len: data.len(),
        }];
        let dims = [data.len()];
        let env = PointEnv {
            arrays: &views,
            counters: &[center as i64],
            dims: &dims,
            strides: &strides,
            center: center as isize,
        };
        let mut stack = Vec::with_capacity(prog.max_stack());
        prog.eval(&env, &mut stack)
    }

    #[test]
    fn arithmetic_matches_tree_eval() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = 2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1]);
        let v = eval1d(&e, &[1.0, 2.0, 3.0], 1);
        assert_eq!(v, 2.0 - 6.0 + 12.0);
    }

    #[test]
    fn powers_and_functions() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        assert_eq!(eval1d(&u.at(ix![&i]).powi(3), &[2.0], 0), 8.0);
        let v = eval1d(&u.at(ix![&i]).sin(), &[0.5], 0);
        assert!((v - 0.5f64.sin()).abs() < 1e-15);
        let e = u.at(ix![&i]).max(Expr::float(0.25));
        assert_eq!(eval1d(&e, &[-1.0], 0), 0.25);
    }

    #[test]
    fn select_branches() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let cond = Cond::new(u.at(ix![&i]), Rel::Ge, Expr::zero());
        let e = Expr::select(cond, Expr::float(1.0), Expr::float(-1.0));
        assert_eq!(eval1d(&e, &[3.0], 0), 1.0);
        assert_eq!(eval1d(&e, &[-3.0], 0), -1.0);
    }

    #[test]
    fn padded_loads_are_zero_outside() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let arrays = [Symbol::new("u")];
        let counters = [Symbol::new("i")];
        let strides = [1usize];
        let prog = compile(&u.at(ix![&i - 1]), &ctx(&arrays, &counters, &strides, true)).unwrap();
        let data = [7.0, 8.0];
        let views = [ArrayView {
            ptr: data.as_ptr(),
            len: 2,
        }];
        let dims = [2usize];
        let mut stack = Vec::new();
        // At i=0 the load u[i-1] is out of range -> 0.0.
        let env = PointEnv {
            arrays: &views,
            counters: &[0],
            dims: &dims,
            strides: &strides,
            center: 0,
        };
        assert_eq!(prog.eval(&env, &mut stack), 0.0);
        let env = PointEnv {
            arrays: &views,
            counters: &[1],
            dims: &dims,
            strides: &strides,
            center: 1,
        };
        assert_eq!(prog.eval(&env, &mut stack), 7.0);
    }

    #[test]
    fn counters_in_scalar_position() {
        let i = Symbol::new("i");
        let e = Expr::sym(i.clone()) * Expr::float(2.0);
        let v = eval1d(&e, &[0.0, 0.0, 0.0], 2);
        assert_eq!(v, 4.0);
    }

    #[test]
    fn unknown_parameter_is_an_error() {
        let i = Symbol::new("i");
        let e = Expr::sym(Symbol::new("D")) * Expr::sym(i);
        let arrays = [Symbol::new("u")];
        let counters = [Symbol::new("i")];
        let strides = [1usize];
        assert!(matches!(
            compile(&e, &ctx(&arrays, &counters, &strides, false)),
            Err(ExecError::UnboundParam(_))
        ));
    }

    #[test]
    fn stack_depth_is_measured() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = (u.at(ix![&i]) + 1.0) * (u.at(ix![&i]) + 2.0);
        let arrays = [Symbol::new("u")];
        let counters = [Symbol::new("i")];
        let strides = [1usize];
        let prog = compile(&e, &ctx(&arrays, &counters, &strides, false)).unwrap();
        assert!(prog.max_stack() >= 2);
    }
}
