//! Register-based linear IR — the second lowering stage of the pipeline.
//!
//! The stack [`Program`](crate::bytecode::Program) produced by
//! [`crate::bytecode::compile`] is convenient to build but expensive to
//! interpret: every op pays stack push/pop traffic and the dispatch loop
//! runs once per grid point. This module lowers each stack program into a
//! flat three-address form over virtual registers — the shape the paper's
//! emitted C loops take before icc vectorises them — so the
//! [`crate::rows`] executor can evaluate one op across a whole lane chunk
//! of consecutive grid points at a time.
//!
//! Lowering is a single pass of abstract stack simulation (each stack
//! slot becomes a register name), followed by local optimisations that
//! are all **bitwise-neutral** with respect to the interpreter:
//!
//! * **constant folding** — an op whose inputs are all constants is
//!   evaluated at lowering time with the exact f64 arithmetic the
//!   interpreter would have used at run time;
//! * **constant/load/counter dedup** — value numbering merges repeated
//!   `Const`, `Load`, `LoadPadded` and `Counter` ops (reads never alias
//!   writes within a plan, so reloads are pure);
//! * **identity / neg-mul peepholes** — `x * 1.0` forwards `x`
//!   (bit-exact in IEEE-754), `x * -1.0` and `-1.0 * x` become [`RegOp::Neg`]
//!   (exact sign flip; the bytecode front end already applies the same
//!   rewrite to leading `-1` factors), `-(-x)` forwards `x`, `x.powi(1)`
//!   forwards `x`. Neutrality is guaranteed for non-NaN data — for a NaN
//!   operand, `x * -1.0` propagates the payload sign on x86 while `Neg`
//!   flips it, a carve-out shared with the front end's rewrite;
//! * **dead-register elimination** — ops whose destination is never read
//!   on any path to the result are dropped and registers renumbered
//!   compactly (CSE temporaries frequently die once their uses fold).
//!
//! Additions with a `0.0` operand are deliberately *not* folded:
//! `-0.0 + 0.0` is `+0.0`, so the rewrite would not be bitwise-neutral.

use crate::bytecode::{call1, Op, Program};
use perforad_symbolic::{Func, Rel};
use std::collections::BTreeMap;

/// A virtual register index.
pub type Reg = u16;

/// One three-address instruction. Every op defines exactly one register
/// (SSA as [`lower`] emits it, until `reuse_registers` renames them);
/// operands are registers defined earlier.
#[derive(Clone, Debug, PartialEq)]
pub enum RegOp {
    /// `dst = v`.
    Const { dst: Reg, v: f64 },
    /// `dst = counters[dim] as f64`.
    Counter { dst: Reg, dim: u16 },
    /// `dst = arrays[slot][center + rel]` (range proven at plan time).
    Load { dst: Reg, slot: u16, rel: i32 },
    /// `dst = arrays[slot][counters + pads[pad].offsets]` or `0.0` outside
    /// the physical extents (zero-padding semantics). `pad` indexes
    /// [`RegProgram::pads`].
    LoadPadded { dst: Reg, slot: u16, pad: u16 },
    /// `dst = a + b`.
    Add { dst: Reg, a: Reg, b: Reg },
    /// `dst = a * b`.
    Mul { dst: Reg, a: Reg, b: Reg },
    /// `dst = -a`.
    Neg { dst: Reg, a: Reg },
    /// `dst = a.powi(k)`.
    Powi { dst: Reg, a: Reg, k: i32 },
    /// `dst = a.powf(b)`.
    Powf { dst: Reg, a: Reg, b: Reg },
    /// `dst = f(a)`.
    Call1 { dst: Reg, f: Func, a: Reg },
    /// `dst = if a >= b { a } else { b }` (interpreter semantics, not
    /// `f64::max` — NaN handling must match bitwise).
    Max { dst: Reg, a: Reg, b: Reg },
    /// `dst = if a <= b { a } else { b }`.
    Min { dst: Reg, a: Reg, b: Reg },
    /// `dst = if lhs REL rhs { then_v } else { else_v }`.
    Select {
        dst: Reg,
        rel: Rel,
        lhs: Reg,
        rhs: Reg,
        then_v: Reg,
        else_v: Reg,
    },
}

impl RegOp {
    /// The register this op defines.
    pub fn dst(&self) -> Reg {
        match *self {
            RegOp::Const { dst, .. }
            | RegOp::Counter { dst, .. }
            | RegOp::Load { dst, .. }
            | RegOp::LoadPadded { dst, .. }
            | RegOp::Add { dst, .. }
            | RegOp::Mul { dst, .. }
            | RegOp::Neg { dst, .. }
            | RegOp::Powi { dst, .. }
            | RegOp::Powf { dst, .. }
            | RegOp::Call1 { dst, .. }
            | RegOp::Max { dst, .. }
            | RegOp::Min { dst, .. }
            | RegOp::Select { dst, .. } => dst,
        }
    }

    fn operands(&self, out: &mut Vec<Reg>) {
        out.clear();
        match *self {
            RegOp::Const { .. }
            | RegOp::Counter { .. }
            | RegOp::Load { .. }
            | RegOp::LoadPadded { .. } => {}
            RegOp::Neg { a, .. } | RegOp::Powi { a, .. } | RegOp::Call1 { a, .. } => out.push(a),
            RegOp::Add { a, b, .. }
            | RegOp::Mul { a, b, .. }
            | RegOp::Powf { a, b, .. }
            | RegOp::Max { a, b, .. }
            | RegOp::Min { a, b, .. } => {
                out.push(a);
                out.push(b);
            }
            RegOp::Select {
                lhs,
                rhs,
                then_v,
                else_v,
                ..
            } => {
                out.push(lhs);
                out.push(rhs);
                out.push(then_v);
                out.push(else_v);
            }
        }
    }

    fn remap(&mut self, map: &[Reg]) {
        macro_rules! m {
            ($($r:expr),*) => {{ $(*$r = map[*$r as usize];)* }};
        }
        match self {
            RegOp::Const { dst, .. }
            | RegOp::Counter { dst, .. }
            | RegOp::Load { dst, .. }
            | RegOp::LoadPadded { dst, .. } => m!(dst),
            RegOp::Neg { dst, a } | RegOp::Powi { dst, a, .. } | RegOp::Call1 { dst, a, .. } => {
                m!(dst, a)
            }
            RegOp::Add { dst, a, b }
            | RegOp::Mul { dst, a, b }
            | RegOp::Powf { dst, a, b }
            | RegOp::Max { dst, a, b }
            | RegOp::Min { dst, a, b } => m!(dst, a, b),
            RegOp::Select {
                dst,
                lhs,
                rhs,
                then_v,
                else_v,
                ..
            } => m!(dst, lhs, rhs, then_v, else_v),
        }
    }
}

/// A padded (zero outside the extents) array access, one per
/// [`RegOp::LoadPadded`] site after dedup.
#[derive(Clone, Debug, PartialEq)]
pub struct PadLoad {
    /// Per-dimension stencil offsets, outermost first.
    pub offsets: Box<[i64]>,
}

/// A lowered, optimised register program: the unit the row executor runs.
#[derive(Clone, Debug, Default)]
pub struct RegProgram {
    /// Instructions in execution order.
    pub ops: Vec<RegOp>,
    /// Padded-load descriptors referenced by [`RegOp::LoadPadded::pad`].
    pub pads: Vec<PadLoad>,
    /// Registers required (lane-file size = `n_regs * LANES`).
    pub n_regs: usize,
    /// Register holding the statement's value after the last op.
    pub result: Reg,
}

impl RegProgram {
    /// True when no load has zero-padding semantics (the whole row is
    /// interior).
    pub fn is_pad_free(&self) -> bool {
        self.pads.is_empty()
    }
}

/// Lowering state: abstract stack of register names plus per-register
/// value-numbering facts.
struct Lowerer {
    ops: Vec<RegOp>,
    pads: Vec<PadLoad>,
    stack: Vec<Reg>,
    tmps: Vec<Reg>,
    /// Known constant value of each register, if any.
    const_val: Vec<Option<f64>>,
    /// `neg_of[r] = Some(a)` when register `r` was defined as `-a`.
    neg_of: Vec<Option<Reg>>,
    /// Value-numbering tables (bit patterns / load sites → register).
    const_regs: BTreeMap<u64, Reg>,
    load_regs: BTreeMap<(u16, i32), Reg>,
    pad_regs: BTreeMap<(u16, Box<[i64]>), Reg>,
    counter_regs: BTreeMap<u16, Reg>,
}

impl Lowerer {
    fn fresh(&mut self) -> Reg {
        // Strict `<` keeps Reg::MAX free as the dead-register sentinel.
        assert!(
            self.const_val.len() < Reg::MAX as usize,
            "register overflow while lowering a statement body"
        );
        let r = self.const_val.len() as Reg;
        self.const_val.push(None);
        self.neg_of.push(None);
        r
    }

    fn konst(&mut self, v: f64) -> Reg {
        if let Some(&r) = self.const_regs.get(&v.to_bits()) {
            return r;
        }
        let dst = self.fresh();
        self.const_val[dst as usize] = Some(v);
        self.const_regs.insert(v.to_bits(), dst);
        self.ops.push(RegOp::Const { dst, v });
        dst
    }

    fn cval(&self, r: Reg) -> Option<f64> {
        self.const_val[r as usize]
    }

    fn neg(&mut self, a: Reg) -> Reg {
        if let Some(v) = self.cval(a) {
            return self.konst(-v);
        }
        if let Some(orig) = self.neg_of[a as usize] {
            return orig;
        }
        let dst = self.fresh();
        self.neg_of[dst as usize] = Some(a);
        self.ops.push(RegOp::Neg { dst, a });
        dst
    }

    fn mul(&mut self, a: Reg, b: Reg) -> Reg {
        let (ca, cb) = (self.cval(a), self.cval(b));
        if let (Some(x), Some(y)) = (ca, cb) {
            return self.konst(x * y);
        }
        // `1.0 * x` is bit-exact `x`; `-1.0 * x` is an exact sign flip.
        if ca == Some(1.0) {
            return b;
        }
        if cb == Some(1.0) {
            return a;
        }
        if ca == Some(-1.0) {
            return self.neg(b);
        }
        if cb == Some(-1.0) {
            return self.neg(a);
        }
        let dst = self.fresh();
        self.ops.push(RegOp::Mul { dst, a, b });
        dst
    }

    fn binary(
        &mut self,
        a: Reg,
        b: Reg,
        make: fn(Reg, Reg, Reg) -> RegOp,
        fold: fn(f64, f64) -> f64,
    ) -> Reg {
        if let (Some(x), Some(y)) = (self.cval(a), self.cval(b)) {
            return self.konst(fold(x, y));
        }
        let dst = self.fresh();
        self.ops.push(make(dst, a, b));
        dst
    }
}

/// Lower a compiled stack program into an optimised register program.
///
/// Every transformation applied here is bitwise-neutral: the row executor
/// evaluating the result at one grid point performs exactly the same f64
/// operations (possibly fewer, never different) as
/// [`Program::eval_with_tmps`](crate::bytecode::Program::eval_with_tmps).
pub fn lower(prog: &Program) -> RegProgram {
    let mut lw = Lowerer {
        ops: Vec::with_capacity(prog.ops().len()),
        pads: Vec::new(),
        stack: Vec::new(),
        tmps: vec![Reg::MAX; prog.n_tmps()],
        const_val: Vec::new(),
        neg_of: Vec::new(),
        const_regs: BTreeMap::new(),
        load_regs: BTreeMap::new(),
        pad_regs: BTreeMap::new(),
        counter_regs: BTreeMap::new(),
    };
    for op in prog.ops() {
        match op {
            Op::Const(v) => {
                let r = lw.konst(*v);
                lw.stack.push(r);
            }
            Op::Counter(d) => {
                let r = if let Some(&r) = lw.counter_regs.get(d) {
                    r
                } else {
                    let dst = lw.fresh();
                    lw.counter_regs.insert(*d, dst);
                    lw.ops.push(RegOp::Counter { dst, dim: *d });
                    dst
                };
                lw.stack.push(r);
            }
            Op::Load { slot, rel } => {
                let r = if let Some(&r) = lw.load_regs.get(&(*slot, *rel)) {
                    r
                } else {
                    let dst = lw.fresh();
                    lw.load_regs.insert((*slot, *rel), dst);
                    lw.ops.push(RegOp::Load {
                        dst,
                        slot: *slot,
                        rel: *rel,
                    });
                    dst
                };
                lw.stack.push(r);
            }
            Op::LoadPadded { slot, offsets } => {
                let key = (*slot, offsets.clone());
                let r = if let Some(&r) = lw.pad_regs.get(&key) {
                    r
                } else {
                    assert!(
                        lw.pads.len() < u16::MAX as usize,
                        "padded-load overflow while lowering a statement body"
                    );
                    let pad = lw.pads.len() as u16;
                    lw.pads.push(PadLoad {
                        offsets: offsets.clone(),
                    });
                    let dst = lw.fresh();
                    lw.pad_regs.insert(key, dst);
                    lw.ops.push(RegOp::LoadPadded {
                        dst,
                        slot: *slot,
                        pad,
                    });
                    dst
                };
                lw.stack.push(r);
            }
            Op::Add => {
                let b = lw.stack.pop().unwrap();
                let a = lw.stack.pop().unwrap();
                let r = lw.binary(a, b, |dst, a, b| RegOp::Add { dst, a, b }, |x, y| x + y);
                lw.stack.push(r);
            }
            Op::Mul => {
                let b = lw.stack.pop().unwrap();
                let a = lw.stack.pop().unwrap();
                let r = lw.mul(a, b);
                lw.stack.push(r);
            }
            Op::Neg => {
                let a = lw.stack.pop().unwrap();
                let r = lw.neg(a);
                lw.stack.push(r);
            }
            Op::Powi(k) => {
                let a = lw.stack.pop().unwrap();
                let r = if let Some(v) = lw.cval(a) {
                    lw.konst(v.powi(*k))
                } else if *k == 1 {
                    // `x.powi(1)` is exactly `x`.
                    a
                } else {
                    let dst = lw.fresh();
                    lw.ops.push(RegOp::Powi { dst, a, k: *k });
                    dst
                };
                lw.stack.push(r);
            }
            Op::Powf => {
                let b = lw.stack.pop().unwrap();
                let a = lw.stack.pop().unwrap();
                let r = lw.binary(a, b, |dst, a, b| RegOp::Powf { dst, a, b }, f64::powf);
                lw.stack.push(r);
            }
            Op::Call1(f) => {
                let a = lw.stack.pop().unwrap();
                let r = if let Some(v) = lw.cval(a) {
                    lw.konst(call1(*f, v))
                } else {
                    let dst = lw.fresh();
                    lw.ops.push(RegOp::Call1 { dst, f: *f, a });
                    dst
                };
                lw.stack.push(r);
            }
            Op::Max => {
                let b = lw.stack.pop().unwrap();
                let a = lw.stack.pop().unwrap();
                let r = lw.binary(
                    a,
                    b,
                    |dst, a, b| RegOp::Max { dst, a, b },
                    |x, y| if x >= y { x } else { y },
                );
                lw.stack.push(r);
            }
            Op::Min => {
                let b = lw.stack.pop().unwrap();
                let a = lw.stack.pop().unwrap();
                let r = lw.binary(
                    a,
                    b,
                    |dst, a, b| RegOp::Min { dst, a, b },
                    |x, y| if x <= y { x } else { y },
                );
                lw.stack.push(r);
            }
            Op::Select(rel) => {
                let else_v = lw.stack.pop().unwrap();
                let then_v = lw.stack.pop().unwrap();
                let rhs = lw.stack.pop().unwrap();
                let lhs = lw.stack.pop().unwrap();
                let r = match (lw.cval(lhs), lw.cval(rhs)) {
                    (Some(x), Some(y)) => {
                        if rel.holds(x, y) {
                            then_v
                        } else {
                            else_v
                        }
                    }
                    _ => {
                        let dst = lw.fresh();
                        lw.ops.push(RegOp::Select {
                            dst,
                            rel: *rel,
                            lhs,
                            rhs,
                            then_v,
                            else_v,
                        });
                        dst
                    }
                };
                lw.stack.push(r);
            }
            Op::StoreTmp(k) => {
                let r = lw.stack.pop().unwrap();
                lw.tmps[*k as usize] = r;
            }
            Op::LoadTmp(k) => {
                let r = lw.tmps[*k as usize];
                debug_assert_ne!(r, Reg::MAX, "LoadTmp before StoreTmp");
                lw.stack.push(r);
            }
        }
    }
    debug_assert_eq!(lw.stack.len(), 1, "program must leave one value");
    let result = lw.stack.pop().unwrap();
    eliminate_dead(lw.ops, lw.pads, result)
}

/// Drop ops whose destination never reaches `result`, renumber registers
/// compactly in definition order, and drop pads that lost their last use.
fn eliminate_dead(ops: Vec<RegOp>, pads: Vec<PadLoad>, result: Reg) -> RegProgram {
    let n = ops.len().max(result as usize + 1);
    let mut live = vec![false; n];
    live[result as usize] = true;
    let mut operands = Vec::with_capacity(4);
    // Ops are SSA in definition order, so one reverse sweep settles liveness.
    for op in ops.iter().rev() {
        if live[op.dst() as usize] {
            op.operands(&mut operands);
            for &r in &operands {
                live[r as usize] = true;
            }
        }
    }
    let mut reg_map = vec![Reg::MAX; n];
    let mut pad_map = vec![u16::MAX; pads.len()];
    let mut kept_pads = Vec::new();
    let mut kept = Vec::with_capacity(ops.len());
    let mut next: Reg = 0;
    for mut op in ops {
        if !live[op.dst() as usize] {
            continue;
        }
        reg_map[op.dst() as usize] = next;
        next += 1;
        if let RegOp::LoadPadded { pad, .. } = &mut op {
            let old = *pad as usize;
            if pad_map[old] == u16::MAX {
                pad_map[old] = kept_pads.len() as u16;
                kept_pads.push(pads[old].clone());
            }
            *pad = pad_map[old];
        }
        op.remap(&reg_map);
        kept.push(op);
    }
    RegProgram {
        ops: kept,
        pads: kept_pads,
        n_regs: next as usize,
        result: reg_map[result as usize],
    }
}

/// Rename `prog`'s registers so that a definition takes over a register
/// whose last reader has run: the lane file shrinks from one register per
/// op to the most values live at once. The row executor reads an op's
/// operands lane by lane before writing that lane, so a destination may
/// be one of its own operands. For accumulate mode's summed programs,
/// whose length is a nest's worth of statements but whose live values are
/// one statement's.
pub(crate) fn reuse_registers(prog: RegProgram) -> RegProgram {
    let mut last_read = vec![0usize; prog.n_regs];
    let mut operands = Vec::with_capacity(4);
    for (k, op) in prog.ops.iter().enumerate() {
        op.operands(&mut operands);
        for &r in &operands {
            last_read[r as usize] = k;
        }
    }
    last_read[prog.result as usize] = usize::MAX;
    let (mut map, mut free, mut n_regs) = (vec![Reg::MAX; prog.n_regs], Vec::new(), 0);
    let mut ops = prog.ops;
    for (k, op) in ops.iter_mut().enumerate() {
        op.operands(&mut operands);
        for (j, &r) in operands.iter().enumerate() {
            if last_read[r as usize] == k && !operands[..j].contains(&r) {
                free.push(map[r as usize]);
            }
        }
        map[op.dst() as usize] = free.pop().unwrap_or_else(|| {
            n_regs += 1;
            (n_regs - 1) as Reg
        });
        op.remap(&map);
    }
    RegProgram {
        ops,
        pads: prog.pads,
        n_regs,
        result: map[prog.result as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile, compile_with_bindings, CompileCtx};
    use perforad_symbolic::{ix, Array, Expr, Symbol};

    fn lower_1d(e: &Expr, padded: bool) -> RegProgram {
        let arrays = [Symbol::new("u")];
        let counters = [Symbol::new("i")];
        let strides = [1usize];
        let ctx = CompileCtx {
            arrays: &arrays,
            counters: &counters,
            strides: &strides,
            padded,
            temps: &[],
        };
        lower(&compile(e, &ctx).unwrap())
    }

    #[test]
    fn constants_fold_and_dedup() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        // 2*3 folds; the folded 6 and the explicit 6 share one register.
        let e = Expr::float(2.0) * Expr::float(3.0) * u.at(ix![&i]) + Expr::float(6.0);
        let p = lower_1d(&e, false);
        let consts = p
            .ops
            .iter()
            .filter(|o| matches!(o, RegOp::Const { .. }))
            .count();
        assert_eq!(consts, 1, "{:?}", p.ops);
    }

    #[test]
    fn repeated_loads_share_a_register() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = u.at(ix![&i]) * u.at(ix![&i]) + u.at(ix![&i]);
        let p = lower_1d(&e, false);
        let loads = p
            .ops
            .iter()
            .filter(|o| matches!(o, RegOp::Load { .. }))
            .count();
        assert_eq!(loads, 1, "{:?}", p.ops);
    }

    #[test]
    fn neg_mul_peephole_emits_neg() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        // The bytecode front end already folds a leading -1 factor; force a
        // trailing one through explicit multiplication.
        let e = u.at(ix![&i]) * Expr::float(-1.0);
        let p = lower_1d(&e, false);
        assert!(p.ops.iter().any(|o| matches!(o, RegOp::Neg { .. })));
        assert!(!p.ops.iter().any(|o| matches!(o, RegOp::Mul { .. })));
    }

    #[test]
    fn mul_by_one_is_forwarded() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = u.at(ix![&i]) * Expr::float(1.0);
        let p = lower_1d(&e, false);
        assert_eq!(p.ops.len(), 1, "{:?}", p.ops);
        assert!(matches!(p.ops[0], RegOp::Load { .. }));
    }

    #[test]
    fn dead_registers_are_eliminated() {
        // A CSE binding that is never used must vanish entirely.
        let i = Symbol::new("i");
        let u = Array::new("u");
        let arrays = [Symbol::new("u")];
        let counters = [Symbol::new("i")];
        let strides = [1usize];
        let ctx = CompileCtx {
            arrays: &arrays,
            counters: &counters,
            strides: &strides,
            padded: false,
            temps: &[],
        };
        let dead = (Symbol::new("t0"), u.at(ix![&i + 1]).sin());
        let prog = compile_with_bindings(&[dead], &u.at(ix![&i]), &ctx).unwrap();
        let p = lower(&prog);
        assert_eq!(p.ops.len(), 1, "{:?}", p.ops);
        assert!(matches!(p.ops[0], RegOp::Load { .. }));
        assert_eq!(p.n_regs, 1);
        assert_eq!(p.result, 0);
    }

    #[test]
    fn padded_loads_dedup_and_register_pads() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = u.at(ix![&i - 1]) + u.at(ix![&i - 1]) + u.at(ix![&i + 1]);
        let p = lower_1d(&e, true);
        assert_eq!(p.pads.len(), 2, "{:?}", p.pads);
        let pad_loads = p
            .ops
            .iter()
            .filter(|o| matches!(o, RegOp::LoadPadded { .. }))
            .count();
        assert_eq!(pad_loads, 2);
    }

    #[test]
    fn registers_are_ssa_and_compact() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = (u.at(ix![&i]) + 1.0) * (u.at(ix![&i + 1]) + 2.0).sin();
        let p = lower_1d(&e, false);
        let mut seen = vec![false; p.n_regs];
        for op in &p.ops {
            let d = op.dst() as usize;
            assert!(!seen[d], "register {d} defined twice");
            seen[d] = true;
        }
        assert!(seen.iter().all(|&s| s), "register numbering has gaps");
        assert_eq!(p.result as usize, p.n_regs - 1);
    }

    /// A long sum of short terms needs the registers of one term, not one
    /// per op — and evaluates to the same value as the SSA program, here
    /// replayed one point at a time with a destination read before it is
    /// written, as the row executor does lane by lane.
    #[test]
    fn reused_registers_hold_the_live_values_only() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let terms = (-3..=3).map(|o| (u.at(vec![&i + o]) * (0.5 + o as f64)).sin());
        let e = Expr::add_all(terms.collect());
        let ssa = lower_1d(&e, false);
        let reused = reuse_registers(ssa.clone());
        assert_eq!(reused.ops.len(), ssa.ops.len());
        assert!(reused.n_regs <= 4, "{} of {}", reused.n_regs, ssa.n_regs);
        let data: Vec<f64> = (0..9).map(|k| 0.3 * k as f64 - 1.1).collect();
        let eval = |p: &RegProgram| {
            let mut regs = vec![f64::NAN; p.n_regs];
            for op in &p.ops {
                let mut ins = Vec::new();
                op.operands(&mut ins);
                let x: Vec<f64> = ins.iter().map(|&r| regs[r as usize]).collect();
                regs[op.dst() as usize] = match *op {
                    RegOp::Const { v, .. } => v,
                    RegOp::Load { rel, .. } => data[(4 + rel) as usize],
                    RegOp::Mul { .. } => x[0] * x[1],
                    RegOp::Add { .. } => x[0] + x[1],
                    RegOp::Call1 { f, .. } => call1(f, x[0]),
                    ref other => unreachable!("{other:?}"),
                };
            }
            regs[p.result as usize]
        };
        assert_eq!(eval(&reused).to_bits(), eval(&ssa).to_bits());
    }
}
