//! Register-based linear IR: the one lowered form of a statement body.
//!
//! Plan compilation ([`crate::kernel`]) lowers each distinct substituted
//! right-hand side straight from its `Expr` into a flat three-address
//! program over virtual registers — the shape the paper's emitted C loops
//! take before icc vectorises them. Every lowering runs that program:
//! `Lowering::PerPoint` evaluates it one point at a time (the
//! reference, `RegProgram::eval_point`), the [`crate::rows`]
//! executor one op across a lane chunk of consecutive grid points, and
//! `perforad-jit` prints it as Rust.
//!
//! The walk is post-order — an accumulate-mode sum is `0.0` plus each
//! member in statement order — and optimises as it emits. Every rewrite
//! is **bitwise-neutral** with respect to evaluating the expression tree:
//!
//! * **constant folding** — an op whose inputs are all constants is
//!   evaluated at lowering time with the f64 arithmetic the op would use
//!   at run time;
//! * **constant/load/counter dedup** — value numbering merges repeated
//!   constants, loads, padded loads and counters (reads never alias
//!   writes within a plan, so reloads are pure);
//! * **identity / neg-mul peepholes** — a leading `-1` factor, `x * -1.0`
//!   and `-1.0 * x` become [`RegOp::Neg`] (an exact sign flip), `x * 1.0`
//!   forwards `x` (bit-exact in IEEE-754), `-(-x)` forwards `x`,
//!   `x.powi(1)` forwards `x`. Neutrality holds for non-NaN data: for a
//!   NaN operand, `x * -1.0` propagates the payload sign on x86 while
//!   `Neg` flips it;
//! * **dead-register elimination** — ops whose destination is never read
//!   on any path to the result are dropped and registers renumbered
//!   compactly (operands of folded ops die).
//!
//! Additions with a `0.0` operand are deliberately *not* folded:
//! `-0.0 + 0.0` is `+0.0`, so the rewrite would not be bitwise-neutral.
//!
//! The walk also records the program's key, a structural word sequence
//! over the same post-order. Plan compilation dedups equal programs on it,
//! and [`crate::Plan::fingerprint`] reads its hash, taken once per program.

use crate::error::ExecError;
use crate::native::WordHash;
use crate::tile::Buffers;
use perforad_symbolic::{Access, Expr, Func, Node, Rel, Symbol};
use std::collections::BTreeMap;

/// A virtual register index.
pub type Reg = u16;

/// One three-address instruction. Every op defines exactly one register
/// (SSA as the walk emits it, until `reuse_registers` renames them);
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
    /// `dst = if a >= b { a } else { b }` (a comparison, not `f64::max`:
    /// NaN handling must match the expression's bitwise).
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

    /// The op's operand registers, in order, into `out`.
    fn operands(&self, out: &mut Vec<Reg>) {
        out.clear();
        self.clone().regs_mut(|r| out.push(*r));
        out.pop();
    }

    /// Rename every register the op names through `map`.
    fn remap(&mut self, map: &[Reg]) {
        self.regs_mut(|r| *r = map[*r as usize]);
    }

    /// Call `f` on each register the op names: its operands in order, then
    /// its destination.
    fn regs_mut(&mut self, f: impl FnMut(&mut Reg)) {
        match self {
            RegOp::Const { dst, .. }
            | RegOp::Counter { dst, .. }
            | RegOp::Load { dst, .. }
            | RegOp::LoadPadded { dst, .. } => [dst].into_iter().for_each(f),
            RegOp::Neg { dst, a } | RegOp::Powi { dst, a, .. } | RegOp::Call1 { dst, a, .. } => {
                [a, dst].into_iter().for_each(f)
            }
            RegOp::Add { dst, a, b }
            | RegOp::Mul { dst, a, b }
            | RegOp::Powf { dst, a, b }
            | RegOp::Max { dst, a, b }
            | RegOp::Min { dst, a, b } => [a, b, dst].into_iter().for_each(f),
            RegOp::Select {
                dst,
                lhs,
                rhs,
                then_v,
                else_v,
                ..
            } => [lhs, rhs, then_v, else_v, dst].into_iter().for_each(f),
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

/// A lowered, optimised register program: the unit every lowering runs.
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
    /// The structural words of the program, recorded by the walk in
    /// post-order: a tag per node (`0` constant, `1` counter, `2` load, `3`
    /// padded load, `4` add, `5` multiply, `6` negate, `7` integer power,
    /// `8` power, `9` function, `10` max, `11` min, `12` select), then its
    /// operands: constants by bit pattern, a load as slot and relative
    /// offset, a padded load as slot, length and offsets. Programs with
    /// equal keys evaluate identically at every point.
    pub(crate) key: Vec<u64>,
    /// The key's length and words through one [`WordHash`], hashed once
    /// when the program is built: what [`crate::Plan::fingerprint`] hashes
    /// for each statement that runs this program.
    pub(crate) key_hash: u64,
}

/// Apply a unary function: the one definition the constant folder, the
/// per-point evaluator and the row executor share (`Sign` in particular
/// has bespoke zero handling).
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
        Func::Max | Func::Min => unreachable!("binary funcs lower to Max/Min ops"),
    }
}

/// [`RegOp::Max`]'s arithmetic: a comparison, not `f64::max` (NaN order).
#[inline]
pub(crate) fn max(x: f64, y: f64) -> f64 {
    if x >= y {
        x
    } else {
        y
    }
}

/// [`RegOp::Min`]'s arithmetic.
#[inline]
pub(crate) fn min(x: f64, y: f64) -> f64 {
    if x <= y {
        x
    } else {
        y
    }
}

/// One grid point of a bound plan, as [`RegProgram::eval_point`] reads it.
pub(crate) struct Point<'a> {
    /// The plan's arrays.
    pub(crate) bufs: &'a Buffers,
    /// Counter values, outermost first.
    pub(crate) counters: &'a [i64],
    /// Shared extents and strides of every array.
    pub(crate) dims: &'a [usize],
    pub(crate) strides: &'a [usize],
    /// Linear index of `counters`.
    pub(crate) center: isize,
}

impl RegProgram {
    /// Evaluate at one grid point, one op at a time in the plain register
    /// slice `regs` (at least [`RegProgram::n_regs`] long): the per-point
    /// reference that the row executor's lane chunks, hoisted guards and
    /// split pad segments are held to. Padded loads check their indices
    /// here, at every point.
    ///
    /// # Safety
    ///
    /// Fact F1 of [`crate::tile`] must cover every unpadded load at `at`:
    /// the point lies inside the effective bounds of a statement of a plan
    /// that proved each of its loads in range, and `at.bufs` point at that
    /// plan's arrays, laid out by `at.dims` and `at.strides`.
    #[inline]
    pub(crate) unsafe fn eval_point(&self, at: &Point<'_>, regs: &mut [f64]) -> f64 {
        for op in &self.ops {
            let r = |reg: Reg| regs[reg as usize];
            let (dst, v) = match *op {
                RegOp::Const { dst, v } => (dst, v),
                RegOp::Counter { dst, dim } => (dst, at.counters[dim as usize] as f64),
                RegOp::Load { dst, slot, rel } => {
                    let idx = at.center + rel as isize;
                    debug_assert!(idx >= 0 && (idx as usize) < at.bufs.len);
                    // SAFETY: F1, this function's contract, puts `idx` in
                    // range of the array in `slot`.
                    (dst, unsafe { *at.bufs.ptrs[slot as usize].offset(idx) })
                }
                RegOp::LoadPadded { dst, slot, pad } => {
                    let mut lin = 0isize;
                    let offsets = self.pads[pad as usize].offsets.iter();
                    let inside = offsets.enumerate().all(|(d, &o)| {
                        let ix = at.counters[d] + o;
                        lin += ix as isize * at.strides[d] as isize;
                        ix >= 0 && (ix as usize) < at.dims[d]
                    });
                    debug_assert!(!inside || (lin as usize) < at.bufs.len);
                    // SAFETY: F1's padded case — every index was checked
                    // inside its extent just above.
                    let v = inside.then(|| unsafe { *at.bufs.ptrs[slot as usize].offset(lin) });
                    (dst, v.unwrap_or(0.0))
                }
                RegOp::Add { dst, a, b } => (dst, r(a) + r(b)),
                RegOp::Mul { dst, a, b } => (dst, r(a) * r(b)),
                RegOp::Neg { dst, a } => (dst, -r(a)),
                RegOp::Powi { dst, a, k } => (dst, r(a).powi(k)),
                RegOp::Powf { dst, a, b } => (dst, r(a).powf(r(b))),
                RegOp::Call1 { dst, f, a } => (dst, call1(f, r(a))),
                RegOp::Max { dst, a, b } => (dst, max(r(a), r(b))),
                RegOp::Min { dst, a, b } => (dst, min(r(a), r(b))),
                RegOp::Select {
                    dst,
                    rel,
                    lhs,
                    rhs,
                    then_v,
                    else_v,
                } => (
                    dst,
                    r(if rel.holds(r(lhs), r(rhs)) {
                        then_v
                    } else {
                        else_v
                    }),
                ),
            };
            regs[dst as usize] = v;
        }
        regs[self.result as usize]
    }
}

/// What a walk resolves names against.
pub(crate) struct Layout<'a> {
    /// Array slot order (index = slot).
    pub(crate) arrays: &'a [Symbol],
    /// Loop counters, outermost first.
    pub(crate) counters: &'a [Symbol],
    /// Shared element strides of every array.
    pub(crate) strides: &'a [usize],
    /// Loads read zero outside the extents.
    pub(crate) padded: bool,
}

/// A value-numbered op that reads no register: equal leaves share one.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum Leaf {
    /// A constant, by bit pattern.
    Const(u64),
    Counter(u16),
    Load(u16, i32),
    Padded(u16, Box<[i64]>),
}

/// A walk in progress: the ops emitted so far — register `r` is defined
/// by `ops[r]` until [`Lowerer::finish`] — and the program's key.
pub(crate) struct Lowerer<'a> {
    layout: &'a Layout<'a>,
    ops: Vec<RegOp>,
    pads: Vec<PadLoad>,
    /// The key of the program walked.
    pub(crate) key: Vec<u64>,
    /// The register of each leaf emitted.
    leaves: BTreeMap<Leaf, Reg>,
    result: Reg,
}

impl<'a> Lowerer<'a> {
    fn new(layout: &'a Layout<'a>) -> Lowerer<'a> {
        Lowerer {
            layout,
            ops: Vec::new(),
            pads: Vec::new(),
            key: Vec::new(),
            leaves: BTreeMap::new(),
            result: 0,
        }
    }

    /// Walk one statement body. Parameters and sizes are substituted
    /// away; the symbols left are loop counters.
    pub(crate) fn statement(layout: &'a Layout<'a>, rhs: &Expr) -> Result<Self, ExecError> {
        let mut lw = Lowerer::new(layout);
        lw.result = lw.walk(rhs)?;
        Ok(lw)
    }

    /// Walk `0.0 + m1 + m2 + …`, left to right: the increments one nest
    /// adds to one point of an accumulated array, summed from `+0.0` as a
    /// zeroed scratch point would sum them.
    pub(crate) fn sum<'r>(
        layout: &'a Layout<'a>,
        members: impl IntoIterator<Item = &'r Expr>,
    ) -> Result<Self, ExecError> {
        let mut lw = Lowerer::new(layout);
        let mut acc = lw.num(0.0);
        for member in members {
            let r = lw.walk(member)?;
            lw.key.push(4);
            acc = lw.add(acc, r);
        }
        lw.result = acc;
        Ok(lw)
    }

    /// The optimised program: dead registers eliminated.
    pub(crate) fn finish(self) -> RegProgram {
        eliminate_dead(self.ops, self.pads, self.result, self.key)
    }

    fn walk(&mut self, e: &Expr) -> Result<Reg, ExecError> {
        Ok(match e.node() {
            Node::Num(n) => self.num(n.to_f64()),
            Node::Sym(s) => {
                let d = (self.layout.counters.iter().position(|c| c == s))
                    .ok_or_else(|| ExecError::UnboundParam(s.name().to_string()))?;
                self.key.extend([1, d as u64]);
                self.leaf(Leaf::Counter(d as u16))
            }
            Node::Access(a) => self.access(a)?,
            Node::Add(ts) => {
                let mut acc = self.walk(&ts[0])?;
                for t in &ts[1..] {
                    let r = self.walk(t)?;
                    self.key.push(4);
                    acc = self.add(acc, r);
                }
                acc
            }
            Node::Mul(fs) => {
                // A leading `-1` factor lowers to a negation, not a multiply.
                let negate = matches!(fs[0].as_num(), Some(n) if n.to_f64() == -1.0);
                let rest = if negate { &fs[1..] } else { &fs[..] };
                let mut acc = self.walk(&rest[0])?;
                for t in &rest[1..] {
                    let r = self.walk(t)?;
                    self.key.push(5);
                    acc = self.mul(acc, r);
                }
                if negate {
                    self.key.push(6);
                    acc = self.neg(acc);
                }
                acc
            }
            Node::Pow(b, x) => {
                let a = self.walk(b)?;
                if let Some(k) = x.as_int().and_then(|k| i32::try_from(k).ok()) {
                    self.key.extend([7, k as u32 as u64]);
                    match self.cval(a) {
                        Some(v) => self.konst(v.powi(k)),
                        // `x.powi(1)` is exactly `x`.
                        None if k == 1 => a,
                        None => self.emit(|dst| RegOp::Powi { dst, a, k }),
                    }
                } else {
                    let y = self.walk(x)?;
                    self.key.push(8);
                    self.binary(a, y, |dst, a, b| RegOp::Powf { dst, a, b }, f64::powf)
                }
            }
            Node::Call(f @ (Func::Max | Func::Min), args) => {
                let a = self.walk(&args[0])?;
                let b = self.walk(&args[1])?;
                if *f == Func::Max {
                    self.key.push(10);
                    self.binary(a, b, |dst, a, b| RegOp::Max { dst, a, b }, max)
                } else {
                    self.key.push(11);
                    self.binary(a, b, |dst, a, b| RegOp::Min { dst, a, b }, min)
                }
            }
            Node::Call(f, args) => {
                let a = self.walk(&args[0])?;
                self.key.extend([9, *f as u64]);
                match self.cval(a) {
                    Some(v) => self.konst(call1(*f, v)),
                    None => self.emit(|dst| RegOp::Call1 { dst, f: *f, a }),
                }
            }
            Node::Select(c, a, b) => {
                let (lhs, rhs) = (self.walk(&c.lhs)?, self.walk(&c.rhs)?);
                let (then_v, else_v) = (self.walk(a)?, self.walk(b)?);
                let rel = c.rel;
                self.key.extend([12, rel as u64]);
                match (self.cval(lhs), self.cval(rhs)) {
                    (Some(x), Some(y)) if rel.holds(x, y) => then_v,
                    (Some(_), Some(_)) => else_v,
                    _ => self.emit(|dst| RegOp::Select {
                        dst,
                        rel,
                        lhs,
                        rhs,
                        then_v,
                        else_v,
                    }),
                }
            }
            Node::UFun(app) | Node::UDeriv(app, _) => {
                return Err(ExecError::Unsupported(format!(
                    "uninterpreted function `{}` (generate code via perforad-codegen instead)",
                    app.name
                )));
            }
        })
    }

    fn access(&mut self, a: &Access) -> Result<Reg, ExecError> {
        let Layout {
            arrays,
            counters,
            strides,
            padded,
        } = *self.layout;
        let slot = (arrays.iter().position(|x| *x == a.array))
            .ok_or_else(|| crate::error::unknown(&a.array))? as u16;
        let mut offsets = Vec::with_capacity(a.indices.len());
        for (d, ix) in a.indices.iter().enumerate() {
            let c = counters.get(d).ok_or_else(|| ExecError::RankMismatch {
                array: a.array.name().to_string(),
                rank: a.indices.len(),
                nest: counters.len(),
            })?;
            let o = ix
                .is_offset_of(c)
                .ok_or_else(|| ExecError::Unsupported(format!("non-stencil access `{a}`")))?;
            offsets.push(o);
        }
        if padded {
            self.key.extend([3, slot as u64, offsets.len() as u64]);
            self.key.extend(offsets.iter().map(|&o| o as u64));
            return Ok(self.leaf(Leaf::Padded(slot, offsets.into_boxed_slice())));
        }
        let rel = offsets.iter().zip(strides);
        let rel = rel.map(|(&o, &s)| o * s as i64).sum::<i64>() as i32;
        self.key.extend([2, slot as u64, rel as u32 as u64]);
        Ok(self.leaf(Leaf::Load(slot, rel)))
    }

    /// A fresh register, defined by `make(dst)`.
    fn emit(&mut self, make: impl FnOnce(Reg) -> RegOp) -> Reg {
        // Strict `<` keeps Reg::MAX free as the dead-register sentinel.
        assert!(
            self.ops.len() < Reg::MAX as usize,
            "register overflow while lowering a statement body"
        );
        let dst = self.ops.len() as Reg;
        self.ops.push(make(dst));
        dst
    }

    /// A constant the expression names.
    fn num(&mut self, v: f64) -> Reg {
        self.key.extend([0, v.to_bits()]);
        self.konst(v)
    }

    fn konst(&mut self, v: f64) -> Reg {
        self.leaf(Leaf::Const(v.to_bits()))
    }

    /// The value of `r` when it is a constant.
    fn cval(&self, r: Reg) -> Option<f64> {
        match self.ops[r as usize] {
            RegOp::Const { v, .. } => Some(v),
            _ => None,
        }
    }

    /// `leaf`'s register, emitted on first sight.
    fn leaf(&mut self, leaf: Leaf) -> Reg {
        if let Some(&r) = self.leaves.get(&leaf) {
            return r;
        }
        let pad = u16::try_from(self.pads.len()).expect("padded-load overflow");
        let dst = self.emit(|dst| match leaf {
            Leaf::Const(bits) => RegOp::Const {
                dst,
                v: f64::from_bits(bits),
            },
            Leaf::Counter(dim) => RegOp::Counter { dst, dim },
            Leaf::Load(slot, rel) => RegOp::Load { dst, slot, rel },
            Leaf::Padded(slot, _) => RegOp::LoadPadded { dst, slot, pad },
        });
        if let Leaf::Padded(_, offsets) = &leaf {
            let offsets = offsets.clone();
            self.pads.push(PadLoad { offsets });
        }
        self.leaves.insert(leaf, dst);
        dst
    }

    fn add(&mut self, a: Reg, b: Reg) -> Reg {
        self.binary(a, b, |dst, a, b| RegOp::Add { dst, a, b }, |x, y| x + y)
    }

    fn neg(&mut self, a: Reg) -> Reg {
        match self.ops[a as usize] {
            RegOp::Const { v, .. } => self.konst(-v),
            // `-(-x)` is exactly `x`.
            RegOp::Neg { a: orig, .. } => orig,
            _ => self.emit(|dst| RegOp::Neg { dst, a }),
        }
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
        self.emit(|dst| RegOp::Mul { dst, a, b })
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
        self.emit(|dst| make(dst, a, b))
    }
}

/// Drop ops whose destination never reaches `result`, renumber registers
/// compactly in definition order, and drop pads that lost their last use.
fn eliminate_dead(ops: Vec<RegOp>, pads: Vec<PadLoad>, result: Reg, key: Vec<u64>) -> RegProgram {
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
    let mut h = WordHash::new();
    h.list(key.iter().copied());
    RegProgram {
        ops: kept,
        pads: kept_pads,
        n_regs: next as usize,
        result: reg_map[result as usize],
        key,
        key_hash: h.finish(),
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
        key: prog.key,
        key_hash: prog.key_hash,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_symbolic::{ix, Array, Cond};

    /// `body` lowered over one array `u` and one counter `i` (stride 1).
    fn lower(body: &Expr, padded: bool) -> Result<RegProgram, ExecError> {
        let (arrays, counters) = ([Symbol::new("u")], [Symbol::new("i")]);
        let layout = Layout {
            arrays: &arrays,
            counters: &counters,
            strides: &[1],
            padded,
        };
        Ok(Lowerer::statement(&layout, body)?.finish())
    }

    fn lower_1d(e: &Expr, padded: bool) -> RegProgram {
        lower(e, padded).unwrap()
    }

    /// `prog` at `i = center` over `u = data`, on the per-point evaluator.
    fn eval_at(prog: &RegProgram, data: &[f64], center: usize) -> f64 {
        let bufs = Buffers {
            ptrs: vec![data.as_ptr() as *mut f64],
            len: data.len(),
        };
        let at = Point {
            bufs: &bufs,
            counters: &[center as i64],
            dims: &[data.len()],
            strides: &[1],
            center: center as isize,
        };
        let mut regs = vec![f64::NAN; prog.n_regs];
        // SAFETY: F1 by hand — each caller's unpadded loads stay inside
        // `data` at `center`, and nothing is written.
        unsafe { prog.eval_point(&at, &mut regs) }
    }

    fn eval1d(e: &Expr, data: &[f64], center: usize) -> f64 {
        eval_at(&lower_1d(e, false), data, center)
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
        let prog = lower_1d(&Array::new("u").at(ix![&i - 1]), true);
        // At i=0 the load u[i-1] is out of range -> 0.0.
        assert_eq!(eval_at(&prog, &[7.0, 8.0], 0), 0.0);
        assert_eq!(eval_at(&prog, &[7.0, 8.0], 1), 7.0);
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
        assert_eq!(
            lower(&e, false).unwrap_err(),
            ExecError::UnboundParam("D".into())
        );
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
        // The walk negates a leading -1 factor itself; force a trailing
        // one through explicit multiplication.
        let e = u.at(ix![&i]) * Expr::float(-1.0);
        let p = lower_1d(&e, false);
        assert!(p.ops.iter().any(|o| matches!(o, RegOp::Neg { .. })));
        assert!(!p.ops.iter().any(|o| matches!(o, RegOp::Mul { .. })));
    }

    #[test]
    fn mul_by_one_is_forwarded() {
        // A literal `1.0`, or `cos(0)`, folds away when the product is
        // built. `sign(2^(1/2))` stays a call and is exactly `1.0` only
        // once lowered, so the multiply reaches the lowerer's peephole.
        let i = Symbol::new("i");
        let u = Array::new("u");
        let one = Expr::int(2).pow(Expr::rational(1, 2)).sign();
        let e = u.at(ix![&i]) * one;
        assert!(matches!(e.node(), Node::Mul(..)), "{e}");
        let p = lower_1d(&e, false);
        assert_eq!(p.ops.len(), 1, "{:?}", p.ops);
        assert!(matches!(p.ops[0], RegOp::Load { .. }));
    }

    #[test]
    fn dead_registers_are_eliminated() {
        // `2^(1/2)` stays a `Pow` node in the expression (both operands
        // are exact) and folds only when lowered, so the select is built
        // whole and the lowerer emits the condition's constants and both
        // branches before folding it. The dead branch's load and `sin`,
        // and the constants, must vanish entirely.
        let i = Symbol::new("i");
        let u = Array::new("u");
        let root2 = Expr::int(2).pow(Expr::rational(1, 2));
        assert!(matches!(root2.node(), Node::Pow(..)), "{root2}");
        let cond = Cond::new(root2, Rel::Ge, Expr::zero());
        let e = Expr::select(cond, u.at(ix![&i]), u.at(ix![&i + 1]).sin());
        assert!(matches!(e.node(), Node::Select(..)), "{e}");
        let p = lower_1d(&e, false);
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

    /// A sum's key is `0.0`, then each member's words and an add.
    #[test]
    fn a_sums_key_is_zero_then_each_member_and_an_add() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let (arrays, counters) = ([Symbol::new("u")], [i.clone()]);
        let layout = Layout {
            arrays: &arrays,
            counters: &counters,
            strides: &[1],
            padded: false,
        };
        // `s·s` for `s = sin(u[i+1])`, which the expression keeps as `s^2`.
        let member = u.at(ix![&i + 1]).sin() * u.at(ix![&i + 1]).sin();
        let one = Lowerer::statement(&layout, &member).unwrap();
        let words = vec![2, 0, 1, 9, Func::Sin as u64, 7, 2];
        assert_eq!(one.key, words);
        let sum = Lowerer::sum(&layout, [&member, &member]).unwrap();
        let zero = vec![0, 0.0f64.to_bits()];
        let want = [zero, words.clone(), vec![4], words, vec![4]].concat();
        assert_eq!(sum.key, want);
        // Value numbering spans the members: the second member reuses the
        // first one's load, and computes its own sine and square.
        let p = reuse_registers(sum.finish());
        assert_eq!(p.ops.len(), 8, "{:?}", p.ops);
        let data = [0.0, 0.25, 0.5];
        let x = 0.5f64.sin().powi(2);
        assert_eq!(eval_at(&p, &data, 1).to_bits(), (0.0 + x + x).to_bits());
    }

    /// A long sum of short terms needs the registers of one term, not one
    /// per op — and evaluates to the same value as the SSA program, on the
    /// per-point evaluator, which writes a destination after reading its
    /// operands as the row executor does lane by lane.
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
        assert_eq!(
            eval_at(&reused, &data, 4).to_bits(),
            eval_at(&ssa, &data, 4).to_bits()
        );
    }
}
