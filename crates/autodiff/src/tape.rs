//! Tape-based reverse-mode AD by operator overloading.
//!
//! This is the *conventional* AD mechanism of the paper's baselines
//! (ADOL-C-style taping, Tapenade-style statement reversal): every scalar
//! operation records its local partials on a [`Tape`]; [`Tape::gradient`]
//! plays the tape backwards. Because [`Var`] implements the symbolic
//! crate's [`Scalar`] trait, an entire stencil loop nest can be evaluated
//! over `Var` to obtain a reference adjoint for §3.6-style verification.
//!
//! [`Scalar`]: perforad_symbolic::Scalar

use std::cell::RefCell;

#[derive(Clone, Copy)]
struct TapeNode {
    /// Up to two parents: (index, ∂self/∂parent).
    parents: [(u32, f64); 2],
    n: u8,
}

/// A gradient tape. Grows with every recorded operation.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<TapeNode>>,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record an independent input variable.
    pub fn input(&self, value: f64) -> Var<'_> {
        let idx = self.push(TapeNode {
            parents: [(0, 0.0); 2],
            n: 0,
        });
        Var {
            tape: Some(self),
            idx,
            val: value,
        }
    }

    /// A constant (not recorded).
    pub fn constant(value: f64) -> Var<'static> {
        Var {
            tape: None,
            idx: u32::MAX,
            val: value,
        }
    }

    fn push(&self, node: TapeNode) -> u32 {
        let mut nodes = self.nodes.borrow_mut();
        let idx = nodes.len() as u32;
        nodes.push(node);
        idx
    }

    fn unary(&self, a: u32, da: f64, val: f64) -> Var<'_> {
        let idx = self.push(TapeNode {
            parents: [(a, da), (0, 0.0)],
            n: 1,
        });
        Var {
            tape: Some(self),
            idx,
            val,
        }
    }

    fn binary(&self, a: u32, da: f64, b: u32, db: f64, val: f64) -> Var<'_> {
        let idx = self.push(TapeNode {
            parents: [(a, da), (b, db)],
            n: 2,
        });
        Var {
            tape: Some(self),
            idx,
            val,
        }
    }

    /// Reverse sweep: gradient of the variable `output` with respect to
    /// every recorded node. Index with [`Var::tape_index`].
    pub fn gradient(&self, output: &Var<'_>) -> Vec<f64> {
        let nodes = self.nodes.borrow();
        let mut adj = vec![0.0; nodes.len()];
        if let Some(idx) = output.tape_index() {
            adj[idx as usize] = 1.0;
            for k in (0..nodes.len()).rev() {
                let a = adj[k];
                if a == 0.0 {
                    continue;
                }
                let node = &nodes[k];
                for p in 0..node.n as usize {
                    let (pi, d) = node.parents[p];
                    adj[pi as usize] += d * a;
                }
            }
        }
        adj
    }
}

/// A value recorded on (or constant with respect to) a [`Tape`].
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: Option<&'t Tape>,
    idx: u32,
    val: f64,
}

impl<'t> Var<'t> {
    pub fn value(&self) -> f64 {
        self.val
    }

    /// Tape index, if this value was recorded.
    pub fn tape_index(&self) -> Option<u32> {
        self.tape.map(|_| self.idx)
    }

    fn tape_of(a: &Var<'t>, b: &Var<'t>) -> Option<&'t Tape> {
        a.tape.or(b.tape)
    }

    fn lift(a: &Var<'t>) -> (u32, bool) {
        match a.tape {
            Some(_) => (a.idx, true),
            None => (0, false),
        }
    }

    /// Record `f(a, b)` with local partials `da`, `db`.
    pub fn binary_op(a: &Var<'t>, b: &Var<'t>, val: f64, da: f64, db: f64) -> Var<'t> {
        match Var::tape_of(a, b) {
            None => Tape::constant(val),
            Some(t) => {
                let (ai, a_rec) = Var::lift(a);
                let (bi, b_rec) = Var::lift(b);
                match (a_rec, b_rec) {
                    (true, true) => t.binary(ai, da, bi, db, val),
                    (true, false) => t.unary(ai, da, val),
                    (false, true) => t.unary(bi, db, val),
                    (false, false) => unreachable!(),
                }
            }
        }
    }

    /// Record `f(a)` with local partial `da`.
    pub fn unary_op(a: &Var<'t>, val: f64, da: f64) -> Var<'t> {
        match a.tape {
            None => Tape::constant(val),
            Some(t) => t.unary(a.idx, da, val),
        }
    }
}

impl perforad_symbolic::Scalar for Var<'_> {
    fn from_f64(v: f64) -> Self {
        Tape::constant(v)
    }

    fn value(&self) -> f64 {
        self.val
    }

    fn add(&self, o: &Self) -> Self {
        Var::binary_op(self, o, self.val + o.val, 1.0, 1.0)
    }

    fn sub(&self, o: &Self) -> Self {
        Var::binary_op(self, o, self.val - o.val, 1.0, -1.0)
    }

    fn mul(&self, o: &Self) -> Self {
        Var::binary_op(self, o, self.val * o.val, o.val, self.val)
    }

    fn div(&self, o: &Self) -> Self {
        Var::binary_op(
            self,
            o,
            self.val / o.val,
            1.0 / o.val,
            -self.val / (o.val * o.val),
        )
    }

    fn neg(&self) -> Self {
        Var::unary_op(self, -self.val, -1.0)
    }

    fn powi(&self, k: i64) -> Self {
        let val = self.val.powi(k as i32);
        let da = k as f64 * self.val.powi(k as i32 - 1);
        Var::unary_op(self, val, da)
    }

    fn powf(&self, e: &Self) -> Self {
        let val = self.val.powf(e.val);
        let da = e.val * self.val.powf(e.val - 1.0);
        let db = val * self.val.ln();
        Var::binary_op(self, e, val, da, db)
    }

    fn sin(&self) -> Self {
        Var::unary_op(self, self.val.sin(), self.val.cos())
    }

    fn cos(&self) -> Self {
        Var::unary_op(self, self.val.cos(), -self.val.sin())
    }

    fn tan(&self) -> Self {
        let t = self.val.tan();
        Var::unary_op(self, t, 1.0 + t * t)
    }

    fn exp(&self) -> Self {
        let v = self.val.exp();
        Var::unary_op(self, v, v)
    }

    fn ln(&self) -> Self {
        Var::unary_op(self, self.val.ln(), 1.0 / self.val)
    }

    fn sqrt(&self) -> Self {
        let v = self.val.sqrt();
        Var::unary_op(self, v, 0.5 / v)
    }

    fn abs(&self) -> Self {
        let s = if self.val >= 0.0 { 1.0 } else { -1.0 };
        Var::unary_op(self, self.val.abs(), s)
    }

    fn sign(&self) -> Self {
        let v = if self.val > 0.0 {
            1.0
        } else if self.val < 0.0 {
            -1.0
        } else {
            0.0
        };
        Tape::constant(v)
    }

    fn tanh(&self) -> Self {
        let t = self.val.tanh();
        Var::unary_op(self, t, 1.0 - t * t)
    }

    fn max2(&self, o: &Self) -> Self {
        // Piecewise: derivative follows the selected branch (>= like the
        // paper's ternary).
        if self.val >= o.val {
            Var::binary_op(self, o, self.val, 1.0, 0.0)
        } else {
            Var::binary_op(self, o, o.val, 0.0, 1.0)
        }
    }

    fn min2(&self, o: &Self) -> Self {
        if self.val <= o.val {
            Var::binary_op(self, o, self.val, 1.0, 0.0)
        } else {
            Var::binary_op(self, o, o.val, 0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_symbolic::Scalar;

    #[test]
    fn product_and_sum_gradients() {
        let t = Tape::new();
        let x = t.input(3.0);
        let y = t.input(4.0);
        // f = x*y + x
        let f = x.mul(&y).add(&x);
        assert_eq!(f.value(), 15.0);
        let g = t.gradient(&f);
        assert_eq!(g[x.tape_index().unwrap() as usize], 5.0); // y + 1
        assert_eq!(g[y.tape_index().unwrap() as usize], 3.0); // x
    }

    #[test]
    fn constants_are_not_recorded() {
        let t = Tape::new();
        let x = t.input(2.0);
        let before = t.len();
        let c = Tape::constant(10.0);
        let f = x.mul(&c);
        assert_eq!(f.value(), 20.0);
        assert_eq!(t.len(), before + 1); // only the multiply
        let g = t.gradient(&f);
        assert_eq!(g[x.tape_index().unwrap() as usize], 10.0);
    }

    #[test]
    fn transcendental_chain() {
        let t = Tape::new();
        let x = t.input(0.7);
        let f = x.sin().exp(); // e^{sin x}, df/dx = cos(x) e^{sin x}
        let g = t.gradient(&f);
        let expect = 0.7f64.cos() * 0.7f64.sin().exp();
        assert!((g[x.tape_index().unwrap() as usize] - expect).abs() < 1e-14);
    }

    #[test]
    fn piecewise_max_follows_branch() {
        let t = Tape::new();
        let x = t.input(2.0);
        let zero = Tape::constant(0.0);
        let f = x.max2(&zero);
        let g = t.gradient(&f);
        assert_eq!(g[x.tape_index().unwrap() as usize], 1.0);

        let t = Tape::new();
        let x = t.input(-2.0);
        let zero = Tape::constant(0.0);
        let f = x.max2(&zero);
        let g = t.gradient(&f);
        assert_eq!(g[x.tape_index().unwrap() as usize], 0.0);
    }

    #[test]
    fn division_and_powers() {
        let t = Tape::new();
        let x = t.input(2.0);
        let f = Tape::constant(1.0).div(&x).add(&x.powi(3));
        let g = t.gradient(&f);
        let expect = -0.25 + 12.0; // -1/x^2 + 3x^2
        assert!((g[x.tape_index().unwrap() as usize] - expect).abs() < 1e-14);
    }

    #[test]
    fn gradient_against_finite_differences() {
        let f = |x: f64, y: f64| (x * y).sin() + (x / y).sqrt() * y.tanh();
        let (x0, y0) = (1.2, 0.8);
        let t = Tape::new();
        let x = t.input(x0);
        let y = t.input(y0);
        let fx = x.mul(&y).sin().add(&x.div(&y).sqrt().mul(&y.tanh()));
        let g = t.gradient(&fx);
        let h = 1e-6;
        let gx = (f(x0 + h, y0) - f(x0 - h, y0)) / (2.0 * h);
        let gy = (f(x0, y0 + h) - f(x0, y0 - h)) / (2.0 * h);
        assert!((g[x.tape_index().unwrap() as usize] - gx).abs() < 1e-7);
        assert!((g[y.tape_index().unwrap() as usize] - gy).abs() < 1e-7);
    }
}
