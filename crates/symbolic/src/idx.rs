//! Affine index expressions.
//!
//! Array accesses in stencil loops use indices that are affine in the loop
//! counters and grid-extent symbols: `i + 1`, `n - 2`, `0`. [`Idx`] is the
//! normal form `sum_k c_k * s_k + offset` with integer coefficients. The
//! adjoint transformation's *shift* step (§3.3.2 of the paper) is a constant
//! translation of these expressions, and loop bounds reuse the same type.
//!
//! Nearly every index a stencil pipeline meets is a constant or
//! `counter + c`: those two forms are stored inline and cost no allocation,
//! and only a general affine form (`n - m + 1`) keeps a sorted term list.
//! All three are read through one slice (`Terms::as_slice`); `Eq`, `Ord`
//! and `Hash` are written by hand over `(that slice, offset)` — what the
//! derived impls gave while the terms were a `BTreeMap<Symbol, i64>` — so
//! canonical expression order, and with it every printed form and
//! fingerprint, does not depend on which form holds a value.

use crate::symbol::Symbol;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Neg, Sub};

/// The `coeff·sym` part of an [`Idx`]: sorted by symbol, no zero
/// coefficient. `Many` holds at least two terms.
#[derive(Clone, Default)]
enum Terms {
    #[default]
    None,
    One((Symbol, i64)),
    Many(Vec<(Symbol, i64)>),
}

impl Terms {
    fn as_slice(&self) -> &[(Symbol, i64)] {
        match self {
            Terms::None => &[],
            Terms::One(t) => std::slice::from_ref(t),
            Terms::Many(v) => v,
        }
    }
}

/// An affine integer expression over symbols: `Σ coeff·sym + offset`.
///
/// Invariant: no stored coefficient is zero.
#[derive(Clone, Default)]
pub struct Idx {
    terms: Terms,
    offset: i64,
}

impl PartialEq for Idx {
    fn eq(&self, other: &Idx) -> bool {
        self.offset == other.offset && self.terms.as_slice() == other.terms.as_slice()
    }
}

impl Eq for Idx {}

impl Ord for Idx {
    fn cmp(&self, other: &Idx) -> Ordering {
        (self.terms.as_slice().cmp(other.terms.as_slice())).then(self.offset.cmp(&other.offset))
    }
}

impl PartialOrd for Idx {
    fn partial_cmp(&self, other: &Idx) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Idx {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.terms.as_slice().hash(state);
        self.offset.hash(state);
    }
}

impl Idx {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        Idx::default() + c
    }

    /// The expression `s` (a bare symbol).
    pub fn sym(s: impl Into<Symbol>) -> Self {
        Idx::scaled(s, 1)
    }

    /// The expression `coeff * s`.
    pub fn scaled(s: impl Into<Symbol>, coeff: i64) -> Self {
        let terms = match coeff {
            0 => Terms::None,
            _ => Terms::One((s.into(), coeff)),
        };
        Idx { terms, offset: 0 }
    }

    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Coefficient of `s` (zero if absent).
    pub fn coeff(&self, s: &Symbol) -> i64 {
        let found = self.terms.as_slice().iter().find(|(t, _)| t == s);
        found.map_or(0, |&(_, c)| c)
    }

    /// Iterate over `(symbol, coefficient)` pairs with non-zero coefficients.
    pub fn terms(&self) -> impl Iterator<Item = (&Symbol, i64)> {
        self.terms.as_slice().iter().map(|(s, c)| (s, *c))
    }

    /// The constant value, if this is a plain constant.
    pub fn as_constant(&self) -> Option<i64> {
        self.terms.as_slice().is_empty().then_some(self.offset)
    }

    /// True if the expression is exactly `sym + c` for the given symbol.
    pub fn is_offset_of(&self, s: &Symbol) -> Option<i64> {
        match self.terms.as_slice() {
            [(t, 1)] if t == s => Some(self.offset),
            _ => None,
        }
    }

    /// Symbols appearing with non-zero coefficient.
    pub fn symbols(&self) -> impl Iterator<Item = &Symbol> {
        self.terms.as_slice().iter().map(|(s, _)| s)
    }

    /// Add a constant in place.
    pub fn shift(&self, delta: i64) -> Idx {
        self.clone() + delta
    }

    /// Substitute each symbol by another affine expression.
    pub fn subst(&self, map: &BTreeMap<Symbol, Idx>) -> Idx {
        let mut out = Idx::constant(self.offset);
        for (s, c) in self.terms() {
            match map.get(s) {
                Some(rep) => {
                    for (rs, rc) in rep.terms() {
                        out.add_term(rs.clone(), rc * c);
                    }
                    out.offset += rep.offset * c;
                }
                None => out.add_term(s.clone(), c),
            }
        }
        out
    }

    /// Evaluate with integer bindings for every symbol present.
    ///
    /// Returns `None` if a symbol is unbound.
    pub fn eval(&self, env: &BTreeMap<Symbol, i64>) -> Option<i64> {
        let mut acc = self.offset;
        for (s, c) in self.terms() {
            acc += c * env.get(s)?;
        }
        Some(acc)
    }

    fn add_term(&mut self, s: Symbol, c: i64) {
        if c == 0 {
            return;
        }
        self.terms = match std::mem::take(&mut self.terms) {
            Terms::None => Terms::One((s, c)),
            Terms::One((t, d)) => match t.cmp(&s) {
                Ordering::Equal if d + c == 0 => Terms::None,
                Ordering::Equal => Terms::One((t, d + c)),
                Ordering::Less => Terms::Many(vec![(t, d), (s, c)]),
                Ordering::Greater => Terms::Many(vec![(s, c), (t, d)]),
            },
            Terms::Many(mut v) => {
                match v.binary_search_by(|(t, _)| t.cmp(&s)) {
                    Ok(k) if v[k].1 + c == 0 => {
                        v.remove(k);
                    }
                    Ok(k) => v[k].1 += c,
                    Err(k) => v.insert(k, (s, c)),
                }
                match v.len() {
                    1 => Terms::One(v.remove(0)),
                    _ => Terms::Many(v),
                }
            }
        };
    }
}

impl Add for Idx {
    type Output = Idx;
    fn add(mut self, rhs: Idx) -> Idx {
        self.offset += rhs.offset;
        for (s, c) in rhs.terms() {
            self.add_term(s.clone(), c);
        }
        self
    }
}

impl Add<i64> for Idx {
    type Output = Idx;
    fn add(mut self, rhs: i64) -> Idx {
        self.offset += rhs;
        self
    }
}

impl Sub for Idx {
    type Output = Idx;
    fn sub(self, rhs: Idx) -> Idx {
        self + (-rhs)
    }
}

impl Sub<i64> for Idx {
    type Output = Idx;
    fn sub(self, rhs: i64) -> Idx {
        self + -rhs
    }
}

impl Neg for Idx {
    type Output = Idx;
    fn neg(mut self) -> Idx {
        self.offset = -self.offset;
        match &mut self.terms {
            Terms::None => {}
            Terms::One(t) => t.1 = -t.1,
            Terms::Many(v) => v.iter_mut().for_each(|t| t.1 = -t.1),
        }
        self
    }
}

impl From<Symbol> for Idx {
    fn from(s: Symbol) -> Self {
        Idx::sym(s)
    }
}

impl From<&Symbol> for Idx {
    fn from(s: &Symbol) -> Self {
        Idx::sym(s.clone())
    }
}

impl From<i64> for Idx {
    fn from(c: i64) -> Self {
        Idx::constant(c)
    }
}

impl fmt::Display for Idx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms = self.terms.as_slice();
        for (k, (s, c)) in terms.iter().enumerate() {
            // The sign: glued to the first term, spaced before a later one.
            f.write_str(match (k, *c < 0) {
                (0, false) => "",
                (0, true) => "-",
                (_, false) => " + ",
                (_, true) => " - ",
            })?;
            match c.unsigned_abs() {
                1 => write!(f, "{s}")?,
                mag => write!(f, "{mag}*{s}")?,
            }
        }
        match (terms.is_empty(), self.offset) {
            (true, c) => write!(f, "{c}"),
            (false, 0) => Ok(()),
            (false, c) if c > 0 => write!(f, " + {c}"),
            (false, c) => write!(f, " - {}", c.unsigned_abs()),
        }
    }
}

impl fmt::Debug for Idx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Idx({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(s: &str) -> Symbol {
        Symbol::new(s)
    }

    #[test]
    fn build_and_display() {
        let i = Idx::sym(sym("i"));
        let e = i + 1;
        assert_eq!(e.to_string(), "i + 1");
        let e = Idx::sym(sym("n")) - 2;
        assert_eq!(e.to_string(), "n - 2");
        assert_eq!(Idx::constant(0).to_string(), "0");
    }

    #[test]
    fn addition_cancels_terms() {
        let i = Idx::sym(sym("i"));
        let e = i.clone() - Idx::sym(sym("i"));
        assert_eq!(e.as_constant(), Some(0));
    }

    #[test]
    fn is_offset_of_detects_pure_counter_offsets() {
        let i = sym("i");
        assert_eq!((Idx::sym(i.clone()) + 3).is_offset_of(&i), Some(3));
        assert_eq!((Idx::sym(i.clone()) - 1).is_offset_of(&i), Some(-1));
        assert_eq!(Idx::scaled(i.clone(), 2).is_offset_of(&i), None);
        let j = Idx::sym(sym("j"));
        assert_eq!((Idx::sym(i.clone()) + j).is_offset_of(&i), None);
    }

    #[test]
    fn subst_composes_affine() {
        // i -> j + 2 applied to (3i + 1) gives 3j + 7
        let mut map = BTreeMap::new();
        map.insert(sym("i"), Idx::sym(sym("j")) + 2);
        let e = Idx::scaled(sym("i"), 3) + 1;
        let r = e.subst(&map);
        assert_eq!(r.coeff(&sym("j")), 3);
        assert_eq!(r.offset(), 7);
    }

    #[test]
    fn eval_requires_all_symbols() {
        let e = Idx::sym(sym("n")) - 2;
        let mut env = BTreeMap::new();
        assert_eq!(e.eval(&env), None);
        env.insert(sym("n"), 10);
        assert_eq!(e.eval(&env), Some(8));
    }

    #[test]
    fn neg_flips_everything() {
        let e = -(Idx::sym(sym("i")) + 5);
        assert_eq!(e.coeff(&sym("i")), -1);
        assert_eq!(e.offset(), -5);
    }

    /// `Idx` as it was while its terms were a `BTreeMap` (derived `Eq`,
    /// `Ord`, `Hash`; every operator through `add_term`), kept as the
    /// reference the inline forms are compared against.
    mod oracle {
        use super::Symbol;
        use std::collections::BTreeMap;
        use std::fmt;

        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct Idx {
            pub terms: BTreeMap<Symbol, i64>,
            pub offset: i64,
        }

        impl Idx {
            pub fn constant(c: i64) -> Self {
                Idx {
                    terms: BTreeMap::new(),
                    offset: c,
                }
            }

            pub fn scaled(s: Symbol, coeff: i64) -> Self {
                let mut terms = BTreeMap::new();
                if coeff != 0 {
                    terms.insert(s, coeff);
                }
                Idx { terms, offset: 0 }
            }

            pub fn coeff(&self, s: &Symbol) -> i64 {
                self.terms.get(s).copied().unwrap_or(0)
            }

            pub fn as_constant(&self) -> Option<i64> {
                self.terms.is_empty().then_some(self.offset)
            }

            pub fn is_offset_of(&self, s: &Symbol) -> Option<i64> {
                (self.terms.len() == 1 && self.coeff(s) == 1).then_some(self.offset)
            }

            pub fn shift(&self, delta: i64) -> Idx {
                let mut out = self.clone();
                out.offset += delta;
                out
            }

            pub fn subst(&self, map: &BTreeMap<Symbol, Idx>) -> Idx {
                let mut out = Idx::constant(self.offset);
                for (s, &c) in &self.terms {
                    match map.get(s) {
                        Some(rep) => {
                            for (rs, rc) in &rep.terms {
                                out.add_term(rs.clone(), rc * c);
                            }
                            out.offset += rep.offset * c;
                        }
                        None => out.add_term(s.clone(), c),
                    }
                }
                out
            }

            pub fn eval(&self, env: &BTreeMap<Symbol, i64>) -> Option<i64> {
                let mut acc = self.offset;
                for (s, c) in &self.terms {
                    acc += c * env.get(s)?;
                }
                Some(acc)
            }

            fn add_term(&mut self, s: Symbol, c: i64) {
                if c == 0 {
                    return;
                }
                let e = self.terms.entry(s.clone()).or_insert(0);
                *e += c;
                if *e == 0 {
                    self.terms.remove(&s);
                }
            }

            pub fn add(mut self, rhs: Idx) -> Idx {
                self.offset += rhs.offset;
                for (s, c) in rhs.terms {
                    self.add_term(s, c);
                }
                self
            }

            pub fn neg(self) -> Idx {
                let mut out = Idx::constant(-self.offset);
                for (s, c) in self.terms {
                    out.add_term(s, -c);
                }
                out
            }
        }

        impl fmt::Display for Idx {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let mut first = true;
                for (s, &c) in &self.terms {
                    if first {
                        match c {
                            1 => write!(f, "{s}")?,
                            -1 => write!(f, "-{s}")?,
                            _ => write!(f, "{c}*{s}")?,
                        }
                        first = false;
                    } else if c >= 0 {
                        if c == 1 {
                            write!(f, " + {s}")?;
                        } else {
                            write!(f, " + {c}*{s}")?;
                        }
                    } else if c == -1 {
                        write!(f, " - {s}")?;
                    } else {
                        write!(f, " - {}*{s}", -c)?;
                    }
                }
                if first {
                    write!(f, "{}", self.offset)?;
                } else if self.offset > 0 {
                    write!(f, " + {}", self.offset)?;
                } else if self.offset < 0 {
                    write!(f, " - {}", -self.offset)?;
                }
                Ok(())
            }
        }
    }

    /// Deterministic xorshift64* (the `tests/common::Rng` idiom).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// Uniform in `-3..=3`.
        fn small(&mut self) -> i64 {
            self.below(7) as i64 - 3
        }
    }

    /// The same random leaf built in both implementations, through every
    /// constructor.
    fn random_leaf(rng: &mut Rng, syms: &[Symbol]) -> (Idx, oracle::Idx) {
        let s = syms[rng.below(syms.len() as u64) as usize].clone();
        let (c, k) = (rng.small(), rng.small());
        match rng.below(8) {
            0 => (Idx::constant(k), oracle::Idx::constant(k)),
            1 => (Idx::from(k), oracle::Idx::constant(k)),
            2 => (Idx::sym(s.clone()), oracle::Idx::scaled(s, 1)),
            3 => (Idx::from(&s), oracle::Idx::scaled(s, 1)),
            4 => (Idx::from(s.clone()), oracle::Idx::scaled(s, 1)),
            5 => (&s + k, oracle::Idx::scaled(s, 1).shift(k)),
            6 => (&s - k, oracle::Idx::scaled(s, 1).shift(-k)),
            _ => (
                Idx::scaled(s.clone(), c) + k,
                oracle::Idx::scaled(s, c).shift(k),
            ),
        }
    }

    /// The same random affine expression built in both implementations,
    /// through an operator picked by the generator.
    fn random_pair(rng: &mut Rng, syms: &[Symbol], depth: u32) -> (Idx, oracle::Idx) {
        if depth == 0 {
            return random_leaf(rng, syms);
        }
        let (a, oa) = random_pair(rng, syms, depth - 1);
        let k = rng.small();
        match rng.below(9) {
            0 | 1 => {
                let (b, ob) = random_pair(rng, syms, depth - 1);
                (a + b, oa.add(ob))
            }
            2 | 3 => {
                let (b, ob) = random_pair(rng, syms, depth - 1);
                (a - b, oa.add(ob.neg()))
            }
            4 => (-a, oa.neg()),
            // A sum that cancels: `a - a + k` is the constant `k`.
            5 => (a.clone() - a + k, oa.clone().add(oa.neg()).shift(k)),
            6 => (a + k, oa.shift(k)),
            7 => (a - k, oa.shift(-k)),
            _ => (a.shift(k), oa.shift(k)),
        }
    }

    fn hash_of(v: &impl Hash) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn inline_forms_agree_with_the_map_they_replaced() {
        let syms: Vec<Symbol> = ["i", "j", "k", "n", "m"].map(Symbol::new).into();
        let mut rng = Rng(0x1d5_0a7e);
        let env: BTreeMap<Symbol, i64> = syms.iter().cloned().zip([3, -7, 11, 64, 5]).collect();
        let partial: BTreeMap<Symbol, i64> =
            env.iter().take(2).map(|(s, v)| (s.clone(), *v)).collect();
        let mut sample = Vec::new();
        for case in 0..10_000 {
            let depth = rng.below(4) as u32;
            let (new, old) = random_pair(&mut rng, &syms, depth);
            assert_eq!(new.to_string(), old.to_string(), "case {case}");
            assert_eq!(format!("{new:?}"), format!("Idx({old})"));
            assert!(new.terms().all(|(_, c)| c != 0), "zero stored in {new}");
            assert!(new.terms().eq(old.terms.iter().map(|(s, c)| (s, *c))));
            assert_eq!(new.symbols().count(), old.terms.len());
            assert_eq!(new.offset(), old.offset);
            assert_eq!(new.as_constant(), old.as_constant());
            for s in &syms {
                assert_eq!(new.coeff(s), old.coeff(s), "{new} coeff {s}");
                assert_eq!(new.is_offset_of(s), old.is_offset_of(s), "{new} vs {s}");
            }
            assert_eq!(new.eval(&env), old.eval(&env), "{new}");
            assert_eq!(new.eval(&partial), old.eval(&partial), "{new}");
            assert_eq!(hash_of(&new), hash_of(&old), "{new}");
            // Substitution by two more random expressions.
            let (target, other) = (&syms[case % 5], &syms[(case + 2) % 5]);
            let ((a, oa), (b, ob)) = (
                random_pair(&mut rng, &syms, 1),
                random_pair(&mut rng, &syms, 1),
            );
            let map = BTreeMap::from([(target.clone(), a), (other.clone(), b)]);
            let omap = BTreeMap::from([(target.clone(), oa), (other.clone(), ob)]);
            let (sub, osub) = (new.subst(&map), old.subst(&omap));
            assert_eq!(sub.to_string(), osub.to_string(), "{new} under {map:?}");
            assert!(sub.terms().all(|(_, c)| c != 0), "zero stored in {sub}");
            if case % 50 == 0 {
                sample.push((new, old));
                sample.push((sub, osub));
            }
        }
        // Order and equality, pair by pair, and the order a sort arrives at.
        assert_eq!(sample.len(), 400);
        sample.truncate(200);
        for (a, oa) in &sample {
            for (b, ob) in &sample {
                assert_eq!(a.cmp(b), oa.cmp(ob), "{a} vs {b}");
                assert_eq!(a.partial_cmp(b), oa.partial_cmp(ob));
                assert_eq!(a == b, oa == ob, "{a} vs {b}");
            }
        }
        let mut by_new: Vec<usize> = (0..sample.len()).collect();
        let mut by_old = by_new.clone();
        by_new.sort_by(|&x, &y| sample[x].0.cmp(&sample[y].0));
        by_old.sort_by(|&x, &y| sample[x].1.cmp(&sample[y].1));
        assert_eq!(by_new, by_old);
        assert!(sample.iter().any(|(a, _)| a.symbols().count() >= 3));
        assert!(sample.iter().any(|(a, _)| a.as_constant().is_some()));
    }
}
