//! Atomic `f64` accumulation — the `#pragma omp atomic` stand-in.
//!
//! The conventional scatter adjoint needs concurrent `+=` on doubles. Like
//! OpenMP on x86, this is a compare-and-swap loop over the bit pattern in a
//! 64-bit atomic. The paper's evaluation shows exactly this mechanism
//! destroying scalability (Figs. 8–15, "Atomics" series); we reproduce the
//! mechanism faithfully so the benchmark measures the same effect.

use std::sync::atomic::{AtomicU64, Ordering};

/// An `f64` supporting atomic fetch-add via CAS. `repr(transparent)` over
/// `AtomicU64`, of `f64`'s size and alignment, so the executor's atomic
/// mode adds through an `f64`'s address.
#[repr(transparent)]
pub struct AtomicF64(AtomicU64);

impl AtomicF64 {
    pub fn new(v: f64) -> Self {
        AtomicF64(AtomicU64::new(v.to_bits()))
    }

    pub fn load(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    pub fn store(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed)
    }

    /// Atomically `self += v`; returns the previous value.
    ///
    /// Relaxed ordering suffices: adjoint accumulation is commutative and
    /// the executor joins all threads (a synchronising operation) before the
    /// results are read.
    pub fn fetch_add(&self, v: f64) -> f64 {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let new = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return f64::from_bits(cur),
                Err(actual) => cur = actual,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fetch_add_accumulates() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.fetch_add(2.0), 1.5);
        assert_eq!(a.load(), 3.5);
        a.store(-1.0);
        assert_eq!(a.load(), -1.0);
    }

    #[test]
    fn concurrent_accumulation_is_exact_for_integers() {
        // Sum of integers is exact in f64, so the result is deterministic
        // regardless of interleaving.
        let a = AtomicF64::new(0.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        a.fetch_add(1.0);
                    }
                });
            }
        });
        assert_eq!(a.load(), 40_000.0);
    }
}
