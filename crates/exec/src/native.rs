//! Process-wide registry of natively compiled (JIT) fusion groups.
//!
//! The third lowering tier ([`crate::run::Lowering::Jit`]) runs statement
//! bodies through machine code produced at run time by `perforad-jit`:
//! generated Rust source compiled out-of-process into a `cdylib` and
//! loaded with `dlopen`. The executor cannot depend on that crate (it
//! sits above the scheduler), so the two meet here: the JIT registers a
//! [`NativeGroup`] — the one `extern "C"` entry point of a compiled fusion
//! group — under the plan's structural
//! [`fingerprint`](crate::Plan::fingerprint), and the tile runner —
//! which every execution surface runs through — resolves the same key
//! once per run. The fingerprint hashes every nest's bounds and
//! statements, so a module found under it was emitted for exactly this
//! plan's nest list. A missing entry is not an error: the caller falls
//! back to the vectorized row executor, which is bitwise-identical, so
//! `Lowering::Jit` degrades gracefully on machines without a toolchain.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// ABI of a compiled group: an inclusive per-dimension box of the plan's
/// iteration hull (each nest's part is clamped to that nest's compiled
/// bounds inside the generated code, so any box is valid) and the plan's
/// array base pointers in slot order.
pub type NativeTileFn =
    unsafe extern "C" fn(lo: *const i64, hi: *const i64, arrays: *const *mut f64);

/// The loaded native code for one fusion group: its entry point, which
/// runs every nest of the group's plan over a box, plus whatever handle
/// keeps the underlying shared object mapped.
pub struct NativeGroup {
    entry: NativeTileFn,
    /// Keeps the `dlopen` handle (or any other provenance) alive for as
    /// long as the function pointer is callable.
    _keepalive: Option<Arc<dyn std::any::Any + Send + Sync>>,
}

impl NativeGroup {
    /// The group for `entry`, to be registered under one plan's
    /// fingerprint.
    ///
    /// # Safety
    ///
    /// Register it only under the fingerprint of a plan `entry` was
    /// emitted for. Called with a box of that plan's hull and its base
    /// pointers, `entry` must touch only what the plan's statements touch
    /// over the box ∩ each nest's bounds (fact F1 of [`crate::tile`]), so
    /// that F3 carries over from the tile driver.
    pub unsafe fn new(
        entry: NativeTileFn,
        keepalive: Option<Arc<dyn std::any::Any + Send + Sync>>,
    ) -> Self {
        NativeGroup {
            entry,
            _keepalive: keepalive,
        }
    }

    /// Execute every nest's part of the inclusive box `[lo, hi]`.
    ///
    /// # Safety
    ///
    /// `lo` and `hi` must hold one bound per dimension of the plan the
    /// group was compiled for, and `arrays` that plan's base pointers in
    /// slot order, with the extents the plan was compiled against (fact
    /// F1 of [`crate::tile`] then covers every access); concurrent callers
    /// must hold fact F3 — disjoint boxes of one tiling of a gather plan.
    #[inline]
    pub unsafe fn run_box(&self, lo: &[i64], hi: &[i64], arrays: &[*mut f64]) {
        debug_assert_eq!(lo.len(), hi.len());
        (self.entry)(lo.as_ptr(), hi.as_ptr(), arrays.as_ptr());
    }
}

/// FNV-1a over a byte stream — deterministic across runs and platforms.
/// The workspace's digest of bytes and text (emitted modules, wire
/// frames, gradients); the IR's names are hashed a word at a time by
/// [`WordHash`] instead.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a, for fingerprints assembled from many fields.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// One SplitMix64 finaliser round: a bijection on 64-bit words in which
/// every input bit flips every output bit with probability ≈ ½.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A structural hash fed one 64-bit word at a time, each word folded in
/// by one [`mix64`] round — the hash of the IR's *names*: the tuner's work
/// key and [`Plan::fingerprint`](crate::Plan::fingerprint). Callers write
/// the words explicitly, a tag word and then payload words (a list as its
/// length, then its items), so that the stream spells one structure only
/// and does not depend on how the compiler lays out `#[derive(Hash)]`.
/// Deterministic across runs and platforms, like [`fnv1a64`], which stays
/// the hash of emitted *text*.
#[derive(Clone, Copy, Debug)]
pub struct WordHash(u64);

impl WordHash {
    pub fn new() -> Self {
        WordHash(0x6a09_e667_f3bc_c909)
    }

    #[inline]
    pub fn word(&mut self, w: u64) {
        self.0 = mix64(self.0 ^ w);
    }

    /// A list: its length, then its items.
    pub fn list(&mut self, items: impl ExactSizeIterator<Item = u64>) {
        self.word(items.len() as u64);
        items.for_each(|w| self.word(w));
    }

    /// A name. Up to seven bytes fill one word whose top byte is their
    /// length; a longer name is its length (a word whose top byte is
    /// zero), then its bytes eight to a word, zero-padded.
    pub fn str(&mut self, s: &str) {
        let (bytes, mut word) = (s.as_bytes(), [0u8; 8]);
        if bytes.len() < 8 {
            word[..bytes.len()].copy_from_slice(bytes);
            word[7] = bytes.len() as u8;
            return self.word(u64::from_le_bytes(word));
        }
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for WordHash {
    fn default() -> Self {
        WordHash::new()
    }
}

fn registry() -> &'static RwLock<HashMap<u64, Arc<NativeGroup>>> {
    static REG: OnceLock<RwLock<HashMap<u64, Arc<NativeGroup>>>> = OnceLock::new();
    REG.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Register the native code for a plan fingerprint. Replaces any previous
/// entry (the fingerprint pins the semantics, so both are equivalent).
pub fn register_native(fingerprint: u64, group: Arc<NativeGroup>) {
    registry()
        .write()
        .expect("native registry lock")
        .insert(fingerprint, group);
}

/// Resolve the native code for a plan fingerprint, if any was registered.
pub fn native_lookup(fingerprint: u64) -> Option<Arc<NativeGroup>> {
    registry()
        .read()
        .expect("native registry lock")
        .get(&fingerprint)
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes 7.0 over the rank-1 box `[lo, hi]` of the first array.
    ///
    /// # Safety
    ///
    /// `lo`, `hi` and `arrays` hold at least one entry each, and the box
    /// lies inside the first array.
    unsafe extern "C" fn fill_seven(lo: *const i64, hi: *const i64, arrays: *const *mut f64) {
        let a = *arrays.add(0);
        let (l, h) = (*lo.add(0), *hi.add(0));
        for k in l..=h {
            *a.offset(k as isize) = 7.0;
        }
    }

    #[test]
    fn register_and_run_round_trip() {
        // SAFETY: registered under a key no plan hashes to, and run below
        // only over a box inside its one buffer.
        let group = Arc::new(unsafe { NativeGroup::new(fill_seven, None) });
        register_native(0xABCD_0001, group);
        let g = native_lookup(0xABCD_0001).expect("registered group resolves");
        let mut data = vec![0.0f64; 6];
        let ptrs = [data.as_mut_ptr()];
        // SAFETY: F1 — rank 1 as `fill_seven` reads it, and the box lies
        // inside the one buffer; F3 — a single thread cannot race.
        unsafe { g.run_box(&[1], &[4], &ptrs) };
        assert_eq!(data, vec![0.0, 7.0, 7.0, 7.0, 7.0, 0.0]);
        assert!(native_lookup(0xABCD_0002).is_none());
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") from the published test vectors.
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        let mut f = Fnv::new();
        f.write(b"a");
        assert_eq!(f.finish(), fnv1a64(b"a"));
    }

    #[test]
    fn word_hash_spells_one_stream() {
        // SplitMix64 seeded with 0: its first output is this round of the
        // golden-ratio increment.
        assert_eq!(mix64(0x9e37_79b9_7f4a_7c15), 0xe220_a839_7b1d_cdaf);
        let words = |ws: &[u64]| {
            let mut h = WordHash::new();
            ws.iter().for_each(|&w| h.word(w));
            h.finish()
        };
        let names = |ns: &[&str]| {
            let mut h = WordHash::new();
            ns.iter().for_each(|n| h.str(n));
            h.finish()
        };
        // Word order, a trailing zero, a name's length and padding all show.
        assert_ne!(words(&[1, 2]), words(&[2, 1]));
        assert_ne!(words(&[0]), words(&[0, 0]));
        assert_ne!(names(&["ab"]), names(&["ab\0"]));
        assert_ne!(names(&["", "a"]), names(&["a", ""]));
        assert_ne!(names(&["abcdefg"]), names(&["abcdefg\0"]));
        assert_ne!(names(&["abcdefgh"]), names(&["abcdefghi"]));
        // One flipped input bit flips about half of the output's.
        for b in 0..64 {
            let flipped = (words(&[0]) ^ words(&[1 << b])).count_ones();
            assert!((12..=52).contains(&flipped), "bit {b}: {flipped} bits");
        }
    }
}
