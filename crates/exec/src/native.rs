//! Process-wide registry of natively compiled (JIT) fusion groups.
//!
//! The third lowering tier ([`crate::run::Lowering::Jit`]) runs statement
//! bodies through machine code produced at run time by `perforad-jit`:
//! generated Rust source compiled out-of-process into a `cdylib` and
//! loaded with `dlopen`. The executor cannot depend on that crate (it
//! sits above the scheduler), so the two meet here: the JIT registers a
//! [`NativeGroup`] — one `extern "C"` entry point per compiled nest —
//! under the plan's structural [`fingerprint`](crate::Plan::fingerprint),
//! and every execution surface ([`crate::run`], [`crate::TileRunner`])
//! resolves the same key at dispatch time. A missing entry is not an
//! error: the caller falls back to the vectorized row executor, which is
//! bitwise-identical, so `Lowering::Jit` degrades gracefully on machines
//! without a toolchain.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// ABI of one compiled nest: inclusive per-dimension tile bounds (clamped
/// to the nest's compiled bounds inside the generated code, so any
/// sub-box of the iteration space is valid) and the plan's array base
/// pointers in slot order.
pub type NativeTileFn =
    unsafe extern "C" fn(lo: *const i64, hi: *const i64, arrays: *const *mut f64);

/// The loaded native code for one fusion group: one entry point per nest
/// of the group's plan, in plan order, plus whatever handle keeps the
/// underlying shared object mapped.
pub struct NativeGroup {
    fns: Vec<NativeTileFn>,
    /// Keeps the `dlopen` handle (or any other provenance) alive for as
    /// long as the function pointers are callable.
    _keepalive: Option<Arc<dyn std::any::Any + Send + Sync>>,
}

impl NativeGroup {
    pub fn new(
        fns: Vec<NativeTileFn>,
        keepalive: Option<Arc<dyn std::any::Any + Send + Sync>>,
    ) -> Self {
        NativeGroup {
            fns,
            _keepalive: keepalive,
        }
    }

    /// Number of compiled nests.
    pub fn nests(&self) -> usize {
        self.fns.len()
    }

    /// Execute nest `nest` over the inclusive box `[lo, hi]`.
    ///
    /// # Safety
    ///
    /// `arrays` must be the base pointers of the plan the group was
    /// compiled for, in slot order, with the extents the plan was
    /// compiled against; concurrent callers must cover disjoint write
    /// sets (the same contract as [`crate::TileRunner::run_tile`]).
    #[inline]
    pub unsafe fn run_box(&self, nest: usize, lo: &[i64], hi: &[i64], arrays: &[*mut f64]) {
        debug_assert_eq!(lo.len(), hi.len());
        (self.fns[nest])(lo.as_ptr(), hi.as_ptr(), arrays.as_ptr());
    }
}

/// FNV-1a over a byte stream — deterministic across runs and platforms.
/// The canonical hash for every fingerprint in the workspace (plan
/// fingerprints here, tuning-cache keys in `perforad-tune`).
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

    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Formatted text hashes as its bytes: `write!(fnv, "{x}")` equals
/// `fnv.write(x.to_string().as_bytes())` without the string.
impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
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

/// Number of registered native groups (diagnostics / tests).
pub fn native_registered() -> usize {
    registry().read().expect("native registry lock").len()
}

#[cfg(test)]
mod tests {
    use super::*;

    unsafe extern "C" fn fill_seven(lo: *const i64, hi: *const i64, arrays: *const *mut f64) {
        let a = *arrays.add(0);
        let (l, h) = (*lo.add(0), *hi.add(0));
        for k in l..=h {
            *a.offset(k as isize) = 7.0;
        }
    }

    #[test]
    fn register_and_run_round_trip() {
        let group = Arc::new(NativeGroup::new(vec![fill_seven], None));
        register_native(0xABCD_0001, group);
        let g = native_lookup(0xABCD_0001).expect("registered group resolves");
        assert_eq!(g.nests(), 1);
        let mut data = vec![0.0f64; 6];
        let ptrs = [data.as_mut_ptr()];
        // SAFETY: single-threaded, box within the buffer.
        unsafe { g.run_box(0, &[1], &[4], &ptrs) };
        assert_eq!(data, vec![0.0, 7.0, 7.0, 7.0, 7.0, 0.0]);
        assert!(native_lookup(0xABCD_0002).is_none());
        assert!(native_registered() >= 1);
    }

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("a") from the published test vectors.
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        let mut f = Fnv::new();
        f.write(b"a");
        assert_eq!(f.finish(), fnv1a64(b"a"));
        // Formatted in pieces or hashed whole: the same bytes.
        let mut f = Fnv::new();
        std::fmt::Write::write_fmt(&mut f, format_args!("{}|{:>4}", 1.5, "ab")).unwrap();
        assert_eq!(f.finish(), fnv1a64(b"1.5|  ab"));
    }
}
