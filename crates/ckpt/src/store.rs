//! Snapshot stores: where checkpointed states live between the forward
//! and reverse phases.
//!
//! Two backends ship with the crate: [`MemStore`] keeps copies in a map,
//! in slots it refills rather than reallocates (the fast path when the
//! budgeted snapshots fit in RAM), and
//! [`DiskStore`] spills serialized states to files (when even the
//! budgeted snapshots do not fit — or when the operator wants RAM for
//! the solver, not the trajectory). Both round-trip `f64` payloads
//! **bitwise** — `to_le_bytes`/`from_le_bytes` on the raw bit patterns —
//! which is what makes a checkpointed gradient bit-identical to the
//! store-all reference regardless of backend.

use crate::error::CkptError;
use perforad_exec::Grid;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Environment variable naming the default spill directory for
/// [`DiskStore::from_env`] consumers (the seismic driver's `Auto`
/// backend): when set, snapshots spill to disk instead of living in RAM.
pub const CKPT_DIR_ENV: &str = "PERFORAD_CKPT_DIR";

/// A state that can be checkpointed: sized in memory and serializable to
/// a byte stream that round-trips **bitwise**.
pub trait Snapshot: Sized {
    /// Serialize to bytes (little-endian `f64` bit patterns).
    fn to_bytes(&self) -> Vec<u8>;
    /// Deserialize; must reproduce the exact value `to_bytes` consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError>;
    /// Approximate resident size, for budget accounting.
    fn mem_bytes(&self) -> usize;
    /// Overwrite `self` with `src`'s value, keeping `self`'s allocation
    /// where the shapes agree.
    fn assign(&mut self, src: &Self);
}

/// The `ckpt.save_bytes` / `ckpt.load_bytes` / `ckpt.spill_bytes`
/// counters (bytes copied, never bytes moved), resolved once per process.
fn byte_counters() -> &'static [perforad_obs::Counter; 3] {
    static C: OnceLock<[perforad_obs::Counter; 3]> = OnceLock::new();
    C.get_or_init(|| {
        ["ckpt.save_bytes", "ckpt.load_bytes", "ckpt.spill_bytes"].map(perforad_obs::counter)
    })
}

fn read_u64(bytes: &[u8], at: &mut usize) -> Result<u64, CkptError> {
    let end = *at + 8;
    let chunk: [u8; 8] = bytes
        .get(*at..end)
        .ok_or_else(|| CkptError::Corrupt(format!("truncated at byte {at}")))?
        .try_into()
        .expect("8-byte slice");
    *at = end;
    Ok(u64::from_le_bytes(chunk))
}

impl Snapshot for f64 {
    fn to_bytes(&self) -> Vec<u8> {
        self.to_le_bytes().to_vec()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut at = 0;
        Ok(f64::from_bits(read_u64(bytes, &mut at)?))
    }

    fn mem_bytes(&self) -> usize {
        8
    }

    fn assign(&mut self, src: &Self) {
        *self = *src;
    }
}

impl Snapshot for Grid {
    fn to_bytes(&self) -> Vec<u8> {
        let dims = self.dims();
        let mut out = Vec::with_capacity(8 * (1 + dims.len() + self.len()));
        out.extend_from_slice(&(dims.len() as u64).to_le_bytes());
        for &d in dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for v in self.as_slice() {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut at = 0;
        let rank = read_u64(bytes, &mut at)? as usize;
        if rank > 16 {
            return Err(CkptError::Corrupt(format!("implausible rank {rank}")));
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(read_u64(bytes, &mut at)? as usize);
        }
        // Validate the payload length against the header *before*
        // allocating: a corrupt header must yield Err, not a huge
        // (or overflowing) allocation.
        let len = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| CkptError::Corrupt(format!("dims {dims:?} overflow")))?;
        let expected = len
            .checked_mul(8)
            .and_then(|b| b.checked_add(at))
            .ok_or_else(|| CkptError::Corrupt(format!("dims {dims:?} overflow")))?;
        if bytes.len() != expected {
            return Err(CkptError::Corrupt(format!(
                "{} bytes for a {dims:?} grid (expected {expected})",
                bytes.len()
            )));
        }
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            data.push(f64::from_bits(read_u64(bytes, &mut at)?));
        }
        Ok(Grid::from_vec(&dims, data))
    }

    fn mem_bytes(&self) -> usize {
        8 * self.len() + 8 * 2 * self.rank() + std::mem::size_of::<Grid>()
    }

    fn assign(&mut self, src: &Self) {
        self.copy_from(src);
    }
}

/// A shared state is stored by reference: a memory-store save, load or
/// take of one moves a reference count and copies nothing (serialising,
/// for the disk store, still writes the bytes). `mem_bytes` is what the
/// shared value occupies, once per holder — a store's byte high-water mark
/// stays what it was for owned states.
impl<T: Snapshot> Snapshot for Arc<T> {
    fn to_bytes(&self) -> Vec<u8> {
        (**self).to_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        T::from_bytes(bytes).map(Arc::new)
    }

    fn mem_bytes(&self) -> usize {
        (**self).mem_bytes()
    }

    fn assign(&mut self, src: &Self) {
        *self = Arc::clone(src);
    }
}

/// Pairs serialize as a length-prefixed concatenation — the seismic time
/// loop's `(u_{t−1}, u_t)` state.
impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn to_bytes(&self) -> Vec<u8> {
        let a = self.0.to_bytes();
        let b = self.1.to_bytes();
        let mut out = Vec::with_capacity(8 + a.len() + b.len());
        out.extend_from_slice(&(a.len() as u64).to_le_bytes());
        out.extend_from_slice(&a);
        out.extend_from_slice(&b);
        out
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut at = 0;
        let alen = read_u64(bytes, &mut at)? as usize;
        let rest = bytes
            .get(at..)
            .ok_or_else(|| CkptError::Corrupt("truncated pair".into()))?;
        if alen > rest.len() {
            return Err(CkptError::Corrupt("truncated pair head".into()));
        }
        Ok((A::from_bytes(&rest[..alen])?, B::from_bytes(&rest[alen..])?))
    }

    fn mem_bytes(&self) -> usize {
        self.0.mem_bytes() + self.1.mem_bytes()
    }

    fn assign(&mut self, src: &Self) {
        self.0.assign(&src.0);
        self.1.assign(&src.1);
    }
}

/// Where snapshots go. Keyed by the time index `t` — the plan guarantees
/// a key is saved at most once before being freed, and only live keys are
/// loaded or freed.
pub trait SnapshotStore<S> {
    /// Store the state at time `t`.
    fn save(&mut self, t: usize, state: &S) -> Result<(), CkptError>;
    /// Restore the state at time `t` (which must be live).
    fn load(&mut self, t: usize) -> Result<S, CkptError>;
    /// Drop the snapshot at time `t` (which must be live).
    fn free(&mut self, t: usize) -> Result<(), CkptError>;
    /// [`SnapshotStore::load`] over an existing state (in place where it can).
    fn restore(&mut self, t: usize, into: &mut S) -> Result<(), CkptError> {
        *into = self.load(t)?;
        Ok(())
    }
    /// Restore the state at time `t` and drop its snapshot: a move where
    /// the backend can, and `into`'s old value is scratch afterwards.
    fn take(&mut self, t: usize, into: &mut S) -> Result<(), CkptError> {
        self.restore(t, into)?;
        self.free(t)
    }
    /// Snapshots currently live.
    fn live(&self) -> usize;
    /// High-water mark of resident/spilled snapshot bytes.
    fn peak_bytes(&self) -> usize;
    /// Short backend name for reports.
    fn label(&self) -> &'static str;
}

/// In-memory snapshot store: copies in a map. A freed or taken snapshot
/// leaves a buffer behind as a spare slot that the next save refills, so a
/// sweep allocates its peak live set once; spares are dropped with the store.
#[derive(Debug)]
pub struct MemStore<S> {
    slots: HashMap<usize, S>,
    spare: Vec<S>,
    bytes: usize,
    peak: usize,
}

impl<S> MemStore<S> {
    pub fn new() -> Self {
        MemStore {
            slots: HashMap::new(),
            spare: Vec::new(),
            bytes: 0,
            peak: 0,
        }
    }

    fn live_slot(&mut self, t: usize, verb: &str) -> Result<&mut S, CkptError> {
        let dead = || CkptError::Protocol(format!("{verb} of dead snapshot {t}"));
        self.slots.get_mut(&t).ok_or_else(dead)
    }

    /// The freed slots awaiting a refill, for tests to scribble over.
    #[cfg(test)]
    pub(crate) fn spares_mut(&mut self) -> &mut [S] {
        &mut self.spare
    }
}

impl<S> Default for MemStore<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Clone + Snapshot> SnapshotStore<S> for MemStore<S> {
    fn save(&mut self, t: usize, state: &S) -> Result<(), CkptError> {
        if self.slots.contains_key(&t) {
            return Err(CkptError::Protocol(format!("double save at {t}")));
        }
        self.bytes += state.mem_bytes();
        self.peak = self.peak.max(self.bytes);
        let [save_bytes, ..] = byte_counters();
        save_bytes.add(state.mem_bytes() as u64);
        let slot = match self.spare.pop() {
            Some(mut slot) => {
                slot.assign(state);
                slot
            }
            None => state.clone(),
        };
        self.slots.insert(t, slot);
        Ok(())
    }

    fn load(&mut self, t: usize) -> Result<S, CkptError> {
        let state = self.live_slot(t, "load")?.clone();
        let [_, load_bytes, _] = byte_counters();
        load_bytes.add(state.mem_bytes() as u64);
        Ok(state)
    }

    fn free(&mut self, t: usize) -> Result<(), CkptError> {
        let state = self
            .slots
            .remove(&t)
            .ok_or_else(|| CkptError::Protocol(format!("free of dead snapshot {t}")))?;
        self.bytes -= state.mem_bytes();
        self.spare.push(state);
        Ok(())
    }

    fn restore(&mut self, t: usize, into: &mut S) -> Result<(), CkptError> {
        into.assign(self.live_slot(t, "load")?);
        let [_, load_bytes, _] = byte_counters();
        load_bytes.add(into.mem_bytes() as u64);
        Ok(())
    }

    fn take(&mut self, t: usize, into: &mut S) -> Result<(), CkptError> {
        std::mem::swap(into, self.live_slot(t, "take")?);
        self.free(t)
    }

    fn live(&self) -> usize {
        self.slots.len()
    }

    fn peak_bytes(&self) -> usize {
        self.peak
    }

    fn label(&self) -> &'static str {
        "memory"
    }
}

/// Spill-to-disk snapshot store: one file per live snapshot under a
/// directory of the caller's choosing (conventionally `$PERFORAD_CKPT_DIR`).
/// Files are uniquely named per store instance and removed on `free` and
/// on drop, so concurrent sweeps sharing a directory never collide.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
    tag: String,
    live: HashMap<usize, usize>, // t -> file bytes
    bytes: usize,
    peak: usize,
}

impl DiskStore {
    /// Spill into `dir`, creating it if needed.
    pub fn new(dir: impl AsRef<Path>) -> Result<Self, CkptError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| CkptError::Store(format!("create {}: {e}", dir.display())))?;
        static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(DiskStore {
            dir,
            tag: format!("{}_{}", std::process::id(), seq),
            live: HashMap::new(),
            bytes: 0,
            peak: 0,
        })
    }

    /// The spill directory named by [`CKPT_DIR_ENV`], if set.
    pub fn from_env() -> Option<Result<Self, CkptError>> {
        std::env::var_os(CKPT_DIR_ENV).map(Self::new)
    }

    /// The per-instance spill-file tag (`pid_seq`): unique within a
    /// process, which is what lets concurrent sweeps — every shot of a
    /// batched gradient — share one spill directory without collisions.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    fn path(&self, t: usize) -> PathBuf {
        self.dir.join(format!("ckpt_{}_{t}.bin", self.tag))
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // Sweep by tag prefix rather than walking `self.live`: a panic
        // between the `fs::write` and the `live.insert` in `save` (or a
        // panicking sweep swallowed by `catch_unwind` upstream) can leave
        // spill files the map never learned about. The tag is unique per
        // instance, so the scan cannot touch a concurrent store's files.
        let prefix = format!("ckpt_{}_", self.tag);
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                if e.file_name().to_string_lossy().starts_with(&prefix) {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
    }
}

impl<S: Snapshot> SnapshotStore<S> for DiskStore {
    fn save(&mut self, t: usize, state: &S) -> Result<(), CkptError> {
        if self.live.contains_key(&t) {
            return Err(CkptError::Protocol(format!("double save at {t}")));
        }
        let bytes = state.to_bytes();
        let path = self.path(t);
        if perforad_obs::fault::should_fail("ckpt.disk.write") {
            return Err(CkptError::Store(format!(
                "write {}: injected fault (ckpt.disk.write)",
                path.display()
            )));
        }
        std::fs::write(&path, &bytes)
            .map_err(|e| CkptError::Store(format!("write {}: {e}", path.display())))?;
        self.bytes += bytes.len();
        self.peak = self.peak.max(self.bytes);
        let [save_bytes, _, spill_bytes] = byte_counters();
        save_bytes.add(bytes.len() as u64);
        spill_bytes.add(bytes.len() as u64);
        self.live.insert(t, bytes.len());
        Ok(())
    }

    fn load(&mut self, t: usize) -> Result<S, CkptError> {
        if !self.live.contains_key(&t) {
            return Err(CkptError::Protocol(format!("load of dead snapshot {t}")));
        }
        let path = self.path(t);
        if perforad_obs::fault::should_fail("ckpt.disk.read") {
            return Err(CkptError::Store(format!(
                "read {}: injected fault (ckpt.disk.read)",
                path.display()
            )));
        }
        let bytes = std::fs::read(&path)
            .map_err(|e| CkptError::Store(format!("read {}: {e}", path.display())))?;
        let [_, load_bytes, _] = byte_counters();
        load_bytes.add(bytes.len() as u64);
        S::from_bytes(&bytes)
    }

    fn free(&mut self, t: usize) -> Result<(), CkptError> {
        let size = self
            .live
            .remove(&t)
            .ok_or_else(|| CkptError::Protocol(format!("free of dead snapshot {t}")))?;
        self.bytes -= size;
        let _ = std::fs::remove_file(self.path(t));
        Ok(())
    }

    fn live(&self) -> usize {
        self.live.len()
    }

    fn peak_bytes(&self) -> usize {
        self.peak
    }

    fn label(&self) -> &'static str {
        "disk"
    }
}

/// Disk-first store with an in-memory overflow: every save tries the
/// [`DiskStore`] and, on a write failure (full disk, injected
/// `ckpt.disk.write` fault), keeps the snapshot in a [`MemStore`]
/// instead — counted in `ckpt.spill_fallbacks`. Loads and frees route
/// to wherever the key landed, so a sweep survives any number of failed
/// spills with a **bitwise-identical** result (both backends round-trip
/// `f64` bit patterns).
///
/// A *read* failure is not absorbable here — the bytes are gone — so it
/// propagates as `Err` and the caller decides (the seismic driver
/// re-runs the whole sweep in memory).
#[derive(Debug)]
pub struct FallbackStore<S> {
    disk: DiskStore,
    mem: MemStore<S>,
    /// Keys that fell back to memory.
    in_mem: std::collections::HashSet<usize>,
    fallbacks: usize,
}

impl<S> FallbackStore<S> {
    pub fn new(disk: DiskStore) -> Self {
        FallbackStore {
            disk,
            mem: MemStore::new(),
            in_mem: std::collections::HashSet::new(),
            fallbacks: 0,
        }
    }

    /// How many saves fell back to memory.
    pub fn fallbacks(&self) -> usize {
        self.fallbacks
    }
}

impl<S: Clone + Snapshot> SnapshotStore<S> for FallbackStore<S> {
    fn save(&mut self, t: usize, state: &S) -> Result<(), CkptError> {
        if self.in_mem.contains(&t) {
            return Err(CkptError::Protocol(format!("double save at {t}")));
        }
        match self.disk.save(t, state) {
            Ok(()) => Ok(()),
            Err(CkptError::Protocol(m)) => Err(CkptError::Protocol(m)),
            Err(_) => {
                self.fallbacks += 1;
                perforad_obs::counter("ckpt.spill_fallbacks").inc();
                self.in_mem.insert(t);
                self.mem.save(t, state)
            }
        }
    }

    fn load(&mut self, t: usize) -> Result<S, CkptError> {
        if self.in_mem.contains(&t) {
            self.mem.load(t)
        } else {
            self.disk.load(t)
        }
    }

    fn free(&mut self, t: usize) -> Result<(), CkptError> {
        if self.in_mem.remove(&t) {
            self.mem.free(t)
        } else {
            SnapshotStore::<S>::free(&mut self.disk, t)
        }
    }

    fn live(&self) -> usize {
        SnapshotStore::<S>::live(&self.disk) + self.mem.live()
    }

    fn peak_bytes(&self) -> usize {
        // Peaks of the two halves need not coincide in time; the sum is
        // the conservative high-water mark.
        SnapshotStore::<S>::peak_bytes(&self.disk) + self.mem.peak_bytes()
    }

    fn label(&self) -> &'static str {
        // "disk" until a save actually fell back — a fault-free sweep
        // reports exactly what a bare DiskStore would.
        if self.fallbacks == 0 {
            "disk"
        } else {
            "disk+mem"
        }
    }
}

/// Fault-injection state is process-global, so every test in this crate
/// that drives a `DiskStore` serialises here — an armed window must not
/// leak into a neighbouring test's saves.
#[cfg(test)]
pub(crate) fn disk_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Grid {
        Grid::from_fn(&[3, 4], |ix| (ix[0] * 7 + ix[1]) as f64 * 0.1 - 1.5)
    }

    #[test]
    fn grid_bytes_round_trip_bitwise() {
        let g = grid();
        let back = Grid::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(back.dims(), g.dims());
        for (a, b) in g.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Non-finite and signed-zero payloads survive too.
        let odd = Grid::from_vec(&[4], vec![f64::NAN, -0.0, f64::INFINITY, 1e-308]);
        let back = Grid::from_bytes(&odd.to_bytes()).unwrap();
        for (a, b) in odd.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pair_and_scalar_round_trip() {
        let pair = (grid(), 2.5f64);
        let back = <(Grid, f64)>::from_bytes(&pair.to_bytes()).unwrap();
        assert_eq!(back.0.as_slice(), pair.0.as_slice());
        assert_eq!(back.1, 2.5);
        assert!(pair.mem_bytes() > 8 * 12);
    }

    #[test]
    fn corrupt_bytes_error_cleanly() {
        assert!(Grid::from_bytes(&[1, 2, 3]).is_err());
        let mut bytes = grid().to_bytes();
        bytes.push(0);
        assert!(matches!(
            Grid::from_bytes(&bytes),
            Err(CkptError::Corrupt(_))
        ));
        assert!(<(Grid, Grid)>::from_bytes(&[9, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // A header whose dims imply a gigantic (or overflowing) payload
        // must fail the length check, never reach the allocator.
        let mut evil = Vec::new();
        evil.extend_from_slice(&1u64.to_le_bytes());
        evil.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Grid::from_bytes(&evil),
            Err(CkptError::Corrupt(_))
        ));
        let mut deep = Vec::new();
        deep.extend_from_slice(&1000u64.to_le_bytes());
        assert!(matches!(
            Grid::from_bytes(&deep),
            Err(CkptError::Corrupt(_))
        ));
    }

    fn exercise(store: &mut impl SnapshotStore<Grid>) {
        let g = grid();
        store.save(0, &g).unwrap();
        store.save(7, &g).unwrap();
        assert_eq!(store.live(), 2);
        // Double save and dead load/free are protocol errors.
        assert!(store.save(7, &g).is_err());
        assert!(store.load(3).is_err());
        assert!(store.free(3).is_err());
        let back = store.load(7).unwrap();
        assert_eq!(back.as_slice(), g.as_slice());
        store.free(7).unwrap();
        store.free(0).unwrap();
        assert_eq!(store.live(), 0);
        assert!(store.peak_bytes() >= 2 * 8 * 12);
    }

    #[test]
    fn restore_and_take_are_bitwise_and_the_mem_store_refills_its_slots() {
        let _g = disk_test_lock();
        let dir = std::env::temp_dir().join(format!("perforad_ckpt_take_{}", std::process::id()));
        let (a, b) = (grid(), Grid::full(&[3, 4], -2.5));
        fn cycle(store: &mut impl SnapshotStore<Grid>, a: &Grid, b: &Grid) {
            store.save(0, a).unwrap();
            store.save(1, b).unwrap();
            let mut cursor = Grid::full(&[3, 4], f64::NAN);
            store.restore(1, &mut cursor).unwrap();
            assert_eq!(cursor.as_slice(), b.as_slice());
            assert_eq!(store.live(), 2, "a restore leaves the snapshot live");
            store.take(0, &mut cursor).unwrap();
            assert_eq!(cursor.as_slice(), a.as_slice());
            assert_eq!(store.live(), 1, "a take frees it");
            assert!(store.take(0, &mut cursor).is_err());
            assert!(store.restore(0, &mut cursor).is_err());
            store.take(1, &mut cursor).unwrap();
            assert_eq!(cursor.as_slice(), b.as_slice());
        }
        cycle(&mut DiskStore::new(&dir).unwrap(), &a, &b);
        let mut mem = MemStore::new();
        cycle(&mut mem, &a, &b);
        // Two slots were allocated; every later save refills one of them,
        // whatever the taker left in it.
        assert_eq!(mem.spares_mut().len(), 2);
        mem.spares_mut()[1].fill(f64::NAN);
        let slot = mem.spares_mut()[1].as_slice().as_ptr();
        mem.save(7, &a).unwrap();
        assert_eq!(mem.spares_mut().len(), 1);
        assert_eq!(mem.slots[&7].as_slice().as_ptr(), slot, "refilled in place");
        assert_eq!(mem.slots[&7].as_slice(), a.as_slice());
        // A spare of another shape is replaced, not half-overwritten.
        let wide = Grid::full(&[5, 5], 1.0);
        mem.save(8, &wide).unwrap();
        assert_eq!(mem.load(8).unwrap().dims(), wide.dims());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_contract() {
        let mut store = MemStore::new();
        exercise(&mut store);
        assert_eq!(
            <MemStore<Grid> as SnapshotStore<Grid>>::label(&store),
            "memory"
        );
    }

    #[test]
    fn disk_store_contract_and_cleanup() {
        let _g = disk_test_lock();
        let dir = std::env::temp_dir().join(format!("perforad_ckpt_test_{}", std::process::id()));
        {
            let mut store = DiskStore::new(&dir).unwrap();
            exercise(&mut store);
            assert_eq!(<DiskStore as SnapshotStore<Grid>>::label(&store), "disk");
            // Leave one live snapshot to exercise Drop cleanup.
            store.save(42, &grid()).unwrap();
            let files = std::fs::read_dir(&dir).unwrap().count();
            assert_eq!(files, 1);
        }
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 0, "drop must remove live snapshot files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fallback_store_absorbs_write_faults_bitwise() {
        let _g = disk_test_lock();
        let dir = std::env::temp_dir().join(format!("perforad_ckpt_fb_{}", std::process::id()));
        let mut store = FallbackStore::new(DiskStore::new(&dir).unwrap());
        let g = grid();
        // Fault exactly the first write: snapshot 0 lands in memory,
        // snapshot 1 on disk.
        perforad_obs::fault::arm("ckpt.disk.write=fail@1").unwrap();
        store.save(0, &g).unwrap();
        store.save(1, &g).unwrap();
        perforad_obs::fault::disarm();
        assert_eq!(store.fallbacks(), 1);
        assert_eq!(store.live(), 2);
        for t in [0usize, 1] {
            let back: Grid = store.load(t).unwrap();
            for (a, b) in g.as_slice().iter().zip(back.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // Protocol errors are NOT absorbed — a double save is a bug in
        // the plan, not an environmental failure.
        assert!(matches!(store.save(0, &g), Err(CkptError::Protocol(_))));
        assert!(matches!(store.save(1, &g), Err(CkptError::Protocol(_))));
        store.free(0).unwrap();
        store.free(1).unwrap();
        assert_eq!(store.live(), 0);
        assert_eq!(
            <FallbackStore<Grid> as SnapshotStore<Grid>>::label(&store),
            "disk+mem"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_read_fault_surfaces_as_store_error() {
        let _g = disk_test_lock();
        let dir = std::env::temp_dir().join(format!("perforad_ckpt_rf_{}", std::process::id()));
        let mut store = DiskStore::new(&dir).unwrap();
        store.save(3, &grid()).unwrap();
        perforad_obs::fault::arm("ckpt.disk.read=fail").unwrap();
        let got: Result<Grid, _> = store.load(3);
        perforad_obs::fault::disarm();
        assert!(matches!(got, Err(CkptError::Store(_))));
        // The snapshot file itself is untouched; a fault-free retry works.
        let back: Grid = store.load(3).unwrap();
        assert_eq!(back.as_slice(), grid().as_slice());
        SnapshotStore::<Grid>::free(&mut store, 3).unwrap();
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_sweeps_untracked_spill_files_after_a_panic() {
        let _g = disk_test_lock();
        let dir = std::env::temp_dir().join(format!("perforad_ckpt_panic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut store = DiskStore::new(&dir).unwrap();
            store.save(0, &grid()).unwrap();
            // Orphan a file the live map never learns about — the shape
            // of a panic between `fs::write` and `live.insert`.
            std::fs::write(dir.join(format!("ckpt_{}_99.bin", store.tag())), b"orphan").unwrap();
            panic!("injected panic mid-sweep");
        }));
        assert!(caught.is_err());
        let files = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(files, 0, "Drop must sweep tracked and orphaned spill files");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_disk_stores_share_a_directory_without_collisions() {
        let _g = disk_test_lock();
        let dir = std::env::temp_dir().join(format!("perforad_ckpt_shared_{}", std::process::id()));
        let mut a = DiskStore::new(&dir).unwrap();
        let mut b = DiskStore::new(&dir).unwrap();
        assert_ne!(a.tag(), b.tag(), "instance tags must be unique");
        let (ga, gb) = (Grid::full(&[4], 1.0), Grid::full(&[4], 2.0));
        a.save(0, &ga).unwrap();
        b.save(0, &gb).unwrap();
        let la: Grid = a.load(0).unwrap();
        let lb: Grid = b.load(0).unwrap();
        assert_eq!(la.as_slice(), ga.as_slice());
        assert_eq!(lb.as_slice(), gb.as_slice());
        SnapshotStore::<Grid>::free(&mut a, 0).unwrap();
        SnapshotStore::<Grid>::free(&mut b, 0).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
