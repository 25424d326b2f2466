//! The persistent tuning cache.
//!
//! Tuning results are keyed by a **schedule fingerprint** (a stable hash
//! of the source nests' structure, the padded flag, and the integer size
//! bindings — everything that changes the work being scheduled) plus a
//! **machine signature** (arch, OS, worker count, cache format version —
//! everything that changes which configuration wins). The nests are
//! walked, never printed, and each distinct right-hand side is hashed once
//! per key: a term the split nests repeat costs one walk. Entries live in
//! two layers:
//!
//! * a process-wide in-memory map, always on by default, so repeated
//!   `autotune` calls in one process (e.g. every time step of a seismic
//!   sweep, or a second benchmark run) skip the search entirely;
//! * an optional JSON file (written and read with `perforad_obs::json`,
//!   the workspace's one codec), so separate processes share tunings. Set
//!   [`crate::TuneOptions::cache_path`] or the `PERFORAD_TUNE_CACHE`
//!   environment variable.

use perforad_core::{AssignOp, Bound, LoopNest};
use perforad_exec::native::WordHash;
use perforad_exec::{Binding, Lowering};
use perforad_obs::json::{self, Value};
use perforad_sched::{TilePolicy, TunedConfig, TunedStrategy};
use perforad_symbolic::visit::NodeMemo;
use perforad_symbolic::{Access, Expr, Idx, Node, Number, UFunApp};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// Bump when the key derivation or entry layout changes: old files then
/// miss cleanly instead of deserialising garbage. 2 since the work key is
/// hashed from the nests' structure instead of their printed text; 3
/// since an entry carries no CSE flag (every plan compiles without CSE).
pub const CACHE_VERSION: u32 = 3;

/// FNV-1a over a byte stream — deterministic across runs and platforms.
/// (The canonical implementation lives in `perforad_exec::native`, beside
/// the word hash that names plans and work; re-exported here so every
/// digest of text in the workspace shares one hash.)
pub use perforad_exec::native::fnv1a64;

/// Stable fingerprint of the *work*: the nests (counters, bounds, and
/// each statement's guard, operator, left- and right-hand side), the
/// padded-boundary flag, and the integer sizes the bounds resolve
/// against — what the nests' printed form shows, as words through one
/// [`WordHash`]. Floating-point parameters are excluded: they change
/// values, not schedule shape.
pub fn fingerprint_nests(nests: &[LoopNest], padded: bool, bind: &Binding) -> u64 {
    let (key, hashed) = hash_work(nests, padded, bind);
    if perforad_obs::enabled() {
        perforad_obs::counter("tune.rhs_hashed").add(hashed as u64);
    }
    key
}

/// [`fingerprint_nests`], and how many right-hand sides were walked to
/// take it: one per distinct node ([`NodeMemo`]), as an adjoint's split
/// nests repeat a few terms (a 3-D star's 161 statements repeat 7).
fn hash_work(nests: &[LoopNest], padded: bool, bind: &Binding) -> (u64, usize) {
    let (mut rhs_keys, mut hashed): (NodeMemo<u64>, usize) = (NodeMemo::default(), 0);
    let mut lhs: Option<(&Access, u64)> = None;
    let mut h = WordHash::new();
    h.word(nests.len() as u64);
    for nest in nests {
        let loops = nest.counters.iter().zip(&nest.bounds);
        h.word(loops.len() as u64);
        for (c, b) in loops {
            h.str(c.name());
            hash_bound(&mut h, b);
        }
        h.word(nest.body.len() as u64);
        for s in &nest.body {
            let ranges = s.guard.iter().flat_map(|g| &g.ranges);
            // No guard, or one more than its number of ranges.
            h.word(s.guard.as_ref().map_or(0, |g| 1 + g.ranges.len() as u64));
            for (c, b) in ranges {
                h.str(c.name());
                hash_bound(&mut h, b);
            }
            h.word(match s.op {
                AssignOp::Assign => 0,
                AssignOp::AddAssign => 1,
            });
            // A nest's statements mostly write one place: `u_b(i, j, k)`.
            let lhs_key = match lhs {
                Some((access, key)) if *access == s.lhs => key,
                _ => {
                    let mut access = WordHash::new();
                    hash_access(&mut access, &s.lhs);
                    lhs.insert((&s.lhs, access.finish())).1
                }
            };
            h.word(lhs_key);
            h.word(*rhs_keys.get_or_insert_with(&s.rhs, || {
                hashed += 1;
                let mut rhs = WordHash::new();
                hash_expr(&mut rhs, &s.rhs);
                rhs.finish()
            }));
        }
    }
    h.word(padded as u64);
    h.word(bind.sizes.len() as u64);
    for (sym, &v) in &bind.sizes {
        h.str(sym.name());
        h.word(v as u64);
    }
    (h.finish(), hashed)
}

fn hash_bound(h: &mut WordHash, b: &Bound) {
    hash_idx(h, &b.lo);
    hash_idx(h, &b.hi);
}

/// `Σ coeff·sym + offset`: its terms, then its offset.
fn hash_idx(h: &mut WordHash, ix: &Idx) {
    h.word(ix.terms().count() as u64);
    for (sym, coeff) in ix.terms() {
        h.str(sym.name());
        h.word(coeff as u64);
    }
    h.word(ix.offset() as u64);
}

fn hash_access(h: &mut WordHash, a: &Access) {
    h.str(a.array.name());
    h.word(a.indices.len() as u64);
    for ix in a.indices.iter() {
        hash_idx(h, ix);
    }
}

/// One node in pre-order: a tag word, then its payload and children, a
/// list of children as its length first.
fn hash_expr(h: &mut WordHash, e: &Expr) {
    fn list(h: &mut WordHash, es: &[Expr]) {
        h.word(es.len() as u64);
        es.iter().for_each(|e| hash_expr(h, e));
    }
    fn app(h: &mut WordHash, app: &UFunApp) {
        h.str(app.name.name());
        h.word(app.params.len() as u64);
        app.params.iter().for_each(|p| h.str(p.name()));
        list(h, &app.args);
    }
    match e.node() {
        Node::Num(Number::Int(i)) => {
            h.word(0);
            h.word(*i as u64);
        }
        Node::Num(Number::Rat(r)) => {
            h.word(1);
            h.word(r.numer() as u64);
            h.word(r.denom() as u64);
        }
        Node::Num(Number::Float(x)) => {
            h.word(2);
            h.word(x.to_bits());
        }
        Node::Sym(s) => {
            h.word(3);
            h.str(s.name());
        }
        Node::Access(a) => {
            h.word(4);
            hash_access(h, a);
        }
        Node::Add(ts) => {
            h.word(5);
            list(h, ts);
        }
        Node::Mul(fs) => {
            h.word(6);
            list(h, fs);
        }
        Node::Pow(b, x) => {
            h.word(7);
            hash_expr(h, b);
            hash_expr(h, x);
        }
        Node::Call(f, args) => {
            h.word(8);
            h.word(*f as u64);
            list(h, args);
        }
        Node::Select(c, a, b) => {
            h.word(9);
            hash_expr(h, &c.lhs);
            h.word(c.rel as u64);
            hash_expr(h, &c.rhs);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        Node::UFun(f) => {
            h.word(10);
            app(h, f);
        }
        Node::UDeriv(f, k) => {
            h.word(11);
            app(h, f);
            h.word(*k as u64);
        }
    }
}

/// Stable description of the *machine* as seen by the tuner.
pub fn machine_signature(threads: usize) -> String {
    format!(
        "v{CACHE_VERSION}|{}|{}|t{}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        threads.max(1)
    )
}

/// Full cache key for a (work, machine) pair.
pub fn cache_key(fingerprint: u64, threads: usize) -> String {
    format!("{fingerprint:016x}|{}", machine_signature(threads))
}

/// One cached tuning outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    /// The winning configuration.
    pub config: TunedConfig,
    /// Its measured (or model/synthetic) seconds at tuning time.
    pub seconds: f64,
}

/// A loadable/savable set of tuning outcomes.
#[derive(Clone, Debug, Default)]
pub struct TuneCache {
    entries: Vec<(String, CacheEntry)>,
}

impl TuneCache {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn lookup(&self, key: &str) -> Option<&CacheEntry> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, e)| e)
    }

    /// Insert or replace the entry for `key`.
    pub fn insert(&mut self, key: &str, entry: CacheEntry) {
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| k == key) {
            slot.1 = entry;
        } else {
            self.entries.push((key.to_string(), entry));
        }
    }

    /// Serialise to the cache file format.
    pub fn to_json(&self) -> String {
        let entry = |(key, e): &(String, CacheEntry)| {
            let c = &e.config;
            let tile = c.tile.iter().map(|&t| t.into()).collect();
            Value::obj([
                ("key", key.as_str().into()),
                ("strategy", strategy_name(c.strategy).into()),
                ("lowering", lowering_name(c.lowering).into()),
                ("policy", policy_name(c.policy).into()),
                ("tile", Value::Arr(tile)),
                ("fuse", c.fuse.into()),
                ("threads", c.threads.into()),
                ("checkpoint", c.checkpoint.map_or(Value::Null, Value::from)),
                ("seconds", e.seconds.into()),
            ])
        };
        let entries = self.entries.iter().map(entry).collect();
        Value::obj([
            ("version", CACHE_VERSION.into()),
            ("entries", Value::Arr(entries)),
        ])
        .to_string()
    }

    /// Parse the cache file format. A version mismatch yields an *empty*
    /// cache (a clean miss), not an error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        use {Lowering::*, TilePolicy::*, TunedStrategy::*};
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("version").and_then(Value::as_i64) != Some(CACHE_VERSION as i64) {
            return Ok(TuneCache::new());
        }
        let mut cache = TuneCache::new();
        for e in field(&doc, "entries", Value::as_array)? {
            let tile = field(e, "tile", Value::as_array)?.iter().map(Value::as_i64);
            let config = TunedConfig {
                strategy: named(e, "strategy", &[Serial, Parallel], strategy_name)?,
                lowering: named(e, "lowering", &[PerPoint, Rows, Jit], lowering_name)?,
                policy: named(e, "policy", &[Static, Dynamic], policy_name)?,
                tile: tile.collect::<Option<_>>().ok_or("non-integer tile edge")?,
                fuse: field(e, "fuse", Value::as_bool)?,
                threads: field(e, "threads", Value::as_uint)?,
                // Absent (pre-checkpoint cache files) and explicit null
                // both mean "no checkpointed time loop was tuned".
                checkpoint: match e.get("checkpoint") {
                    None | Some(Value::Null) => None,
                    Some(b) => Some(b.as_uint().ok_or("`checkpoint` is not a budget")?),
                },
            };
            let seconds = field(e, "seconds", Value::as_f64)?;
            cache.insert(
                field(e, "key", Value::as_str)?,
                CacheEntry { config, seconds },
            );
        }
        Ok(cache)
    }

    /// Load from a file; a missing file is an empty cache. A file that
    /// *exists but does not parse* (not UTF-8 included) is *quarantined* —
    /// renamed to `<name>.corrupt` (kept for inspection, never deleted) —
    /// and the load is a clean miss, so the next save rebuilds a healthy
    /// file instead of tripping over the same garbage forever.
    pub fn load(path: &Path) -> Result<Self, String> {
        if perforad_obs::fault::should_fail("tune.cache.read") {
            return Err(format!(
                "read {}: injected fault (tune.cache.read)",
                path.display()
            ));
        }
        let parsed = |bytes: Vec<u8>| {
            let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
            Self::from_json(&text)
        };
        match std::fs::read(path) {
            Ok(bytes) => match parsed(bytes) {
                Ok(cache) => Ok(cache),
                Err(e) => {
                    let quarantine = corrupt_path(path);
                    let _ = std::fs::rename(path, &quarantine);
                    perforad_obs::counter("tune.cache_quarantined").inc();
                    eprintln!(
                        "perforad-tune: quarantined corrupt cache {} ({e})",
                        path.display()
                    );
                    Ok(TuneCache::new())
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(TuneCache::new()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Persist to a file: write a temporary file of this save's own, then
    /// rename it into place, so a reader sees a whole file, old or new.
    /// Concurrent savers — threads of one process, or processes sharing
    /// `PERFORAD_TUNE_CACHE` — each rename a whole file; the last writer
    /// wins, and the entries only the others held are lost until tuned
    /// again.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if perforad_obs::fault::should_fail("tune.cache.write") {
            return Err(format!(
                "write {}: injected fault (tune.cache.write)",
                path.display()
            ));
        }
        let tmp = path.with_extension(format!("json.tmp.{}", perforad_jit::unique_suffix()));
        let saved = std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("write {}: {e}", tmp.display()))
            .and_then(|()| {
                std::fs::rename(&tmp, path)
                    .map_err(|e| format!("rename to {}: {e}", path.display()))
            });
        if saved.is_err() {
            // Each save names its own file: no other saver will reuse it.
            let _ = std::fs::remove_file(&tmp);
        }
        saved
    }
}

/// `<file>.corrupt` next to the original — the quarantine name for a
/// cache file that exists but does not parse.
fn corrupt_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".corrupt");
    path.with_file_name(name)
}

/// Field `name` of `e`, as `read` takes it.
fn field<'a, T>(e: &'a Value, name: &str, read: fn(&'a Value) -> Option<T>) -> Result<T, String> {
    let malformed = || format!("missing or malformed `{name}`");
    e.get(name).and_then(read).ok_or_else(malformed)
}

/// Entry field `name`: the one of `all` that the writer's `spell` spells.
fn named<T: Copy>(
    e: &Value,
    name: &str,
    all: &[T],
    spell: fn(T) -> &'static str,
) -> Result<T, String> {
    let text = field(e, name, Value::as_str)?;
    let found = all.iter().copied().find(|&v| spell(v) == text);
    found.ok_or(format!("unknown {name} `{text}`"))
}

fn strategy_name(s: TunedStrategy) -> &'static str {
    match s {
        TunedStrategy::Serial => "Serial",
        TunedStrategy::Parallel => "Parallel",
    }
}

fn lowering_name(l: Lowering) -> &'static str {
    match l {
        Lowering::PerPoint => "PerPoint",
        Lowering::Rows => "Rows",
        Lowering::Jit => "Jit",
    }
}

fn policy_name(p: TilePolicy) -> &'static str {
    match p {
        TilePolicy::Static => "Static",
        TilePolicy::Dynamic => "Dynamic",
    }
}

fn memory() -> &'static Mutex<HashMap<String, CacheEntry>> {
    static MEM: OnceLock<Mutex<HashMap<String, CacheEntry>>> = OnceLock::new();
    MEM.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Look up the process-wide in-memory cache.
pub fn memory_lookup(key: &str) -> Option<CacheEntry> {
    memory().lock().expect("tune cache lock").get(key).cloned()
}

/// Store into the process-wide in-memory cache.
pub fn memory_store(key: &str, entry: CacheEntry) {
    memory()
        .lock()
        .expect("tune cache lock")
        .insert(key.to_string(), entry);
}

/// Number of entries in the process-wide in-memory cache — a cheap
/// warm-path size readout for `Stats`-style introspection.
pub fn memory_len() -> usize {
    memory().lock().expect("tune cache lock").len()
}

/// Drop every in-memory entry (tests use this to force re-tuning).
pub fn memory_clear() {
    memory().lock().expect("tune cache lock").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_core::make_loop_nest;
    use perforad_symbolic::{ix, Array, Idx, Symbol};

    fn nest() -> LoopNest {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let u = Array::new("u");
        make_loop_nest(
            &Array::new("r").at(ix![&i]),
            u.at(ix![&i - 1]) + u.at(ix![&i + 1]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(n) - 1)],
        )
        .unwrap()
    }

    fn entry() -> CacheEntry {
        CacheEntry {
            config: TunedConfig {
                strategy: TunedStrategy::Parallel,
                lowering: Lowering::Rows,
                policy: TilePolicy::Static,
                tile: vec![16, 32, 512],
                fuse: true,
                threads: 8,
                checkpoint: None,
            },
            seconds: 1.25e-3,
        }
    }

    /// A right-hand side is walked once per term, not per statement,
    /// whatever the boundary strategy puts around it (guards, merged sums).
    #[test]
    fn the_work_key_hashes_each_right_hand_side_once() {
        use perforad_core::{ActivityMap, AdjointOptions, BoundaryStrategy};
        let bind = Binding::new().size("n", 64);
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        for (opts, per_term) in [
            (AdjointOptions::default(), true),
            (
                AdjointOptions::default().with_strategy(BoundaryStrategy::Guarded),
                true,
            ),
            (AdjointOptions::default().merged(), false),
        ] {
            let adj = nest().adjoint(&act, &opts).unwrap();
            let (key, hashed) = hash_work(&adj.nests, false, &bind);
            assert_eq!(key, fingerprint_nests(&adj.nests, false, &bind));
            let statements: usize = adj.nests.iter().map(|n| n.body.len()).sum();
            assert!(statements > adj.terms.len());
            let distinct = if per_term {
                adj.terms.len()
            } else {
                statements
            };
            assert_eq!(hashed, distinct, "{opts:?}");
        }
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let bind = Binding::new().size("n", 64);
        let nests = [nest()];
        let a = fingerprint_nests(&nests, false, &bind);
        let b = fingerprint_nests(&nests, false, &bind);
        assert_eq!(a, b);
        // Padded flag, sizes, and nest structure all perturb the key.
        assert_ne!(a, fingerprint_nests(&nests, true, &bind));
        assert_ne!(
            a,
            fingerprint_nests(&nests, false, &Binding::new().size("n", 65))
        );
        let two = [nest(), nest()];
        assert_ne!(a, fingerprint_nests(&two, false, &bind));
        // Float params do not perturb it.
        assert_eq!(
            a,
            fingerprint_nests(&nests, false, &Binding::new().size("n", 64).param("D", 0.5))
        );
    }

    /// A cache file as the hand-formatted writer before `perforad_obs::json`
    /// wrote it, less the per-entry CSE flag that version 3 dropped: every
    /// enum name, `null` and numeric budgets, an empty tile, a key that
    /// needs escaping, fractional seconds.
    const PINNED_FILE: &str = concat!(
        r#"{"version":1,"entries":[{"key":"00ab12cd34ef5678|v1|x86_64|linux|t8","#,
        r#""strategy":"Parallel","lowering":"Rows","policy":"Static","tile":[16,32,512],"#,
        r#""fuse":true,"threads":8,"checkpoint":null,"seconds":0.00125},"#,
        r#"{"key":"k\"2\\|t1","strategy":"Serial","lowering":"Jit","policy":"Dynamic","#,
        r#""tile":[],"fuse":false,"threads":1,"checkpoint":12,"#,
        r#""seconds":0.30000000000000004},{"key":"ffffffffffffffff|v1|x86_64|linux|t4","#,
        r#""strategy":"Parallel","lowering":"PerPoint","policy":"Static","tile":[8,4096],"#,
        r#""fuse":true,"threads":4,"checkpoint":0,"seconds":0.0000000035}]}"#,
    );

    fn pinned_cache() -> TuneCache {
        use {Lowering::*, TilePolicy::*, TunedStrategy::*};
        let mut cache = TuneCache::new();
        cache.insert("00ab12cd34ef5678|v1|x86_64|linux|t8", entry());
        let mut c = TunedConfig {
            fuse: false,
            ..TunedConfig::default()
        };
        (c.strategy, c.lowering, c.policy, c.threads, c.checkpoint) =
            (Serial, Jit, Dynamic, 1, Some(12));
        let seconds = 0.1 + 0.2;
        cache.insert(
            "k\"2\\|t1",
            CacheEntry {
                config: c.clone(),
                seconds,
            },
        );
        (c.strategy, c.lowering, c.policy, c.tile) = (Parallel, PerPoint, Static, vec![8, 4096]);
        (c.fuse, c.threads, c.checkpoint) = (true, 4, Some(0));
        cache.insert(
            "ffffffffffffffff|v1|x86_64|linux|t4",
            CacheEntry {
                config: c,
                seconds: 3.5e-9,
            },
        );
        cache
    }

    /// [`PINNED_FILE`] at today's [`CACHE_VERSION`]: the layout has moved
    /// since only by the dropped CSE flag, and the key derivation by what
    /// version 2 stands for.
    fn current_file() -> String {
        let version = format!(r#"{{"version":{CACHE_VERSION},"#);
        PINNED_FILE.replacen(r#"{"version":1,"#, &version, 1)
    }

    #[test]
    fn the_cache_file_is_byte_identical_to_the_hand_formatted_writers() {
        let cache = pinned_cache();
        assert_eq!(cache.to_json(), current_file());
        // And a file that writer left on disk loads entry for entry.
        let loaded = TuneCache::from_json(&current_file()).unwrap();
        assert_eq!(loaded.entries, cache.entries);
        // A v1 file's keys hashed printed text: it is a clean miss.
        assert!(TuneCache::from_json(PINNED_FILE).unwrap().is_empty());
    }

    #[test]
    fn a_negative_thread_count_is_an_error_not_usize_max() {
        for (field, bad) in [
            ("\"threads\":8", "\"threads\":-1"),
            ("\"threads\":8", "\"threads\":1e300"),
            ("\"checkpoint\":null", "\"checkpoint\":-1"),
        ] {
            let corrupt = current_file().replacen(field, bad, 1);
            assert!(TuneCache::from_json(&corrupt).is_err(), "{bad}");
        }
    }

    #[test]
    fn version_mismatch_is_a_clean_miss() {
        let doc = r#"{"version":0,"entries":[{"key":"k"}]}"#;
        let cache = TuneCache::from_json(doc).unwrap();
        assert!(cache.is_empty());
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "perforad_tune_cache_test_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        assert!(TuneCache::load(&path).unwrap().is_empty());
        let mut cache = TuneCache::new();
        cache.insert("k", entry());
        cache.save(&path).unwrap();
        let loaded = TuneCache::load(&path).unwrap();
        assert_eq!(loaded.lookup("k"), Some(&entry()));
        let _ = std::fs::remove_file(&path);
    }

    /// Two threads saving 200-entry caches to one path in a loop, a third
    /// reading it meanwhile: every read is a whole file, one saver's or
    /// the other's, and no save fails.
    #[test]
    fn concurrent_saves_never_leave_a_torn_file() {
        let path = std::env::temp_dir().join(format!(
            "perforad_tune_cache_concurrent_{}.json",
            std::process::id()
        ));
        let cache = |tag: &str| {
            let mut cache = TuneCache::new();
            for k in 0..200 {
                cache.insert(&format!("{tag}|{k:04}"), entry());
            }
            cache
        };
        cache("a").save(&path).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let start = std::sync::Barrier::new(3);
        let (failed, (reads, torn)) = std::thread::scope(|s| {
            let savers = ["a", "b"].map(|tag| {
                let (cache, path, start) = (cache(tag), &path, &start);
                s.spawn(move || {
                    start.wait();
                    (0..150).filter(|_| cache.save(path).is_err()).count()
                })
            });
            let reader = s.spawn(|| {
                start.wait();
                let (mut reads, mut torn) = (0, 0);
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let read = std::fs::read_to_string(&path).map_err(|e| e.to_string());
                    let whole = read.and_then(|text| TuneCache::from_json(&text));
                    reads += 1;
                    torn += whole.map_or(1, |c| (c.len() != 200) as usize);
                }
                (reads, torn)
            });
            let failed: usize = savers.into_iter().map(|t| t.join().unwrap()).sum();
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            (failed, reader.join().unwrap())
        });
        assert!(reads > 0);
        assert_eq!(torn, 0, "{torn} of {reads} reads saw a torn file");
        assert_eq!(failed, 0, "{failed} saves failed");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_cache_file_is_quarantined_and_rebuilt() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "perforad_tune_cache_corrupt_{}.json",
            std::process::id()
        ));
        let quarantined = corrupt_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantined);
        std::fs::write(&path, "definitely { not json").unwrap();
        // A corrupt file is a clean miss, renamed aside for inspection.
        let loaded = TuneCache::load(&path).unwrap();
        assert!(loaded.is_empty());
        assert!(!path.exists(), "corrupt file must be moved away");
        assert!(quarantined.exists(), "corrupt file must be kept, renamed");
        // The next save rebuilds a healthy file in its place.
        let mut cache = TuneCache::new();
        cache.insert("k", entry());
        cache.save(&path).unwrap();
        assert_eq!(TuneCache::load(&path).unwrap().lookup("k"), Some(&entry()));
        // A version mismatch is NOT corruption: clean miss, no rename.
        std::fs::write(&path, r#"{"version":0,"entries":[]}"#).unwrap();
        assert!(TuneCache::load(&path).unwrap().is_empty());
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&quarantined);
    }

    #[test]
    fn insert_replaces_existing_keys() {
        let mut cache = TuneCache::new();
        cache.insert("k", entry());
        let mut newer = entry();
        newer.seconds = 9.0;
        cache.insert("k", newer.clone());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.lookup("k"), Some(&newer));
    }

    #[test]
    fn machine_signature_embeds_threads_and_version() {
        let sig = machine_signature(8);
        assert!(sig.contains("t8"));
        assert!(sig.starts_with(&format!("v{CACHE_VERSION}|")));
        assert_ne!(sig, machine_signature(4));
        let key = cache_key(0xdead_beef, 8);
        assert!(key.starts_with("00000000deadbeef|"));
    }
}
