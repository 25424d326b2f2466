//! The persistent tuning cache.
//!
//! Tuning results are keyed by a **schedule fingerprint** (a stable hash
//! of the source nests' printed IR, the padded flag, and the integer size
//! bindings — everything that changes the work being scheduled) plus a
//! **machine signature** (arch, OS, worker count, cache format version —
//! everything that changes which configuration wins). The printed IR is
//! streamed into the hash, never built, and costs one `Display` per adjoint
//! *term*: a right-hand side the split nests repeat is formatted once.
//! Entries live in two layers:
//!
//! * a process-wide in-memory map, always on by default, so repeated
//!   `autotune` calls in one process (e.g. every time step of a seismic
//!   sweep, or a second benchmark run) skip the search entirely;
//! * an optional JSON file (hand-rolled like every serialised artifact in
//!   this std-only workspace), so separate processes share tunings. Set
//!   [`crate::TuneOptions::cache_path`] or the `PERFORAD_TUNE_CACHE`
//!   environment variable.

use crate::json::{self, Value};
use perforad_core::{AssignOp, LoopNest};
use perforad_exec::{Binding, Lowering};
use perforad_sched::{TilePolicy, TunedConfig, TunedStrategy};
use perforad_symbolic::visit::NodeMemo;
use std::collections::HashMap;
use std::fmt::Write;
use std::path::Path;
use std::sync::{Mutex, OnceLock};

/// Bump when the key derivation or entry layout changes: old files then
/// miss cleanly instead of deserialising garbage.
pub const CACHE_VERSION: u32 = 1;

/// FNV-1a over a byte stream — deterministic across runs and platforms.
/// (The canonical implementation lives in `perforad_exec::native`, where
/// plan fingerprints — the JIT artifact-cache keys — are built from it;
/// re-exported here so every fingerprint in the workspace shares one
/// hash.)
pub use perforad_exec::native::fnv1a64;
use perforad_exec::native::Fnv;

/// Stable fingerprint of the *work*: the nests' printed IR (the display
/// form is the IR's canonical syntax), the padded-boundary flag, and the
/// integer sizes the bounds resolve against. Floating-point parameters
/// are excluded — they change values, not schedule shape.
pub fn fingerprint_nests(nests: &[LoopNest], padded: bool, bind: &Binding) -> u64 {
    let mut text = Fnv::new();
    let rendered = write_work(&mut text, nests, padded, bind);
    if perforad_obs::enabled() {
        perforad_obs::counter("tune.rhs_rendered").add(rendered as u64);
    }
    text.finish()
}

/// Write what [`fingerprint_nests`] hashes — each nest exactly as its
/// `Display` prints it, then `;` — and return how many right-hand sides
/// were formatted to do so: one per distinct node ([`NodeMemo`]), as an
/// adjoint's split nests repeat a few terms (a 3-D star's 161 repeat 7).
fn write_work(out: &mut impl Write, nests: &[LoopNest], padded: bool, bind: &Binding) -> usize {
    let mut texts: NodeMemo<String> = NodeMemo::default();
    let (mut rendered, mut lhs) = (0, None);
    for nest in nests {
        for (d, (c, b)) in nest.counters.iter().zip(&nest.bounds).enumerate() {
            let _ = writeln!(out, "{:indent$}for {c} in {b} {{", "", indent = d * 2);
        }
        let indent = nest.counters.len() * 2;
        for s in &nest.body {
            let _ = write!(out, "{:indent$}", "");
            if let Some(g) = &s.guard {
                let _ = write!(out, "if ({g}) ");
            }
            let op = if s.op == AssignOp::Assign { "=" } else { "+=" };
            let rhs = texts.get_or_insert_with(&s.rhs, || {
                rendered += 1;
                s.rhs.to_string()
            });
            // A nest's statements mostly write one place: `u_b(i, j, k)`.
            let lhs = match &mut lhs {
                Some((access, text)) if *access == &s.lhs => text,
                stale => &mut stale.insert((&s.lhs, s.lhs.to_string())).1,
            };
            let _ = writeln!(out, "{lhs} {op} {rhs}");
        }
        for d in (0..nest.counters.len()).rev() {
            let _ = writeln!(out, "{:indent$}}}", "", indent = d * 2);
        }
        let _ = out.write_char(';');
    }
    let _ = write!(out, "|padded={padded}");
    for (sym, v) in &bind.sizes {
        let _ = write!(out, "|{sym}={v}");
    }
    rendered
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
        let entries: Vec<String> = self
            .entries
            .iter()
            .map(|(k, e)| {
                let tile: Vec<String> = e.config.tile.iter().map(|t| t.to_string()).collect();
                let checkpoint = match e.config.checkpoint {
                    Some(b) => b.to_string(),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"key\":{},\"strategy\":{},\"lowering\":{},\"policy\":{},\
                     \"tile\":[{}],\"fuse\":{},\"cse\":{},\"threads\":{},\
                     \"checkpoint\":{checkpoint},\"seconds\":{}}}",
                    json::escape(k),
                    json::escape(strategy_name(e.config.strategy)),
                    json::escape(lowering_name(e.config.lowering)),
                    json::escape(policy_name(e.config.policy)),
                    tile.join(","),
                    e.config.fuse,
                    e.config.cse,
                    e.config.threads,
                    e.seconds
                )
            })
            .collect();
        format!(
            "{{\"version\":{CACHE_VERSION},\"entries\":[{}]}}",
            entries.join(",")
        )
    }

    /// Parse the cache file format. A version mismatch yields an *empty*
    /// cache (a clean miss), not an error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("version").and_then(Value::as_i64) != Some(CACHE_VERSION as i64) {
            return Ok(TuneCache::new());
        }
        let mut cache = TuneCache::new();
        let entries = doc
            .get("entries")
            .and_then(Value::as_array)
            .ok_or("missing `entries` array")?;
        for e in entries {
            let key = e
                .get("key")
                .and_then(Value::as_str)
                .ok_or("entry missing `key`")?;
            let config = TunedConfig {
                strategy: parse_strategy(field_str(e, "strategy")?)?,
                lowering: parse_lowering(field_str(e, "lowering")?)?,
                policy: parse_policy(field_str(e, "policy")?)?,
                tile: e
                    .get("tile")
                    .and_then(Value::as_array)
                    .ok_or("entry missing `tile`")?
                    .iter()
                    .map(|t| t.as_i64().ok_or("non-integer tile edge"))
                    .collect::<Result<_, _>>()?,
                fuse: e
                    .get("fuse")
                    .and_then(Value::as_bool)
                    .ok_or("entry missing `fuse`")?,
                cse: e
                    .get("cse")
                    .and_then(Value::as_bool)
                    .ok_or("entry missing `cse`")?,
                threads: e
                    .get("threads")
                    .and_then(Value::as_i64)
                    .ok_or("entry missing `threads`")? as usize,
                // Absent (pre-checkpoint cache files) and explicit null
                // both mean "no checkpointed time loop was tuned".
                checkpoint: e
                    .get("checkpoint")
                    .and_then(Value::as_i64)
                    .map(|b| b as usize),
            };
            let seconds = e
                .get("seconds")
                .and_then(Value::as_f64)
                .ok_or("entry missing `seconds`")?;
            cache.insert(key, CacheEntry { config, seconds });
        }
        Ok(cache)
    }

    /// Load from a file; a missing file is an empty cache. A file that
    /// *exists but does not parse* is *quarantined* — renamed to
    /// `<name>.corrupt` (kept for inspection, never deleted) — and the
    /// load is a clean miss, so the next save rebuilds a healthy file
    /// instead of tripping over the same garbage forever.
    pub fn load(path: &Path) -> Result<Self, String> {
        if perforad_obs::fault::should_fail("tune.cache.read") {
            return Err(format!(
                "read {}: injected fault (tune.cache.read)",
                path.display()
            ));
        }
        match std::fs::read_to_string(path) {
            Ok(text) => match Self::from_json(&text) {
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

    /// Persist to a file (best effort atomicity: write-then-rename).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if perforad_obs::fault::should_fail("tune.cache.write") {
            return Err(format!(
                "write {}: injected fault (tune.cache.write)",
                path.display()
            ));
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
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

fn field_str<'a>(e: &'a Value, name: &str) -> Result<&'a str, String> {
    e.get(name)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("entry missing `{name}`"))
}

fn strategy_name(s: TunedStrategy) -> &'static str {
    match s {
        TunedStrategy::Serial => "Serial",
        TunedStrategy::Parallel => "Parallel",
    }
}

fn parse_strategy(s: &str) -> Result<TunedStrategy, String> {
    match s {
        "Serial" => Ok(TunedStrategy::Serial),
        "Parallel" => Ok(TunedStrategy::Parallel),
        other => Err(format!("unknown strategy `{other}`")),
    }
}

fn lowering_name(l: Lowering) -> &'static str {
    match l {
        Lowering::PerPoint => "PerPoint",
        Lowering::Rows => "Rows",
        Lowering::Jit => "Jit",
    }
}

fn parse_lowering(s: &str) -> Result<Lowering, String> {
    match s {
        "PerPoint" => Ok(Lowering::PerPoint),
        "Rows" => Ok(Lowering::Rows),
        "Jit" => Ok(Lowering::Jit),
        other => Err(format!("unknown lowering `{other}`")),
    }
}

fn policy_name(p: TilePolicy) -> &'static str {
    match p {
        TilePolicy::Static => "Static",
        TilePolicy::Dynamic => "Dynamic",
    }
}

fn parse_policy(s: &str) -> Result<TilePolicy, String> {
    match s {
        "Static" => Ok(TilePolicy::Static),
        "Dynamic" => Ok(TilePolicy::Dynamic),
        other => Err(format!("unknown policy `{other}`")),
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
                cse: true,
                threads: 8,
                checkpoint: None,
            },
            seconds: 1.25e-3,
        }
    }

    /// The streamed bytes are the nests' own `Display`, whatever the
    /// boundary strategy puts in it (guards, merged sums), and a
    /// right-hand side is formatted once per term, not per statement.
    #[test]
    fn hashed_text_is_the_printed_nests_rendered_once_per_term() {
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
            let mut expected: String = adj.nests.iter().map(|n| format!("{n};")).collect();
            expected.push_str("|padded=false|n=64");
            let mut got = String::new();
            let rendered = write_work(&mut got, &adj.nests, false, &bind);
            assert_eq!(got, expected);
            let statements: usize = adj.nests.iter().map(|n| n.body.len()).sum();
            assert!(statements > adj.terms.len());
            let distinct = if per_term {
                adj.terms.len()
            } else {
                statements
            };
            assert_eq!(rendered, distinct, "{opts:?}");
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

    #[test]
    fn json_round_trip_is_identical() {
        let mut cache = TuneCache::new();
        cache.insert("k1", entry());
        let mut e2 = entry();
        e2.config.strategy = TunedStrategy::Serial;
        e2.config.lowering = Lowering::PerPoint;
        e2.config.policy = TilePolicy::Dynamic;
        e2.config.fuse = false;
        e2.config.threads = 1;
        cache.insert("k2", e2.clone());
        let parsed = TuneCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.lookup("k1"), Some(&entry()));
        assert_eq!(parsed.lookup("k2"), Some(&e2));
    }

    #[test]
    fn jit_configs_round_trip_through_the_cache() {
        // A tuner win with the JIT lowering must survive the JSON file
        // format, so later processes re-prepare (dlopen) instead of
        // re-searching.
        let mut e = entry();
        e.config.lowering = Lowering::Jit;
        let mut cache = TuneCache::new();
        cache.insert("jit-key", e.clone());
        let parsed = TuneCache::from_json(&cache.to_json()).unwrap();
        assert_eq!(parsed.lookup("jit-key"), Some(&e));
        assert_eq!(
            parsed.lookup("jit-key").unwrap().config.lowering,
            Lowering::Jit
        );
    }

    #[test]
    fn checkpoint_budgets_round_trip_and_default_to_none() {
        // A tuner win carrying a snapshot budget must survive the JSON
        // file, so later processes reuse the checkpointed time-loop
        // choice without re-searching.
        let mut e = entry();
        e.config.checkpoint = Some(12);
        let mut cache = TuneCache::new();
        cache.insert("ckpt-key", e.clone());
        let text = cache.to_json();
        assert!(text.contains("\"checkpoint\":12"));
        let parsed = TuneCache::from_json(&text).unwrap();
        assert_eq!(parsed.lookup("ckpt-key"), Some(&e));
        // Entries written before the field existed parse as None.
        let legacy = text.replace(",\"checkpoint\":12", "");
        let parsed = TuneCache::from_json(&legacy).unwrap();
        assert_eq!(parsed.lookup("ckpt-key").unwrap().config.checkpoint, None);
        // Plain single-sweep entries serialize an explicit null.
        let mut with_none = TuneCache::new();
        with_none.insert("k", entry());
        let text = with_none.to_json();
        assert!(text.contains("\"checkpoint\":null"));
        let parsed = TuneCache::from_json(&text).unwrap();
        assert_eq!(parsed.lookup("k").unwrap().config.checkpoint, None);
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
