//! What every workload shares: the run's arguments, the hermetic run
//! directory, op accounting, and the shape of a result.

use crate::stats::{self, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// `setup_s` rests on repeated set-ups, each in a fresh process: at least
/// [`SETUP_REPS_MIN`], and more of a short set-up — up to
/// [`SETUP_REPS_MAX`], until the repetitions have taken
/// [`SETUP_BUDGET_S`] — because a set-up of a tenth of a second varies
/// twofold from one process to the next on a shared host.
pub const SETUP_REPS_MIN: usize = 3;
pub const SETUP_REPS_MAX: usize = 15;
pub const SETUP_BUDGET_S: f64 = 3.0;

// The two guards. A run that trips one is INVALID — its harness, not the
// program, is at fault — and says so in the ledger and in
// `bench.guards_tripped`; the program's operations are not failed.

/// Limit on the open-loop generator's own lateness, 95th percentile, ms.
pub const GENERATOR_LATE_LIMIT_MS: f64 = 1.0;
/// Limit on the span recorder's cost as a share of the traced timed
/// region.
pub const TRACE_OVERHEAD_LIMIT: f64 = 0.05;

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    pub traced: bool,
}

impl Args {
    /// Length of the workload's timed region: all of `--seconds`
    /// untraced; in the traced pass the per-layer probes get the larger
    /// part of the run.
    pub fn timed_seconds(&self) -> f64 {
        if self.traced {
            0.4 * self.seconds
        } else {
            self.seconds
        }
    }

    /// Time the traced pass leaves for per-layer probes.
    pub fn probe_seconds(&self) -> f64 {
        0.6 * self.seconds
    }
}

/// Threads the program's pools run with: `min(nproc, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(2)
        .min(4)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Call `op` back to back until `budget` has elapsed (at least
/// `min_samples` times), returning each call's duration in ms. `op`
/// returns whether it succeeded; failures are counted by the caller's
/// [`Checks`].
pub fn time_loop(
    budget: Duration,
    min_samples: usize,
    checks: &mut Checks,
    what: &str,
    mut op: impl FnMut() -> bool,
) -> Vec<f64> {
    let mut out = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || out.len() < min_samples {
        let t = Instant::now();
        let ok = op();
        out.push(ms_since(t));
        checks.op(ok, what);
    }
    out
}

/// Attempted and failed operations. A `Busy` or `Error` reply, a
/// timeout, an `Err` from the program and a wrong bit all fail.
#[derive(Default, Debug)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn op(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Record a failure of an operation already counted as attempted.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what.to_string());
        }
        eprintln!("benchmark: FAILED {what}");
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// One printed ledger line: `workload metric value unit`, with the
/// sample count and the supported tail when the value is a timing.
#[derive(Clone, Debug)]
pub struct Line {
    pub metric: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub tail: Option<(f64, f64)>,
}

#[derive(Default, Debug)]
pub struct Outcome {
    pub checks: Checks,
    /// End-to-end metrics by their `BENCHMARK.json` names.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload measured (the rest read 0).
    pub layer: BTreeMap<String, f64>,
    /// The ledger under the issue's own metric names.
    pub lines: Vec<Line>,
    /// Guards this run tripped, as `name value > limit`.
    pub tripped: Vec<String>,
}

impl Outcome {
    pub fn value(&mut self, metric: &str, value: f64, unit: &'static str) {
        self.lines.push(Line {
            metric: metric.to_string(),
            value,
            unit,
            n: 1,
            tail: None,
        });
    }

    /// A timing: printed as median + supported tail + count.
    pub fn timing(
        &mut self,
        metric: &str,
        samples_ms: &[f64],
        unit_scale: f64,
        unit: &'static str,
    ) -> Summary {
        let s = stats::summarize(samples_ms);
        self.lines.push(Line {
            metric: metric.to_string(),
            value: s.median * unit_scale,
            unit,
            n: s.n,
            tail: Some((s.tail.0, s.tail.1 * unit_scale)),
        });
        s
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// A guard on the harness itself: printed as a ledger line, and the
    /// run is marked INVALID when `value` exceeds `limit`.
    pub fn guard(&mut self, name: &str, value: f64, limit: f64, unit: &'static str) {
        self.value(name, value, unit);
        if value > limit {
            self.tripped
                .push(format!("{name} {value} > {limit} {unit}"));
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where runs keep their files: `$CARGO_TARGET_DIR/benchmark` when the
/// driver names a target directory, else `target/benchmark` — always
/// inside the checkout, never `~` or the system temp dir.
pub fn bench_root() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    base.join("benchmark")
}

/// Remove every `PERFORAD_*` variable so no knob of the caller's shell
/// reaches the program. Must run before any thread starts.
pub fn scrub_env() {
    let keys: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PERFORAD_"))
        .collect();
    for k in keys {
        std::env::remove_var(k);
    }
}

/// A fresh per-run directory holding caches, sockets and spill files;
/// removed on drop, also when a check has failed.
pub struct RunDir {
    path: PathBuf,
    /// The native-artifact cache the set-up repetitions of one run share
    /// (see [`RunDir::share_jit`]); `None`: each cache directory has its
    /// own, empty one.
    shared_jit: Option<PathBuf>,
}

impl RunDir {
    /// `shared_jit`: the artifact cache of the run this process is a
    /// set-up repetition of.
    pub fn create(workload: &str, shared_jit: Option<PathBuf>) -> std::io::Result<RunDir> {
        let path = bench_root().join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(RunDir { path, shared_jit })
    }

    /// From here on this run's set-ups — its `--setup-only` children and
    /// its own — keep their native artifacts in one directory under this
    /// one, which the first of them fills. A native build is `rustc` on
    /// both cores for a second or more, the operation a busy host slows
    /// most: the same build took 1.6 s or 3.6 s within one afternoon, and
    /// no bound holds a `setup_s` that contains it. So it is paid once per
    /// run, reported on its own (`setup_cold_s`), and `setup_s` is the
    /// set-up of a process that finds its kernels' artifacts cached — what
    /// every start after the first pays — with everything else cold.
    pub fn share_jit(&mut self) -> PathBuf {
        let shared = self.path.join("jit-shared");
        self.shared_jit = Some(shared.clone());
        shared
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh subdirectory (created).
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::create_dir_all(&p);
        p
    }

    /// Point the program's cache and dump locations at `sub/…` under
    /// this run directory: empty caches, but for the artifact cache when
    /// the run shares one.
    pub fn point_caches(&self, sub: &str) -> PathBuf {
        let dir = self.sub(sub);
        std::env::set_var("PERFORAD_TUNE_CACHE", dir.join("tune.json"));
        std::env::set_var("PERFORAD_JIT_CACHE", self.jit_cache(sub));
        std::env::set_var("PERFORAD_CKPT_DIR", dir.join("ckpt"));
        std::env::set_var("PERFORAD_FLIGHT_DIR", dir.join("flight"));
        dir
    }
}

impl RunDir {
    /// Where [`RunDir::point_caches`]`(sub)` keeps native artifacts.
    pub fn jit_cache(&self, sub: &str) -> PathBuf {
        self.shared_jit
            .clone()
            .unwrap_or_else(|| self.path.join(sub).join("jit"))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Size of every regular file under `dir`, with its name.
fn files_under(dir: &Path) -> Vec<(String, u64)> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    rd.flatten()
        .flat_map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => files_under(&e.path()),
            Ok(m) => vec![(e.file_name().to_string_lossy().into_owned(), m.len())],
            Err(_) => Vec::new(),
        })
        .collect()
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    files_under(dir).iter().map(|(_, len)| len).sum()
}

/// Regular files under `dir` whose name ends with `suffix`.
pub fn count_files(dir: &Path, suffix: &str) -> u64 {
    files_under(dir)
        .iter()
        .filter(|(name, _)| name.ends_with(suffix))
        .count() as u64
}
