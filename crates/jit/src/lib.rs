//! # perforad-jit
//!
//! Run-time native lowering for **PerforAD-rs** adjoint schedules — the
//! third execution tier after the per-point reference evaluator and the
//! register-IR row executor, all three running each statement's one
//! register program.
//!
//! The paper's speedups come from *compiler-optimized* stencil loops
//! (Intel-compiled C in the ICPP 2019 evaluation), while the per-point
//! evaluator and the rows executor pay per-op dispatch on every *fused, tiled*
//! schedule the scheduler produces. This crate closes the gap at run
//! time:
//!
//! 1. **Emit** — each fusion group's compiled [`Plan`] is printed as a
//!    self-contained Rust module ([`emit::group_module`]) with **one**
//!    tile-granular, guard-hoisted `extern "C"` entry point, `pf_g`. The
//!    plan is the emitter's only input: bounds, guards and write targets
//!    are the plan's, and each statement's right-hand side is its
//!    `RegProgram` — the register program the row executor interprets —
//!    printed as straight-line `let` bindings, so native code and rows
//!    agree bit for bit by construction (rustc neither reassociates floats
//!    nor contracts them into FMA). The entry takes a box of the group's
//!    iteration hull and runs every nest's part of it. Each nest is the
//!    paper's Fig.-4 loop — one loop nest whose body holds every
//!    gather-transformed centre-point increment in plan order, summed in a
//!    register accumulator per written array (one load, one store per
//!    point) — so the adjoint streams its arrays once, like the primal,
//!    and needs no atomics. The innermost row is a function of its own
//!    that takes written arrays as `&mut [f64]` and read arrays as
//!    `*const f64`: what the gather transformation proved (stores never
//!    feed loads) reaches the compiler, and the row vectorises. Nests whose
//!    rows line up — a core row and the face points at its ends — share
//!    one walk of the outer dimensions, so a row's boundary points run
//!    inside the core's row loop.
//! 2. **Compile** — `rustc` (override with `PERFORAD_JIT_RUSTC` /
//!    `RUSTC`) is driven out-of-process into a stripped `cdylib`, `-O`,
//!    plus `-C target-feature=+avx2` when the building host reports AVX2
//!    (never FMA or fast-math: lane-wise adds and multiplies round like
//!    scalar ones, so the bits do not depend on the ISA level). The
//!    source is `#![no_std]`, the module, then a fixed footer: an artifact
//!    links `core` and libm, not a private copy of the `std` runtime.
//! 3. **Load** — hand-rolled `dlopen`/`dlsym` (std-only, [`loader`])
//!    resolves the one entry point.
//! 4. **Register** — the entry is installed in the process-wide
//!    [`perforad_exec::native`] registry under the group plan's
//!    structural fingerprint; from then on every `Lowering::Jit`
//!    execution — `exec::run`, `run_schedule`, `run_tuned`, all of them
//!    through `perforad_exec::run_tiling` — dispatches into it. The entry
//!    writes and reads without checks on the strength of the plan it was
//!    printed from — the plan that fingerprint names: facts F1–F3 of
//!    `perforad_exec::tile`.
//!
//! Compiled artifacts persist in `PERFORAD_JIT_CACHE` (default: a
//! `perforad-jit` directory under the system temp dir), keyed by plan
//! fingerprint × machine signature (arch + ISA level, OS, rustc version)
//! × emitter format version ([`JIT_FORMAT_VERSION`]), so the
//! out-of-process compile cost is paid **once per fingerprint** — later
//! processes `dlopen` the cached object without a toolchain. When
//! neither a registered module, a cached artifact, nor a toolchain is
//! available, [`prepare_schedule`] fails (or is skipped) and execution
//! falls back to the bitwise-identical row executor.
//!
//! ```no_run
//! use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
//! use perforad_exec::{Binding, Grid, Lowering, ThreadPool, Workspace};
//! use perforad_jit::{prepare_schedule, JitOptions};
//! use perforad_sched::{compile_schedule, run_schedule, SchedOptions};
//! use perforad_symbolic::{ix, Array, Idx, Symbol};
//!
//! let (i, n) = (Symbol::new("i"), Symbol::new("n"));
//! let (u, r) = (Array::new("u"), Array::new("r"));
//! let nest = make_loop_nest(&r.at(ix![&i]), u.at(ix![&i - 1]) + u.at(ix![&i + 1]),
//!                           vec![i.clone()], vec![(Idx::constant(1), Idx::sym(n) - 1)]).unwrap();
//! let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
//! let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
//! let mut ws = Workspace::new()
//!     .with("u", Grid::zeros(&[65])).with("r", Grid::zeros(&[65]))
//!     .with("u_b", Grid::zeros(&[65])).with("r_b", Grid::full(&[65], 1.0));
//! let bind = Binding::new().size("n", 64);
//!
//! let opts = SchedOptions::default().with_jit();
//! let schedule = compile_schedule(&adj, &ws, &bind, &opts).unwrap();
//! let report = prepare_schedule(&schedule, &bind, &JitOptions::default()).unwrap();
//! assert_eq!(report.groups, 1);
//! let pool = ThreadPool::new(4);
//! run_schedule(&schedule, &mut ws, &pool).unwrap();   // native tiles
//! ```

// Every `unsafe` states the invariant it relies on (private `unsafe fn`s
// too: `check-private-items` in the workspace's `clippy.toml`).
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod emit;
pub mod loader;

use perforad_exec::native::{native_lookup, register_native, Fnv, NativeGroup, NativeTileFn};
use perforad_exec::{Binding, Plan};
use perforad_sched::Schedule;
use std::collections::HashMap;
use std::ffi::OsStr;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Bump whenever the emitted code or its ABI changes: it is part of
/// every artifact's file name, so stale `PERFORAD_JIT_CACHE` entries
/// compiled by an older emitter miss cleanly instead of loading (the
/// same role `CACHE_VERSION` plays for the tuning cache). 6 since an
/// artifact is `#![no_std]`; 7 since a plan fingerprint hashes words
/// instead of bytes, so that no artifact named by an older fingerprint can
/// match a new one.
pub const JIT_FORMAT_VERSION: u32 = 7;

/// What a `#![no_std]` artifact needs beside its kernels, appended to
/// every [`emit::group_module`]: a panic handler, the libm symbols `std`'s
/// float methods call, and a private trait that gives `f64` the method
/// names the printer emits. Each method computes what `std`'s does, bit
/// for bit: `std` lowers `sin` … `powf` to these same libm calls, `powi`
/// to compiler-builtins' `__powidf2`, whose repeated-squaring loop this
/// is (so a literal exponent still unrolls to the same multiplications),
/// and `sqrt` to the IEEE square root instruction. `f64::from_bits` is
/// `core`'s own.
const FOOTER: &str = r#"
// perforad-jit footer: what `core` lacks.

// SAFETY: each of these takes and returns plain values, is defined on
// every argument (NaN and the infinities included) and touches no memory.
// libm is `libSystem` on Apple targets, where `-lm` names it too.
#[allow(dead_code)]
#[link(name = "m")]
unsafe extern "C" {
    safe fn sin(x: f64) -> f64;
    safe fn cos(x: f64) -> f64;
    safe fn tan(x: f64) -> f64;
    safe fn exp(x: f64) -> f64;
    safe fn log(x: f64) -> f64;
    safe fn tanh(x: f64) -> f64;
    safe fn pow(x: f64, y: f64) -> f64;
    #[cfg(not(target_arch = "x86_64"))]
    safe fn sqrt(x: f64) -> f64;
}

// SAFETY: the C library's `abort` (libm depends on it) takes nothing and
// does not return. No kernel panics, so the handler is never linked in.
unsafe extern "C" {
    safe fn abort() -> !;
}

#[panic_handler]
fn __pf_panic(_: &core::panic::PanicInfo<'_>) -> ! {
    abort()
}

#[allow(dead_code)]
trait __PfMath {
    fn sin(self) -> f64;
    fn cos(self) -> f64;
    fn tan(self) -> f64;
    fn exp(self) -> f64;
    fn ln(self) -> f64;
    fn tanh(self) -> f64;
    fn powf(self, y: f64) -> f64;
    fn powi(self, k: i32) -> f64;
    fn sqrt(self) -> f64;
    fn abs(self) -> f64;
}

impl __PfMath for f64 {
    #[inline(always)]
    fn sin(self) -> f64 {
        sin(self)
    }
    #[inline(always)]
    fn cos(self) -> f64 {
        cos(self)
    }
    #[inline(always)]
    fn tan(self) -> f64 {
        tan(self)
    }
    #[inline(always)]
    fn exp(self) -> f64 {
        exp(self)
    }
    #[inline(always)]
    fn ln(self) -> f64 {
        log(self)
    }
    #[inline(always)]
    fn tanh(self) -> f64 {
        tanh(self)
    }
    #[inline(always)]
    fn powf(self, y: f64) -> f64 {
        pow(self, y)
    }
    #[inline(always)]
    fn powi(self, k: i32) -> f64 {
        let (mut a, mut n, mut mul) = (self, k.unsigned_abs(), 1.0);
        loop {
            if n & 1 != 0 {
                mul *= a;
            }
            n >>= 1;
            if n == 0 {
                break;
            }
            a *= a;
        }
        if k < 0 {
            1.0 / mul
        } else {
            mul
        }
    }
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn sqrt(self) -> f64 {
        use core::arch::x86_64::{_mm_cvtsd_f64, _mm_set_sd, _mm_sqrt_sd};
        // SAFETY: SSE2 is part of every x86-64 target.
        unsafe { _mm_cvtsd_f64(_mm_sqrt_sd(_mm_set_sd(self), _mm_set_sd(self))) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn sqrt(self) -> f64 {
        sqrt(self)
    }
    // `core`'s own `abs`, on a toolchain that has one, takes precedence;
    // elsewhere this one clears the sign bit, as `std`'s does.
    #[inline(always)]
    fn abs(self) -> f64 {
        f64::from_bits(self.to_bits() & !(1u64 << 63))
    }
}
"#;

/// The one source every artifact is built from: `#![no_std]`, the
/// group's module exactly as [`emit::group_module`] prints it, then
/// [`FOOTER`]. An artifact links `core` and libm, nothing else.
fn artifact_source(plan: &Plan) -> Result<String, JitError> {
    Ok(format!("#![no_std]\n{}{FOOTER}", emit::group_module(plan)?))
}

/// Knobs for [`prepare_schedule`].
#[derive(Clone, Debug)]
pub struct JitOptions {
    /// Directory holding compiled artifacts (and, transiently, generated
    /// sources). Defaults to the `PERFORAD_JIT_CACHE` environment
    /// variable, then `<tempdir>/perforad-jit`.
    pub cache_dir: Option<PathBuf>,
    /// Compiler driving the out-of-process build. Defaults to the
    /// `PERFORAD_JIT_RUSTC` environment variable, then `RUSTC`, then
    /// `rustc` from `PATH`.
    pub rustc: Option<PathBuf>,
}

impl Default for JitOptions {
    fn default() -> Self {
        JitOptions {
            cache_dir: std::env::var_os("PERFORAD_JIT_CACHE").map(PathBuf::from),
            rustc: std::env::var_os("PERFORAD_JIT_RUSTC")
                .or_else(|| std::env::var_os("RUSTC"))
                .map(PathBuf::from),
        }
    }
}

impl JitOptions {
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    pub fn with_rustc(mut self, rustc: impl Into<PathBuf>) -> Self {
        self.rustc = Some(rustc.into());
        self
    }

    fn resolved_cache_dir(&self) -> PathBuf {
        self.cache_dir
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join("perforad-jit"))
    }

    fn resolved_rustc(&self) -> PathBuf {
        self.rustc.clone().unwrap_or_else(|| PathBuf::from("rustc"))
    }

    /// The compiler a build would run, found on disk without running it
    /// ([`locate_compiler`] against this process's `PATH`). `None` on a
    /// target without `dlopen` too, where nothing built could be loaded.
    pub fn compiler(&self) -> Option<PathBuf> {
        if !cfg!(unix) {
            return None;
        }
        locate_compiler(&self.resolved_rustc(), std::env::var_os("PATH").as_deref())
    }
}

/// Why JIT preparation failed. All variants are recoverable: callers
/// fall back to the row lowering, which is bitwise-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum JitError {
    /// A plan [`emit::group_module`] cannot print (a rank-0 plan has no
    /// rows to run).
    Unsupported(String),
    /// No working compiler (and no cached artifact to load instead).
    Toolchain(String),
    /// The out-of-process compile failed (carries the compiler stderr).
    Compile(String),
    /// `dlopen`/`dlsym` failed on a built or cached artifact.
    Load(String),
    /// Filesystem trouble around the artifact cache.
    Io(String),
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::Unsupported(m) => write!(f, "unsupported schedule: {m}"),
            JitError::Toolchain(m) => write!(f, "no JIT toolchain: {m}"),
            JitError::Compile(m) => write!(f, "JIT compile failed: {m}"),
            JitError::Load(m) => write!(f, "JIT load failed: {m}"),
            JitError::Io(m) => write!(f, "JIT cache I/O: {m}"),
        }
    }
}

impl std::error::Error for JitError {}

/// What [`prepare_schedule`] did for each fusion group.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct JitReport {
    /// Fusion groups in the schedule.
    pub groups: usize,
    /// Groups already present in the process-wide registry.
    pub registered: usize,
    /// Groups loaded from cached on-disk artifacts (no compile).
    pub loaded: usize,
    /// Groups compiled out-of-process this call.
    pub compiled: usize,
    /// Wall-clock milliseconds spent in out-of-process compiles.
    pub compile_ms: f64,
    /// Artifacts are built with, and looked up under, `+avx2`.
    pub avx2: bool,
}

impl JitReport {
    /// True when no out-of-process compile ran — every group came from
    /// the registry or the persistent artifact cache.
    pub fn cache_hit(&self) -> bool {
        self.compiled == 0
    }
}

/// The probed `rustc --version` line for a compiler path, memoized per
/// path for the life of the process. `None` means the probe failed, and
/// stays `None` until the process restarts.
fn toolchain_version(opts: &JitOptions) -> Option<String> {
    static PROBES: OnceLock<Mutex<HashMap<PathBuf, Option<String>>>> = OnceLock::new();
    let rustc = opts.resolved_rustc();
    let probes = PROBES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut probes = probes.lock().expect("toolchain probe lock");
    probes
        .entry(rustc.clone())
        .or_insert_with(|| {
            perforad_obs::counter("jit.toolchain_probes").inc();
            Command::new(&rustc)
                .arg("--version")
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .clone()
}

/// True when this process can *build* new JIT artifacts: a unix target
/// (for `dlopen`) with a working compiler. It spawns the compiler (`rustc
/// --version`, once per process) to find out, so it is for callers that
/// must know before building — the library's own paths, warm or cold,
/// never call it. Running previously cached artifacts needs no toolchain:
/// [`prepare_schedule`] loads them regardless, so `available() == false`
/// does not preclude warm-cache JIT execution.
pub fn available() -> bool {
    cfg!(unix) && toolchain_version(&JitOptions::default()).is_some()
}

/// Where the compiler `rustc` names is, found without running it: a name
/// with a path separator is that path; a bare name is looked up in each
/// directory of `path` (a `PATH` value) in turn, as a spawn would. The
/// hit must be a file with an execute bit. One `stat` per candidate and
/// no process: whether that compiler *works* is learned only by building.
pub fn locate_compiler(rustc: &Path, path: Option<&OsStr>) -> Option<PathBuf> {
    let runnable = |p: &Path| {
        std::fs::metadata(p).is_ok_and(|m| {
            #[cfg(unix)]
            let exec = std::os::unix::fs::PermissionsExt::mode(&m.permissions()) & 0o111 != 0;
            #[cfg(not(unix))]
            let exec = true;
            m.is_file() && exec
        })
    };
    if rustc.components().count() > 1 {
        return runnable(rustc).then(|| rustc.to_path_buf());
    }
    std::env::split_paths(path?)
        .map(|dir| dir.join(rustc))
        .find(|p| runnable(p))
}

/// A pid × sequence suffix unique per call, so concurrent threads (not
/// just processes) write distinct temp files: artifacts here, tuning
/// cache files in `perforad-tune`.
pub fn unique_suffix() -> String {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    format!(
        "{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    )
}

/// The vector ISA level artifacts are built for on this host: AVX2 when
/// the CPU reports it, the target's baseline otherwise. Published as the
/// `jit.avx2` gauge so a reader of `/metrics` or a ledger can tell which
/// ISA a number came from.
fn host_avx2() -> bool {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
    let avx2 = false;
    perforad_obs::gauge("jit.avx2").set(avx2 as u64);
    avx2
}

/// Architecture plus ISA level, as artifact names spell it.
fn arch_tag(avx2: bool) -> String {
    let isa = if avx2 { "+avx2" } else { "" };
    format!("{}{isa}", std::env::consts::ARCH)
}

/// Platform half of the artifact name: format version, architecture with
/// its ISA level, OS — everything a *loader* requires. The builder
/// appends a hash of its compiler version on top ([`machine_signature`]),
/// but any same-platform artifact with the right plan fingerprint is
/// loadable: the fingerprint pins the semantics and the ABI is plain C,
/// so a host without a toolchain can still reuse artifacts a
/// rustc-equipped host (or an earlier install) produced. The ISA level is
/// part of the platform, so an AVX2 artifact in a copied cache is a clean
/// miss on a CPU without AVX2, never an illegal instruction.
fn platform_prefix() -> String {
    format!(
        "pfjit_v{JIT_FORMAT_VERSION}_{}-{}-",
        arch_tag(host_avx2()),
        std::env::consts::OS
    )
}

/// Machine signature naming *newly built* artifacts: the platform plus a
/// hash of the compiler version, so different toolchains write distinct
/// files instead of fighting over one name.
fn machine_signature(opts: &JitOptions) -> String {
    let mut h = Fnv::new();
    h.write(
        toolchain_version(opts)
            .unwrap_or_else(|| "no-toolchain".to_string())
            .as_bytes(),
    );
    format!(
        "{}-{}-{:08x}",
        arch_tag(host_avx2()),
        std::env::consts::OS,
        h.finish() as u32
    )
}

/// Find a loadable cached artifact for `fp`: any same-platform artifact,
/// whichever compiler version built it. The fingerprint pins what the code
/// computes and the platform prefix what it runs on, so the name a build
/// *here* would get ([`machine_signature`]) is no better than another —
/// and spelling it costs a compiler spawn a warm start has no use for.
fn find_artifact(dir: &Path, fp: u64) -> Option<PathBuf> {
    let prefix = platform_prefix();
    let suffix = format!("_{fp:016x}.so");
    let entries = std::fs::read_dir(dir).ok()?;
    for e in entries.flatten() {
        let name = e.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(&prefix) && name.ends_with(&suffix) {
            return Some(e.path());
        }
    }
    None
}

/// Compile source → cdylib with the resolved compiler. Writes to an
/// invocation-unique temp name (pid × sequence, so concurrent *threads*
/// as well as processes get distinct temps) and renames atomically, so
/// concurrent preparers of the same fingerprint race benignly — last
/// rename wins with an equivalent artifact. `avx2` adds the one ISA flag;
/// there is no `+fma` and no fast-math flag, so both settings produce the
/// same bits.
fn compile_cdylib(opts: &JitOptions, src: &Path, out: &Path, avx2: bool) -> Result<(), JitError> {
    if perforad_obs::fault::should_fail("jit.rustc.spawn") {
        return Err(JitError::Toolchain(format!(
            "{}: injected fault (jit.rustc.spawn)",
            opts.resolved_rustc().display()
        )));
    }
    let tmp = out.with_extension(format!("so.tmp.{}", unique_suffix()));
    let output = Command::new(opts.resolved_rustc())
        .args(["--edition", "2021", "-O", "-C", "debuginfo=0"])
        // The `#[no_mangle]` entry point stays in `.dynsym`.
        .args(["-C", "strip=symbols"])
        // A `#![no_std]` source (`artifact_source`) has no unwinder.
        .args(["-C", "panic=abort"])
        .args(avx2.then_some("-Ctarget-feature=+avx2"))
        // Explicit crate name: the invocation-unique source file name
        // contains dots rustc would reject if left to derive it.
        .args(["--crate-type", "cdylib", "--crate-name", "pfjit"])
        .arg("-o")
        .arg(&tmp)
        .arg(src)
        .output()
        .map_err(|e| JitError::Toolchain(format!("{}: {e}", opts.resolved_rustc().display())))?;
    if !output.status.success() {
        let _ = std::fs::remove_file(&tmp);
        return Err(JitError::Compile(
            String::from_utf8_lossy(&output.stderr).into_owned(),
        ));
    }
    std::fs::rename(&tmp, out).map_err(|e| JitError::Io(format!("rename {}: {e}", out.display())))
}

/// `dlopen` an artifact and resolve its entry point. No nest count is
/// checked: the artifact is named by the plan fingerprint, which hashes
/// every nest's bounds and statements, and was printed from the plan that
/// fingerprint names.
fn load_group(path: &Path) -> Result<Arc<NativeGroup>, JitError> {
    let lib = loader::Library::open(path)
        .map_err(|e| JitError::Load(format!("{}: {e}", path.display())))?;
    let name = emit::ENTRY;
    let p = lib
        .sym(name)
        .map_err(|e| JitError::Load(format!("{name} in {}: {e}", path.display())))?;
    // SAFETY: `emit::group_module` prints `pf_g` with exactly the
    // `NativeTileFn` ABI, and `lib` is kept alive beside the pointer. F1:
    // the artifact is printed from a plan alone and is named by, and
    // registered only under, that plan's fingerprint; its entry clamps each
    // nest's part of a box to that nest's compiled bounds.
    let entry = unsafe { std::mem::transmute::<*mut std::ffi::c_void, NativeTileFn>(p) };
    // SAFETY: as above.
    Ok(Arc::new(unsafe {
        NativeGroup::new(entry, Some(Arc::new(lib)))
    }))
}

/// Load from the artifact cache, or compile, native code for one fusion
/// group the registry does not hold, and register it under its plan
/// fingerprint. The compiler is not touched — not even to ask its
/// version — unless something has to be built.
fn prepare_group(plan: &Plan, opts: &JitOptions, report: &mut JitReport) -> Result<(), JitError> {
    let fp = plan.fingerprint();
    let dir = opts.resolved_cache_dir();
    std::fs::create_dir_all(&dir).map_err(|e| JitError::Io(format!("{}: {e}", dir.display())))?;

    if let Some(cached) = find_artifact(&dir, fp) {
        let loaded = if perforad_obs::fault::should_fail("jit.artifact.read") {
            Err(JitError::Load(format!(
                "{}: injected fault (jit.artifact.read)",
                cached.display()
            )))
        } else {
            let _span =
                perforad_obs::span!("jit.load", "jit", "nests" => plan.nests().len() as u64);
            load_group(&cached)
        };
        match loaded {
            Ok(group) => {
                register_native(fp, group);
                report.loaded += 1;
                perforad_obs::counter("jit.artifact_hits").inc();
                return Ok(());
            }
            Err(e) => {
                // A cached artifact that no longer loads (truncated write,
                // wrong arch, bit rot) is quarantined — renamed aside so it
                // never poisons another prepare — and the group falls
                // through to a fresh compile instead of failing.
                let quarantine = cached.with_extension("so.corrupt");
                let _ = std::fs::rename(&cached, &quarantine);
                perforad_obs::counter("jit.quarantined").inc();
                eprintln!(
                    "perforad-jit: quarantined corrupt artifact {} ({e})",
                    cached.display()
                );
            }
        }
    }

    // On the way to a build: now the compiler's version matters, as part
    // of the name the new artifact gets. A compiler that is not on disk is
    // not spawned, not even to ask its version.
    if opts.compiler().is_none() || toolchain_version(opts).is_none() {
        return Err(JitError::Toolchain(format!(
            "`{}` not runnable and no cached artifact of plan {fp:016x} in {}",
            opts.resolved_rustc().display(),
            dir.display()
        )));
    }
    let stem = format!(
        "pfjit_v{JIT_FORMAT_VERSION}_{}_{fp:016x}",
        machine_signature(opts)
    );
    let artifact = dir.join(format!("{stem}.so"));
    let source = artifact_source(plan)?;
    // Invocation-unique source name: concurrent preparers of one
    // fingerprint must not truncate each other's in-flight source.
    let src_path = dir.join(format!("{stem}.{}.rs", unique_suffix()));
    std::fs::write(&src_path, &source)
        .map_err(|e| JitError::Io(format!("{}: {e}", src_path.display())))?;
    let t0 = Instant::now();
    let built = {
        let _span = perforad_obs::span!("jit.compile", "jit", "nests" => plan.nests().len() as u64);
        perforad_obs::counter("jit.compiles").inc();
        compile_cdylib(opts, &src_path, &artifact, report.avx2)
    };
    report.compile_ms += t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_file(&src_path);
    built?;
    let group = {
        let _span = perforad_obs::span!("jit.load", "jit", "nests" => plan.nests().len() as u64);
        load_group(&artifact)?
    };
    register_native(fp, group);
    report.compiled += 1;
    perforad_obs::counter("jit.artifact_misses").inc();
    Ok(())
}

/// Make every fusion group of `schedule` natively executable: resolve
/// from the process registry, the persistent artifact cache
/// (`PERFORAD_JIT_CACHE`), or an out-of-process `rustc` build — in that
/// order. Native code is printed from each group's plan alone, which
/// already carries every size and parameter it was compiled with: `_bind`
/// is unused, and stays in the signature for the callers that still pass
/// it.
///
/// On success, every `Lowering::Jit` execution of the schedule's plans
/// dispatches into the compiled code; on error nothing is registered for
/// the failing group and Jit execution falls back to the
/// bitwise-identical row executor.
pub fn prepare_schedule(
    schedule: &Schedule,
    _bind: &Binding,
    opts: &JitOptions,
) -> Result<JitReport, JitError> {
    let mut report = JitReport {
        groups: schedule.groups.len(),
        avx2: host_avx2(),
        ..JitReport::default()
    };
    for group in &schedule.groups {
        if native_lookup(group.plan.fingerprint()).is_some() {
            report.registered += 1;
            perforad_obs::counter("jit.registry_hits").inc();
            continue;
        }
        prepare_group(&group.plan, opts, &mut report)?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions, LoopNest};
    use perforad_exec::{run, ExecMode, Grid, ThreadPool, Workspace};
    use perforad_sched::{compile_schedule, run_schedule, run_schedule_serial, SchedOptions};
    use perforad_symbolic::{ix, Array, Idx, Symbol};

    fn paper_nest() -> LoopNest {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let (u, c) = (Array::new("u"), Array::new("c"));
        make_loop_nest(
            &Array::new("r").at(ix![&i]),
            c.at(ix![&i])
                * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1])),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(n) - 1)],
        )
        .unwrap()
    }

    fn setup(n: usize) -> (Workspace, Binding) {
        let mut ws = Workspace::new();
        ws.insert(
            "u",
            Grid::from_fn(&[n + 1], |ix| (ix[0] as f64).sin() + 1.5),
        );
        ws.insert("c", Grid::from_fn(&[n + 1], |ix| 0.5 + 0.1 * ix[0] as f64));
        ws.insert("r", Grid::zeros(&[n + 1]));
        ws.insert("u_b", Grid::zeros(&[n + 1]));
        ws.insert("r_b", Grid::from_fn(&[n + 1], |ix| (ix[0] as f64).cos()));
        (ws, Binding::new().size("n", n as i64))
    }

    fn bits(g: &Grid) -> Vec<u64> {
        g.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn test_cache_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("perforad-jit-test-{tag}-{}", std::process::id()))
    }

    /// Fault-injection state is process-global, so the test that arms
    /// `jit.rustc.spawn` must not overlap any other test's compile —
    /// every prepare-driving test serialises here.
    static COMPILE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn compile_locked() -> std::sync::MutexGuard<'static, ()> {
        COMPILE_LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Toolchain-less runners skip (with a reason) instead of failing —
    /// the runtime degrades the same way.
    macro_rules! require_toolchain {
        () => {
            if !available() {
                eprintln!("skipped: no rustc toolchain for JIT tests");
                return;
            }
        };
    }

    #[test]
    fn prepare_then_run_matches_interpreter_bitwise() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (mut ws_ref, bind) = setup(257);
        let plan = perforad_exec::compile_adjoint(&adj, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

        let dir = test_cache_dir("roundtrip");
        let opts = JitOptions::default().with_cache_dir(&dir);
        let (mut ws, _) = setup(257);
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let report = prepare_schedule(&schedule, &bind, &opts).unwrap();
        assert_eq!(report.groups, 1);
        assert_eq!(report.compiled + report.loaded + report.registered, 1);
        assert_eq!(report.avx2, host_avx2());

        let pool = ThreadPool::new(3);
        run_schedule(&schedule, &mut ws, &pool).unwrap();
        assert_eq!(bits(ws.grid("u_b")), bits(ws_ref.grid("u_b")));

        // The flat executor entry point resolves the same registration.
        let (mut ws2, _) = setup(257);
        run(&schedule.groups[0].plan, &mut ws2, ExecMode::serial().jit()).unwrap();
        assert_eq!(bits(ws2.grid("u_b")), bits(ws_ref.grid("u_b")));

        // A second prepare is a pure registry hit.
        let again = prepare_schedule(&schedule, &bind, &opts).unwrap();
        assert!(again.cache_hit());
        assert_eq!(again.registered, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_cache_avoids_recompiles_across_registry_misses() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        // Two different sizes → two fingerprints → two artifacts.
        let dir = test_cache_dir("artifacts");
        let opts = JitOptions::default().with_cache_dir(&dir);
        let (ws, bind) = setup(301);
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let first = prepare_schedule(&schedule, &bind, &opts).unwrap();
        assert_eq!(first.compiled, 1, "cold cache must compile");
        assert!(first.compile_ms > 0.0);
        // Artifact exists on disk under the machine signature.
        let count = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "so")
            })
            .count();
        assert_eq!(count, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The binding `prepare_schedule` takes is unused: native code is
    /// printed from the plan, whose fingerprint already pins every size
    /// and parameter it was compiled with. A wrong size or parameter
    /// passed beside the plan changes nothing the artifact computes.
    #[test]
    fn a_wrong_binding_cannot_miscompile_the_plan() {
        let _lk = compile_locked();
        require_toolchain!();
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let u = Array::new("u");
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i]),
            perforad_symbolic::Expr::sym(Symbol::new("D")) * u.at(ix![&i - 1]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(n) - 1)],
        )
        .unwrap();
        let bind = Binding::new().size("n", 40).param("D", 0.5);
        let build = || {
            Workspace::new()
                .with("u", Grid::from_fn(&[41], |ix| 0.25 * ix[0] as f64 - 3.0))
                .with("r", Grid::zeros(&[41]))
        };
        let mut ws_ref = build();
        let plan = perforad_exec::compile_nest(&nest, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();
        let mut ws = build();
        let schedule = perforad_sched::compile_schedule_nests(
            std::slice::from_ref(&nest),
            &ws,
            &bind,
            false,
            &SchedOptions::default().with_jit(),
        )
        .unwrap();
        let dir = test_cache_dir("wrongbinding");
        let wrong = Binding::new().size("n", 39).param("D", 0.7);
        let report = prepare_schedule(
            &schedule,
            &wrong,
            &JitOptions::default().with_cache_dir(&dir),
        )
        .expect("the plan prepares whatever binding rides along");
        assert_eq!(report.compiled + report.loaded + report.registered, 1);
        run_schedule_serial(&schedule, &mut ws).unwrap();
        assert_eq!(bits(ws.grid("r")), bits(ws_ref.grid("r")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Build `schedule`'s one group into `dir` under the name a toolchain
    /// whose version hashes to `toolchain` would give it — through the
    /// private compile step, so the process-wide registry never hears of
    /// it and the next prepare has to go to disk.
    fn build_unregistered(schedule: &Schedule, dir: &Path, toolchain: u32) {
        let plan = &schedule.groups[0].plan;
        let source = artifact_source(plan).unwrap();
        std::fs::create_dir_all(dir).unwrap();
        let stem = format!(
            "{}{toolchain:08x}_{:016x}",
            platform_prefix(),
            plan.fingerprint()
        );
        let src = dir.join(format!("{stem}.rs"));
        std::fs::write(&src, source).unwrap();
        let opts = JitOptions::default();
        compile_cdylib(&opts, &src, &dir.join(format!("{stem}.so")), host_avx2()).unwrap();
    }

    /// A warm start never runs the compiler: with the artifact on disk, a
    /// prepare whose `rustc` does not exist loads it without having asked
    /// for the compiler's version (`jit.toolchain_probes` counts spawns).
    #[test]
    fn warm_artifact_cache_loads_without_a_toolchain() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (mut ws_ref, bind) = setup(129); // unique size: registry must miss
        let plan = perforad_exec::compile_adjoint(&adj, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();
        let (mut ws, _) = setup(129);
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let dir = test_cache_dir("warmload");
        build_unregistered(&schedule, &dir, 0x0123_4567);
        assert!(native_lookup(schedule.groups[0].plan.fingerprint()).is_none());

        // A path no other test probes: the probe memo is per path.
        let gone = format!("/nonexistent/rustc-gone-{}", std::process::id());
        let broken = JitOptions::default().with_cache_dir(&dir).with_rustc(gone);
        let was_enabled = perforad_obs::enabled();
        perforad_obs::set_enabled(true);
        let probes = perforad_obs::counter("jit.toolchain_probes");
        let before = probes.get();
        let report = prepare_schedule(&schedule, &bind, &broken);
        let probed = probes.get() - before;
        perforad_obs::set_enabled(was_enabled);
        let report = report.expect("a cached artifact needs no compiler");
        assert_eq!((report.loaded, report.compiled), (1, 0));
        assert_eq!(probed, 0, "a warm start must not spawn the compiler");
        run_schedule(&schedule, &mut ws, &ThreadPool::new(2)).unwrap();
        assert_eq!(bits(ws.grid("u_b")), bits(ws_ref.grid("u_b")));
        // The same options, nothing cached: no compiler is on disk at that
        // path, so nothing is spawned and the prepare fails.
        let (ws_cold, bind_cold) = setup(131);
        let cold = compile_schedule(
            &adj,
            &ws_cold,
            &bind_cold,
            &SchedOptions::default().with_jit(),
        )
        .unwrap();
        let err = prepare_schedule(&cold, &bind_cold, &broken).unwrap_err();
        assert!(matches!(err, JitError::Toolchain(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two toolchains' builds of one fingerprint side by side: whichever
    /// the directory scan meets is loaded — neither name is this host's
    /// own — and runs to the reference's bits.
    #[test]
    fn either_toolchains_artifact_of_a_fingerprint_is_loaded() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (mut ws_ref, bind) = setup(127); // unique size: registry must miss
        let plan = perforad_exec::compile_adjoint(&adj, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();
        let (mut ws, _) = setup(127);
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let dir = test_cache_dir("twotoolchains");
        build_unregistered(&schedule, &dir, 0xAAAA_AAAA);
        build_unregistered(&schedule, &dir, 0xBBBB_BBBB);
        let opts = JitOptions::default().with_cache_dir(&dir);
        let report = prepare_schedule(&schedule, &bind, &opts).unwrap();
        assert_eq!((report.loaded, report.compiled), (1, 0));
        let artifacts = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "so")
            })
            .count();
        assert_eq!(artifacts, 2, "nothing was built beside them");
        run_schedule_serial(&schedule, &mut ws).unwrap();
        assert_eq!(bits(ws.grid("u_b")), bits(ws_ref.grid("u_b")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cached_artifact_is_quarantined_and_rebuilt() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        // A size no other test uses: the fingerprint must miss the
        // process-wide registry so prepare reaches the artifact cache.
        let (ws, bind) = setup(293);
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let dir = test_cache_dir("quarantine");
        let opts = JitOptions::default().with_cache_dir(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fp = schedule.groups[0].plan.fingerprint();
        let stem = format!(
            "pfjit_v{JIT_FORMAT_VERSION}_{}_{fp:016x}",
            machine_signature(&opts)
        );
        // Plant garbage under the exact cached-artifact name.
        std::fs::write(dir.join(format!("{stem}.so")), b"definitely not a cdylib").unwrap();
        let report = prepare_schedule(&schedule, &bind, &opts).unwrap();
        assert_eq!(report.compiled, 1, "corrupt artifact must be rebuilt");
        assert!(
            dir.join(format!("{stem}.so.corrupt")).exists(),
            "corrupt artifact must be renamed aside, not deleted or reloaded"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn older_format_artifact_is_neither_loaded_nor_quarantined() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (ws, bind) = setup(289); // unique size: registry must miss
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let dir = test_cache_dir("oldformat");
        let opts = JitOptions::default().with_cache_dir(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fp = schedule.groups[0].plan.fingerprint();
        // What the previous emitter left behind for this very plan and
        // machine. Loading it would fail (and quarantine it): it is not a
        // cdylib.
        let stale = dir.join(format!(
            "pfjit_v{}_{}_{fp:016x}.so",
            JIT_FORMAT_VERSION - 1,
            machine_signature(&opts)
        ));
        assert_planted_artifact_is_left_alone(&schedule, &bind, &opts, &stale);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Plant `stale` (not a cdylib: loading it would fail and quarantine
    /// it), prepare, and check the prepare built its own artifact beside
    /// it without touching it.
    fn assert_planted_artifact_is_left_alone(
        schedule: &Schedule,
        bind: &Binding,
        opts: &JitOptions,
        stale: &Path,
    ) {
        std::fs::write(stale, b"someone else's artifact").unwrap();
        let report = prepare_schedule(schedule, bind, opts).unwrap();
        assert_eq!(report.compiled, 1, "{} must miss cleanly", stale.display());
        assert_eq!(
            std::fs::read(stale).unwrap(),
            b"someone else's artifact",
            "the planted artifact stays where it was"
        );
        assert!(!stale.with_extension("so.corrupt").exists());
        let current = format!(
            "pfjit_v{JIT_FORMAT_VERSION}_{}_{:016x}.so",
            machine_signature(opts),
            schedule.groups[0].plan.fingerprint()
        );
        assert!(
            stale.with_file_name(current).exists(),
            "this host's artifact is built beside it"
        );
    }

    /// A cache copied from a host of the other ISA level: right format,
    /// right fingerprint, right compiler — and still a clean miss.
    #[test]
    fn other_isa_artifact_is_neither_loaded_nor_quarantined() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (ws, bind) = setup(283); // unique size: registry must miss
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let dir = test_cache_dir("otherisa");
        let opts = JitOptions::default().with_cache_dir(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let fp = schedule.groups[0].plan.fingerprint();
        let other =
            machine_signature(&opts).replacen(&arch_tag(host_avx2()), &arch_tag(!host_avx2()), 1);
        assert_ne!(other, machine_signature(&opts));
        let stale = dir.join(format!("pfjit_v{JIT_FORMAT_VERSION}_{other}_{fp:016x}.so"));
        assert_planted_artifact_is_left_alone(&schedule, &bind, &opts, &stale);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The emitter reads the plan and nothing else: a schedule whose
    /// source nests were edited after compilation — the first statement
    /// now writes `r_b`, which it reads — prepares and runs exactly the
    /// plan it was compiled to.
    #[test]
    fn native_code_is_printed_from_the_plan_not_the_source_nests() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (mut ws_ref, bind) = setup(281); // unique size: registry must miss
        let plan = perforad_exec::compile_adjoint(&adj, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

        let (mut ws, _) = setup(281);
        let mut schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let mut nests = schedule.source.to_vec();
        nests[0].body[0].lhs.array = Symbol::new("r_b");
        schedule.source = nests.into();
        let dir = test_cache_dir("plan-only");
        let opts = JitOptions::default().with_cache_dir(&dir);
        let report = prepare_schedule(&schedule, &bind, &opts).unwrap();
        assert_eq!(report.compiled + report.loaded, 1);
        assert!(native_lookup(schedule.groups[0].plan.fingerprint()).is_some());
        run_schedule(&schedule, &mut ws, &ThreadPool::new(2)).unwrap();
        assert_eq!(bits(ws.grid("u_b")), bits(ws_ref.grid("u_b")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The c-active 3-D wave adjoint at `n = 16` and the wave primal, one
    /// group each, JIT-enabled.
    fn wave_schedules() -> (Schedule, Schedule) {
        let nest = emit::tests::wave_nest();
        let act = ["u", "u_1", "u_2", "c"]
            .into_iter()
            .fold(ActivityMap::new(), ActivityMap::with_suffixed);
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let n = 16usize;
        let mut ws = Workspace::new();
        for name in ["u", "u_1", "u_2", "c", "u_b", "u_1_b", "u_2_b", "c_b"] {
            ws.insert(name, Grid::zeros(&[n, n, n]));
        }
        let bind = Binding::new().size("n", n as i64).param("D", 0.1);
        let opts = SchedOptions::default().with_jit();
        let adjoint = compile_schedule(&adj, &ws, &bind, &opts).unwrap();
        let primal =
            perforad_sched::compile_schedule_nests(&[nest], &ws, &bind, false, &opts).unwrap();
        assert_eq!((adjoint.groups.len(), primal.groups.len()), (1, 1));
        (adjoint, primal)
    }

    /// An artifact holds its kernels and little else: the wave adjoint and
    /// primal, prepared into an empty cache, stay under 128 KiB and 32 KiB
    /// (a `std` build of either is over 300 KiB). CI runs this by name.
    #[test]
    fn artifacts_hold_only_their_kernels() {
        let _lk = compile_locked();
        require_toolchain!();
        let (adjoint, primal) = wave_schedules();
        for (tag, schedule, budget) in [
            ("adjoint", adjoint, 128 << 10),
            ("primal", primal, 32 << 10),
        ] {
            let dir = test_cache_dir(&format!("size-{tag}"));
            let opts = JitOptions::default().with_cache_dir(&dir);
            let report = prepare_schedule(&schedule, &Binding::new(), &opts).unwrap();
            assert_eq!(
                report.compiled + report.loaded,
                1,
                "{tag}: built into {}",
                dir.display()
            );
            let sizes: Vec<u64> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "so"))
                .map(|p| std::fs::metadata(p).unwrap().len())
                .collect();
            assert_eq!(sizes.len(), 1, "{tag}");
            assert!(
                sizes[0] < budget,
                "{tag}: {} B, budget {budget} B",
                sizes[0]
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Every method the footer gives `f64` returns `std`'s bits: a probe
    /// artifact built from the footer evaluates each one on signed zeros,
    /// subnormals, infinities, NaN and random bit patterns, and `powi` on
    /// run-time exponents in −40 ..= 40 and on literal ones, which unroll.
    #[test]
    fn footer_math_is_std_math_bit_for_bit() {
        let _lk = compile_locked();
        require_toolchain!();
        const UNARY: [fn(f64) -> f64; 7] = [
            f64::sin,
            f64::cos,
            f64::tan,
            f64::exp,
            f64::ln,
            f64::tanh,
            f64::sqrt,
        ];
        const LITERALS: [i32; 6] = [-3, -1, 0, 2, 3, 7];
        let probe = format!(
            "#![no_std]\n\
             #[no_mangle]\n\
             pub extern \"C\" fn pf_g(op: u32, x: f64, y: f64) -> f64 {{\n\
             match op {{ 0 => x.sin(), 1 => x.cos(), 2 => x.tan(), 3 => x.exp(), \
             4 => x.ln(), 5 => x.tanh(), 6 => x.sqrt(), 7 => x.powf(y), \
             8 => x.powi(y as i32), {} _ => f64::NAN }}\n}}\n{FOOTER}",
            (LITERALS.iter().enumerate())
                .map(|(j, k)| format!("{} => x.powi({k}i32), ", 9 + j))
                .collect::<String>()
        );
        let dir = test_cache_dir("footer");
        std::fs::create_dir_all(&dir).unwrap();
        let (src, so) = (dir.join("probe.rs"), dir.join("probe.so"));
        std::fs::write(&src, probe).unwrap();
        compile_cdylib(&JitOptions::default(), &src, &so, host_avx2()).expect("compile");
        let lib = loader::Library::open(&so).expect("load");
        let p = lib.sym(emit::ENTRY).expect("entry");
        // SAFETY: the probe prints `pf_g` with exactly this signature, and
        // `lib` outlives every call.
        let f = unsafe {
            std::mem::transmute::<*mut std::ffi::c_void, extern "C" fn(u32, f64, f64) -> f64>(p)
        };

        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -1.0,
            1e300,
            -745.5,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
        ];
        let mut state = 0x51ED_2040u64;
        for _ in 0..1 << 15 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            xs.push(f64::from_bits(state));
            xs.push((state >> 11) as f64 / (1u64 << 50) as f64 - 4.0);
        }
        let same = |op: u32, x: f64, y: f64, want: f64| {
            let got = f(op, x, y);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "op {op} at ({x:e}, {y:e}): {got:e} vs {want:e}"
            );
        };
        for (j, &x) in xs.iter().enumerate() {
            let y = xs[(j * 7 + 3) % xs.len()];
            for (op, g) in UNARY.into_iter().enumerate() {
                same(op as u32, x, y, g(x));
            }
            same(7, x, y, x.powf(y));
            let k = (j % 81) as i32 - 40;
            same(8, x, k as f64, x.powi(k));
            for (l, k) in LITERALS.into_iter().enumerate() {
                same(9 + l as u32, x, 0.0, x.powi(std::hint::black_box(k)));
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The c-active 3-D wave adjoint at `n = 16`, one module, compiled
    /// twice through the private compile step — baseline flags and
    /// `+avx2` — and run over the group's hull, one call of its entry, on
    /// the same random arrays: lane-wise adds and multiplies round like
    /// scalar ones, so every bit agrees.
    ///
    /// CI disassembles what this test builds: with `PERFORAD_JIT_CACHE`
    /// set, `isa_avx2.so` (and the source, `isa.rs`) are left there, and
    /// the group entry `pf_g`, into which every row body is inlined, must
    /// hold packed adds and multiplies.
    #[test]
    fn baseline_and_avx2_artifacts_are_bitwise_equal() {
        let _lk = compile_locked();
        require_toolchain!();
        if !host_avx2() {
            eprintln!("skipped: this CPU has no AVX2");
            return;
        }
        let (schedule, _) = wave_schedules();
        let group = &schedule.groups[0];
        let source = artifact_source(&group.plan).unwrap();

        let opts = JitOptions::default();
        let (dir, keep) = match &opts.cache_dir {
            Some(dir) => (dir.clone(), true),
            None => (test_cache_dir("isa"), false),
        };
        std::fs::create_dir_all(&dir).unwrap();
        let src_path = dir.join("isa.rs");
        std::fs::write(&src_path, source).unwrap();
        // xorshift64*: every slot random, the `+=` targets included.
        let mut state = 0x51ED_2017u64;
        let inputs: Vec<Vec<f64>> = (0..group.plan.arrays().len())
            .map(|_| {
                (0..group.plan.dims().iter().product::<usize>())
                    .map(|_| {
                        state ^= state >> 12;
                        state ^= state << 25;
                        state ^= state >> 27;
                        let x = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                        (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
                    })
                    .collect()
            })
            .collect();
        let results = [false, true].map(|avx2| {
            let so = dir.join(if avx2 { "isa_avx2.so" } else { "isa_base.so" });
            compile_cdylib(&opts, &src_path, &so, avx2).expect("compile");
            let native = load_group(&so).expect("load");
            let mut arrays = inputs.clone();
            let ptrs: Vec<*mut f64> = arrays.iter_mut().map(|a| a.as_mut_ptr()).collect();
            let (lo, hi) = group.plan.hull().expect("a live nest");
            // SAFETY: F1 — the hull of the plan the module was emitted for,
            // over arrays of the plan's extents in slot order; F3 — one
            // thread.
            unsafe { native.run_box(lo, hi, &ptrs) };
            arrays
        });
        assert_ne!(results[0], inputs, "the sweep wrote something");
        for (slot, (base, avx2)) in results[0].iter().zip(&results[1]).enumerate() {
            let same = base
                .iter()
                .zip(avx2)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "slot {slot} ({})", group.plan.arrays()[slot]);
        }
        if !keep {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn injected_rustc_fault_degrades_like_a_missing_toolchain() {
        let _lk = compile_locked();
        require_toolchain!();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (ws, bind) = setup(291); // unique size: registry must miss
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let dir = test_cache_dir("rustcfault");
        perforad_obs::fault::arm("jit.rustc.spawn=fail").unwrap();
        let err = prepare_schedule(
            &schedule,
            &bind,
            &JitOptions::default().with_cache_dir(&dir),
        )
        .unwrap_err();
        perforad_obs::fault::disarm();
        assert!(matches!(err, JitError::Toolchain(_)), "{err}");
        assert!(perforad_obs::fault::injected("jit.rustc.spawn") >= 1);
        // Fault gone, the same prepare succeeds end to end.
        prepare_schedule(
            &schedule,
            &bind,
            &JitOptions::default().with_cache_dir(&dir),
        )
        .expect("fault-free prepare succeeds");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_toolchain_reports_toolchain_error() {
        let _lk = compile_locked();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (ws, bind) = setup(33);
        let schedule =
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_jit()).unwrap();
        let dir = test_cache_dir("notoolchain");
        let opts = JitOptions::default()
            .with_cache_dir(&dir)
            .with_rustc("/nonexistent/rustc-definitely-missing");
        let err = prepare_schedule(&schedule, &bind, &opts).unwrap_err();
        assert!(matches!(err, JitError::Toolchain(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_cache_hit_semantics() {
        let r = JitReport {
            groups: 2,
            registered: 1,
            loaded: 1,
            compiled: 0,
            compile_ms: 0.0,
            avx2: false,
        };
        assert!(r.cache_hit());
        let r = JitReport { compiled: 1, ..r };
        assert!(!r.cache_hit());
    }
}
