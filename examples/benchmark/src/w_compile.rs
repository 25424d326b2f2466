//! `cold_compile`: time to the first correct gradient of a new kernel.
//!
//! Three DSL stencils (1-D 3-point, 2-D 5-point, 3-D 7-point: 5, 17 and
//! 53 adjoint nests) go from source text through `parse_stencil` →
//! `LoopNest::adjoint` → `compile_schedule` → `autotune_adjoint`
//! (wall-clock) → `prepare_schedule` → first sweep.
//!
//! The cold pass — empty tuning cache, so the wall-clock search runs —
//! is this workload's **set-up**. Like every set-up of a run it finds the
//! native artifacts the run's first set-up built (`RunDir::share_jit`):
//! a cold native build is 1.5–2.5 s, most of it `rustc` on both cores, a
//! run fits a handful, and that handful moved by 40 % between two minutes
//! of one afternoon on the calibration host, which no bound survives. It
//! is reported, ungated, as `setup_cold_s` and in the traced pass. The
//! timed region repeats the same kernels against the caches that pass
//! filled, and beside it the transformation alone (source text → adjoint
//! nests → schedule, what the paper's tool does): a few milliseconds
//! each, thousands of samples. The traced pass runs everything cold — its
//! set-up and two more passes over fresh kernels — for the stage costs,
//! and fresh processes against filled caches for what only a new process
//! pays.
//!
//! Compile-pipeline-bound: `symbolic`/`core`/`codegen`/`sched`/`tune`/
//! `jit` (rustc) do the work, `exec` almost none — the bypass workload
//! for every kernel-speed optimisation.

use crate::gen::{self, Rng, StencilSource};
use crate::harness::{self, ms_since, Args, Checks, Outcome, RunDir};
use crate::json::Json;
use crate::surface::*;
use crate::{probes, stats, trace};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Shapes the three stencils are compiled and first run at: about
/// 16 000 points each, small enough that the first sweep is a minor part
/// of even a warm compile — this is the workload `exec` must not decide.
const N1: usize = 1 << 14;
const N2: usize = 128;
const N3: usize = 25;
/// Oracle shapes for the tape comparison.
const SMALL: [usize; 3] = [48, 12, 7];
/// Interleaved rounds of warm compiles and bare transformations, so a
/// slow spell of the host touches both series.
const ROUNDS: u32 = 5;
/// Warm compiles after which the resident set is sampled: every run
/// makes at least this many, and a faster host that fits more must not
/// read as a bigger program.
const RSS_AFTER_WARM: usize = 100;
/// Cold passes over fresh kernels the traced pass adds to the set-up's.
const EXTRA_COLD: u64 = 2;
/// Warm children after the cold child of the traced pass.
const WARM_CHILDREN: usize = 5;

fn sources(seed: u64, round: u64) -> Vec<StencilSource> {
    gen::stencil_sources(&mut Rng::new(seed, 60 + round), N1, N2, N3)
}

fn activity() -> ActivityMap {
    ActivityMap::new().with_suffixed("u").with_suffixed("r")
}

/// The wall-clock search every compile runs: four model-ranked
/// candidates, two timed sweeps each, no hill-climbing — so every cold
/// pass does the same amount of work.
fn tune_options() -> TuneOptions {
    TuneOptions::default()
        .with_top_k(4)
        .with_refine_rounds(0)
        .with_measure(Measure::Wall { samples: 2 })
}

fn workspace(dims: &[usize], seed: u64) -> (Workspace, Binding) {
    let len: usize = dims.iter().product();
    let mut ws = Workspace::new();
    for (k, (name, lo, hi)) in [("u", -1.0, 1.0), ("c", 0.8, 1.2), ("r_b", -0.5, 0.5)]
        .iter()
        .enumerate()
    {
        let mut rng = Rng::new(seed, 70 + k as u64);
        ws.insert(
            *name,
            Grid::from_vec(dims, gen::uniform_vec(&mut rng, len, *lo, *hi)),
        );
    }
    ws.insert("r", Grid::zeros(dims));
    ws.insert("u_b", Grid::zeros(dims));
    (ws, Binding::new().size("n", dims[0] as i64))
}

/// Digest of each stencil's adjoint output at full shape under the
/// per-point serial reference; a pass's first sweeps must match.
fn reference_digests(
    sources: &[StencilSource],
    seed: u64,
    checks: &mut Checks,
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for src in sources {
        let (mut ws, bind) = workspace(&src.dims, seed);
        let nest = parse_stencil(&src.text).map_err(|e| e.to_string())?;
        let adj = nest
            .adjoint(&activity(), &AdjointOptions::default())
            .map_err(|e| e.to_string())?;
        let sched = compile_schedule(&adj, &ws, &bind, &SchedOptions::default())
            .map_err(|e| e.to_string())?;
        checks.op(
            run_schedule_serial(&sched, &mut ws).is_ok(),
            "reference sweep",
        );
        out.push(format!("{:016x}", gen::digest(ws.grid("u_b").as_slice())));
    }
    Ok(out)
}

pub struct Prepared {
    pool: ThreadPool,
    sources: Vec<StencilSource>,
    /// Reference digest of each stencil's adjoint output.
    expected: Vec<String>,
    cold: Pass,
    /// Bytes the cold pass left in the artifact cache.
    artifact_bytes: u64,
}

/// Generate the sources, make sure a compiler exists, compute the
/// reference output of each stencil at full shape, check each adjoint
/// against the tape at a small shape, and compile all three from an
/// empty tuning cache: the cold pass.
pub fn setup(args: &Args, dir: &RunDir, checks: &mut Checks) -> Result<Prepared, String> {
    let sources = sources(args.seed, 0);
    checks.op(jit_available(), "jit: a usable rustc is on this host");
    let expected = reference_digests(&sources, args.seed, checks)?;
    for (src, &n) in sources.iter().zip(&SMALL) {
        let dims = vec![n; src.dims.len()];
        let (mut ws, bind) = workspace(&dims, args.seed);
        let nest = parse_stencil(&src.text).map_err(|e| e.to_string())?;
        let adj = nest
            .adjoint(&activity(), &AdjointOptions::default())
            .map_err(|e| e.to_string())?;
        let sched = compile_schedule(&adj, &ws, &bind, &SchedOptions::default())
            .map_err(|e| e.to_string())?;
        checks.op(
            run_schedule_serial(&sched, &mut ws).is_ok(),
            "oracle: small adjoint runs",
        );
        let mut store = MapCtx::new().index("n", n as i64);
        for name in ["u", "c", "r"] {
            store.arrays.insert(
                Symbol::new(name),
                (dims.clone(), ws.grid(name).as_slice().to_vec()),
            );
        }
        let mut seeds = BTreeMap::new();
        seeds.insert(Symbol::new("r"), ws.grid("r_b").as_slice().to_vec());
        match tape_adjoint(&nest, &activity(), &store, &seeds) {
            Ok(reference) => {
                let worst = ws
                    .grid("u_b")
                    .as_slice()
                    .iter()
                    .zip(&reference[&Symbol::new("u_b")])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max);
                checks.op(
                    worst <= 1e-12,
                    &format!("oracle: {} u_b vs tape (max diff {worst:e})", src.name),
                );
            }
            Err(e) => checks.op(
                false,
                &format!("oracle: tape adjoint of {} failed: {e}", src.name),
            ),
        }
    }
    let pool = ThreadPool::new(harness::threads());
    dir.point_caches("cache");
    let (cold, _) = pipeline(&sources, args.seed, &pool);
    checks.op(
        cold.ok && cold.digests == expected && !cold.all_hits,
        "cold compile: correct first sweeps from an empty tuning cache",
    );
    for config in &cold.configs {
        eprintln!("{}: wall-clock tuner picked {config}", args.workload);
    }
    let artifact_bytes = harness::dir_bytes(&dir.jit_cache("cache"));
    Ok(Prepared {
        pool,
        sources,
        expected,
        cold,
        artifact_bytes,
    })
}

/// One pass of the pipeline over the three stencils.
struct Pass {
    /// Source text to the end of the first sweep.
    total_ms: f64,
    /// Source text to a tuned, natively prepared schedule: `total_ms`
    /// without the first sweep, whose cost follows the wall-clock tuner's
    /// pick (tile shape, static or dynamic tiles), which changes from run
    /// to run — and this is the workload `exec` must not decide.
    ready_ms: f64,
    /// Per-stage sums over the three stencils, timed around each call.
    stages: BTreeMap<String, f64>,
    /// Every tuner call was answered from a cache.
    all_hits: bool,
    ok: bool,
    /// Digest of each stencil's first tuned sweep.
    digests: Vec<String>,
    /// The configuration the tuner settled on for each stencil.
    configs: Vec<String>,
}

/// Every stencil from source text to its first sweep, against whatever
/// caches `PERFORAD_TUNE_CACHE` / `PERFORAD_JIT_CACHE` name right now.
fn pipeline(sources: &[StencilSource], seed: u64, pool: &ThreadPool) -> (Pass, Vec<Adjoint>) {
    let mut stages: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |k: &str, v: f64| *stages.entry(k.to_string()).or_default() += v;
    let (mut ok, mut all_hits, mut total_ms, mut ready_ms) = (true, true, 0.0, 0.0);
    let (mut adjoints, mut digests, mut configs) = (Vec::new(), Vec::new(), Vec::new());
    for src in sources {
        let (mut ws, bind) = workspace(&src.dims, seed);
        let t0 = Instant::now();
        let t = Instant::now();
        let nest = {
            let _s = trace::span("codegen.parse_stencil", "codegen");
            parse_stencil(&src.text).expect("stencil parses")
        };
        add("parse_us", ms_since(t) * 1e3);
        let t = Instant::now();
        let adj = {
            let _s = trace::span("core.adjoint", "core");
            nest.adjoint(&activity(), &AdjointOptions::default())
                .expect("adjoint")
        };
        add(&format!("adjoint_us.{}", src.name), ms_since(t) * 1e3);
        add("nests", adj.nest_count() as f64);
        let t = Instant::now();
        let default = {
            let _s = trace::span("sched.compile_schedule", "sched");
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).expect("schedule")
        };
        add("sched_us", ms_since(t) * 1e3);
        add("groups", default.group_count() as f64);
        add("tiles", default.tile_count() as f64);
        let t = Instant::now();
        let tuned = {
            let _s = trace::span("tune.autotune_adjoint", "tune");
            autotune_adjoint(&adj, &mut ws, &bind, pool, &tune_options())
        };
        add("tune_ms", ms_since(t));
        let Ok((schedule, report)) = tuned else {
            ok = false;
            continue;
        };
        all_hits &= report.cache_hit;
        configs.push(format!("{} {}", src.name, report.config.describe()));
        add("timed", (report.timed + report.refined) as f64);
        let t = Instant::now();
        if report.config.lowering == Lowering::Jit {
            let _s = trace::span("jit.prepare_schedule", "jit");
            ok &= prepare_schedule(&schedule, &bind, &JitOptions::default()).is_ok();
        }
        add("jit_ms", ms_since(t));
        ready_ms += ms_since(t0);
        ws.grid_mut("u_b").fill(0.0);
        let t = Instant::now();
        {
            let _s = trace::span("exec.first_sweep", "exec");
            ok &= run_tuned_schedule(&schedule, &report.config, &mut ws, pool);
        }
        add("run_ms", ms_since(t));
        total_ms += ms_since(t0);
        digests.push(format!("{:016x}", gen::digest(ws.grid("u_b").as_slice())));
        adjoints.push(adj);
    }
    (
        Pass {
            total_ms,
            ready_ms,
            stages,
            all_hits,
            ok,
            digests,
            configs,
        },
        adjoints,
    )
}

/// Source text → adjoint nests → schedule for the three stencils, no
/// tuner, no native code, no sweep: the transformation alone, in ms.
fn transform_only(sources: &[StencilSource], seed: u64) -> Result<f64, String> {
    let mut total_ms = 0.0;
    for src in sources {
        let (ws, bind) = workspace(&src.dims, seed);
        let t = Instant::now();
        let nest = {
            let _s = trace::span("codegen.parse_stencil", "codegen");
            parse_stencil(&src.text).map_err(|e| e.to_string())?
        };
        let adj = {
            let _s = trace::span("core.adjoint", "core");
            nest.adjoint(&activity(), &AdjointOptions::default())
                .map_err(|e| e.to_string())?
        };
        let sched = {
            let _s = trace::span("sched.compile_schedule", "sched");
            compile_schedule(&adj, &ws, &bind, &SchedOptions::default())
                .map_err(|e| e.to_string())?
        };
        total_ms += ms_since(t);
        if sched.group_count() == 0 {
            return Err(format!("{}: empty schedule", src.name));
        }
    }
    Ok(total_ms)
}

pub fn measure(p: &mut Prepared, args: &Args, dir: &RunDir, out: &mut Outcome) {
    let mut checks = Checks::default();
    let mut warm: Vec<Pass> = Vec::new();
    let mut transform_ms = Vec::new();
    let slot = Duration::from_secs_f64(args.timed_seconds() / (2 * ROUNDS) as f64);
    let root = trace::span("timed_region", "bench");
    let root_id = root.id();
    for _ in 0..ROUNDS {
        // The same kernels again, against the caches the cold pass filled.
        let t = Instant::now();
        while t.elapsed() < slot || warm.len() < RSS_AFTER_WARM {
            let (pass, _) = {
                let _s = trace::span("compile.warm", "bench");
                pipeline(&p.sources, args.seed, &p.pool)
            };
            checks.op(
                pass.ok && pass.digests == p.expected && pass.all_hits,
                "warm compile: correct first sweeps from populated caches",
            );
            warm.push(pass);
            if warm.len() == RSS_AFTER_WARM {
                out.e2e.insert("peak_rss_mb", harness::peak_rss_mb());
            }
        }
        let t = Instant::now();
        while t.elapsed() < slot || transform_ms.len() < 3 {
            let _s = trace::span("compile.transform_only", "bench");
            match transform_only(&p.sources, args.seed) {
                Ok(ms) => {
                    checks.op(true, "transformation");
                    transform_ms.push(ms);
                }
                Err(e) => checks.op(false, &format!("transformation: {e}")),
            }
        }
    }
    drop(root);

    let warm_ms: Vec<f64> = warm.iter().map(|r| r.ready_ms).collect();
    let first_sweep_ms: Vec<f64> = warm.iter().map(|r| r.total_ms - r.ready_ms).collect();
    if transform_ms.is_empty() {
        out.checks.merge(checks);
        return;
    }
    let (w, t) = (stats::fastest(&warm_ms), stats::fastest(&transform_ms));
    out.e2e.insert("op_ms", w);
    out.e2e.insert("alt_ms", t);
    // The share of a warm compile that is the transformation itself; the
    // rest is the tuner's cache look-up and binding the native artifacts.
    out.e2e.insert("speedup", t / w);
    // What a cold compile of the three stencils leaves in the artifact
    // cache: a count of bytes, the same for every draw of coefficients
    // unless code generation changes.
    out.e2e.insert(
        "footprint_mb",
        p.artifact_bytes as f64 / (1u64 << 20) as f64,
    );
    // Source text to first sweep through the wall-clock search; the
    // native builds it triggers are cached unless this is the traced pass.
    out.value(
        if args.traced {
            "compile_cold_s"
        } else {
            "compile_search_s"
        },
        p.cold.total_ms * 1e-3,
        "s",
    );
    out.timing("compile_warm_ms", &warm_ms, 1.0, "ms");
    out.timing("first_sweep_ms", &first_sweep_ms, 1.0, "ms");
    out.timing("transform_ms", &transform_ms, 1.0, "ms");
    for key in ["parse_us", "sched_us", "tune_ms", "jit_ms", "run_ms"] {
        out.value(
            &format!("warm.{key}"),
            stage_median(warm.iter().map(|r| &r.stages), key),
            if key.ends_with("_us") { "us" } else { "ms" },
        );
    }

    if args.traced {
        layers(p, args, dir, root_id, out, &mut checks);
    }
    out.checks.merge(checks);
}

fn stage_median<'a>(stages: impl Iterator<Item = &'a BTreeMap<String, f64>>, key: &str) -> f64 {
    let v: Vec<f64> = stages.filter_map(|s| s.get(key).copied()).collect();
    if v.is_empty() {
        0.0
    } else {
        stats::median(&v)
    }
}

/// What one child process measured.
struct ChildReport {
    stages: BTreeMap<String, f64>,
    all_hits: bool,
    ok: bool,
    digests: Vec<String>,
}

/// What a child does after its pass, on each stencil at a shape one
/// smaller (which no tuning has touched): build it natively into the
/// probe directory, or load what an earlier child built there.
#[derive(Clone, Copy, PartialEq)]
enum Probe {
    Build,
    Load,
}

fn spawn_child(cache: &Path, seed: u64, probe: Probe) -> Result<ChildReport, String> {
    let role = format!(
        "compile|{}|{}",
        cache.display(),
        if probe == Probe::Build {
            "build"
        } else {
            "load"
        }
    );
    let stdout = crate::run_self(&["--child".into(), role, "--seed".into(), seed.to_string()])?;
    let j = crate::last_json_line(&stdout)?;
    Ok(ChildReport {
        stages: j
            .get("stages")
            .map(Json::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
            .collect(),
        all_hits: j.get("all_hits").and_then(Json::as_bool).unwrap_or(false),
        ok: j.get("ok").and_then(Json::as_bool).unwrap_or(false),
        digests: j
            .get("digests")
            .map(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|d| d.as_str().map(str::to_string))
            .collect(),
    })
}

fn layers(
    p: &Prepared,
    args: &Args,
    dir: &RunDir,
    root: u64,
    out: &mut Outcome,
    checks: &mut Checks,
) {
    // Stage costs of a cold pass, timed around each public call: the
    // median over the set-up's pass and two more over fresh kernels, each
    // from an empty cache directory.
    let mut cold = vec![p.cold.stages.clone()];
    for round in 1..=EXTRA_COLD {
        let s = sources(args.seed, round);
        let expected = match reference_digests(&s, args.seed, checks) {
            Ok(d) => d,
            Err(e) => {
                checks.op(false, &format!("reference for cold pass {round}: {e}"));
                break;
            }
        };
        dir.point_caches(&format!("cold-{round}"));
        let (pass, _) = pipeline(&s, args.seed, &p.pool);
        checks.op(
            pass.ok && pass.digests == expected && !pass.all_hits,
            "cold compile: correct first sweeps from empty caches",
        );
        cold.push(pass.stages);
    }
    let stage = |key: &str| stage_median(cold.iter(), key);
    for name in ["star1d", "star2d", "star3d"] {
        out.layer(
            &format!("core.adjoint_us.{name}"),
            stage(&format!("adjoint_us.{name}")),
        );
    }
    out.layer("core.adjoint_nests", stage("nests"));
    out.layer("codegen.parse_us", stage("parse_us"));
    out.layer("sched.compile_us", stage("sched_us"));
    out.layer("sched.groups", stage("groups"));
    out.layer("sched.tiles", stage("tiles"));
    out.layer("tune.search_cold_ms", stage("tune_ms"));
    out.layer("tune.candidates_timed", stage("timed"));

    // One round in fresh processes: a cold child, which also builds each
    // stencil natively once more on its own, and warm children against
    // the caches it filled, which load those builds.
    let cache = dir.sub("compile-children");
    let (sources, expected) = (&p.sources, &p.expected);
    match spawn_child(&cache, args.seed, Probe::Build) {
        Ok(r) => {
            checks.op(
                r.ok && !r.all_hits && &r.digests == expected,
                "cold child: correct first sweeps",
            );
            out.layer(
                "jit.rustc_ms",
                r.stages.get("probe_ms").copied().unwrap_or(0.0),
            );
        }
        Err(e) => checks.op(false, &format!("cold child: {e}")),
    }
    let mut warm = Vec::new();
    for _ in 0..WARM_CHILDREN {
        match spawn_child(&cache, args.seed, Probe::Load) {
            Ok(r) => {
                checks.op(
                    r.ok && r.all_hits && &r.digests == expected,
                    "warm child: correct first sweeps from cached artifacts",
                );
                warm.push(r.stages);
            }
            Err(e) => checks.op(false, &format!("warm child: {e}")),
        }
    }
    // Source text to first sweep in a new process with the caches filled.
    out.value(
        "compile_fresh_process_ms",
        stage_median(warm.iter(), "total_ms"),
        "ms",
    );
    out.layer(
        "tune.cache_hit_us",
        stage_median(warm.iter(), "tune_ms") * 1e3,
    );
    out.layer("jit.artifact_hit_ms", stage_median(warm.iter(), "probe_ms"));
    out.layer(
        "jit.artifacts_built",
        harness::count_files(&cache.join("jit"), ".so") as f64,
    );
    out.layer(
        "jit.artifact_bytes",
        harness::dir_bytes(&cache.join("jit")) as f64,
    );

    // In-process probes of the layers a compile only passes through.
    let (mut diff_us, mut nodes, mut scatter_us, mut emit_us, mut emit_bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for src in sources {
        let nest = parse_stencil(&src.text).expect("stencil parses");
        let adj = nest
            .adjoint(&activity(), &AdjointOptions::default())
            .expect("adjoint");
        for st in &nest.body {
            nodes += node_count(&st.rhs) as f64;
            let accesses = accesses_of(&st.rhs, &Symbol::new("u"));
            let t = Instant::now();
            for a in &accesses {
                checks.op(
                    diff(&st.rhs, &DiffVar::Access(a.clone())).is_ok(),
                    "symbolic diff",
                );
            }
            diff_us += ms_since(t) * 1e3;
        }
        let t = Instant::now();
        checks.op(nest.scatter_adjoint(&activity()).is_ok(), "scatter adjoint");
        scatter_us += ms_since(t) * 1e3;
        let t = Instant::now();
        let code = print_module(src.name, &adj.nests);
        emit_us += ms_since(t) * 1e3;
        emit_bytes += code.len() as f64;
    }
    out.layer("symbolic.diff_us", diff_us);
    out.layer("symbolic.expr_nodes", nodes);
    out.layer("core.scatter_adjoint_us", scatter_us);
    out.layer("codegen.emit_rust_us", emit_us);
    out.layer("codegen.emit_bytes", emit_bytes);
    probes::finish_traced(&args.workload, root, out);
}

/// The child: one pass in a fresh process against the caches under
/// `cache`. One JSON line on stdout; the parent judges the sweeps by
/// their digests.
pub fn child_main(role: &str, seed: u64) -> ExitCode {
    let parts: Vec<&str> = role.split('|').collect();
    let ["compile", cache, probe_mode] = parts[..] else {
        eprintln!("benchmark: unknown child role {role:?}");
        return ExitCode::from(2);
    };
    harness::scrub_env();
    let cache = Path::new(cache);
    std::env::set_var("PERFORAD_TUNE_CACHE", cache.join("tune.json"));
    std::env::set_var("PERFORAD_JIT_CACHE", cache.join("jit"));
    let pool = ThreadPool::new(harness::threads());
    let sources = sources(seed, 0);
    let (mut pass, adjoints) = pipeline(&sources, seed, &pool);
    // Each stencil once more at a shape one smaller, which no cache or
    // registry of this process has seen: one cold native build on its
    // own, or the load of the artifact that build left behind.
    pass.stages.insert("total_ms".into(), pass.total_ms);
    let probe = cache.join("probe");
    for (adj, src) in adjoints.iter().zip(&sources) {
        let dims: Vec<usize> = src.dims.iter().map(|d| d - 1).collect();
        let (ws, bind) = workspace(&dims, seed);
        let t = Instant::now();
        let prepared = compile_schedule(adj, &ws, &bind, &SchedOptions::default().with_jit())
            .ok()
            .and_then(|s| {
                prepare_schedule(&s, &bind, &JitOptions::default().with_cache_dir(&probe)).ok()
            });
        let took = ms_since(t);
        let cost = match (probe_mode, prepared) {
            ("build", Some(r)) if r.compiled > 0 => Some(r.compile_ms),
            ("load", Some(r)) if r.loaded > 0 && r.compiled == 0 => Some(took),
            _ => None,
        };
        match cost {
            Some(ms) => *pass.stages.entry("probe_ms".into()).or_default() += ms,
            None => pass.ok = false,
        }
    }
    let line = Json::obj(vec![
        ("all_hits", Json::Bool(pass.all_hits)),
        ("ok", Json::Bool(pass.ok)),
        (
            "digests",
            Json::Arr(pass.digests.into_iter().map(Json::Str).collect()),
        ),
        (
            "stages",
            Json::Obj(
                pass.stages
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", line.encode());
    if pass.ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
