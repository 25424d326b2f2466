//! The layered performance ledger: six named workloads (four of them
//! gated by `BENCHMARK.json`), the same end-to-end metrics on each, one
//! cost line per crate.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line last
//! benchmark --seed N [--seconds S] [--trace 1]              every workload, then results.json
//! benchmark --repeat K --seed N                             K passes of one seed, spread per metric
//! benchmark --self-check | --check-manifest
//! ```
//!
//! See `README.md` beside this file for what each workload and metric
//! means and how the sizes were calibrated.

mod gen;
mod harness;
mod json;
mod loadgen;
mod manifest;
mod probes;
mod selfcheck;
mod stats;
mod surface;
mod trace;
mod tuning;
mod w_compile;
mod w_seismic;
mod w_serve;
mod w_sweep;

use harness::{Args, Checks, Outcome, RunDir};
use json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Seconds of timed region per workload when the caller names none.
const DEFAULT_SECONDS: f64 = 18.0;

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    self_check: bool,
    check_manifest: bool,
    setup_only: bool,
    jit_cache: Option<PathBuf>,
    child: Option<String>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        ..Cli::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => cli.workload = Some(val("a name")?),
            "--seed" => {
                cli.seed = val("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = val("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => cli.trace = val("0 or 1")? == "1",
            "--repeat" => {
                cli.repeat = Some(
                    val("a count")?
                        .parse()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--self-check" => cli.self_check = true,
            "--check-manifest" => cli.check_manifest = true,
            "--setup-only" => cli.setup_only = true,
            "--jit-cache" => cli.jit_cache = Some(PathBuf::from(val("a directory")?)),
            "--child" => cli.child = Some(val("a role")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if cli.repeat.is_some_and(|k| k < 2) {
        return Err("--repeat needs at least 2 passes to have a spread".into());
    }
    Ok(cli)
}

/// Write one workload's spans as Chrome-trace JSON under the bench root.
pub fn write_trace(workload: &str, spans: &[trace::Span]) {
    let root = harness::bench_root();
    let _ = std::fs::create_dir_all(&root);
    let path = root.join(format!("trace-{workload}.json"));
    match std::fs::write(&path, trace::chrome_json(workload, spans)) {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}

/// Re-execute this binary with `args`; returns its stdout when it exits 0.
fn run_self(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    if out.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "child {args:?} exited with {}\n{stdout}",
            out.status
        ))
    }
}

fn last_json_line(stdout: &str) -> Result<Json, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or("child printed no JSON line")?;
    json::parse(line)
}

/// A workload's set-up and timed region behind one interface.
enum Prepared {
    Sweep(Box<w_sweep::Prepared>),
    Compile(w_compile::Prepared),
    Seismic(Box<w_seismic::Prepared>),
    Serve(Box<w_serve::Prepared>),
}

fn setup(args: &Args, dir: &RunDir, checks: &mut Checks) -> Result<Prepared, String> {
    Ok(match args.workload.as_str() {
        "wave3d_sweep" => Prepared::Sweep(Box::new(w_sweep::setup(
            w_sweep::Kernel::Wave3d,
            args,
            dir,
            checks,
        )?)),
        "burgers1d_sweep" => Prepared::Sweep(Box::new(w_sweep::setup(
            w_sweep::Kernel::Burgers1d,
            args,
            dir,
            checks,
        )?)),
        "cold_compile" => Prepared::Compile(w_compile::setup(args, dir, checks)?),
        "seismic_ckpt" => Prepared::Seismic(Box::new(w_seismic::setup(args, dir, checks)?)),
        "serve_singles" => Prepared::Serve(Box::new(w_serve::setup(
            w_serve::Mode::Singles,
            args,
            dir,
            checks,
        )?)),
        "serve_survey" => Prepared::Serve(Box::new(w_serve::setup(
            w_serve::Mode::Survey,
            args,
            dir,
            checks,
        )?)),
        other => {
            return Err(format!(
                "unknown workload {other:?}; known: {:?} and {:?}",
                manifest::WORKLOADS,
                manifest::LEDGER_ONLY
            ))
        }
    })
}

fn measure(prepared: &mut Prepared, args: &Args, dir: &RunDir, out: &mut Outcome) {
    match prepared {
        Prepared::Sweep(p) => w_sweep::measure(p, args, out),
        Prepared::Compile(p) => w_compile::measure(p, args, dir, out),
        Prepared::Seismic(p) => w_seismic::measure(p, args, dir, out),
        Prepared::Serve(p) => w_serve::measure(p, args, out),
    }
}

/// One `--setup-only` child against the shared artifact cache; its
/// set-up time in seconds.
fn setup_child(args: &Args, jit_cache: &Path) -> Result<f64, String> {
    let child = vec![
        "--setup-only".into(),
        "--workload".into(),
        args.workload.clone(),
        "--seed".into(),
        args.seed.to_string(),
        "--jit-cache".into(),
        jit_cache.display().to_string(),
    ];
    run_self(&child)
        .and_then(|s| last_json_line(&s))
        .and_then(|j| {
            j.get("setup_s")
                .and_then(Json::as_f64)
                .ok_or_else(|| "no setup_s in child output".to_string())
        })
}

/// One workload in this process: set up (timed, and repeated in fresh
/// child processes), run the timed region, check outputs, print the
/// ledger lines and the result object.
fn run_workload(args: &Args) -> ExitCode {
    harness::scrub_env();
    let mut dir = match RunDir::create(&args.workload, None) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("benchmark: cannot create the run directory: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    if !args.traced {
        // The first child pays the native builds and fills the artifact
        // cache every later set-up of this run — the children's and this
        // process's own, the last repetition — starts from.
        let jit_cache = dir.share_jit();
        match setup_child(args, &jit_cache) {
            Ok(cold) => out.value("setup_cold_s", cold, "s"),
            Err(e) => out.checks.op(false, &format!("cold set-up: {e}")),
        }
        let mut spent = 0.0;
        while setup_s.len() + 1 < harness::SETUP_REPS_MAX
            && (setup_s.len() + 1 < harness::SETUP_REPS_MIN || spent < harness::SETUP_BUDGET_S)
        {
            match setup_child(args, &jit_cache) {
                Ok(s) => {
                    spent += s;
                    setup_s.push(s);
                }
                Err(e) => {
                    out.checks.op(false, &format!("set-up repetition: {e}"));
                    break;
                }
            }
        }
    }
    trace::set_enabled(args.traced);
    let t = Instant::now();
    let mut checks = Checks::default();
    let prepared = setup(args, &dir, &mut checks);
    setup_s.push(t.elapsed().as_secs_f64());
    out.checks.merge(checks);
    match prepared {
        Ok(mut p) => measure(&mut p, args, &dir, &mut out),
        Err(e) => out.checks.op(false, &format!("set-up failed: {e}")),
    }
    // The fastest repetition, like every gated timing: what disturbs a
    // set-up on a shared host only ever slows it, and for spells far
    // longer than a run.
    eprintln!("{}: set-up repetitions {setup_s:.3?} s", args.workload);
    out.e2e.insert("setup_s", stats::fastest(&setup_s));
    out.e2e
        .entry("peak_rss_mb")
        .or_insert_with(harness::peak_rss_mb);
    drop(dir);
    report(args, &out)
}

/// Print the ledger lines, then the one JSON object the driver reads.
fn report(args: &Args, out: &Outcome) -> ExitCode {
    let w = &args.workload;
    for l in &out.lines {
        match l.tail {
            Some((p, v)) => println!("{w} {} {} {} n={} p{p}={v}", l.metric, l.value, l.unit, l.n),
            None => println!("{w} {} {} {}", l.metric, l.value, l.unit),
        }
    }
    println!("{w} ops_attempted {} count", out.checks.attempted);
    println!("{w} ops_failed {} count", out.checks.failed);
    println!(
        "{w} failed_share {} ratio",
        out.checks.failed as f64 / out.checks.attempted.max(1) as f64
    );
    // A tripped guard invalidates the run, not the program: it is said
    // here and in `bench.guards_tripped`, and fails no operation.
    println!("{w} guards_tripped {} count", out.tripped.len());
    for reason in &out.tripped {
        println!("{w} INVALID {reason}");
        eprintln!("benchmark: {w}: INVALID run, guard tripped: {reason}");
    }
    let mut metrics = Vec::new();
    let mut missing = Vec::new();
    if args.traced {
        let mut layer = out.layer.clone();
        layer.insert("bench.guards_tripped".into(), out.tripped.len() as f64);
        for (name, unit) in manifest::PER_LAYER {
            // The result object carries every per-layer name, 0 for a call
            // this workload does not make; the ledger only what it measured,
            // so the traced ledger can tell a name that nothing measures.
            let v = layer.get(name).copied();
            if let Some(v) = v {
                println!("{w} {name} {v} {unit}");
            }
            metrics.push((name, v.unwrap_or(0.0), unit));
        }
        for name in out.layer.keys() {
            if manifest::unit_of(&manifest::PER_LAYER, name).is_none() {
                missing.push(format!(
                    "per-layer metric {name:?} is emitted but not named in the manifest"
                ));
            }
        }
    } else {
        for (name, unit) in manifest::END_TO_END {
            match out.e2e.get(name) {
                Some(v) => {
                    println!("{w} {name} {v} {unit}");
                    metrics.push((name, *v, unit));
                }
                None => missing.push(format!("end-to-end metric {name:?} was not measured")),
            }
        }
    }
    for m in &missing {
        eprintln!("benchmark: {m}");
    }
    let correct = out.checks.failed == 0 && missing.is_empty();
    let obj = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(out.checks.attempted.max(1) as f64)),
        ("failed", Json::Num(out.checks.failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(*v)),
                                ("unit", Json::Str(u.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", obj.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--setup-only`: one set-up in a fresh process, timed; cold but for
/// the artifact cache, when the parent shares one.
fn run_setup_only(args: &Args, jit_cache: Option<PathBuf>) -> ExitCode {
    harness::scrub_env();
    let Ok(dir) = RunDir::create(&args.workload, jit_cache) else {
        return ExitCode::from(2);
    };
    let mut checks = Checks::default();
    let t = Instant::now();
    let prepared = setup(args, &dir, &mut checks);
    let secs = t.elapsed().as_secs_f64();
    let ok = prepared.is_ok() && checks.failed == 0;
    drop(prepared);
    drop(dir);
    println!("{}", Json::obj(vec![("setup_s", Json::Num(secs))]).encode());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What one pass over every workload gave.
struct Pass {
    /// `workload → metric → value`, from each child's result object.
    metrics: BTreeMap<String, BTreeMap<String, f64>>,
    /// Per-layer names some workload measured (not defaulted to 0).
    measured: BTreeSet<String>,
    /// Every child exited 0 with `correct: true`.
    ok: bool,
}

/// One pass over every workload, each in its own child process.
fn pass(seed: u64, seconds: f64, traced: bool) -> Pass {
    let mut all = BTreeMap::new();
    let mut measured = BTreeSet::new();
    let mut ok = true;
    for w in manifest::WORKLOADS.iter().chain(&manifest::LEDGER_ONLY) {
        let child: Vec<String> = [
            "--workload",
            w,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        match run_self(&child) {
            Ok(stdout) => {
                // Everything but the result object is the ledger.
                for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                    println!("{line}");
                    if let Some(name) = line.split_whitespace().nth(1) {
                        if manifest::unit_of(&manifest::PER_LAYER, name).is_some() {
                            measured.insert(name.to_string());
                        }
                    }
                }
                match last_json_line(&stdout) {
                    Ok(j) => {
                        ok &= j.get("correct").and_then(Json::as_bool).unwrap_or(false);
                        let metrics = j
                            .get("metrics")
                            .map(Json::as_obj)
                            .unwrap_or(&[])
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                            .collect();
                        all.insert(w.to_string(), metrics);
                    }
                    Err(e) => {
                        eprintln!("benchmark: {w}: {e}");
                        ok = false;
                    }
                }
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ok = false;
            }
        }
    }
    Pass {
        metrics: all,
        measured,
        ok,
    }
}

fn to_json(all: &BTreeMap<String, BTreeMap<String, f64>>) -> Json {
    Json::Obj(
        all.iter()
            .map(|(w, m)| {
                (
                    w.clone(),
                    Json::Obj(m.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
                )
            })
            .collect(),
    )
}

/// The full ledger: an untraced pass, optionally a traced one, and
/// `results.json` under the bench root.
fn run_ledger(cli: &Cli) -> ExitCode {
    println!("threads {} count", harness::threads());
    let untraced = pass(cli.seed, cli.seconds, false);
    let mut ok = untraced.ok;
    let mut doc = vec![
        ("seed", Json::Num(cli.seed as f64)),
        ("seconds", Json::Num(cli.seconds)),
        ("threads", Json::Num(harness::threads() as f64)),
        ("end_to_end", to_json(&untraced.metrics)),
    ];
    if cli.trace {
        let traced = pass(cli.seed, cli.seconds, true);
        ok &= traced.ok;
        // The dynamic half of the manifest check: a per-layer name that
        // no workload measured is stale, whatever BENCHMARK.json says.
        for (name, _) in manifest::PER_LAYER {
            if !traced.measured.contains(name) {
                eprintln!("benchmark: manifest: per-layer metric {name:?} is named but no workload measured it");
                ok = false;
            }
        }
        doc.push(("per_layer", to_json(&traced.metrics)));
    }
    let root = harness::bench_root();
    let _ = std::fs::create_dir_all(&root);
    let path = root.join("results.json");
    match std::fs::write(&path, Json::obj(doc).encode()) {
        Ok(()) => eprintln!("benchmark: results written to {}", path.display()),
        Err(e) => {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat K`: K untraced passes of one seed, then per workload ×
/// metric the min/median/max, the quartile spread (run-to-run, no seed
/// variance mixed in) and the spread as a share of the metric's bound.
fn run_repeat(cli: &Cli, k: usize) -> ExitCode {
    let bounds: BTreeMap<String, f64> = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| json::parse(&t).ok())
        .map(|doc| {
            doc.get("end_to_end")
                .map(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|e| {
                    Some((
                        e.get("name")?.as_str()?.to_string(),
                        e.get("bound")?.as_f64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    let mut series: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for _ in 0..k {
        let one = pass(cli.seed, cli.seconds, false);
        ok &= one.ok;
        for (w, metrics) in one.metrics {
            for (m, v) in metrics {
                series.entry((w.clone(), m)).or_default().push(v);
            }
        }
    }
    println!("workload metric min median max spread spread/bound");
    for ((w, m), vals) in &series {
        if vals.len() < 2 {
            continue;
        }
        let s = stats::sorted(vals);
        let spread = stats::quartile_spread(vals);
        let bound = bounds.get(m).copied();
        let share = bound.map_or(f64::NAN, |b| spread / b);
        // setup_s is judged on its median only, never on its spread.
        let flag = if m != "setup_s" && share > 1.0 {
            " UNRESOLVED"
        } else {
            ""
        };
        println!(
            "{w} {m} {} {} {} {spread:.4} {share:.2}{flag}",
            s[0],
            stats::median(vals),
            s[s.len() - 1]
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_check_manifest() -> ExitCode {
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(t) => t,
        Err(e) => {
            eprintln!("benchmark: cannot read BENCHMARK.json from the working directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let problems = manifest::check(&text);
    for p in &problems {
        eprintln!("benchmark: manifest: {p}");
    }
    if problems.is_empty() {
        println!(
            "manifest ok: {} workloads, {} end-to-end, {} per-layer",
            manifest::WORKLOADS.len(),
            manifest::END_TO_END.len(),
            manifest::PER_LAYER.len()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.self_check {
        return selfcheck::run();
    }
    if cli.check_manifest {
        return run_check_manifest();
    }
    if let Some(role) = &cli.child {
        return w_compile::child_main(role, cli.seed);
    }
    if let Some(k) = cli.repeat {
        return run_repeat(&cli, k);
    }
    match &cli.workload {
        Some(w) => {
            let args = Args {
                workload: w.clone(),
                seed: cli.seed,
                seconds: cli.seconds,
                traced: cli.trace,
            };
            if cli.setup_only {
                run_setup_only(&args, cli.jit_cache)
            } else {
                run_workload(&args)
            }
        }
        None => run_ledger(&cli),
    }
}
