//! # perforad-bench
//!
//! Benchmark harness regenerating every figure of the ICPP 2019 evaluation
//! (Figs. 8–15), the §3.3.4 loop-nest-count table, and the §3.6
//! verification. Each paper figure has a binary (`fig08_…` … `fig15_…`);
//! criterion micro-benches cover kernels, the transformation itself, and
//! the ablations listed in DESIGN.md.
//!
//! Hardware note: the paper's Broadwell/KNL machines are substituted by
//! (a) measured sweeps on this host and (b) model projections from
//! `perforad-perfmodel` at paper scale. Grid sizes default small so the
//! harness completes in CI; override with `PERFORAD_N` / `PERFORAD_N_BURGERS`.

use perforad_core::{ActivityMap, Adjoint, AdjointOptions, LoopNest};
use perforad_exec::{
    compile_adjoint, compile_nest, run, Binding, ExecMode, Plan, ThreadPool, Workspace,
};
use perforad_pde::{burgers, heat2d, wave3d};
use perforad_perfmodel::{KernelProfile, Machine};
use perforad_sched::{compile_schedule, run_schedule, SchedOptions, Schedule};
use perforad_symbolic::Symbol;
use std::collections::BTreeMap;

pub mod micro;

// The timers live in `perforad-tune` (its empirical stage measures the
// same way this harness reports), re-exported here so existing callers
// keep their import paths.
pub use perforad_tune::timing::{time_best, time_once};

/// Environment-overridable problem size.
pub fn env_size(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Thread counts measured on this host (1 ..= 2×cores, doubling).
pub fn host_threads() -> Vec<usize> {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(2);
    let mut v = vec![1usize];
    let mut t = 2;
    while t <= cores * 2 {
        v.push(t);
        t *= 2;
    }
    v.dedup();
    v
}

/// One benchmark scenario: primal + gather adjoint + scatter adjoint, all
/// compiled against a reusable workspace.
pub struct Case {
    pub name: &'static str,
    pub nest: LoopNest,
    pub adjoint: Adjoint,
    pub scatter: LoopNest,
    pub ws: Workspace,
    pub bind: Binding,
    pub primal_plan: Plan,
    pub adjoint_plan: Plan,
    pub scatter_plan: Plan,
    /// Fused + tiled schedule of the gather adjoint (one parallel region).
    pub schedule: Schedule,
    /// The same schedule with the vectorized row-executor lowering.
    pub schedule_rows: Schedule,
    pub sizes: BTreeMap<Symbol, i64>,
}

impl Case {
    fn build(
        name: &'static str,
        nest: LoopNest,
        act: &ActivityMap,
        ws: Workspace,
        bind: Binding,
    ) -> Case {
        let adjoint = nest
            .adjoint(act, &AdjointOptions::default())
            .expect("adjoint");
        let scatter = nest.scatter_adjoint(act).expect("scatter adjoint");
        let primal_plan = compile_nest(&nest, &ws, &bind).expect("primal plan");
        let adjoint_plan = compile_adjoint(&adjoint, &ws, &bind).expect("adjoint plan");
        let scatter_plan = compile_nest(&scatter, &ws, &bind).expect("scatter plan");
        let schedule =
            compile_schedule(&adjoint, &ws, &bind, &SchedOptions::default()).expect("schedule");
        let schedule_rows =
            compile_schedule(&adjoint, &ws, &bind, &SchedOptions::default().with_rows())
                .expect("rows schedule");
        let sizes = bind.sizes.clone();
        Case {
            name,
            nest,
            adjoint,
            scatter,
            ws,
            bind,
            primal_plan,
            adjoint_plan,
            scatter_plan,
            schedule,
            schedule_rows,
            sizes,
        }
    }

    /// The paper's wave-equation case at grid size `n³`.
    pub fn wave(n: usize) -> Case {
        let (ws, bind) = wave3d::workspace(n, 0.1);
        Case::build("wave3d", wave3d::nest(), &wave3d::activity(), ws, bind)
    }

    /// The paper's Burgers case with `n` cells.
    pub fn burgers(n: usize) -> Case {
        let (ws, bind) = burgers::workspace(n, 0.3, 0.1);
        Case::build("burgers1d", burgers::nest(), &burgers::activity(), ws, bind)
    }

    /// 2-D heat (Fig. 3's stencil).
    pub fn heat(n: usize) -> Case {
        let (ws, bind) = heat2d::workspace(n, 0.2);
        Case::build("heat2d", heat2d::nest(), &heat2d::activity(), ws, bind)
    }

    pub fn primal_serial(&mut self) -> f64 {
        let plan = self.primal_plan.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run(&plan, ws, ExecMode::serial()).unwrap();
        })
    }

    pub fn primal_parallel(&mut self, pool: &ThreadPool) -> f64 {
        let plan = self.primal_plan.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run(&plan, ws, ExecMode::parallel(pool)).unwrap();
        })
    }

    pub fn perforad_serial(&mut self) -> f64 {
        let plan = self.adjoint_plan.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run(&plan, ws, ExecMode::serial()).unwrap();
        })
    }

    pub fn perforad_parallel(&mut self, pool: &ThreadPool) -> f64 {
        let plan = self.adjoint_plan.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run(&plan, ws, ExecMode::parallel(pool)).unwrap();
        })
    }

    /// One adjoint sweep through the vectorized row executor, serially.
    pub fn perforad_serial_rows(&mut self) -> f64 {
        let plan = self.adjoint_plan.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run(&plan, ws, ExecMode::serial().rows()).unwrap();
        })
    }

    /// One adjoint sweep through the vectorized row executor on the pool.
    pub fn perforad_parallel_rows(&mut self, pool: &ThreadPool) -> f64 {
        let plan = self.adjoint_plan.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run(&plan, ws, ExecMode::parallel(pool).rows()).unwrap();
        })
    }

    /// One fused + tiled adjoint sweep with row-executor tiles.
    pub fn fused_parallel_rows(&mut self, pool: &ThreadPool) -> f64 {
        let schedule = self.schedule_rows.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run_schedule(&schedule, ws, pool).unwrap();
        })
    }

    /// One fused + tiled adjoint sweep on the pool (single parallel region).
    pub fn fused_parallel(&mut self, pool: &ThreadPool) -> f64 {
        let schedule = self.schedule.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run_schedule(&schedule, ws, pool).unwrap();
        })
    }

    pub fn scatter_serial(&mut self) -> f64 {
        let plan = self.scatter_plan.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run(&plan, ws, ExecMode::serial()).unwrap();
        })
    }

    pub fn scatter_atomic(&mut self, pool: &ThreadPool) -> f64 {
        let plan = self.scatter_plan.clone();
        let ws = &mut self.ws;
        time_once(|| {
            run(&plan, ws, ExecMode::parallel_atomic(pool)).unwrap();
        })
    }

    /// IR-derived profiles for the performance model.
    pub fn profiles(&self, paper_n: i64) -> (KernelProfile, KernelProfile, KernelProfile) {
        let mut sizes = self.sizes.clone();
        for v in sizes.values_mut() {
            *v = paper_n;
        }
        let p = perforad_perfmodel::profile(std::slice::from_ref(&self.nest), &sizes);
        let a = perforad_perfmodel::profile(&self.adjoint.nests, &sizes);
        let s = perforad_perfmodel::profile(std::slice::from_ref(&self.scatter), &sizes);
        (p, a, s)
    }
}

/// A labelled `(threads, seconds)` series.
pub struct Series {
    pub label: String,
    pub rows: Vec<(usize, f64)>,
}

impl Series {
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        let t1 = self.rows.first().map(|r| r.1).unwrap_or(1.0);
        self.rows.iter().map(|&(t, s)| (t, t1 / s)).collect()
    }
}

/// Optionally mirror figure data as JSON (set `PERFORAD_JSON=1`), so plots
/// can be regenerated outside the terminal. `payload` must already be a
/// serialised JSON value (the workspace builds offline, so JSON is emitted
/// by hand rather than through serde).
fn maybe_json(title: &str, payload: String) {
    if std::env::var("PERFORAD_JSON").is_ok() {
        println!(
            "JSON {{\"figure\":{},\"data\":{payload}}}",
            json_escape(title)
        );
    }
}

/// A JSON string literal. Rust's `Debug` formatting is *not* used: it
/// emits `\u{9}`-style braced escapes, which are invalid JSON. Public so
/// the bench binaries (which emit machine-readable JSON files) share one
/// escaper — the implementation lives beside the workspace's JSON reader
/// in `perforad_tune::json`, so escape and parse round-trip by
/// construction.
pub fn json_escape(s: &str) -> String {
    perforad_tune::json::escape(s)
}

fn json_rows(rows: &[(usize, f64)]) -> String {
    let cells: Vec<String> = rows.iter().map(|(t, s)| format!("[{t},{s}]")).collect();
    format!("[{}]", cells.join(","))
}

/// Print a speedup table like the paper's scaling figures.
pub fn print_speedup_figure(title: &str, series: &[Series]) {
    let items: Vec<String> = series
        .iter()
        .map(|s| {
            format!(
                "{{\"label\":{},\"rows\":{}}}",
                json_escape(&s.label),
                json_rows(&s.rows)
            )
        })
        .collect();
    maybe_json(title, format!("[{}]", items.join(",")));
    println!("\n## {title}");
    print!("{:<10}", "threads");
    for s in series {
        print!("{:>14}", s.label);
    }
    println!("{:>10}", "ideal");
    let threads: Vec<usize> = series[0].rows.iter().map(|r| r.0).collect();
    for (row, &t) in threads.iter().enumerate() {
        print!("{t:<10}");
        for s in series {
            let sp = s.speedups()[row].1;
            print!("{sp:>14.2}");
        }
        println!("{t:>10}");
    }
}

/// Print absolute-runtime bars like Figs. 10/11/14/15.
pub fn print_runtime_figure(title: &str, bars: &[(String, f64)]) {
    let items: Vec<String> = bars
        .iter()
        .map(|(l, s)| format!("[{},{s}]", json_escape(l)))
        .collect();
    maybe_json(title, format!("[{}]", items.join(",")));
    println!("\n## {title}");
    for (label, secs) in bars {
        println!("{label:<24} {secs:>10.4} s");
    }
}

/// Model-projected series on a paper machine.
pub fn model_series(m: &Machine, label: &str, p: &KernelProfile, threads: &[usize]) -> Series {
    Series {
        label: label.to_string(),
        rows: perforad_perfmodel::speedup_series(m, p, threads)
            .into_iter()
            .map(|(t, secs, _)| (t, secs))
            .collect(),
    }
}

/// Thread sweep used by the paper for a machine.
pub fn paper_threads(m: &Machine) -> Vec<usize> {
    let mut v = vec![1usize];
    let mut t = 2;
    while t <= m.threads_max {
        v.push(t);
        t *= 2;
    }
    if *v.last().unwrap() != m.threads_max {
        v.push(m.threads_max);
    }
    v
}

/// Full scaling figure: measured host sweep + model projection at paper
/// scale (Figs. 8, 9, 12, 13).
pub fn run_scaling(case: &mut Case, machine: &Machine, paper_n: i64, figure: &str) {
    println!("schedule: {}", case.schedule.describe());
    // Measured on this host.
    let threads = host_threads();
    let mut primal = Series {
        label: "Primal".into(),
        rows: vec![],
    };
    let mut perforad = Series {
        label: "PerforAD".into(),
        rows: vec![],
    };
    let mut rows_exec = Series {
        label: "Rows".into(),
        rows: vec![],
    };
    let mut fused = Series {
        label: "Fused".into(),
        rows: vec![],
    };
    let mut fused_rows = Series {
        label: "FusedRows".into(),
        rows: vec![],
    };
    let mut atomics = Series {
        label: "Atomics".into(),
        rows: vec![],
    };
    for &t in &threads {
        let pool = ThreadPool::new(t);
        // One thread runs on the caller; the atomics baseline always pays
        // its CAS adds on the pool, as in the paper's single-thread column.
        let mode = if t == 1 {
            ExecMode::serial()
        } else {
            ExecMode::parallel(&pool)
        };
        for (series, plan, mode) in [
            (&mut primal, &case.primal_plan, mode),
            (&mut perforad, &case.adjoint_plan, mode),
            (&mut rows_exec, &case.adjoint_plan, mode.rows()),
            (
                &mut atomics,
                &case.scatter_plan,
                ExecMode::parallel_atomic(&pool),
            ),
        ] {
            let secs = time_best(2, || {
                run(plan, &mut case.ws, mode).unwrap();
            });
            series.rows.push((t, secs));
        }
        fused.rows.push((
            t,
            time_best(2, || {
                let s = case.schedule.clone();
                run_schedule(&s, &mut case.ws, &pool).unwrap();
            }),
        ));
        fused_rows.rows.push((
            t,
            time_best(2, || {
                let s = case.schedule_rows.clone();
                run_schedule(&s, &mut case.ws, &pool).unwrap();
            }),
        ));
    }
    print_speedup_figure(
        &format!("{figure} [measured on host, {}]", case.name),
        &[primal, perforad, rows_exec, fused, fused_rows, atomics],
    );

    // Model projection at paper scale.
    let (pp, pa, ps) = case.profiles(paper_n);
    let tl = paper_threads(machine);
    let m_primal = model_series(machine, "Primal", &pp, &tl);
    let m_perforad = model_series(machine, "PerforAD", &pa, &tl);
    let m_atomics = model_series(machine, "Atomics", &ps, &tl);
    // Conventional serial adjoint never scales (Tapenade output is serial).
    let serial_t = perforad_perfmodel::predict(machine, &ps_noatomic(&ps), 1);
    let m_adjoint = Series {
        label: "Adjoint".into(),
        rows: tl.iter().map(|&t| (t, serial_t)).collect(),
    };
    print_speedup_figure(
        &format!("{figure} [model projection, {}]", machine.name),
        &[m_primal, m_adjoint, m_atomics, m_perforad],
    );
}

fn ps_noatomic(p: &KernelProfile) -> KernelProfile {
    let mut q = *p;
    q.atomics_per_point = 0.0;
    q
}

/// Absolute-runtime figure: five bars, measured + model (Figs. 10, 11, 14, 15).
pub fn run_runtimes(
    case: &mut Case,
    machine: &Machine,
    paper_n: i64,
    figure: &str,
    stack_mode_serial: bool,
) {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(2);
    let pool = ThreadPool::new(cores);
    let bars = vec![
        ("Primal Serial".to_string(), case.primal_serial()),
        ("PerforAD Serial".to_string(), case.perforad_serial()),
        ("Rows Serial".to_string(), case.perforad_serial_rows()),
        ("Adjoint Serial".to_string(), case.scatter_serial()),
        ("Primal Parallel".to_string(), case.primal_parallel(&pool)),
        (
            "PerforAD Parallel".to_string(),
            case.perforad_parallel(&pool),
        ),
        (
            "Rows Parallel".to_string(),
            case.perforad_parallel_rows(&pool),
        ),
        ("Fused Parallel".to_string(), case.fused_parallel(&pool)),
        (
            "Fused Rows Parallel".to_string(),
            case.fused_parallel_rows(&pool),
        ),
        ("Atomics Parallel".to_string(), case.scatter_atomic(&pool)),
    ];
    print_runtime_figure(
        &format!("{figure} [measured on host, {}]", case.name),
        &bars,
    );
    println!("schedule: {}", case.schedule.describe());

    let (pp, pa, ps) = case.profiles(paper_n);
    let serial_scatter = if stack_mode_serial {
        // Tapenade stack mode: min/max intermediates pushed/popped (16 B/pt).
        perforad_perfmodel::with_stack(ps_noatomic(&ps), 16.0)
    } else {
        ps_noatomic(&ps)
    };
    let best = |p: &KernelProfile| {
        paper_threads(machine)
            .iter()
            .map(|&t| perforad_perfmodel::predict(machine, p, t))
            .fold(f64::MAX, f64::min)
    };
    let bars = vec![
        (
            "Primal Serial".to_string(),
            perforad_perfmodel::predict(machine, &pp, 1),
        ),
        (
            "PerforAD Serial".to_string(),
            perforad_perfmodel::predict(machine, &pa, 1),
        ),
        (
            "Adjoint Serial".to_string(),
            perforad_perfmodel::predict(machine, &serial_scatter, 1),
        ),
        ("Primal Parallel".to_string(), best(&pp)),
        ("PerforAD Parallel".to_string(), best(&pa)),
        ("Atomics best".to_string(), best(&ps)),
    ];
    print_runtime_figure(
        &format!("{figure} [model projection, {}]", machine.name),
        &bars,
    );
    let ratio = best(&ps).min(perforad_perfmodel::predict(machine, &serial_scatter, 1)) / best(&pa);
    println!("PerforAD parallel vs best conventional adjoint: {ratio:.1}x");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wave_case_builds_and_runs() {
        let mut case = Case::wave(16);
        let t = case.primal_serial();
        assert!(t >= 0.0);
        let pool = ThreadPool::new(2);
        let _ = case.perforad_parallel(&pool);
        let _ = case.scatter_atomic(&pool);
        let _ = case.fused_parallel(&pool);
        assert_eq!(case.adjoint.nest_count(), 53);
        // All 53 disjoint nests fuse into a single parallel region.
        assert_eq!(case.schedule.group_count(), 1);
        assert_eq!(case.schedule.max_fused(), 53);
    }

    #[test]
    fn fused_schedule_matches_unfused_adjoint() {
        let mut c1 = Case::wave(14);
        let mut c2 = Case::wave(14);
        let pool = ThreadPool::new(3);
        let plan = c1.adjoint_plan.clone();
        run(&plan, &mut c1.ws, ExecMode::parallel(&pool)).unwrap();
        let s = c2.schedule.clone();
        run_schedule(&s, &mut c2.ws, &pool).unwrap();
        for arr in ["u_1_b", "u_2_b"] {
            assert_eq!(c1.ws.grid(arr).max_abs_diff(c2.ws.grid(arr)), 0.0, "{arr}");
        }
    }

    #[test]
    fn profiles_scale_with_paper_size() {
        let case = Case::burgers(1024);
        let (p, a, s) = case.profiles(1_000_000);
        assert!(p.points > 900_000.0);
        assert!(a.flops_per_point > p.flops_per_point);
        assert!(s.atomics_per_point > 0.0);
        assert_eq!(p.atomics_per_point, 0.0);
    }

    #[test]
    fn json_escape_emits_valid_json_for_control_chars() {
        assert_eq!(json_escape("plain"), "\"plain\"");
        assert_eq!(json_escape("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_escape("tab\there"), "\"tab\\there\"");
        // Braced `\u{1b}` Debug escapes are invalid JSON; 4-hex form is.
        assert_eq!(json_escape("\u{1b}[0m"), "\"\\u001b[0m\"");
    }

    #[test]
    fn host_threads_start_at_one() {
        let t = host_threads();
        assert_eq!(t[0], 1);
        assert!(t.len() >= 2);
    }

    #[test]
    fn series_speedups_normalise() {
        let s = Series {
            label: "x".into(),
            rows: vec![(1, 4.0), (2, 2.0), (4, 1.0)],
        };
        assert_eq!(s.speedups(), vec![(1, 1.0), (2, 2.0), (4, 4.0)]);
    }
}
