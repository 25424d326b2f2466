//! Plan execution: [`run`] is the one entry point; its [`ExecMode`] picks
//! serial, pool-parallel (gather) or pool-parallel with atomics (scatter),
//! each with any of three lowerings.
//!
//! Parallelisation follows the paper's OpenMP usage: the outermost loop
//! dimension is chunked across threads. Gather nests need no further care —
//! every iteration writes its own centre point, and the nests of a disjoint
//! adjoint never overlap, so all chunks of all nests go into one parallel
//! region with no barriers (§3.3.4). Scatter nests are raced unless each
//! update is atomic; [`Strategy::ParallelAtomic`] is the
//! `#pragma omp atomic` equivalent whose cost the paper's "Atomics" series
//! measures. Each chunk is a [`Tile`] executed by [`TileRunner`], the same
//! runner fused schedules use — there is no second executor.
//!
//! Orthogonally to the parallel strategy, a run uses one of three
//! lowerings ([`Lowering`]): the per-point stack interpreter (the
//! reference every property suite compares against), the vectorized
//! register-IR row executor ([`crate::rows`]), or JIT-compiled native
//! code resolved through the [`crate::native`] registry (`perforad-jit`
//! populates it; a missing entry falls back to the row executor). All
//! produce bitwise-identical results.

use crate::error::ExecError;
use crate::kernel::Plan;
use crate::pool::ThreadPool;
use crate::tile::{Tile, TileRunner, TileScratch};
use crate::workspace::Workspace;

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Iteration points executed (statements may be several per point).
    pub points: u64,
}

/// Which lowering the executor runs.
///
/// The default is the **reference interpreter**, 5–9× slower than
/// [`Lowering::Rows`] on the paper's stencils: right for a test oracle,
/// wrong for a time loop. Production callers ask for `Rows` (or `Jit`)
/// explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Lowering {
    /// Stack-bytecode interpreter dispatched once per grid point — the
    /// reference implementation.
    #[default]
    PerPoint,
    /// Register-IR programs evaluated over whole innermost-dimension rows
    /// in vectorizable lane chunks (see [`crate::regir`] / [`crate::rows`]).
    Rows,
    /// Natively compiled code produced at run time by `perforad-jit` and
    /// resolved through the [`crate::native`] registry by plan
    /// fingerprint. When no native module is registered for the plan
    /// (no toolchain, or `prepare_schedule` was never called) execution
    /// silently falls back to [`Lowering::Rows`], which is
    /// bitwise-identical.
    Jit,
}

/// Parallel strategy for a run.
#[derive(Clone, Copy)]
pub enum Strategy<'a> {
    /// Single thread, in nest order.
    Serial,
    /// Gather-parallel on the given pool (no atomics). Errors on scatter plans.
    Parallel(&'a ThreadPool),
    /// Scatter-parallel: every `+=` is an atomic CAS add
    /// (`#pragma omp atomic`). Correct for any plan; slow under contention —
    /// which is the point of the paper's baseline.
    ParallelAtomic(&'a ThreadPool),
}

/// How to run a plan: a parallel [`Strategy`] plus a [`Lowering`].
///
/// ```
/// # use perforad_exec::{ExecMode, ThreadPool};
/// let pool = ThreadPool::new(2);
/// let _reference = ExecMode::serial();              // per-point interpreter
/// let _fast = ExecMode::parallel(&pool).rows();     // vectorized rows
/// ```
#[derive(Clone, Copy)]
pub struct ExecMode<'a> {
    pub strategy: Strategy<'a>,
    pub lowering: Lowering,
}

impl<'a> ExecMode<'a> {
    /// Single thread, per-point interpreter (the reference mode). Chain
    /// [`ExecMode::rows`] unless the interpreter is what you mean to
    /// time: it is the slowest lowering by 5–9×.
    pub fn serial() -> Self {
        Strategy::Serial.into()
    }

    /// Gather-parallel on `pool` — on the per-point interpreter until
    /// [`ExecMode::rows`] or [`ExecMode::jit`] is chained, as for
    /// [`ExecMode::serial`].
    pub fn parallel(pool: &'a ThreadPool) -> Self {
        Strategy::Parallel(pool).into()
    }

    /// Scatter-parallel with atomic adds on `pool`.
    pub fn parallel_atomic(pool: &'a ThreadPool) -> Self {
        Strategy::ParallelAtomic(pool).into()
    }

    /// Switch to the vectorized row executor.
    pub fn rows(mut self) -> Self {
        self.lowering = Lowering::Rows;
        self
    }

    /// Switch to JIT-compiled native code (falls back to rows when no
    /// native module is registered for the plan).
    pub fn jit(mut self) -> Self {
        self.lowering = Lowering::Jit;
        self
    }
}

impl<'a> From<Strategy<'a>> for ExecMode<'a> {
    fn from(strategy: Strategy<'a>) -> Self {
        ExecMode {
            strategy,
            lowering: Lowering::default(),
        }
    }
}

/// The tiles [`run`] executes, in nest order: each non-empty nest's box
/// cut along its outermost dimension into at most `chunks` slabs of whole
/// rows (one slab — the whole box — when `chunks` is 1).
fn job_tiles(plan: &Plan, chunks: usize) -> Vec<Tile> {
    let mut tiles = Vec::new();
    for (k, nest) in plan.nests.iter().enumerate() {
        if nest.empty {
            continue;
        }
        let rows = nest.hi[0] - nest.lo[0] + 1;
        let size = (rows + chunks as i64 - 1) / chunks as i64;
        let mut s = nest.lo[0];
        while s <= nest.hi[0] {
            let e = (s + size - 1).min(nest.hi[0]);
            let (mut lo, mut hi) = (nest.lo.clone(), nest.hi.clone());
            (lo[0], hi[0]) = (s, e);
            tiles.push(Tile { nest: k, lo, hi });
            s = e + 1;
        }
    }
    tiles
}

/// Execute `plan` against `ws` the way `mode` asks.
///
/// [`Strategy::Serial`] runs each nest's whole box in nest order on the
/// calling thread. [`Strategy::Parallel`] needs a gather-only plan
/// ([`ExecError::ScatterNeedsAtomics`] otherwise); for adjoint plans from
/// [`crate::kernel::compile_adjoint`] the nests are disjoint, so all
/// `threads × 4` outer-dimension chunks of every nest go through the
/// pool's work queue in one region, without barriers.
/// [`Strategy::ParallelAtomic`] is correct for any plan.
pub fn run(plan: &Plan, ws: &mut Workspace, mode: ExecMode<'_>) -> Result<ExecStats, ExecError> {
    let (pool, atomic) = match mode.strategy {
        Strategy::Serial => (None, false),
        Strategy::Parallel(_) if !plan.gather_only => return Err(ExecError::ScatterNeedsAtomics),
        Strategy::Parallel(pool) => (Some(pool), false),
        Strategy::ParallelAtomic(pool) => (Some(pool), true),
    };
    let runner = TileRunner::pin(plan, ws, atomic)?.with_lowering(mode.lowering);
    let tiles = job_tiles(plan, pool.map_or(1, |p| p.size() * 4));
    let run_one = |k: usize, scratch: &mut TileScratch| {
        // SAFETY: the job tiles partition every nest, each tile index runs
        // once (in order, or handed to one worker by the work queue), and
        // concurrent tiles write disjoint sets — a gather plan's disjoint
        // nests write only their centre points — or atomically.
        unsafe { runner.run_tile(&tiles[k], scratch) }
    };
    match pool {
        None => {
            let mut scratch = runner.scratch();
            (0..tiles.len()).for_each(|k| run_one(k, &mut scratch));
        }
        Some(pool) => pool.work_queue(tiles.len(), |_| runner.scratch(), run_one),
    }
    Ok(ExecStats {
        points: plan.points(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::kernel::{compile_adjoint, compile_adjoint_opts, compile_nest};
    use crate::workspace::Binding;
    use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions, LoopNest};
    use perforad_symbolic::{ix, Array, Idx, Symbol};

    fn paper_nest() -> LoopNest {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let (u, c, r) = (Array::new("u"), Array::new("c"), Array::new("r"));
        make_loop_nest(
            &r.at(ix![&i]),
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

    #[test]
    fn primal_matches_reference() {
        let (mut ws, bind) = setup(32);
        let plan = compile_nest(&paper_nest(), &ws, &bind).unwrap();
        let stats = run(&plan, &mut ws, ExecMode::serial()).unwrap();
        assert_eq!(stats.points, 31);
        // Reference computation.
        let u = ws.grid("u").clone();
        let c = ws.grid("c").clone();
        let r = ws.grid("r");
        for i in 1..=31usize {
            let expect =
                c.get(&[i]) * (2.0 * u.get(&[i - 1]) - 3.0 * u.get(&[i]) + 4.0 * u.get(&[i + 1]));
            assert!((r.get(&[i]) - expect).abs() < 1e-14);
        }
        assert_eq!(r.get(&[0]), 0.0, "boundary untouched");
    }

    #[test]
    fn parallel_gather_is_bitwise_deterministic() {
        let (mut ws1, bind) = setup(101);
        let plan = compile_nest(&paper_nest(), &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = setup(101);
        let pool = ThreadPool::new(4);
        run(&plan, &mut ws2, ExecMode::parallel(&pool)).unwrap();
        assert_eq!(ws1.grid("r").max_abs_diff(ws2.grid("r")), 0.0);
    }

    #[test]
    fn rows_match_interpreter_bitwise_on_primal_and_adjoint() {
        let (mut ws1, bind) = setup(101);
        let plan = compile_nest(&paper_nest(), &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let (mut ws2, _) = setup(101);
        run(&plan, &mut ws2, ExecMode::serial().rows()).unwrap();
        assert_eq!(ws1.grid("r").max_abs_diff(ws2.grid("r")), 0.0);

        let pool = ThreadPool::new(4);
        let (mut ws3, _) = setup(101);
        run(&plan, &mut ws3, ExecMode::parallel(&pool).rows()).unwrap();
        assert_eq!(ws1.grid("r").max_abs_diff(ws3.grid("r")), 0.0);

        // Adjoint, serial interpreter vs parallel rows.
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (mut wa1, _) = setup(101);
        let aplan = compile_adjoint(&adj, &wa1, &bind).unwrap();
        run(&aplan, &mut wa1, ExecMode::serial()).unwrap();
        let (mut wa2, _) = setup(101);
        run(&aplan, &mut wa2, ExecMode::parallel(&pool).rows()).unwrap();
        assert_eq!(wa1.grid("u_b").max_abs_diff(wa2.grid("u_b")), 0.0);
    }

    #[test]
    fn rows_match_interpreter_on_guarded_and_padded_adjoints() {
        use perforad_core::BoundaryStrategy;
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let n = 57;
        for strategy in [BoundaryStrategy::Guarded, BoundaryStrategy::Padded] {
            let adj = paper_nest()
                .adjoint(&act, &AdjointOptions::default().with_strategy(strategy))
                .unwrap();
            let (mut ws1, bind) = setup(n);
            // Padded semantics need the seed zero outside the primal range.
            ws1.grid_mut("r_b").set(&[0], 0.0);
            ws1.grid_mut("r_b").set(&[n], 0.0);
            let mut ws2 = ws1.clone();
            let plan = compile_adjoint(&adj, &ws1, &bind).unwrap();
            run(&plan, &mut ws1, ExecMode::serial()).unwrap();
            run(&plan, &mut ws2, ExecMode::serial().rows()).unwrap();
            assert_eq!(
                ws1.grid("u_b").max_abs_diff(ws2.grid("u_b")),
                0.0,
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn rows_match_interpreter_with_cse_temporaries() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (mut ws1, bind) = setup(64);
        let plan = compile_adjoint_opts(&adj, &ws1, &bind, true).unwrap();
        let mut ws2 = ws1.clone();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();
        run(&plan, &mut ws2, ExecMode::serial().rows()).unwrap();
        assert_eq!(ws1.grid("u_b").max_abs_diff(ws2.grid("u_b")), 0.0);
    }

    #[test]
    fn exec_mode_dispatch_covers_rows() {
        // Every Strategy × Lowering against the serial interpreter, on a
        // gather primal and a scatter adjoint. Integer-valued data keeps
        // the atomic scatter exact whatever order its adds land in; an
        // unprepared Jit runs on rows.
        let n = 45;
        let build = || {
            Workspace::new()
                .with("u", Grid::from_fn(&[n + 1], |ix| (ix[0] % 7) as f64))
                .with("c", Grid::from_fn(&[n + 1], |ix| (ix[0] % 3 + 1) as f64))
                .with("r", Grid::zeros(&[n + 1]))
                .with("u_b", Grid::zeros(&[n + 1]))
                .with(
                    "r_b",
                    Grid::from_fn(&[n + 1], |ix| (ix[0] % 5) as f64 - 2.0),
                )
        };
        let bind = Binding::new().size("n", n as i64);
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let primal = compile_nest(&paper_nest(), &build(), &bind).unwrap();
        let scatter = paper_nest().scatter_adjoint(&act).unwrap();
        let scatter = compile_nest(&scatter, &build(), &bind).unwrap();
        assert!(primal.gather_only && !scatter.gather_only);
        let pool = ThreadPool::new(2);
        for (plan, out) in [(&primal, "r"), (&scatter, "u_b")] {
            let mut reference = build();
            run(plan, &mut reference, ExecMode::serial()).unwrap();
            assert!(reference.grid(out).sum() != 0.0);
            let strategies = [
                ("serial", Strategy::Serial),
                ("parallel", Strategy::Parallel(&pool)),
                ("atomic", Strategy::ParallelAtomic(&pool)),
            ];
            for (tag, strategy) in strategies {
                for lowering in [Lowering::PerPoint, Lowering::Rows, Lowering::Jit] {
                    let mut ws = build();
                    let got = run(plan, &mut ws, ExecMode { strategy, lowering });
                    if tag == "parallel" && !plan.gather_only {
                        assert_eq!(got.unwrap_err(), ExecError::ScatterNeedsAtomics);
                        continue;
                    }
                    assert_eq!(got.unwrap().points, plan.points());
                    assert_eq!(
                        ws.grid(out).max_abs_diff(reference.grid(out)),
                        0.0,
                        "{out}: {tag} {lowering:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn job_tiles_partition_every_nest_exactly_once() {
        // Per rank: a tall nest, one with fewer rows than 4 × threads, an
        // empty one; chunk counts for serial (1) and 1–16 threads.
        let names = ["i", "j", "k"];
        for rank in 1..=3 {
            let counters: Vec<Symbol> = names[..rank].iter().map(Symbol::new).collect();
            let at: Vec<Idx> = counters.iter().map(|c| Idx::sym(c.clone())).collect();
            let mk = |lo0: i64, hi0: i64| {
                let mut bounds = vec![(Idx::constant(1), Idx::constant(3)); rank];
                bounds[0] = (Idx::constant(lo0), Idx::constant(hi0));
                let (w, u) = (Array::new("w"), Array::new("u"));
                make_loop_nest(
                    &w.at(at.clone()),
                    u.at(at.clone()),
                    counters.clone(),
                    bounds,
                )
                .unwrap()
            };
            let dims = &[48, 5, 5][..rank];
            let ws = Workspace::new()
                .with("u", Grid::zeros(dims))
                .with("w", Grid::zeros(dims));
            let nests = [mk(1, 37), mk(40, 42), mk(45, 44)];
            let plan = crate::kernel::compile_nests(&nests, &ws, &Binding::new(), false).unwrap();
            assert!(plan.nests[2].empty);
            for chunks in [1, 4, 8, 16, 64] {
                let tiles = job_tiles(&plan, chunks);
                assert!(tiles.windows(2).all(|w| w[0].nest <= w[1].nest));
                for (k, nest) in plan.nests.iter().enumerate() {
                    let mine: Vec<&Tile> = tiles.iter().filter(|t| t.nest == k).collect();
                    let rows = nest.hi[0] - nest.lo[0] + 1;
                    if nest.empty {
                        assert!(mine.is_empty());
                        continue;
                    }
                    assert!(!mine.is_empty() && mine.len() <= chunks);
                    if rows <= chunks as i64 {
                        assert_eq!(mine.len() as i64, rows, "one row per tile");
                    }
                    // Whole-row slabs, back to back from the first row to
                    // the last.
                    let mut next = nest.lo[0];
                    for t in mine {
                        assert_eq!(t.lo[0], next);
                        assert!(t.hi[0] >= t.lo[0]);
                        assert_eq!((&t.lo[1..], &t.hi[1..]), (&nest.lo[1..], &nest.hi[1..]));
                        next = t.hi[0] + 1;
                    }
                    assert_eq!(next, nest.hi[0] + 1);
                }
                let covered: u64 = tiles.iter().map(Tile::points).sum();
                assert_eq!(covered, plan.points(), "rank {rank}, {chunks} chunks");
            }
            assert_eq!(
                job_tiles(&plan, 1).len(),
                2,
                "serial: one box per live nest"
            );
        }
    }

    #[test]
    fn a_pooled_run_counts_every_slab_exactly_once() {
        use crate::native::{register_native, NativeGroup};
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        // A native group that only tallies the boxes it is handed,
        // registered under this plan's fingerprint: no other test runs a
        // resolved Jit lowering, so `exec.tiles_jit` moves for this run's
        // slabs alone.
        static CALLS: AtomicU64 = AtomicU64::new(0);
        static POINTS: AtomicU64 = AtomicU64::new(0);
        unsafe extern "C" fn tally(lo: *const i64, hi: *const i64, _: *const *mut f64) {
            let rows = *hi.add(0) - *lo.add(0) + 1;
            let cols = *hi.add(1) - *lo.add(1) + 1;
            CALLS.fetch_add(1, Relaxed);
            POINTS.fetch_add((rows * cols) as u64, Relaxed);
        }
        let (i, j) = (Symbol::new("i"), Symbol::new("j"));
        let nest = make_loop_nest(
            &Array::new("slab_w").at(ix![&i, &j]),
            0.25 * Array::new("slab_u").at(ix![&i, &j]),
            vec![i.clone(), j.clone()],
            vec![
                (Idx::constant(1), Idx::constant(37)),
                (Idx::constant(1), Idx::constant(3)),
            ],
        )
        .unwrap();
        let mut ws = Workspace::new()
            .with("slab_u", Grid::zeros(&[40, 5]))
            .with("slab_w", Grid::zeros(&[40, 5]));
        let plan = compile_nest(&nest, &ws, &Binding::new()).unwrap();
        register_native(
            plan.fingerprint(),
            std::sync::Arc::new(NativeGroup::new(vec![tally], None)),
        );
        let pool = ThreadPool::new(2);
        let slabs = job_tiles(&plan, pool.size() * 4).len() as u64;
        let jit = perforad_obs::counter("exec.tiles_jit");
        perforad_obs::set_enabled(true);
        let before = jit.get();
        run(&plan, &mut ws, ExecMode::parallel(&pool).jit()).unwrap();
        let counted = jit.get() - before;
        perforad_obs::set_enabled(false);
        assert_eq!(slabs, 8);
        assert_eq!(CALLS.load(Relaxed), slabs, "every slab ran once");
        assert_eq!(POINTS.load(Relaxed), plan.points());
        assert_eq!(counted, slabs, "every slab counted once");
    }

    #[test]
    fn adjoint_programs_dedup_across_nests() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (ws, bind) = setup(64);
        let plan = compile_adjoint(&adj, &ws, &bind).unwrap();
        // The disjoint decomposition repeats shifted copies of the same
        // RHS: the program cache must collapse them.
        assert!(
            plan.unique_programs() < plan.statements(),
            "{} unique of {} statements",
            plan.unique_programs(),
            plan.statements()
        );
    }

    #[test]
    fn gather_adjoint_equals_scatter_adjoint() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let nest = paper_nest();
        let n = 64usize;

        // Gather adjoint (PerforAD) in parallel.
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let (mut ws_g, bind) = setup(n);
        let plan_g = compile_adjoint(&adj, &ws_g, &bind).unwrap();
        let pool = ThreadPool::new(3);
        run(&plan_g, &mut ws_g, ExecMode::parallel(&pool)).unwrap();

        // Scatter adjoint (conventional) serial.
        let sc = nest.scatter_adjoint(&act).unwrap();
        let (mut ws_s, _) = setup(n);
        let plan_s = compile_nest(&sc, &ws_s, &bind).unwrap();
        run(&plan_s, &mut ws_s, ExecMode::serial()).unwrap();

        let d = ws_g.grid("u_b").max_abs_diff(ws_s.grid("u_b"));
        assert!(d < 1e-13, "gather vs scatter adjoint differ by {d}");

        // Scatter adjoint with atomics in parallel agrees too.
        let (mut ws_a, _) = setup(n);
        run(&plan_s, &mut ws_a, ExecMode::parallel_atomic(&pool)).unwrap();
        let d = ws_g.grid("u_b").max_abs_diff(ws_a.grid("u_b"));
        assert!(d < 1e-13, "gather vs atomic scatter differ by {d}");

        // Row executor over the scatter plan with atomics agrees as well.
        let (mut ws_r, _) = setup(n);
        run(&plan_s, &mut ws_r, ExecMode::parallel_atomic(&pool).rows()).unwrap();
        let d = ws_g.grid("u_b").max_abs_diff(ws_r.grid("u_b"));
        assert!(d < 1e-13, "gather vs atomic scatter rows differ by {d}");
    }

    #[test]
    fn parallel_rejects_scatter_without_atomics() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let sc = paper_nest().scatter_adjoint(&act).unwrap();
        let (mut ws, bind) = setup(16);
        let plan = compile_nest(&sc, &ws, &bind).unwrap();
        let pool = ThreadPool::new(2);
        assert_eq!(
            run(&plan, &mut ws, ExecMode::parallel(&pool)).unwrap_err(),
            ExecError::ScatterNeedsAtomics
        );
        assert_eq!(
            run(&plan, &mut ws, ExecMode::parallel(&pool).rows()).unwrap_err(),
            ExecError::ScatterNeedsAtomics
        );
    }

    #[test]
    fn padded_adjoint_matches_disjoint() {
        use perforad_core::BoundaryStrategy;
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let nest = paper_nest();
        let n = 48;

        let (mut ws_d, bind) = setup(n);
        let adj_d = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let plan_d = compile_adjoint(&adj_d, &ws_d, &bind).unwrap();
        run(&plan_d, &mut ws_d, ExecMode::serial()).unwrap();

        // Padded run needs r_b zero outside the primal output range [1, n-1]
        // — index 0 and n must be zero; our seed cos(0)=1 at 0 violates it,
        // so zero them first.
        let (mut ws_p, _) = setup(n);
        {
            let rb = ws_p.grid_mut("r_b");
            rb.set(&[0], 0.0);
            rb.set(&[n], 0.0);
        }
        let (mut ws_d2, _) = setup(n);
        {
            let rb = ws_d2.grid_mut("r_b");
            rb.set(&[0], 0.0);
            rb.set(&[n], 0.0);
        }
        run(&plan_d, &mut ws_d2, ExecMode::serial()).unwrap();

        let adj_p = nest
            .adjoint(
                &act,
                &AdjointOptions::default().with_strategy(BoundaryStrategy::Padded),
            )
            .unwrap();
        let plan_p = compile_adjoint(&adj_p, &ws_p, &bind).unwrap();
        run(&plan_p, &mut ws_p, ExecMode::serial()).unwrap();

        let d = ws_p.grid("u_b").max_abs_diff(ws_d2.grid("u_b"));
        assert!(d < 1e-13, "padded vs disjoint differ by {d}");
    }

    #[test]
    fn guarded_adjoint_matches_disjoint() {
        use perforad_core::BoundaryStrategy;
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let nest = paper_nest();
        let n = 48;

        let (mut ws_d, bind) = setup(n);
        let adj_d = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let plan_d = compile_adjoint(&adj_d, &ws_d, &bind).unwrap();
        run(&plan_d, &mut ws_d, ExecMode::serial()).unwrap();

        let (mut ws_g, _) = setup(n);
        let adj_g = nest
            .adjoint(
                &act,
                &AdjointOptions::default().with_strategy(BoundaryStrategy::Guarded),
            )
            .unwrap();
        let plan_g = compile_adjoint(&adj_g, &ws_g, &bind).unwrap();
        let pool = ThreadPool::new(2);
        run(&plan_g, &mut ws_g, ExecMode::parallel(&pool)).unwrap();

        let d = ws_g.grid("u_b").max_abs_diff(ws_d.grid("u_b"));
        assert!(d < 1e-13, "guarded vs disjoint differ by {d}");
    }
}
