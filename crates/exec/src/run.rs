//! Plan execution: [`run_tiling`] is the one tile driver, and [`run`] cuts
//! a plan into slabs for it; an [`ExecMode`] picks serial, pool-parallel
//! (gather) or pool-parallel with atomics (scatter), each with any of three
//! lowerings.
//!
//! Parallelisation follows the paper's OpenMP usage: the outermost loop
//! dimension is chunked across threads. A gather plan's iterations write
//! only their centre points, so the chunks — whole-row slabs of the plan's
//! hull — go into one parallel region with no barriers (§3.3.4). Scatter
//! plans race unless each update is atomic; [`Strategy::ParallelAtomic`]
//! is the `#pragma omp atomic` equivalent whose cost the paper's
//! "Atomics" series measures.
//!
//! Orthogonally to the parallel strategy, a run uses one of three
//! lowerings ([`Lowering`]) of each statement's one register program: the
//! per-point evaluator (the reference every property suite compares
//! against), the vectorized row executor ([`crate::rows`]), or
//! JIT-compiled native code resolved through the [`crate::native`]
//! registry (`perforad-jit` populates it; a missing entry falls back to
//! the row executor). All produce bitwise-identical results.

use crate::error::ExecError;
use crate::kernel::Plan;
use crate::native::{native_lookup, NativeGroup};
use crate::pool::ThreadPool;
use crate::tile::{check_slot, tile_plan, Buffers, Tile, TileRunner, TileScratch, Tiling};
use crate::workspace::{GridId, Workspace};
use std::sync::Arc;

/// Execution statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Iteration points executed (statements may be several per point).
    pub points: u64,
}

/// How the executor runs each statement's [`crate::RegProgram`].
///
/// The default is the **per-point reference**, several times slower than
/// [`Lowering::Rows`] on the paper's stencils: right for a test oracle,
/// wrong for a time loop. Production callers ask for `Rows` (or `Jit`)
/// explicitly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Lowering {
    /// The program evaluated one grid point at a time, guards and padding
    /// checked at every point — the reference implementation.
    #[default]
    PerPoint,
    /// The program evaluated over whole innermost-dimension rows in
    /// vectorizable lane chunks (see [`crate::rows`]).
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

/// How [`run_tiling`] assigns tiles to pool workers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TilePolicy {
    /// Tiles are pre-assigned to workers by longest-processing-time
    /// balancing of their point counts (OpenMP `schedule(static)` in
    /// spirit: zero runtime coordination).
    Static,
    /// Workers pull tiles from the pool's work queue as they finish
    /// (OpenMP `schedule(dynamic)`), absorbing the irregular boundary
    /// tiles without idling.
    #[default]
    Dynamic,
}

/// How to run a plan: a parallel [`Strategy`] plus a [`Lowering`].
///
/// ```
/// # use perforad_exec::{ExecMode, ThreadPool};
/// let pool = ThreadPool::new(2);
/// let _reference = ExecMode::serial();              // per-point reference
/// let _fast = ExecMode::parallel(&pool).rows();     // vectorized rows
/// ```
#[derive(Clone, Copy)]
pub struct ExecMode<'a> {
    pub strategy: Strategy<'a>,
    pub lowering: Lowering,
}

impl<'a> ExecMode<'a> {
    /// Single thread, [`Lowering::PerPoint`] (the reference mode). Chain
    /// [`ExecMode::rows`] unless the reference is what you mean to time:
    /// it is the slowest lowering, several times slower than rows.
    pub fn serial() -> Self {
        Strategy::Serial.into()
    }

    /// Gather-parallel on `pool` — on the per-point reference until
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

/// The tiles [`run`] executes: the plan's iteration hull cut along its
/// outermost dimension into at most `chunks` slabs of whole rows (one
/// slab — the whole hull — when `chunks` is 1), slabs that hold no point
/// dropped.
fn job_tiles(plan: &Plan, chunks: usize) -> Tiling {
    let mut edges = vec![i64::MAX; plan.rank];
    if let Some((lo, hi)) = plan.hull() {
        edges[0] = (hi[0] - lo[0] + chunks as i64) / chunks as i64;
    }
    tile_plan(plan, &edges)
}

/// Execute `plan` against `ws` the way `mode` asks.
///
/// [`Strategy::Serial`] runs the whole hull as one tile on the calling
/// thread: each nest's whole box, in nest order. [`Strategy::Parallel`]
/// needs a gather-only plan ([`ExecError::ScatterNeedsAtomics`]
/// otherwise); all `threads × 4` outer-dimension slabs of the hull go
/// through the pool's work queue in one region, without barriers.
/// [`Strategy::ParallelAtomic`] is correct for any plan.
pub fn run(plan: &Plan, ws: &mut Workspace, mode: ExecMode<'_>) -> Result<ExecStats, ExecError> {
    let chunks = match mode.strategy {
        Strategy::Serial => 1,
        Strategy::Parallel(pool) | Strategy::ParallelAtomic(pool) => pool.size() * 4,
    };
    let tiles = job_tiles(plan, chunks);
    run_tiling(plan, &tiles, ws, mode, TilePolicy::Dynamic)
}

/// Run every tile of `tiling`, cut from `plan` by [`tile_plan`], against
/// `ws`: in tiling order on the calling thread ([`Strategy::Serial`]), or
/// on the pool through its work queue ([`TilePolicy::Dynamic`]) or in
/// pre-assigned LPT bins ([`TilePolicy::Static`]).
///
/// Binds `plan` to `ws` and runs it once: [`BoundPlan::new`], then
/// [`BoundPlan::run`], which checks fact F3 of [`crate::tile`] — a plan
/// that is not gather-only runs only with atomic writes, or as a single
/// tile on the calling thread; anything else is
/// [`ExecError::ScatterNeedsAtomics`], before any tile runs. (Even
/// serially, two tiles of a scatter plan would reorder the updates to one
/// point.)
///
/// # Panics
///
/// When a tile's rank is not the plan's, or its box escapes the plan's
/// iteration hull: the tiling was cut for another plan.
pub fn run_tiling(
    plan: &Plan,
    tiling: &Tiling,
    ws: &mut Workspace,
    mode: ExecMode<'_>,
    policy: TilePolicy,
) -> Result<ExecStats, ExecError> {
    BoundPlan::new(plan, ws, mode.lowering)?.run(plan, tiling, ws, mode.strategy, policy)
}

/// A plan bound to a workspace layout: the place of each of its arrays in
/// the workspace (its slot table), its native entry, and the serial tile
/// scratch — the rows lane file included — resolved once, so that a run
/// only re-points the slots' base pointers by place, checks them, and
/// runs tiles: no name lookup, no registry lock, and serially no
/// allocation (a pooled run gives each worker scratch of its own).
/// [`run_tiling`] binds and runs once; a time loop binds each kernel when
/// it builds its state and runs it every step, swapping grids in and out
/// of the workspace by [`GridId`] between runs. There is one executor:
/// both go through [`BoundPlan::run`].
///
/// Every run re-checks what a swap can change — a shared grid in a
/// written slot ([`ExecError::SharedWrite`]), a grid of other extents
/// ([`ExecError::DimsMismatch`]) — and a run against another plan, or a
/// workspace of another layout, binds afresh first.
#[derive(Clone)]
pub struct BoundPlan {
    /// [`Plan`]'s id: what this was bound for.
    plan: u64,
    layout: u64,
    /// Per plan slot, where the workspace holds its array.
    ids: Vec<GridId>,
    bufs: Buffers,
    lowering: Lowering,
    /// The plan's native entry, once resolved (Jit only).
    native: Option<Arc<NativeGroup>>,
    /// Scratch for serial runs (a pooled run gives each worker its own).
    serial: TileScratch,
}

// SAFETY: the raw pointers in `bufs` are only dereferenced inside `run`,
// after `Buffers::pin` has re-pointed every one of them into the workspace
// `run` borrows mutably for the whole run; between runs they are stale and
// never read. Everything else a `BoundPlan` holds is plain data, and `run`
// takes `&mut self`, so sharing `&BoundPlan` across threads reaches none
// of it.
unsafe impl Send for BoundPlan {}
// SAFETY: as for `Send`: no `&self` method dereferences a pointer.
unsafe impl Sync for BoundPlan {}

impl BoundPlan {
    /// Bind `plan` to `ws`'s layout for runs on `lowering`: find each of
    /// its arrays, refuse a shared grid in a written slot or a grid of
    /// other extents, resolve the native entry (Jit), and size the serial
    /// scratch.
    pub fn new(plan: &Plan, ws: &Workspace, lowering: Lowering) -> Result<BoundPlan, ExecError> {
        let mut ids = Vec::with_capacity(plan.arrays.len());
        for (k, name) in plan.arrays.iter().enumerate() {
            let id = ws
                .id(name.name())
                .ok_or_else(|| crate::error::unknown(name))?;
            check_slot(plan, k, ws.slot(id))?;
            ids.push(id);
        }
        let native = match lowering {
            Lowering::Jit => native_lookup(plan.fingerprint()),
            _ => None,
        };
        let bufs = Buffers::for_plan(plan);
        let serial = TileRunner {
            plan,
            bufs: &bufs,
            atomic: false,
            lowering,
            native: native.as_deref(),
        }
        .scratch();
        Ok(BoundPlan {
            plan: plan.id,
            layout: ws.layout(),
            ids,
            bufs,
            lowering,
            native,
            serial,
        })
    }

    /// Whether this is a Jit binding that has resolved no native module,
    /// so its runs went on rows (the same bits, slower): a *degraded*
    /// execution, as `jit.degraded_fallbacks` counts them.
    pub fn degraded(&self) -> bool {
        self.lowering == Lowering::Jit && self.native.is_none()
    }

    /// Run every tile of `tiling`, cut from `plan` by [`tile_plan`],
    /// against `ws`, as [`run_tiling`] documents: the one tile driver, and
    /// the one place fact F3 of [`crate::tile`] is checked.
    ///
    /// A Jit binding that found no native module runs on rows — the same
    /// bits — and counts one `jit.degraded_fallbacks` per run; it looks
    /// the module up again on every run until one is registered.
    ///
    /// # Panics
    ///
    /// As [`run_tiling`].
    pub fn run(
        &mut self,
        plan: &Plan,
        tiling: &Tiling,
        ws: &mut Workspace,
        strategy: Strategy<'_>,
        policy: TilePolicy,
    ) -> Result<ExecStats, ExecError> {
        let (pool, atomic) = match strategy {
            Strategy::Serial => (None, false),
            Strategy::Parallel(pool) => (Some(pool), false),
            Strategy::ParallelAtomic(pool) => (Some(pool), true),
        };
        if !plan.gather_only && !atomic && (pool.is_some() || tiling.len() > 1) {
            return Err(ExecError::ScatterNeedsAtomics);
        }
        if (self.plan, self.layout) != (plan.id, ws.layout()) {
            *self = BoundPlan::new(plan, ws, self.lowering)?;
        }
        self.bufs.pin(plan, ws, &self.ids)?;
        if self.lowering == Lowering::Jit && !atomic && self.native.is_none() {
            self.native = native_lookup(plan.fingerprint());
            if self.native.is_none() {
                // A Jit lowering that resolves no native module is a
                // *degraded* execution (bitwise-identical, slower): a
                // failed or skipped JIT prepare, or an evicted
                // registration. Counted once per run, not per tile.
                perforad_obs::counter("jit.degraded_fallbacks").inc();
            }
        }
        let BoundPlan {
            bufs,
            native,
            serial,
            lowering,
            ..
        } = self;
        let runner = TileRunner {
            plan,
            bufs,
            atomic,
            lowering: *lowering,
            native: native.as_deref().filter(|_| !atomic),
        };
        let run_one = |k: usize, scratch: &mut TileScratch| {
            // SAFETY: F3, checked above: concurrent tiles are disjoint boxes
            // of one tiling of a gather plan, or the writes are atomic.
            // Each index runs once — in order, handed to one worker by the
            // work queue, or in the one LPT bin holding it.
            unsafe { runner.run_tile(&tiling[k], scratch) }
        };
        // The binding's own scratch counts its tiles when the run ends, a
        // pool worker's when it drops.
        match (pool, policy) {
            (None, _) => {
                if !serial.fits(&runner) {
                    *serial = runner.scratch();
                }
                (0..tiling.len()).for_each(|k| run_one(k, serial));
                serial.flush();
            }
            (Some(pool), TilePolicy::Dynamic) => {
                pool.work_queue(tiling.len(), |_| runner.scratch(), run_one)
            }
            (Some(pool), TilePolicy::Static) => {
                let bins = lpt_assign(tiling, pool.size());
                pool.run(&|tid| {
                    let mut scratch = runner.scratch();
                    bins[tid].iter().for_each(|&k| run_one(k, &mut scratch));
                });
            }
        }
        Ok(ExecStats {
            points: tiling.points(),
        })
    }
}

/// Longest-processing-time assignment of tiles to `workers` bins (tiles
/// are already sorted descending by points).
fn lpt_assign(tiles: &[Tile], workers: usize) -> Vec<Vec<usize>> {
    let workers = workers.max(1);
    let mut bins: Vec<Vec<usize>> = vec![Vec::new(); workers];
    let mut load = vec![0u64; workers];
    for (k, t) in tiles.iter().enumerate() {
        let w = (0..workers).min_by_key(|&w| load[w]).unwrap();
        bins[w].push(k);
        load[w] += t.points().max(1);
    }
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::kernel::{compile_adjoint, compile_nest};
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
    fn exec_mode_dispatch_covers_rows() {
        let _lock = crate::obs_lock();
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
        // Per rank: a tall nest, one with fewer rows than 4 × threads two
        // rows past it and narrower in the inner dimensions, an empty one;
        // chunk counts for serial (1) and 1–16 threads.
        let names = ["i", "j", "k"];
        for rank in 1..=3 {
            let counters: Vec<Symbol> = names[..rank].iter().map(Symbol::new).collect();
            let at: Vec<Idx> = counters.iter().map(|c| Idx::sym(c.clone())).collect();
            let mk = |lo0: i64, hi0: i64, lo: i64| {
                let mut bounds = vec![(Idx::constant(lo), Idx::constant(3)); rank];
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
            let nests = [mk(1, 37, 1), mk(40, 42, 2), mk(45, 44, 1)];
            let plan = crate::kernel::compile_nests(&nests, &ws, &Binding::new(), false).unwrap();
            assert!(plan.nests[2].empty);
            let (hull_lo, hull_hi) = plan.hull().unwrap();
            assert_eq!((hull_lo[0], hull_hi[0]), (1, 42));
            for chunks in [1, 4, 8, 16, 64] {
                let tiles = job_tiles(&plan, chunks);
                assert!(!tiles.is_empty() && tiles.len() <= chunks);
                // Whole-row slabs of the hull, in LPT order; a slab between
                // the nests (rows 38–39) holds no point and is dropped.
                assert!(tiles.windows(2).all(|w| w[0].points() >= w[1].points()));
                let mut by_row = tiles.to_vec();
                by_row.sort_by_key(|t| t.lo()[0]);
                let mut next = hull_lo[0];
                for t in &by_row {
                    assert!(t.lo()[0] >= next && t.hi()[0] >= t.lo()[0], "{t:?}");
                    assert_eq!((&t.lo()[1..], &t.hi()[1..]), (&hull_lo[1..], &hull_hi[1..]));
                    assert!(t.points() > 0);
                    next = t.hi()[0] + 1;
                }
                // Every row of every live nest lies in exactly one slab.
                for nest in plan.nests.iter().filter(|n| !n.empty) {
                    for row in nest.lo[0]..=nest.hi[0] {
                        let holding = tiles
                            .iter()
                            .filter(|t| (t.lo()[0]..=t.hi()[0]).contains(&row))
                            .count();
                        assert_eq!(holding, 1, "rank {rank}, {chunks} chunks, row {row}");
                    }
                }
                if chunks >= 64 {
                    assert_eq!(tiles.len(), 40, "one row per slab, 40 live rows");
                }
                let covered: u64 = tiles.iter().map(Tile::points).sum();
                assert_eq!(covered, plan.points(), "rank {rank}, {chunks} chunks");
            }
            assert_eq!(job_tiles(&plan, 1).len(), 1, "serial: the whole hull");
        }
    }

    #[test]
    fn a_pooled_run_counts_every_slab_exactly_once() {
        let _lock = crate::obs_lock();
        use crate::native::{register_native, NativeGroup};
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        // A native group that only tallies the boxes it is handed,
        // registered under this plan's fingerprint: no other test runs a
        // resolved Jit lowering, so `exec.tiles_jit` moves for this run's
        // slabs alone.
        static CALLS: AtomicU64 = AtomicU64::new(0);
        static POINTS: AtomicU64 = AtomicU64::new(0);
        /// Counts one call and the points of its rank-2 box.
        ///
        /// # Safety
        ///
        /// `lo` and `hi` hold two bounds each.
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
            // SAFETY: `tally` touches no array, only the bounds it is
            // handed.
            std::sync::Arc::new(unsafe { NativeGroup::new(tally, None) }),
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

    /// Bound once, a plan re-checks at every run what swapping grids in
    /// and out of the workspace can change — in release builds too: a grid
    /// of other extents is `DimsMismatch` at the next run, and a shared
    /// grid in a slot the plan writes `SharedWrite`, both before any tile
    /// runs; swapped back, the binding runs as before.
    #[test]
    fn a_bound_plan_rechecks_a_swapped_grid_at_the_next_run() {
        use std::sync::Arc;
        let (mut ws, bind) = setup(32);
        let plan = compile_nest(&paper_nest(), &ws, &bind).unwrap();
        let tiles = job_tiles(&plan, 1);
        let mut bound = BoundPlan::new(&plan, &ws, Lowering::Rows).unwrap();
        let mut run = |ws: &mut Workspace| {
            let policy = TilePolicy::Dynamic;
            bound.run(&plan, &tiles, ws, Strategy::Serial, policy)
        };
        run(&mut ws).unwrap();
        let want = ws.grid("r").clone();

        let r = ws.id("r").unwrap();
        let mut wide = Grid::full(&[40], 7.0);
        std::mem::swap(ws.grid_at_mut(r), &mut wide);
        let mismatch = ExecError::DimsMismatch {
            array: "r".into(),
            expected: vec![33],
            got: vec![40],
        };
        assert_eq!(run(&mut ws).unwrap_err(), mismatch);
        assert_eq!(ws.grid("r").sum(), 7.0 * 40.0, "no tile ran");
        std::mem::swap(ws.grid_at_mut(r), &mut wide);
        ws.grid_mut("r").fill(0.0);
        run(&mut ws).unwrap();
        assert_eq!(ws.grid("r").max_abs_diff(&want), 0.0);

        // A read slot may be shared; a written one may not.
        let u = Arc::new(ws.grid("u").clone());
        ws.insert_shared("u", u);
        run(&mut ws).unwrap();
        ws.insert_shared("r", Arc::new(Grid::zeros(&[33])));
        let refused = ExecError::SharedWrite("r".into());
        assert_eq!(run(&mut ws).unwrap_err(), refused);
        let rebound = BoundPlan::new(&plan, &ws, Lowering::Rows);
        assert_eq!(rebound.err(), Some(refused));
    }

    /// A Jit binding that finds no native module runs on rows and counts
    /// one `jit.degraded_fallbacks` per run — whatever its tile count — and
    /// runs native from the first run after a module is registered, though
    /// it was bound before. Its tiles count once per run, when the run
    /// ends, not when the binding drops.
    #[test]
    fn a_bound_jit_plan_degrades_once_per_run_until_a_module_is_registered() {
        use crate::native::{register_native, NativeGroup};
        use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
        let _lock = crate::obs_lock();
        static CALLS: AtomicU64 = AtomicU64::new(0);
        /// Counts one call.
        ///
        /// # Safety
        ///
        /// Touches nothing it is handed.
        unsafe extern "C" fn tally(_: *const i64, _: *const i64, _: *const *mut f64) {
            CALLS.fetch_add(1, Relaxed);
        }
        let i = Symbol::new("i");
        let nest = make_loop_nest(
            &Array::new("late_w").at(ix![&i]),
            0.5 * Array::new("late_u").at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::constant(30))],
        )
        .unwrap();
        let mut ws = Workspace::new()
            .with("late_u", Grid::full(&[32], 2.0))
            .with("late_w", Grid::zeros(&[32]));
        let plan = compile_nest(&nest, &ws, &Binding::new()).unwrap();
        let tiles = tile_plan(&plan, &[8]);
        assert_eq!(tiles.len(), 4);
        let mut bound = BoundPlan::new(&plan, &ws, Lowering::Jit).unwrap();
        let [degraded, jit] =
            ["jit.degraded_fallbacks", "exec.tiles_jit"].map(perforad_obs::counter);
        perforad_obs::set_enabled(true);
        for _ in 0..2 {
            let before = [degraded.get(), jit.get()];
            let stats = bound.run(
                &plan,
                &tiles,
                &mut ws,
                Strategy::Serial,
                TilePolicy::Dynamic,
            );
            assert_eq!(stats.unwrap().points, 30);
            assert_eq!(degraded.get() - before[0], 1, "one fallback per run");
            assert_eq!(jit.get(), before[1]);
            assert!(bound.degraded());
        }
        assert_eq!(ws.grid("late_w").sum(), 30.0, "rows ran the plan");
        register_native(
            plan.fingerprint(),
            // SAFETY: `tally` touches no array.
            std::sync::Arc::new(unsafe { NativeGroup::new(tally, None) }),
        );
        for run in 1..=2 {
            let before = [degraded.get(), jit.get()];
            bound
                .run(
                    &plan,
                    &tiles,
                    &mut ws,
                    Strategy::Serial,
                    TilePolicy::Dynamic,
                )
                .unwrap();
            assert_eq!(degraded.get(), before[0], "native now");
            assert!(!bound.degraded());
            assert_eq!(
                jit.get() - before[1],
                4,
                "run {run}: its four tiles, counted"
            );
            assert_eq!(CALLS.load(Relaxed), 4 * run);
        }
        let counted = jit.get();
        drop(bound);
        assert_eq!(jit.get(), counted, "nothing left to count at drop");
        perforad_obs::set_enabled(false);
    }

    #[test]
    fn lpt_balances_loads() {
        let (ws, bind) = setup(32);
        let plan = compile_nest(&paper_nest(), &ws, &bind).unwrap();
        let tiles: Vec<Tile> = (0..10)
            .map(|k| Tile::new(&plan, vec![1], vec![10 - (k % 3)]))
            .collect();
        let bins = lpt_assign(&tiles, 3);
        assert_eq!(bins.iter().map(Vec::len).sum::<usize>(), 10);
        let loads: Vec<u64> = bins
            .iter()
            .map(|b| b.iter().map(|&k| tiles[k].points()).sum())
            .collect();
        let (lo, hi) = (loads.iter().min().unwrap(), loads.iter().max().unwrap());
        assert!(hi - lo <= 10, "loads {loads:?}");
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
