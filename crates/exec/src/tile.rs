//! Tile-granular execution: the one place plan points execute.
//!
//! [`TileRunner`] pins a plan's workspace buffers once and then executes
//! individual [`Tile`]s — rectangular slices of one nest — in any order,
//! from any thread; the caller owns the policy (which tiles run
//! concurrently, on which worker). [`crate::run()`] cuts whole-row slabs
//! of every nest and `perforad-sched` cuts cache-blocked sub-boxes of
//! fused groups; both hand them here. The runner owns the per-point
//! walker, the per-worker scratch and the lowering dispatch.
//!
//! Safety contract: `TileRunner::run_tile` writes without atomics, so
//! concurrently executed tiles must have disjoint write sets. For
//! gather-only plans that holds whenever the tiles' iteration boxes are
//! disjoint per nest and the nests' write regions are disjoint across nests
//! — exactly what `perforad-sched` proves before building a schedule.

use crate::atomic::AtomicF64;
use crate::bytecode::{ArrayView, PointEnv};
use crate::error::ExecError;
use crate::kernel::{NestPlan, Plan};
use crate::native::{native_lookup, NativeGroup};
use crate::rows::{self, RowScratch};
use crate::run::Lowering;
use crate::workspace::Workspace;
use std::sync::{Arc, OnceLock};

/// Dispatch counters: which lowering actually executed each tile
/// (`exec.tiles_interp` / `exec.tiles_rows` / `exec.tiles_jit`), making
/// rows-vs-jit fallback visible without a debugger.
fn tile_counters() -> &'static [perforad_obs::Counter; 3] {
    static C: OnceLock<[perforad_obs::Counter; 3]> = OnceLock::new();
    C.get_or_init(|| {
        [
            perforad_obs::counter("exec.tiles_interp"),
            perforad_obs::counter("exec.tiles_rows"),
            perforad_obs::counter("exec.tiles_jit"),
        ]
    })
}

/// A rectangular slice of one nest's iteration space (inclusive bounds,
/// outermost dimension first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Index of the nest (into `plan.nests`) this tile belongs to.
    pub nest: usize,
    /// Per-dimension inclusive lower corner.
    pub lo: Vec<i64>,
    /// Per-dimension inclusive upper corner.
    pub hi: Vec<i64>,
}

impl Tile {
    /// Number of iteration points in the tile.
    pub fn points(&self) -> u64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| if h < l { 0 } else { (h - l + 1) as u64 })
            .product()
    }
}

pub(crate) struct Buffers {
    pub(crate) views: Vec<ArrayView>,
    pub(crate) write_ptrs: Vec<*mut f64>,
    pub(crate) lens: Vec<usize>,
}

// SAFETY: `Buffers` is only shared across threads inside a `TileRunner`,
// whose `run_tile` contract guarantees disjoint writes (gather chunking /
// disjoint nests) or atomic writes. Reads never alias writes (checked at
// plan compile time).
unsafe impl Sync for Buffers {}

fn make_buffers(plan: &Plan, ws: &mut Workspace) -> Result<Buffers, ExecError> {
    let mut views = Vec::with_capacity(plan.arrays.len());
    let mut write_ptrs = Vec::with_capacity(plan.arrays.len());
    let mut lens = Vec::with_capacity(plan.arrays.len());
    for name in &plan.arrays {
        let g = ws
            .get_mut(name)
            .ok_or_else(|| crate::error::unknown(name))?;
        if g.dims() != plan.dims.as_slice() {
            return Err(ExecError::DimsMismatch {
                array: name.name().to_string(),
                expected: plan.dims.clone(),
                got: g.dims().to_vec(),
            });
        }
        let slice = g.as_mut_slice();
        lens.push(slice.len());
        views.push(ArrayView {
            ptr: slice.as_ptr(),
            len: slice.len(),
        });
        write_ptrs.push(slice.as_mut_ptr());
    }
    Ok(Buffers {
        views,
        write_ptrs,
        lens,
    })
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn exec_point(
    plan: &Plan,
    nest: &NestPlan,
    bufs: &Buffers,
    counters: &[i64],
    center: isize,
    atomic: bool,
    stack: &mut Vec<f64>,
    tmps: &mut [f64],
) {
    'stmt: for st in &nest.stmts {
        if let Some(g) = &st.guard {
            for (d, &(l, h)) in g.iter().enumerate() {
                if counters[d] < l || counters[d] > h {
                    continue 'stmt;
                }
            }
        }
        let env = PointEnv {
            arrays: &bufs.views,
            counters,
            dims: &plan.dims,
            strides: &plan.strides,
            center,
        };
        let v = st.prog.eval_with_tmps(&env, stack, tmps);
        let target = center + st.write_rel;
        debug_assert!(target >= 0 && (target as usize) < bufs.lens[st.out_slot]);
        let ptr = bufs.write_ptrs[st.out_slot];
        // SAFETY: target was proven in range by plan compilation; parallel
        // callers guarantee disjoint or atomic writes (see `Buffers`).
        unsafe {
            let p = ptr.offset(target);
            if st.overwrite {
                *p = v;
            } else if atomic {
                (*(p as *const AtomicF64)).fetch_add(v);
            } else {
                *p += v;
            }
        }
    }
}

/// Resolve the native module for a plan when the requested lowering is
/// Jit: a registered group with a matching nest count runs natively,
/// anything else (no registration, nest-count drift, atomic scatter —
/// generated code writes plainly) degrades to the bitwise-identical row
/// executor.
fn resolve_native(plan: &Plan, lowering: Lowering, atomic: bool) -> Option<Arc<NativeGroup>> {
    if lowering != Lowering::Jit || atomic {
        return None;
    }
    let native = native_lookup(plan.fingerprint()).filter(|g| g.nests() == plan.nests.len());
    if native.is_none() {
        // A Jit lowering that resolves no native module is a *degraded*
        // execution (bitwise-identical, slower): a failed/skipped JIT
        // prepare, a nest-count drift, or an evicted registration. Counted
        // once per runner, not per tile.
        perforad_obs::counter("jit.degraded_fallbacks").inc();
    }
    native
}

fn max_stack(plan: &Plan) -> usize {
    plan.nests
        .iter()
        .flat_map(|n| n.stmts.iter())
        .map(|s| s.prog.max_stack())
        .max()
        .unwrap_or(0)
}

fn max_tmps(plan: &Plan) -> usize {
    plan.nests
        .iter()
        .flat_map(|n| n.stmts.iter())
        .map(|s| s.prog.n_tmps())
        .max()
        .unwrap_or(0)
}

/// Per-thread scratch state for tile execution (loop counters, VM stack,
/// CSE temporaries, register lane file), sized for the one lowering it
/// will run. Create one per worker with [`TileRunner::scratch`].
pub struct TileScratch {
    counters: Vec<i64>,
    stack: Vec<f64>,
    tmps: Vec<f64>,
    rows: RowScratch,
}

/// A plan with its workspace buffers pinned, ready to execute tiles.
///
/// Holds the workspace's mutable borrow for its whole lifetime, so no safe
/// code can alias the grids while tiles run.
pub struct TileRunner<'a> {
    plan: &'a Plan,
    bufs: Buffers,
    atomic: bool,
    lowering: Lowering,
    /// JIT-compiled native code for this plan, resolved from the
    /// process-wide [`crate::native`] registry when the lowering is
    /// [`Lowering::Jit`]; `None` means Jit tiles fall back to rows.
    native: Option<Arc<NativeGroup>>,
}

// SAFETY: the buffers are only written through `run_tile`, whose contract
// requires concurrent tiles to have disjoint write sets (or `atomic` mode).
unsafe impl Sync for TileRunner<'_> {}

impl<'a> TileRunner<'a> {
    /// Pin `ws` for tile execution of `plan` with plain (non-atomic) writes.
    ///
    /// Concurrent `run_tile` calls must cover disjoint write sets; for
    /// gather-only plans, disjoint iteration boxes suffice.
    pub fn new(plan: &'a Plan, ws: &'a mut Workspace) -> Result<Self, ExecError> {
        Self::pin(plan, ws, false)
    }

    /// Pin `ws` with every `+=` performed as an atomic CAS add, lifting the
    /// disjointness requirement (the scatter baseline path).
    pub fn new_atomic(plan: &'a Plan, ws: &'a mut Workspace) -> Result<Self, ExecError> {
        Self::pin(plan, ws, true)
    }

    pub(crate) fn pin(
        plan: &'a Plan,
        ws: &'a mut Workspace,
        atomic: bool,
    ) -> Result<Self, ExecError> {
        Ok(TileRunner {
            plan,
            bufs: make_buffers(plan, ws)?,
            atomic,
            lowering: Lowering::default(),
            native: None,
        })
    }

    /// Select the lowering tiles run with (per-point interpreter,
    /// vectorized rows, or JIT native code); all are bitwise-identical.
    /// For [`Lowering::Jit`] the native module is resolved from the
    /// registry here, once per runner.
    pub fn with_lowering(mut self, lowering: Lowering) -> Self {
        self.lowering = lowering;
        self.native = resolve_native(self.plan, lowering, self.atomic);
        self
    }

    /// True when Jit tiles will actually run native code (a module is
    /// registered for this plan) rather than falling back to rows.
    pub fn jit_active(&self) -> bool {
        self.native.is_some()
    }

    /// Fresh per-thread scratch sized for this plan and this runner's
    /// lowering (create scratch *after* [`TileRunner::with_lowering`]).
    pub fn scratch(&self) -> TileScratch {
        let (stack, tmps, rows) = match self.lowering {
            Lowering::PerPoint => (
                Vec::with_capacity(max_stack(self.plan)),
                vec![0.0; max_tmps(self.plan)],
                RowScratch::empty(),
            ),
            // Jit with a resolved module never touches the rows path.
            Lowering::Jit if self.native.is_some() => (Vec::new(), Vec::new(), RowScratch::empty()),
            // Rows, or Jit falling back to rows (no module registered).
            Lowering::Rows | Lowering::Jit => {
                (Vec::new(), Vec::new(), RowScratch::for_plan(self.plan))
            }
        };
        TileScratch {
            counters: vec![0i64; self.plan.rank],
            stack,
            tmps,
            rows,
        }
    }

    /// The plan this runner executes.
    pub fn plan(&self) -> &Plan {
        self.plan
    }

    /// Execute every point of `tile`.
    ///
    /// # Panics
    ///
    /// When the tile box (unless empty) does not lie inside the nest's
    /// compiled bounds: the unchecked loads rest on the compile-time range
    /// proof, which covers exactly those bounds. Checked in every build —
    /// a few comparisons per tile, not per point.
    ///
    /// # Safety
    ///
    /// Tiles executed concurrently (from different threads on the same
    /// runner) must have pairwise-disjoint write sets, unless the runner
    /// was created with [`TileRunner::new_atomic`]. For gather-only plans
    /// disjoint iteration boxes suffice; across nests the write regions
    /// must also be disjoint — the dependence check in `perforad-sched`
    /// proves exactly this before building a schedule. Violating the
    /// contract is a data race (undefined behavior), which is why this
    /// method is `unsafe` even though single-threaded use is always sound.
    pub unsafe fn run_tile(&self, tile: &Tile, scratch: &mut TileScratch) {
        let nest = &self.plan.nests[tile.nest];
        let rank = self.plan.rank;
        assert!(
            tile.lo.len() == rank
                && tile.hi.len() == rank
                && (0..rank).all(|d| {
                    tile.hi[d] < tile.lo[d]
                        || (tile.lo[d] >= nest.lo[d] && tile.hi[d] <= nest.hi[d])
                }),
            "tile box escapes nest bounds"
        );
        if tile.points() == 0 {
            return;
        }
        if perforad_obs::enabled() {
            let [interp, rows_c, jit] = tile_counters();
            match self.lowering {
                Lowering::PerPoint => interp.inc(),
                Lowering::Jit if self.native.is_some() => jit.inc(),
                Lowering::Rows | Lowering::Jit => rows_c.inc(),
            }
        }
        match self.lowering {
            Lowering::PerPoint => self.walk_box(nest, tile, 0, 0, scratch),
            Lowering::Jit if self.native.is_some() => {
                // SAFETY (inner): the module was registered under this
                // plan's fingerprint, so the entry points match this
                // layout; the caller's contract (disjoint concurrent
                // write sets) is exactly this method's.
                self.native.as_ref().unwrap().run_box(
                    tile.nest,
                    &tile.lo,
                    &tile.hi,
                    &self.bufs.write_ptrs,
                )
            }
            Lowering::Rows | Lowering::Jit => rows::exec_box_rows(
                self.plan,
                nest,
                &self.bufs,
                &tile.lo,
                &tile.hi,
                self.atomic,
                &mut scratch.counters,
                &mut scratch.rows,
            ),
        }
    }

    fn walk_box(
        &self,
        nest: &NestPlan,
        tile: &Tile,
        dim: usize,
        base: isize,
        scratch: &mut TileScratch,
    ) {
        let rank = self.plan.rank;
        let (lo, hi) = (tile.lo[dim], tile.hi[dim]);
        let stride = self.plan.strides[dim] as isize;
        if dim + 1 == rank {
            for k in lo..=hi {
                scratch.counters[dim] = k;
                exec_point(
                    self.plan,
                    nest,
                    &self.bufs,
                    &scratch.counters,
                    base + k as isize * stride,
                    self.atomic,
                    &mut scratch.stack,
                    &mut scratch.tmps,
                );
            }
        } else {
            for k in lo..=hi {
                scratch.counters[dim] = k;
                self.walk_box(nest, tile, dim + 1, base + k as isize * stride, scratch);
            }
        }
    }
}

/// Split one nest's compiled iteration box into cache-blocked tiles of at
/// most `tile[d]` points per dimension.
pub fn tile_nest(plan: &Plan, nest_idx: usize, tile: &[i64]) -> Vec<Tile> {
    let nest = &plan.nests[nest_idx];
    if nest.empty {
        return Vec::new();
    }
    let rank = plan.rank;
    assert_eq!(tile.len(), rank, "tile rank mismatch");
    assert!(tile.iter().all(|&t| t >= 1), "tile edges must be >= 1");
    let mut tiles = Vec::new();
    let mut lo = nest.lo.clone();
    loop {
        let hi: Vec<i64> = (0..rank)
            .map(|d| (lo[d] + tile[d] - 1).min(nest.hi[d]))
            .collect();
        tiles.push(Tile {
            nest: nest_idx,
            lo: lo.clone(),
            hi,
        });
        // Advance the tile odometer, innermost dimension fastest.
        let mut d = rank;
        loop {
            if d == 0 {
                return tiles;
            }
            d -= 1;
            lo[d] += tile[d];
            if lo[d] <= nest.hi[d] {
                break;
            }
            lo[d] = nest.lo[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::kernel::compile_nest;
    use crate::run::{run, ExecMode};
    use crate::workspace::Binding;
    use perforad_core::make_loop_nest;
    use perforad_symbolic::{ix, Array, Idx, Symbol};

    fn nest_1d() -> perforad_core::LoopNest {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let u = Array::new("u");
        make_loop_nest(
            &Array::new("r").at(ix![&i]),
            2.0 * u.at(ix![&i - 1]) + u.at(ix![&i + 1]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(n) - 1)],
        )
        .unwrap()
    }

    #[test]
    fn tiles_cover_the_box_disjointly() {
        let n = 37usize;
        let ws = Workspace::new()
            .with("u", Grid::zeros(&[n + 1]))
            .with("r", Grid::zeros(&[n + 1]));
        let plan = compile_nest(&nest_1d(), &ws, &Binding::new().size("n", n as i64)).unwrap();
        let tiles = tile_nest(&plan, 0, &[5]);
        let mut seen = vec![0u32; n + 1];
        for t in &tiles {
            assert!(t.points() >= 1 && t.points() <= 5);
            for k in t.lo[0]..=t.hi[0] {
                seen[k as usize] += 1;
            }
        }
        for (k, &count) in seen.iter().enumerate().take(n).skip(1) {
            assert_eq!(count, 1, "index {k} covered {count} times");
        }
        assert_eq!(seen[0], 0);
        assert_eq!(seen[n], 0);
    }

    #[test]
    fn tiled_execution_matches_serial() {
        let n = 41usize;
        let build = || {
            Workspace::new()
                .with(
                    "u",
                    Grid::from_fn(&[n + 1], |ix| (ix[0] as f64 * 0.7).sin()),
                )
                .with("r", Grid::zeros(&[n + 1]))
        };
        let bind = Binding::new().size("n", n as i64);
        let mut ws1 = build();
        let plan = compile_nest(&nest_1d(), &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let mut ws2 = build();
        {
            let runner = TileRunner::new(&plan, &mut ws2).unwrap();
            let mut scratch = runner.scratch();
            for t in tile_nest(&plan, 0, &[7]) {
                // SAFETY: single-threaded execution cannot race.
                unsafe { runner.run_tile(&t, &mut scratch) };
            }
        }
        assert_eq!(ws1.grid("r").max_abs_diff(ws2.grid("r")), 0.0);
    }

    #[test]
    #[should_panic(expected = "tile box escapes nest bounds")]
    fn a_tile_outside_its_nest_is_refused_in_every_build() {
        // The nest is 1..=n-1 on a grid with room to spare, so the escaping
        // row n is still inside the arrays: without the check it would run
        // quietly, outside the range the plan was proven for.
        let n = 37usize;
        let mut ws = Workspace::new()
            .with("u", Grid::zeros(&[n + 3]))
            .with("r", Grid::zeros(&[n + 3]));
        let plan = compile_nest(&nest_1d(), &ws, &Binding::new().size("n", n as i64)).unwrap();
        assert_eq!(plan.nests[0].hi, vec![n as i64 - 1]);
        let runner = TileRunner::new(&plan, &mut ws).unwrap();
        let mut scratch = runner.scratch();
        let tile = Tile {
            nest: 0,
            lo: vec![1],
            hi: vec![n as i64],
        };
        // SAFETY: single-threaded execution cannot race.
        unsafe { runner.run_tile(&tile, &mut scratch) };
    }

    #[test]
    fn tiled_rows_execution_matches_serial_bitwise() {
        let n = 53usize;
        let build = || {
            Workspace::new()
                .with(
                    "u",
                    Grid::from_fn(&[n + 1], |ix| (ix[0] as f64 * 0.7).sin()),
                )
                .with("r", Grid::zeros(&[n + 1]))
        };
        let bind = Binding::new().size("n", n as i64);
        let mut ws1 = build();
        let plan = compile_nest(&nest_1d(), &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let mut ws2 = build();
        {
            let runner = TileRunner::new(&plan, &mut ws2)
                .unwrap()
                .with_lowering(Lowering::Rows);
            let mut scratch = runner.scratch();
            for t in tile_nest(&plan, 0, &[7]) {
                // SAFETY: single-threaded execution cannot race.
                unsafe { runner.run_tile(&t, &mut scratch) };
            }
        }
        assert_eq!(ws1.grid("r").max_abs_diff(ws2.grid("r")), 0.0);
    }

    #[test]
    fn atomic_tiled_scatter_matches_serial() {
        use perforad_core::ActivityMap;
        // Scatter adjoint (writes at ±1 offsets): tiles overlap in their
        // write sets, so the atomic runner must be used — and must produce
        // the same result as the serial executor.
        let n = 48usize;
        let i = Symbol::new("i");
        let nsym = Symbol::new("n");
        let u = Array::new("u");
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i]),
            2.0 * u.at(ix![&i - 1]) + u.at(ix![&i + 1]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(nsym) - 1)],
        )
        .unwrap();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let sc = nest.scatter_adjoint(&act).unwrap();
        let build = || {
            Workspace::new()
                .with("u", Grid::zeros(&[n + 1]))
                .with("r", Grid::zeros(&[n + 1]))
                .with("u_b", Grid::zeros(&[n + 1]))
                .with(
                    "r_b",
                    Grid::from_fn(&[n + 1], |ix| (ix[0] % 5) as f64 - 2.0),
                )
        };
        let bind = Binding::new().size("n", n as i64);
        let mut ws1 = build();
        let plan = compile_nest(&sc, &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();

        let mut ws2 = build();
        {
            let runner = TileRunner::new_atomic(&plan, &mut ws2).unwrap();
            let tiles = tile_nest(&plan, 0, &[7]);
            // Execute tiles from two threads; atomic adds keep it exact
            // (integer-valued data) despite overlapping writes.
            std::thread::scope(|s| {
                let (a, b) = tiles.split_at(tiles.len() / 2);
                let r = &runner;
                s.spawn(move || {
                    let mut scratch = r.scratch();
                    // SAFETY: the runner is in atomic mode, so overlapping
                    // writes are CAS adds.
                    a.iter()
                        .for_each(|t| unsafe { r.run_tile(t, &mut scratch) });
                });
                s.spawn(move || {
                    let mut scratch = r.scratch();
                    // SAFETY: as above (atomic mode).
                    b.iter()
                        .for_each(|t| unsafe { r.run_tile(t, &mut scratch) });
                });
            });
        }
        assert_eq!(ws1.grid("u_b").max_abs_diff(ws2.grid("u_b")), 0.0);
    }

    #[test]
    fn tile_2d_odometer_counts_points() {
        let n = 20usize;
        let (i, j) = (Symbol::new("i"), Symbol::new("j"));
        let nsym = Symbol::new("n");
        let u = Array::new("u");
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i, &j]),
            u.at(ix![&i, &j - 1]) + u.at(ix![&i, &j + 1]),
            vec![i.clone(), j.clone()],
            vec![
                (Idx::constant(0), Idx::sym(nsym.clone()) - 1),
                (Idx::constant(1), Idx::sym(nsym) - 2),
            ],
        )
        .unwrap();
        let ws = Workspace::new()
            .with("u", Grid::zeros(&[n, n]))
            .with("r", Grid::zeros(&[n, n]));
        let plan = compile_nest(&nest, &ws, &Binding::new().size("n", n as i64)).unwrap();
        let tiles = tile_nest(&plan, 0, &[6, 7]);
        let covered: u64 = tiles.iter().map(Tile::points).sum();
        assert_eq!(covered, plan.nests[0].points());
    }
}
