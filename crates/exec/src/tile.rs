//! Tile-granular execution: run arbitrary rectangular slices of a plan's
//! nests, in any order, from any thread.
//!
//! The executors in [`crate::run`] chunk only the outermost loop dimension
//! of one nest at a time. A fusion + tiling scheduler needs finer control:
//! cache-blocked sub-boxes of *several* nests interleaved in a single
//! parallel region. [`TileRunner`] is that entry point — it pins the
//! workspace buffers once and then executes individual [`Tile`]s; the
//! caller owns the policy (which tiles run concurrently, on which worker).
//!
//! Safety contract: `TileRunner::run_tile` writes without atomics, so
//! concurrently executed tiles must have disjoint write sets. For
//! gather-only plans that holds whenever the tiles' iteration boxes are
//! disjoint per nest and the nests' write regions are disjoint across nests
//! — exactly what `perforad-sched` proves before building a schedule.

use crate::error::ExecError;
use crate::kernel::Plan;
use crate::native::NativeGroup;
use crate::rows::{self, RowScratch};
use crate::run::{
    exec_point, make_buffers, max_stack, max_tmps, resolve_native, Buffers, Lowering,
};
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

/// Per-thread scratch state for tile execution (loop counters, VM stack,
/// CSE temporaries, register lane file). Create one per worker with
/// [`TileRunner::scratch`].
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
        Ok(TileRunner {
            plan,
            bufs: make_buffers(plan, ws)?,
            atomic: false,
            lowering: Lowering::default(),
            native: None,
        })
    }

    /// Pin `ws` with every `+=` performed as an atomic CAS add, lifting the
    /// disjointness requirement (the scatter baseline path).
    pub fn new_atomic(plan: &'a Plan, ws: &'a mut Workspace) -> Result<Self, ExecError> {
        Ok(TileRunner {
            plan,
            bufs: make_buffers(plan, ws)?,
            atomic: true,
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

    /// Execute every point of `tile`. The tile box must lie inside the
    /// nest's compiled bounds (debug-asserted); out-of-range boxes would
    /// void the compile-time range proof.
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
        debug_assert_eq!(tile.lo.len(), self.plan.rank);
        debug_assert!(
            tile.lo
                .iter()
                .zip(&tile.hi)
                .enumerate()
                .all(|(d, (l, h))| h < l || (*l >= nest.lo[d] && *h <= nest.hi[d])),
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
        nest: &crate::kernel::NestPlan,
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
