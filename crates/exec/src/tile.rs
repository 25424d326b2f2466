//! Tile-granular execution: the one place plan points execute.
//!
//! `TileRunner` holds a plan's pinned workspace buffers and executes
//! [`Tile`]s — boxes of the plan's iteration hull, the bounding box of its
//! non-empty nests — from any thread. [`tile_plan`] is the one tiler: it
//! cuts a hull into a [`Tiling`], and [`crate::BoundPlan::run`] is the one
//! driver, pinning the buffers and handing a tiling's tiles to a runner
//! ([`crate::run_tiling`] binds a plan and runs it once). A tile runs every
//! nest's part of its box: nest by nest in plan order on the interpreter
//! and the row executor, in one call of the group's native entry on the
//! JIT.
//!
//! # The gather proof
//!
//! Every `unsafe` that runs plan points — here, in `rows`, `bytecode`,
//! `native` and `perforad-jit` — rests on three facts, each established in
//! one place:
//!
//! - **F1.** Every write index is `counter + c` per dimension and in
//!   range, and every unpadded read is in range, over each statement's
//!   effective bounds (nest ∩ guard); a padded read checks its indices
//!   before it loads. [`crate::kernel::compile_nests_opts`] proves it, and
//!   a tile runs only its box ∩ each nest's bounds.
//! - **F2.** No nest reads an array the plan writes
//!   ([`ExecError::AliasedWrite`] at plan compile time). Stores never feed
//!   loads, so running a plan box by box reorders points, never the
//!   updates to one point: the bits are the nest-by-nest order's. A
//!   workspace may bind an array *shared* — an `Arc<Grid>` that a
//!   checkpoint snapshot or another workspace holds too
//!   ([`Workspace::insert_shared`]). `Buffers::pin`, on every run, takes
//!   only a read pointer from a shared array and refuses a plan that
//!   writes one ([`ExecError::SharedWrite`]) before any tile runs, so
//!   under F2 a shared grid is only ever read, by any number of tiles and
//!   workspaces at once.
//! - **F3.** Tiles run concurrently only when they come from one
//!   [`Tiling`] of a gather-only plan — every `c` is zero, so a tile
//!   writes inside its box, and a tiling's boxes are disjoint — or when
//!   every `+=` is atomic. [`crate::BoundPlan::run`], the one caller of
//!   `TileRunner::run_tile`, checks it before any tile runs; a scatter
//!   plan runs plainly only as one tile on the calling thread.
//!
//! Outside this crate a [`Plan`] and a [`Tiling`] are read-only, so no safe
//! code can edit a proof after it was made. The other `unsafe` — the
//! pool's job pointer, the atomic slice cast, the JIT's `dlopen` — rests
//! on no plan fact and states its own invariant.

use crate::atomic::AtomicF64;
use crate::bytecode::{ArrayView, PointEnv, Program};
use crate::error::ExecError;
use crate::kernel::{NestPlan, Plan};
use crate::native::NativeGroup;
use crate::rows::{self, RowScratch};
use crate::run::Lowering;
use crate::workspace::{GridId, Slot, Workspace};
use std::sync::OnceLock;

/// Dispatch counters: which lowering actually executed each tile
/// (`exec.tiles_interp` / `exec.tiles_rows` / `exec.tiles_jit`), making
/// rows-vs-jit fallback visible without a debugger. Counted per worker,
/// not per tile: a [`TileScratch`] tallies the tiles it ran and adds the
/// total once, when it drops.
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

/// A box of a plan's iteration hull (inclusive bounds, outermost
/// dimension first) and the number of plan points inside it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tile {
    lo: Vec<i64>,
    hi: Vec<i64>,
    points: u64,
}

impl Tile {
    /// The box `[lo, hi]` of `plan`'s iteration space.
    pub(crate) fn new(plan: &Plan, lo: Vec<i64>, hi: Vec<i64>) -> Tile {
        let points = plan.points_in(&lo, &hi);
        Tile { lo, hi, points }
    }

    /// Per-dimension inclusive lower corner.
    pub fn lo(&self) -> &[i64] {
        &self.lo
    }

    /// Per-dimension inclusive upper corner.
    pub fn hi(&self) -> &[i64] {
        &self.hi
    }

    /// Iteration points of the plan inside the tile: each nest's overlap
    /// with the box, summed.
    pub fn points(&self) -> u64 {
        self.points
    }
}

/// The disjoint boxes [`tile_plan`] cut from one plan's hull, in LPT order
/// (descending point count). Only the tiler builds one — which is fact F3's
/// "disjoint" — and it reads as a slice of [`Tile`]s.
#[derive(Clone, Debug)]
pub struct Tiling(Vec<Tile>);

impl std::ops::Deref for Tiling {
    type Target = [Tile];

    fn deref(&self) -> &[Tile] {
        &self.0
    }
}

impl Tiling {
    /// Iteration points over every tile.
    pub fn points(&self) -> u64 {
        self.0.iter().map(Tile::points).sum()
    }
}

#[derive(Clone)]
pub(crate) struct Buffers {
    pub(crate) views: Vec<ArrayView>,
    /// One base pointer per slot. Written through only for slots the plan
    /// writes, which are all owned by the workspace; a shared slot's
    /// pointer is only read through.
    pub(crate) write_ptrs: Vec<*mut f64>,
    pub(crate) lens: Vec<usize>,
}

impl Buffers {
    /// Tables for `plan`'s slots, pointing nowhere until [`Buffers::pin`].
    pub(crate) fn for_plan(plan: &Plan) -> Buffers {
        let slots = plan.arrays.len();
        let null = std::ptr::null_mut();
        Buffers {
            views: vec![ArrayView { ptr: null, len: 0 }; slots],
            write_ptrs: vec![null; slots],
            lens: vec![0; slots],
        }
    }

    /// Point every slot of `plan` at its grid in `ws` — slot `k` at
    /// `ids[k]`: a write pointer into each owned grid, a read pointer into
    /// each shared one. A plan that writes a shared grid, or a grid whose
    /// extents are not the plan's, is refused here, before any tile runs.
    /// Allocates nothing.
    pub(crate) fn pin(
        &mut self,
        plan: &Plan,
        ws: &mut Workspace,
        ids: &[GridId],
    ) -> Result<(), ExecError> {
        for (k, &id) in ids.iter().enumerate() {
            let slot = ws.slot_mut(id);
            check_slot(plan, k, slot)?;
            let ptr = match slot {
                Slot::Owned(g) => g.as_mut_slice().as_mut_ptr(),
                // SAFETY: a read pointer, cast to `*mut` only to share one
                // table with the written slots. F2 keeps every nest's reads
                // off the arrays the plan writes, and `check_slot` keeps
                // the plan's writes off shared arrays, so nothing writes
                // through it. Nothing writes the grid any other way while
                // tiles run either: the workspace stays borrowed for the
                // run and holds a reference, so the `Arc` keeps the grid
                // alive and `Arc::get_mut` refuses every other holder.
                Slot::Shared(g) => g.as_slice().as_ptr() as *mut f64,
            };
            let len = plan.dims.iter().product();
            self.views[k] = ArrayView { ptr, len };
            self.write_ptrs[k] = ptr;
            self.lens[k] = len;
        }
        Ok(())
    }
}

/// Whether `plan`'s slot `k` may be bound to `slot`: a shared grid only
/// when the plan does not write it ([`ExecError::SharedWrite`]), and any
/// grid only with the plan's extents ([`ExecError::DimsMismatch`]).
pub(crate) fn check_slot(plan: &Plan, k: usize, slot: &Slot) -> Result<(), ExecError> {
    let name = || plan.arrays[k].name().to_string();
    let grid = match slot {
        Slot::Shared(_) if plan.written[k] => return Err(ExecError::SharedWrite(name())),
        Slot::Owned(g) => g,
        Slot::Shared(g) => g,
    };
    if grid.dims() != plan.dims.as_slice() {
        return Err(ExecError::DimsMismatch {
            array: name(),
            expected: plan.dims.clone(),
            got: grid.dims().to_vec(),
        });
    }
    Ok(())
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
        // SAFETY: F1 puts `target` in range; F3 makes concurrent writes
        // disjoint or atomic.
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

/// The largest `size` of any statement's stack program in `plan`.
fn max_over(plan: &Plan, size: fn(&Program) -> usize) -> usize {
    let stmts = plan.nests.iter().flat_map(|n| &n.stmts);
    stmts.map(|s| size(&s.prog)).max().unwrap_or(0)
}

/// Per-thread scratch state for tile execution (loop counters, a nest's
/// part of the tile, VM stack, CSE temporaries, register lane file), sized
/// for the one lowering it will run: one per worker, from
/// [`TileRunner::scratch`].
///
/// It also tallies the tiles run through it and adds the tally to its
/// lowering's dispatch counter at the end of each region it served, or
/// when it drops — one counter update per worker per region.
#[derive(Clone)]
pub(crate) struct TileScratch {
    counters: Vec<i64>,
    /// One nest's part of the running tile (its box ∩ the nest's bounds).
    part_lo: Vec<i64>,
    part_hi: Vec<i64>,
    stack: Vec<f64>,
    tmps: Vec<f64>,
    rows: RowScratch,
    tiles: u64,
    /// Index into [`tile_counters`] of the lowering these tiles ran on.
    dispatch: usize,
}

impl TileScratch {
    /// Add the tiles run through this scratch to its lowering's dispatch
    /// counter, and start the tally over.
    pub(crate) fn flush(&mut self) {
        if self.tiles > 0 && perforad_obs::enabled() {
            tile_counters()[self.dispatch].add(self.tiles);
        }
        self.tiles = 0;
    }

    /// Whether this scratch serves `runner`'s lowering.
    pub(crate) fn fits(&self, runner: &TileRunner<'_>) -> bool {
        self.dispatch == runner.dispatch()
    }
}

impl Drop for TileScratch {
    fn drop(&mut self) {
        self.flush();
    }
}

/// A plan with its workspace buffers pinned, ready to execute tiles.
///
/// Built only inside [`crate::BoundPlan::run`], which holds the
/// workspace's mutable borrow while the runner lives, so no safe code can
/// alias the grids while tiles run.
pub(crate) struct TileRunner<'a> {
    pub(crate) plan: &'a Plan,
    pub(crate) bufs: &'a Buffers,
    pub(crate) atomic: bool,
    pub(crate) lowering: Lowering,
    /// JIT-compiled native code for this plan, resolved from the
    /// process-wide [`crate::native`] registry when the lowering is
    /// [`Lowering::Jit`] and the writes are plain (generated code writes
    /// plainly); `None` means Jit tiles fall back to rows.
    pub(crate) native: Option<&'a NativeGroup>,
}

// SAFETY: F3 — the buffers are only written through `run_tile`, whose one
// caller runs tiles concurrently only when their write sets are disjoint
// or the runner is atomic; F2 keeps every read off the written arrays.
unsafe impl Sync for TileRunner<'_> {}

impl<'a> TileRunner<'a> {
    /// Index into [`tile_counters`] of the lowering this runner's tiles
    /// run on: the interpreter, rows (Jit without a module included), or
    /// native code.
    fn dispatch(&self) -> usize {
        match self.lowering {
            Lowering::PerPoint => 0,
            Lowering::Jit if self.native.is_some() => 2,
            Lowering::Rows | Lowering::Jit => 1,
        }
    }

    /// Fresh per-thread scratch sized for this plan and this runner's
    /// lowering.
    pub(crate) fn scratch(&self) -> TileScratch {
        let dispatch = self.dispatch();
        let (stack, tmps, rows) = match dispatch {
            0 => (
                Vec::with_capacity(max_over(self.plan, Program::max_stack)),
                vec![0.0; max_over(self.plan, Program::n_tmps)],
                RowScratch::empty(),
            ),
            1 => (Vec::new(), Vec::new(), RowScratch::for_plan(self.plan)),
            // A resolved native module never touches the other paths.
            _ => (Vec::new(), Vec::new(), RowScratch::empty()),
        };
        // The native entry walks and clamps on its own: no counters, no
        // nest parts.
        let walked = if dispatch == 2 { 0 } else { self.plan.rank };
        TileScratch {
            counters: vec![0i64; walked],
            part_lo: vec![0i64; walked],
            part_hi: vec![0i64; walked],
            stack,
            tmps,
            rows,
            tiles: 0,
            dispatch,
        }
    }

    /// Execute every plan point inside `tile`: each nest's part of the box
    /// (the box ∩ the nest's compiled bounds), nest by nest in plan order,
    /// or in one call of the group's native entry, which clamps the same
    /// way.
    ///
    /// # Panics
    ///
    /// When the tile's rank is not the plan's, or its box (unless empty)
    /// does not lie inside the plan's iteration hull: such a tile was cut
    /// for another plan. Checked in every build — a few comparisons per
    /// tile, not per point.
    ///
    /// # Safety
    ///
    /// Fact F3: tiles run concurrently on one runner must come from one
    /// [`Tiling`] of a gather-only plan, or the runner must be atomic.
    /// Anything else is a data race. [`crate::BoundPlan::run`] is the one
    /// caller, and checks it.
    pub(crate) unsafe fn run_tile(&self, tile: &Tile, scratch: &mut TileScratch) {
        let rank = self.plan.rank;
        let (lo, hi) = (&tile.lo[..], &tile.hi[..]);
        assert!(lo.len() == rank && hi.len() == rank, "tile rank mismatch");
        if (0..rank).any(|d| hi[d] < lo[d]) {
            return;
        }
        let inside = self.plan.hull().is_some_and(|(hull_lo, hull_hi)| {
            (0..rank).all(|d| lo[d] >= hull_lo[d] && hi[d] <= hull_hi[d])
        });
        assert!(inside, "tile box escapes the plan's iteration hull");
        scratch.tiles += 1;
        if let (Lowering::Jit, Some(native)) = (self.lowering, &self.native) {
            // SAFETY: F1 — the module was registered under this plan's
            // fingerprint, so its entry reads `rank` bounds (checked above)
            // and this plan's slots, and clamps every nest's part to that
            // nest's bounds; F3 is this method's own contract.
            return native.run_box(lo, hi, &self.bufs.write_ptrs);
        }
        for nest in self.plan.nests.iter().filter(|n| !n.empty) {
            let mut part = true;
            for d in 0..rank {
                scratch.part_lo[d] = lo[d].max(nest.lo[d]);
                scratch.part_hi[d] = hi[d].min(nest.hi[d]);
                part &= scratch.part_lo[d] <= scratch.part_hi[d];
            }
            if !part {
                continue;
            }
            match self.lowering {
                Lowering::PerPoint => self.walk_part(nest, 0, 0, scratch),
                Lowering::Rows | Lowering::Jit => rows::exec_box_rows(
                    self.plan,
                    nest,
                    self.bufs,
                    &scratch.part_lo,
                    &scratch.part_hi,
                    self.atomic,
                    &mut scratch.counters,
                    &mut scratch.rows,
                ),
            }
        }
    }

    /// Interpret every point of `nest`'s part of the running tile
    /// (`scratch.part_*`, inside the nest's compiled bounds).
    fn walk_part(&self, nest: &NestPlan, dim: usize, base: isize, scratch: &mut TileScratch) {
        let rank = self.plan.rank;
        let (lo, hi) = (scratch.part_lo[dim], scratch.part_hi[dim]);
        let stride = self.plan.strides[dim] as isize;
        if dim + 1 == rank {
            for k in lo..=hi {
                scratch.counters[dim] = k;
                exec_point(
                    self.plan,
                    nest,
                    self.bufs,
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
                self.walk_part(nest, dim + 1, base + k as isize * stride, scratch);
            }
        }
    }
}

/// Cut `plan`'s iteration hull into boxes of at most `edges[d]` points
/// per dimension, dropping boxes that hold no plan point. Edges may exceed
/// the hull (one box spans it). The boxes come in LPT order: descending
/// point count, so full interior tiles go out first and the stragglers are
/// the thin ones at the hull's faces; equal counts keep their odometer
/// order, innermost dimension fastest.
pub fn tile_plan(plan: &Plan, edges: &[i64]) -> Tiling {
    let Some((hull_lo, hull_hi)) = plan.hull() else {
        return Tiling(Vec::new());
    };
    let rank = plan.rank;
    assert_eq!(edges.len(), rank, "tile rank mismatch");
    assert!(edges.iter().all(|&t| t >= 1), "tile edges must be >= 1");
    let mut tiles = Vec::new();
    let mut lo = hull_lo.to_vec();
    loop {
        let hi: Vec<i64> = (0..rank)
            .map(|d| lo[d].saturating_add(edges[d] - 1).min(hull_hi[d]))
            .collect();
        let tile = Tile::new(plan, lo.clone(), hi);
        if tile.points > 0 {
            tiles.push(tile);
        }
        // Advance the tile odometer, innermost dimension fastest.
        let mut d = rank;
        loop {
            if d == 0 {
                tiles.sort_by_key(|t| std::cmp::Reverse(t.points));
                return Tiling(tiles);
            }
            d -= 1;
            lo[d] = lo[d].saturating_add(edges[d]);
            if lo[d] <= hull_hi[d] {
                break;
            }
            lo[d] = hull_lo[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use crate::kernel::compile_nest;
    use crate::pool::ThreadPool;
    use crate::run::{run, run_tiling, ExecMode, TilePolicy};
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

    /// Every point of the box `[lo, hi]`, innermost dimension fastest.
    fn box_points(lo: &[i64], hi: &[i64]) -> Vec<Vec<i64>> {
        let mut points = vec![Vec::new()];
        for d in 0..lo.len() {
            points = points
                .into_iter()
                .flat_map(|p| {
                    (lo[d]..=hi[d]).map(move |k| {
                        let mut q = p.clone();
                        q.push(k);
                        q
                    })
                })
                .collect();
        }
        points
    }

    /// Per rank 1–3, a plan of two nests with a gap between them and an
    /// empty third, cut with edges from 1 to past the hull: the tiles lie
    /// in the hull, hold at least one point each, count their points as
    /// the nests' overlaps, and cover every nest point exactly once.
    #[test]
    fn tiles_cover_the_box_disjointly() {
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
            let dims = &[16, 5, 5][..rank];
            let ws = Workspace::new()
                .with("u", Grid::zeros(dims))
                .with("w", Grid::zeros(dims));
            let nests = [mk(1, 9, 1), mk(12, 14, 2), mk(20, 19, 0)];
            let plan = crate::kernel::compile_nests(&nests, &ws, &Binding::new(), false).unwrap();
            let (hull_lo, hull_hi) = plan.hull().unwrap();
            assert_eq!((hull_lo[0], hull_hi[0]), (1, 14));
            for edges in [[1, 1, 1], [2, 3, 1], [5, 2, 2], [100, 100, 100]] {
                let edges = &edges[..rank];
                let tiles = tile_plan(&plan, edges);
                let mut seen = std::collections::BTreeMap::new();
                for t in tiles.iter() {
                    assert!(t.points() >= 1, "rank {rank}, edges {edges:?}: {t:?}");
                    for d in 0..rank {
                        assert!(t.lo()[d] >= hull_lo[d] && t.hi()[d] <= hull_hi[d]);
                        assert!(t.hi()[d] - t.lo()[d] < edges[d]);
                    }
                    let mut inside = 0;
                    for nest in plan.nests.iter().filter(|n| !n.empty) {
                        let lo: Vec<i64> = (0..rank).map(|d| t.lo()[d].max(nest.lo[d])).collect();
                        let hi: Vec<i64> = (0..rank).map(|d| t.hi()[d].min(nest.hi[d])).collect();
                        for p in box_points(&lo, &hi) {
                            inside += 1;
                            *seen.entry(p).or_insert(0u32) += 1;
                        }
                    }
                    assert_eq!(inside, t.points());
                }
                for nest in plan.nests.iter().filter(|n| !n.empty) {
                    for p in box_points(&nest.lo, &nest.hi) {
                        assert_eq!(
                            seen.get(&p),
                            Some(&1),
                            "rank {rank}, edges {edges:?}: {p:?}"
                        );
                    }
                }
                assert_eq!(seen.len() as u64, plan.points());
            }
        }
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
        let tiling = tile_plan(&plan, &[7]);
        run_tiling(
            &plan,
            &tiling,
            &mut ws2,
            ExecMode::serial(),
            TilePolicy::Dynamic,
        )
        .unwrap();
        assert_eq!(ws1.grid("r").max_abs_diff(ws2.grid("r")), 0.0);
    }

    #[test]
    #[should_panic(expected = "tile box escapes the plan's iteration hull")]
    fn a_tile_outside_its_nest_is_refused_in_every_build() {
        // The plan's one nest is 1..=n-1 on a grid with room to spare, so
        // the escaping row n is still inside the arrays. Each nest's part
        // of a tile is clamped to its bounds, so nothing would run there;
        // the box was cut for some other plan, and that is refused.
        let n = 37usize;
        let mut ws = Workspace::new()
            .with("u", Grid::zeros(&[n + 3]))
            .with("r", Grid::zeros(&[n + 3]));
        let plan = compile_nest(&nest_1d(), &ws, &Binding::new().size("n", n as i64)).unwrap();
        assert_eq!(plan.nests[0].hi, vec![n as i64 - 1]);
        let escaping = Tiling(vec![Tile::new(&plan, vec![1], vec![n as i64])]);
        let _ = run_tiling(
            &plan,
            &escaping,
            &mut ws,
            ExecMode::serial(),
            TilePolicy::Dynamic,
        );
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
        let tiling = tile_plan(&plan, &[7]);
        let mode = ExecMode::serial().rows();
        run_tiling(&plan, &tiling, &mut ws2, mode, TilePolicy::Dynamic).unwrap();
        assert_eq!(ws1.grid("r").max_abs_diff(ws2.grid("r")), 0.0);
    }

    #[test]
    fn atomic_tiled_scatter_matches_serial() {
        use perforad_core::ActivityMap;
        // Scatter adjoint (writes at ±1 offsets): tiles overlap in their
        // write sets, so they run in parallel only with atomic adds — and
        // must produce the same result as the serial executor.
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

        // Tiles from two workers, either policy; atomic adds keep it exact
        // (integer-valued data) despite overlapping writes. Without
        // atomics, the driver refuses.
        let tiling = tile_plan(&plan, &[7]);
        let pool = ThreadPool::new(2);
        let mut ws2 = build();
        for policy in [TilePolicy::Dynamic, TilePolicy::Static] {
            let refused = run_tiling(&plan, &tiling, &mut ws2, ExecMode::parallel(&pool), policy);
            assert_eq!(refused.unwrap_err(), ExecError::ScatterNeedsAtomics);
            let mut ws = build();
            run_tiling(
                &plan,
                &tiling,
                &mut ws,
                ExecMode::parallel_atomic(&pool),
                policy,
            )
            .unwrap();
            assert_eq!(ws1.grid("u_b").max_abs_diff(ws.grid("u_b")), 0.0);
        }
        let serial = run_tiling(
            &plan,
            &tiling,
            &mut ws2,
            ExecMode::serial(),
            TilePolicy::Dynamic,
        );
        assert_eq!(serial.unwrap_err(), ExecError::ScatterNeedsAtomics);
        let whole = tile_plan(&plan, &[1000]);
        run_tiling(
            &plan,
            &whole,
            &mut ws2,
            ExecMode::serial(),
            TilePolicy::Dynamic,
        )
        .unwrap();
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
        let tiles = tile_plan(&plan, &[6, 7]);
        let covered: u64 = tiles.iter().map(Tile::points).sum();
        assert_eq!(covered, plan.nests[0].points());
    }
}
