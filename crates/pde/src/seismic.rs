//! Seismic-imaging-style gradient driver — the application motivating the
//! paper's wave test case (§1, §4.1).
//!
//! A point source injects a Ricker-like wavelet into the 3-D wave equation;
//! the misfit is `J = ½‖u_T − d‖²` against observed data. The gradient of
//! `J` with respect to the velocity model `c` is assembled by running the
//! PerforAD gather adjoint of the single-step stencil backwards through
//! time (with `c` active).
//!
//! [`BatchPlan`] is the one gradient driver: `BatchPlan::new(..)` pays the
//! adjoint transform, autotune, and compilation **once** per grid shape,
//! and `.run(&batch)` evaluates every shot of a [`ShotBatch`] against it —
//! a single shot is a batch of one. Real surveys fire many shots against
//! one velocity model; the plan dispatches them across a shared pool —
//! whole shots per worker ([`BatchStrategy::ShotParallel`]) or the tuned
//! grid-parallel sweep shot-by-shot ([`BatchStrategy::GridParallel`]),
//! whichever the perf model's batch term prices cheaper. Every shot's
//! output is bitwise the same whatever the batch around it.
//!
//! Every shot runs one reverse sweep: the `perforad-ckpt` replay driver
//! ([`checkpointed_adjoint_plan`]) under a [`CheckpointPlan`]. Checkpoint
//! placement is a budget, not a second code path. A store-all shot — plans
//! shorter than [`CKPT_THRESHOLD_STEPS`], or forced with
//! [`BatchOptions::checkpointed`] — is [`CheckpointPlan::store_all`] on a
//! memory store: every state is saved on the way forward and nothing is
//! recomputed. A checkpointed shot streams the forward pass under a
//! snapshot budget chosen by the autotuner (jointly with the stencil
//! schedule, via `TuneOptions::with_time_loop`), which bounds live memory;
//! the plan recomputes the fewest steps any placement can under it
//! (revolve's exact split), through the same tuned fused/JIT schedule.
//! Every budget gives the **bitwise-identical** gradient: checkpointing
//! changes where states come from, never how steps execute.
//!
//! A time step costs what its kernel costs. The primal step is a
//! one-nest [`Schedule`] tiled, lowered and driven like the tuned adjoint
//! — through the JIT tier when the tuner chose it for the adjoint, as a
//! second native artifact keyed by the primal plan's own fingerprint, and
//! on the row executor when that cannot be prepared. Each kernel is bound
//! to its workspace once, when the shot state is built
//! ([`BoundSchedule`]: slot table, extents, shared-write refusal, native
//! entry, tile scratch and lane file), so a warm step re-points a few base
//! pointers, swaps grids in and out of the workspace by [`GridId`], and
//! makes one native call per fused group: no name lookup, no registry
//! lock, no allocation. No step copies a grid (a state is two shared
//! grids, bound read-only into the kernel workspaces, and a step writes
//! only into a grid nothing else holds) or fills one: the adjoint kernel,
//! compiled in accumulate mode carrying λ_t and `∂J/∂c`, adds its
//! increments into those and *assigns* λ_{t−1} at its first touch, which
//! covers every point of λ a later step reads — the faces it leaves stale
//! are never read. The adjoint field is a 3-grid rolling window; a
//! memory-store snapshot holds the cursor's grids rather than a copy of
//! them, so a warm memory-store sweep copies no grid at all; and a plan
//! keeps its warmed shot states between runs instead of cloning them per
//! call.
//!
//! One owner recycles grids: the shot state's `GridPool`. Every grid a
//! step writes comes from it, and a grid no state, snapshot or workspace
//! holds any more is free for the next step. A plan shorter than
//! [`CKPT_THRESHOLD_STEPS`] keeps the pool in the warmed shot state, so a
//! warm run allocates its λ window and its gradient and nothing per step
//! (`tests/batch.rs` pins 0 B per step, on the JIT and on rows) — at most
//! `steps` grids resident per warmed shot state, fewer than 64 by
//! construction. At or past the threshold the pool lives for one sweep and
//! nothing stays resident between runs.

use crate::wave3d;
use perforad_ckpt::{
    checkpointed_adjoint_plan, CheckpointPlan, CkptError, CkptReport, DiskStore, FallbackStore,
    MemStore, Snapshot, SnapshotStore,
};
use perforad_core::{Adjoint, AdjointOptions};
use perforad_exec::{default_pool, Binding, Grid, GridId, Lowering, ThreadPool, Workspace};
use perforad_sched::{
    compile_schedule, BoundSchedule, IntBox, SchedOptions, Schedule, TunedConfig, TunedStrategy,
};
use perforad_symbolic::Symbol;
use perforad_tune::{
    autotune_adjoint, compile_tuned, host, pick_batch_strategy, profile, BatchShape, BatchStrategy,
    KernelProfile, Machine, TimeLoop, TuneOptions,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::mem::swap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Plans at least this long default to a checkpointed budget; shorter ones
/// store every state, and keep the grids they step into (fewer than this
/// many) resident in each warmed shot state between runs.
/// [`BatchOptions::checkpointed`] overrides the budget, not the residency.
pub const CKPT_THRESHOLD_STEPS: usize = 64;

/// Problem configuration.
#[derive(Clone, Copy, Debug)]
pub struct SeismicConfig {
    /// Grid points per dimension.
    pub n: usize,
    /// Time steps.
    pub steps: usize,
    /// `(dt/dx)²`.
    pub d: f64,
}

impl SeismicConfig {
    fn source_index(&self) -> [usize; 3] {
        [self.n / 2, self.n / 2, self.n / 2]
    }
}

/// Ricker wavelet samples for `steps` time steps.
pub fn ricker(steps: usize) -> Vec<f64> {
    let f = 2.0 / steps as f64;
    (0..steps)
        .map(|t| {
            let arg = std::f64::consts::PI * f * (t as f64 - steps as f64 / 3.0);
            let a2 = arg * arg;
            (1.0 - 2.0 * a2) * (-a2).exp()
        })
        .collect()
}

/// The time-loop state between steps: `(u_{t−1}, u_t)` — all a wave step
/// needs, and all a snapshot has to hold.
pub type WaveState = (Grid, Grid);

/// [`WaveState`] as the time loops here hold it: two shared grids, never
/// written once stepped into. A snapshot of it holds the same two grids,
/// so a memory-store save, load or take moves reference counts and copies
/// nothing.
type SharedState = (Arc<Grid>, Arc<Grid>);

/// A kernel workspace: the model `c` plus zeroed grids of its shape.
fn workspace(c: &Grid, zeroed: &[&str]) -> Workspace {
    let mut ws = Workspace::new().with("c", c.clone());
    for name in zeroed {
        ws.insert(*name, Grid::zeros(c.dims()));
    }
    ws
}

/// One compiled primal wave step, shared by every forward pass in this
/// module (the dense [`forward`], a sweep's streaming pass, and its
/// recomputed segments), so replayed segments are bitwise-identical to
/// the first execution. A one-nest [`Schedule`] tiled, lowered and driven
/// like the tuned adjoint: a `Jit` configuration is natively prepared here
/// ([`compile_tuned`] — registry, artifact cache, `rustc`), and one that
/// cannot be prepared is lowered to `Rows` instead, so an unprepared `Jit`
/// primal never runs and `jit.degraded_fallbacks` keeps counting only the
/// adjoint's degraded executions.
#[derive(Clone)]
struct Stepper<'p> {
    schedule: Schedule,
    tuned: TunedConfig,
    /// `schedule` bound to `ws` once: a step re-points its slots and runs.
    bound: BoundSchedule,
    pool: &'p ThreadPool,
    /// The kernel's workspace: `u` owned (the step writes it), `u_1` and
    /// `u_2` bound shared (it only reads them) — to `zero` between steps.
    ws: Workspace,
    /// Where `ws` holds `u`, `u_1` and `u_2`.
    ids: [GridId; 3],
    /// An all-zero grid nothing ever writes: `u_{−1}`, `u_0`, and what
    /// `u_1` and `u_2` hold between steps.
    zero: Arc<Grid>,
    src: [usize; 3],
    source: Vec<f64>,
    /// The grids steps write into.
    grids: GridPool,
}

impl<'p> Stepper<'p> {
    /// Compile the step under `tuned`'s tile/policy/strategy/lowering; the
    /// source trace starts silent ([`Stepper::set_source`] targets a shot).
    fn new(
        cfg: &SeismicConfig,
        c: &Grid,
        tuned: &TunedConfig,
        pool: &'p ThreadPool,
    ) -> Stepper<'p> {
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        let zero = Arc::new(Grid::zeros(c.dims()));
        let ws = workspace(c, &["u"])
            .with_shared("u_1", Arc::clone(&zero))
            .with_shared("u_2", Arc::clone(&zero));
        let mut tuned = tuned.clone();
        let (mut schedule, native) =
            compile_tuned(&[wave3d::nest()], &ws, &bind, &tuned).expect("primal schedules");
        if !native {
            // Plain rows, not an unprepared `Jit` (the same tiles on the
            // same executor, but counted as a degraded execution).
            tuned.lowering = Lowering::Rows;
            schedule.lowering = Lowering::Rows;
        }
        let bound = BoundSchedule::new(&schedule, &ws).expect("primal binds");
        Stepper {
            ids: ["u", "u_1", "u_2"].map(|name| ws.id(name).expect("a primal array")),
            schedule,
            tuned,
            bound,
            pool,
            ws,
            zero,
            src: cfg.source_index(),
            source: vec![0.0; cfg.steps],
            grids: GridPool::new([cfg.n; 3]),
        }
    }

    /// Swap in another shot's source trace; the compiled schedule and the
    /// workspace are shot-independent, so one stepper serves shot after
    /// shot without recompiling.
    fn set_source(&mut self, source: &[f64]) {
        assert_eq!(source.len(), self.source.len());
        self.source.copy_from_slice(source);
    }

    /// Advance `(u_{t−1}, u_t)` to `(u_t, u_{t+1})`, writing `u_{t+1}` into
    /// a free pool grid, which the new state then shares. The state's grids
    /// are bound to the workspace shared and the pool grid lent to it for
    /// the run, then all are handed back. No grid is copied or cleared: the
    /// step *assigns* every interior point of the pool grid, whose boundary
    /// planes are zero already — every pool grid starts all-zero and is
    /// only ever written on its interior, the source point included.
    fn step(&mut self, state: &mut SharedState, t: usize) {
        let out = self.grids.free();
        let u = Arc::get_mut(out).expect("a step writes only a grid nothing else holds");
        exchange(&mut self.ws, self.ids, state, u);
        debug_assert!(
            boundary_is_zero(self.ws.grid_at(self.ids[0])),
            "stale boundary"
        );
        let strategy = self.tuned.exec_strategy(self.pool);
        self.bound
            .run(&self.schedule, &mut self.ws, strategy)
            .expect("primal step");
        exchange(&mut self.ws, self.ids, state, u);
        // Step `t`'s source sample.
        u.set(&self.src, u.get(&self.src) + self.source[t]);
        state.0 = std::mem::replace(&mut state.1, Arc::clone(out));
    }
}

/// Swap `(u_{t−1}, u_t)` and the grid being written with `ws`'s `u_2`,
/// `u_1` and `u` (at `ids`, in the order `u`, `u_1`, `u_2`): lends them on
/// the first call and takes them back on the second.
fn exchange(ws: &mut Workspace, ids: [GridId; 3], (u_2, u_1): &mut SharedState, u: &mut Grid) {
    swap(ws.shared_at_mut(ids[2]), u_2);
    swap(ws.shared_at_mut(ids[1]), u_1);
    swap(ws.grid_at_mut(ids[0]), u);
}

/// Run the primal time loop densely; returns the trajectory
/// `u_0 .. u_steps`. A verification/synthesis helper for short sweeps —
/// gradients never materialize this vector.
pub fn forward(cfg: &SeismicConfig, c: &Grid, source: &[f64]) -> Vec<Grid> {
    // A throwaway stepper must never build native code: `Rows`, explicitly.
    let serial = TunedConfig {
        strategy: TunedStrategy::Serial,
        lowering: Lowering::Rows,
        ..TunedConfig::default()
    };
    // A serial drive never enters the pool it is handed.
    let mut stepper = Stepper::new(cfg, c, &serial, default_pool());
    stepper.set_source(source);
    let _span = perforad_obs::span!(
        "seismic.forward", "seismic", "steps" => cfg.steps as u64, "n" => cfg.n as u64
    );
    // Every state stays held, so each step writes a fresh pool grid.
    let mut state = (Arc::clone(&stepper.zero), Arc::clone(&stepper.zero));
    let mut traj = vec![Arc::clone(&stepper.zero)];
    for t in 0..cfg.steps {
        stepper.step(&mut state, t);
        traj.push(Arc::clone(&state.1));
    }
    drop((stepper, state));
    // Each state is `traj`'s alone now: unwrapping copies nothing.
    traj.into_iter().map(Arc::unwrap_or_clone).collect()
}

/// `J = ½ ‖u − d‖²`.
pub fn misfit(u: &Grid, data: &Grid) -> f64 {
    let mut j = 0.0;
    for (a, b) in u.as_slice().iter().zip(data.as_slice()) {
        let r = a - b;
        j += 0.5 * r * r;
    }
    j
}

/// The c-active wave adjoint, counted in `seismic.adjoint_transforms` —
/// cache layers above (the serve daemon's warm path in particular) assert
/// zero re-transforms by diffing this counter.
fn wave_adjoint() -> Adjoint {
    perforad_obs::counter("seismic.adjoint_transforms").inc();
    wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .expect("c-active wave adjoint transforms")
}

/// The adjoint arrays that carry state from one back step to the next:
/// λ_t (`u_1_b`, read as `u_b` two steps on) and `∂J/∂c`. The kernel adds
/// into them; λ_{t−1} (`u_2_b`) it assigns at its first touch.
const CARRIED: [&str; 2] = ["u_1_b", "c_b"];

/// The adjoint workspace + tuned schedule every reverse sweep drives,
/// compiled in accumulate mode carrying [`CARRIED`]
/// (`SchedOptions::accumulate`): each back step adds one summed increment
/// per point straight into λ_t and `∂J/∂c`, and stores one into λ_{t−1}.
/// Tuning is best-effort: on failure a fused row-executor schedule keeps
/// the gradient available. The pool is borrowed from the caller, not
/// spawned per plan.
#[derive(Clone)]
struct ReverseSweep<'p> {
    ws: Workspace,
    pool: &'p ThreadPool,
    schedule: Schedule,
    tuned: TunedConfig,
    /// `schedule` bound to `ws` once: a back step re-points its slots and
    /// runs.
    bound: BoundSchedule,
    /// Where `ws` holds `u_1`, `u_b`, `u_1_b`, `u_2_b` and `c_b`.
    ids: [GridId; 5],
    /// The points of λ a back step reads (as `u_b`) that no back step
    /// assigns (as `u_2_b`) — from the schedule's integer footprints. A
    /// grid the window rotates in is zeroed there and nowhere else. Empty
    /// for the wave adjoint: the first touch covers every point read.
    gaps: Vec<IntBox>,
}

impl<'p> ReverseSweep<'p> {
    fn new(
        cfg: &SeismicConfig,
        c: &Grid,
        time_loop: Option<TimeLoop>,
        pool: &'p ThreadPool,
        adj: &Adjoint,
    ) -> ReverseSweep<'p> {
        let _span = perforad_obs::span!("seismic.setup", "seismic", "n" => cfg.n as u64);
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        // `u_1`, the primal state, is only read: bound shared, so a back
        // step borrows a state's grid instead of taking it over.
        let mut ws = workspace(c, &["u_b", "u_1_b", "u_2_b", "c_b"])
            .with_shared("u_1", Arc::new(Grid::zeros(c.dims())));
        let mut topts = TuneOptions::quick().with_accumulate(CARRIED);
        topts.time_loop = time_loop;
        let (schedule, tuned) = match autotune_adjoint(adj, &mut ws, &bind, pool, &topts) {
            Ok((s, report)) => (s, report.config),
            Err(_) => {
                let opts = SchedOptions::default().with_rows().with_accumulate(CARRIED);
                let s = compile_schedule(adj, &ws, &bind, &opts).expect("adjoint schedules");
                let fallback = TunedConfig {
                    strategy: TunedStrategy::Parallel,
                    lowering: Lowering::Rows,
                    threads: pool.size(),
                    ..TunedConfig::default()
                };
                (s, fallback)
            }
        };
        let bound = BoundSchedule::new(&schedule, &ws).expect("adjoint binds");
        let lent = ["u_1", "u_b", "u_1_b", "u_2_b", "c_b"];
        ReverseSweep {
            ids: lent.map(|name| ws.id(name).expect("an adjoint array")),
            gaps: schedule.unassigned_reads("u_b", "u_2_b"),
            ws,
            pool,
            schedule,
            tuned,
            bound,
        }
    }

    /// One adjoint step: consume `λ_{t+1}` with `u_1 = u_t` bound, adding
    /// the `u_1_b` and `c_b` increments straight into `lambda` and `c_b`
    /// and storing the `u_2_b` ones into `lambda_prev`. `u_t` is bound
    /// shared and the rest lent (swapped in, not copied) for the run, by
    /// place, and all are handed back; the first two come back as they
    /// came.
    fn back(
        &mut self,
        u_t: &mut Arc<Grid>,
        lambda_next: &mut Grid,
        lambda: &mut Grid,
        lambda_prev: &mut Grid,
        c_b: &mut Grid,
    ) {
        let _span = perforad_obs::span!("seismic.back", "seismic");
        let [u_1, u_b, u_1_b, u_2_b, c_b_at] = self.ids;
        let mut lent = [
            (u_b, lambda_next),
            (u_1_b, lambda),
            (u_2_b, lambda_prev),
            (c_b_at, c_b),
        ];
        let mut exchange = |ws: &mut Workspace| {
            swap(ws.shared_at_mut(u_1), u_t);
            for (id, grid) in &mut lent {
                swap(ws.grid_at_mut(*id), *grid);
            }
        };
        exchange(&mut self.ws);
        let strategy = self.tuned.exec_strategy(self.pool);
        self.bound
            .run(&self.schedule, &mut self.ws, strategy)
            .expect("adjoint step");
        exchange(&mut self.ws);
    }
}

/// Everything one in-flight shot mutates: a compiled stepper and reverse
/// sweep with their workspaces.
type ShotState<'p> = (Stepper<'p>, ReverseSweep<'p>);

/// A sweep's reverse-phase state: the misfit, the 3-grid rolling adjoint
/// window, and the accumulated model gradient. Back steps
/// arrive in strictly descending `t`, so three λ grids are all that is
/// ever live.
struct Rolling {
    j: f64,
    /// `[λ_{t+1}, λ_t, λ_{t−1}]`: the first fully accumulated and consumed
    /// by the next back step, the other two partial (they collect the
    /// `u_1_b` and `u_2_b` rows of the current step).
    lam: [Grid; 3],
    c_b: Grid,
}

impl Rolling {
    fn new(dims: &[usize]) -> Rolling {
        Rolling {
            j: 0.0,
            lam: std::array::from_fn(|_| Grid::zeros(dims)),
            c_b: Grid::zeros(dims),
        }
    }

    /// `J` and `λ_T = ∂J/∂u_T = u_T − d`: only λ_T is seeded directly.
    /// Source injection is additive and c-independent, so it contributes
    /// nothing to the adjoint.
    fn seed(&mut self, u_final: &Grid, data: &Grid) {
        self.j = misfit(u_final, data);
        let residual = u_final.as_slice().iter().zip(data.as_slice());
        for (l, (u, d)) in self.lam[0].as_mut_slice().iter_mut().zip(residual) {
            *l = u - d;
        }
    }

    /// Reverse the step that produced `u_{t+1}` from `u_1 = u_t`,
    /// `u_2 = u_{t−1}`: its adjoint consumes λ_{t+1} and feeds λ_t, λ_{t−1}
    /// and `c_b` (scatter-free accumulation), then the window rolls down.
    ///
    /// The kernel writes all three directly. Its accumulate mode sums a
    /// point's increments from `+0.0` and adds the sum once into λ_t and
    /// `c_b`, which is what a zeroed scratch grid added back would have
    /// done at every point it writes; a point it does not write keeps its
    /// value, where the add-back turned a `−0.0` into `+0.0`, and neither
    /// grid holds a `−0.0` at such a point (each starts all `+0.0`, and
    /// the edges no nest writes stay as they started). Into λ_{t−1} it
    /// *stores* the sum, with no fill first: a `+0.0`-started sum is never
    /// `−0.0`, so storing it is bitwise the same as adding it to `+0.0`.
    /// What the store leaves alone — the faces of the rotated-in grid,
    /// stale — no back step reads: λ_{t−1} is read two steps on as `u_b`,
    /// over a box its first touch covers, so the sweep's `gaps` (read but
    /// not assigned, zeroed here) are empty for the wave adjoint.
    fn back(&mut self, sweep: &mut ReverseSweep<'_>, u_t: &mut Arc<Grid>) {
        let [hi, mid, lo] = &mut self.lam;
        sweep.back(u_t, hi, mid, lo, &mut self.c_b);
        self.lam.rotate_left(1);
        for gap in &sweep.gaps {
            fill_box(&mut self.lam[2], gap, 0.0);
        }
    }
}

/// Where a checkpointed shot's snapshots live (a store-all shot keeps
/// them in memory).
#[derive(Clone, Debug, Default)]
pub enum SnapshotBackend {
    /// Spill to `$PERFORAD_CKPT_DIR` when that variable is set, keep
    /// snapshots in memory otherwise.
    #[default]
    Auto,
    /// In memory, sharing the cursor's grids: a save or load copies
    /// nothing (the budget bounds how many are live).
    Memory,
    /// Bitwise-exact spill files under the given directory.
    Disk(PathBuf),
}

/// One shot's reverse sweep on one shot state, under `plan`: at most
/// `plan.budget()` `(u_{t−1}, u_t)` snapshots are live at once, the adjoint
/// field is a 3-grid rolling window, and reverse segments are recomputed
/// from snapshots through the same compiled primal step — so every budget
/// gives the **bitwise-identical** gradient, and the returned
/// [`CkptReport`] says what the budget cost. Snapshots spill under `spill`
/// when it is set and stay in memory otherwise. [`CheckpointPlan`]'s
/// memoized action stream makes the replayed plan shape free after the
/// first shot.
fn adjoint_sweep(
    cfg: &SeismicConfig,
    data: &Grid,
    plan: &CheckpointPlan,
    spill: Option<PathBuf>,
    state: &mut ShotState<'_>,
) -> (f64, Grid, CkptReport) {
    // A store-all plan writes one grid per step and frees none before the
    // reverse phase: the pool draws them in one burst up front. Drawn step
    // by step, between the store's own allocations, a per-sweep pool's
    // grids end up where the allocator trims them off the heap when the
    // pool drops, and the next run faults every page back in (+30 % on a
    // 64-step, n = 16 store-all shot).
    if plan.budget() >= plan.steps() {
        state.0.grids.reserve(plan.steps());
    }
    // Disk-backed sweeps must survive spill failures: per-snapshot write
    // errors are absorbed inside [`FallbackStore`] (the snapshot lands in
    // memory instead), and anything the store cannot absorb — a read
    // failure, an unusable spill directory — falls back to re-running the
    // *whole* sweep in memory. Both the stepper and the reverse sweep
    // overwrite their workspace grids per call and the rolling adjoint
    // state is rebuilt per attempt, so a retried gradient is
    // bitwise-identical to a first-try one.
    let spilled = spill.map(|dir| {
        DiskStore::new(&dir)
            .and_then(|disk| replay(data, plan, &mut FallbackStore::new(disk), state))
    });
    let out = match spilled {
        Some(Ok(out)) => out,
        Some(Err(e)) => {
            perforad_obs::counter("ckpt.spill_fallbacks").inc();
            eprintln!("perforad: disk-backed checkpoint sweep failed ({e}); using memory");
            replay(data, plan, &mut MemStore::new(), state).expect("in-memory sweep")
        }
        None => replay(data, plan, &mut MemStore::new(), state).expect("in-memory sweep"),
    };
    if cfg.steps >= CKPT_THRESHOLD_STEPS {
        state.0.grids = GridPool::new([cfg.n; 3]);
    }
    out
}

/// The grids a shot state's steps write into, and the one owner of grid
/// reuse. The pool holds a reference to each as well, so a grid only it
/// holds — no state, snapshot or workspace does any more — is free, and
/// the next step writes into it instead of a fresh one. A clone starts
/// empty: two shot states never share a grid to write into.
struct GridPool {
    dims: [usize; 3],
    grids: Vec<Arc<Grid>>,
}

impl GridPool {
    fn new(dims: [usize; 3]) -> GridPool {
        GridPool {
            dims,
            grids: Vec::new(),
        }
    }

    /// Grow the pool to at least `n` grids.
    fn reserve(&mut self, n: usize) {
        while self.grids.len() < n {
            self.grids.push(Arc::new(Grid::zeros(&self.dims)));
        }
    }

    /// A grid nothing but the pool holds, a freed one before a fresh one.
    fn free(&mut self) -> &mut Arc<Grid> {
        let free = self.grids.iter().position(|g| Arc::strong_count(g) == 1);
        let k = free.unwrap_or_else(|| {
            self.grids.push(Arc::new(Grid::zeros(&self.dims)));
            self.grids.len() - 1
        });
        &mut self.grids[k]
    }
}

impl Clone for GridPool {
    fn clone(&self) -> GridPool {
        GridPool::new(self.dims)
    }
}

/// One full sweep against a concrete snapshot store: fresh rolling adjoint
/// state, the memoized action stream replayed start to finish. The cursor
/// and the snapshots share the grids the stepper's pool hands out, so a
/// memory store moves references, never states. Errors out of the store
/// surface here for the caller's fallback decision.
fn replay(
    data: &Grid,
    plan: &CheckpointPlan,
    store: &mut impl SnapshotStore<SharedState>,
    (stepper, sweep): &mut ShotState<'_>,
) -> Result<(f64, Grid, CkptReport), CkptError> {
    // `u_{−1}` and `u_0` are zero, and no step writes a state it holds.
    let s0 = (Arc::clone(&stepper.zero), Arc::clone(&stepper.zero));
    // The driver calls `seed` and `back` strictly sequentially, so a
    // RefCell resolves the closure-borrow overlap without locking.
    let rolling = RefCell::new(Rolling::new(stepper.zero.dims()));
    let mut step = |s: &mut SharedState, t: usize| stepper.step(s, t);
    let mut seed = |s: &SharedState| rolling.borrow_mut().seed(&s.1, data);
    // Step t produced u_{t+1} from u_1 = u_t (= s.1).
    let mut back = |s: &mut SharedState, _t: usize| rolling.borrow_mut().back(sweep, &mut s.1);
    let report = checkpointed_adjoint_plan(plan, s0, store, &mut step, &mut seed, &mut back)?;
    let st = rolling.into_inner();
    Ok((st.j, st.c_b, report))
}

/// The directory `backend` spills snapshots to, if it spills at all.
fn spill_dir(backend: &SnapshotBackend) -> Option<PathBuf> {
    match backend {
        SnapshotBackend::Memory => None,
        SnapshotBackend::Disk(dir) => Some(dir.clone()),
        SnapshotBackend::Auto => std::env::var_os(perforad_ckpt::CKPT_DIR_ENV).map(PathBuf::from),
    }
}

/// Fallback snapshot budget when tuning is unavailable: `2√T`, the
/// classic constant-repetition sweet spot, clamped into the plan's valid
/// range.
fn default_budget(steps: usize) -> usize {
    ((2.0 * (steps.max(1) as f64).sqrt()).ceil() as usize).clamp(2, steps.max(2))
}

/// Whether every point on a face of `g` (some index at either end of its
/// dimension) is zero.
fn boundary_is_zero(g: &Grid) -> bool {
    let on_face = |lin: usize| {
        let at_end = |(&d, &s): (&usize, &usize)| [0, d - 1].contains(&(lin / s % d));
        g.dims().iter().zip(g.strides()).any(at_end)
    };
    let mut points = g.as_slice().iter().enumerate();
    points.all(|(lin, &v)| v == 0.0 || !on_face(lin))
}

/// Set every point of the 3-D grid `g` in the box `[lo, hi]` to `v`.
fn fill_box(g: &mut Grid, (lo, hi): &IntBox, v: f64) {
    let len = (hi[2] - lo[2] + 1) as usize;
    for i in lo[0]..=hi[0] {
        for j in lo[1]..=hi[1] {
            let at = g.linear(&[i as usize, j as usize, lo[2] as usize]);
            g.as_mut_slice()[at..at + len].fill(v);
        }
    }
}

fn add_into(dst: &mut Grid, src: &Grid) {
    for (d, s) in dst.as_mut_slice().iter_mut().zip(src.as_slice()) {
        *d += s;
    }
}

/// A multi-shot survey: one source trace and one observed final wavefield
/// per shot, all on the same grid/velocity model.
#[derive(Clone, Debug, Default)]
pub struct ShotBatch {
    /// Per-shot source traces, each `cfg.steps` samples long.
    pub sources: Vec<Vec<f64>>,
    /// Per-shot observed data `d` for the misfit `½‖u_T − d‖²`.
    pub observed: Vec<Grid>,
}

impl ShotBatch {
    pub fn new() -> ShotBatch {
        ShotBatch::default()
    }

    /// Append one shot.
    pub fn push(&mut self, source: Vec<f64>, observed: Grid) {
        self.sources.push(source);
        self.observed.push(observed);
    }

    /// Number of shots.
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }
}

/// Knobs for [`BatchPlan::new`]. The default asks the tuner's batch
/// perf-model term to pick the dispatch strategy, lets the sweep tuner
/// choose the snapshot budget, and keeps the usual
/// [`CKPT_THRESHOLD_STEPS`] store-all/checkpointed dispatch.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Force a dispatch strategy instead of consulting
    /// [`pick_batch_strategy`]. Either choice is bitwise-identical; this
    /// is a pure performance (and testing) knob.
    pub strategy: Option<BatchStrategy>,
    /// Explicit snapshot budget for checkpointed shots (tuner-chosen when
    /// `None`).
    pub budget: Option<usize>,
    /// Where checkpointed shots spill snapshots. Each shot instantiates
    /// its own store; [`DiskStore`]'s per-instance tags keep concurrent
    /// shots collision-free in one directory.
    pub backend: SnapshotBackend,
    /// Force the checkpointed (`Some(true)`) or store-all (`Some(false)`)
    /// plan; `None` applies the [`CKPT_THRESHOLD_STEPS`] rule.
    pub checkpointed: Option<bool>,
}

/// Per-shot outputs of a batched gradient, in shot order.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// `J_k` per shot.
    pub misfits: Vec<f64>,
    /// `∂J_k/∂c` per shot.
    pub gradients: Vec<Grid>,
    /// Checkpoint accounting per shot (`None` for store-all shots).
    pub reports: Vec<Option<CkptReport>>,
    /// The dispatch strategy that actually ran.
    pub strategy: BatchStrategy,
    /// Whether a shot ran a Jit kernel group on rows for want of its
    /// native module (the same bits, slower).
    pub degraded: bool,
    /// Whether a shot meant to spill snapshots to disk kept some in memory.
    pub spill_fallback: bool,
}

impl BatchResult {
    /// `Σ_k J_k` — the full-survey objective.
    pub fn total_misfit(&self) -> f64 {
        self.misfits.iter().sum()
    }

    /// `Σ_k ∂J_k/∂c`, accumulated in shot order (deterministic regardless
    /// of dispatch strategy); `None` for an empty batch.
    pub fn summed_gradient(&self) -> Option<Grid> {
        let mut it = self.gradients.iter();
        let mut sum = it.next()?.clone();
        for g in it {
            add_into(&mut sum, g);
        }
        Some(sum)
    }
}

/// One shot's outputs, and what gave way while it ran.
struct ShotOut {
    misfit: f64,
    gradient: Grid,
    report: Option<CkptReport>,
    degraded: bool,
    spill_fallback: bool,
}

/// Amortized setup for a whole survey: the adjoint transform, the tuned
/// schedule (one cache-keyed search + recompile), the compiled primal
/// stepper, and the kernel profile for strategy selection are built
/// **once**, then every shot — and, through [`BatchPlan::set_model`],
/// every iteration of an inversion loop — reuses them.
pub struct BatchPlan<'p> {
    cfg: SeismicConfig,
    pool: &'p ThreadPool,
    /// What a shot state is cloned from when none is idle; never run.
    proto: ShotState<'p>,
    /// Warmed shot states: a run checks one out per shot in flight and
    /// returns it, so only a plan's first run at a width pays the clone.
    idle: Mutex<Vec<ShotState<'p>>>,
    machine: Machine,
    prof: KernelProfile,
    nest_count: usize,
    budget: usize,
    checkpointed: bool,
    opts: BatchOptions,
}

impl<'p> BatchPlan<'p> {
    /// Compile + tune everything shot-independent. One adjoint transform,
    /// one autotune (cache-keyed), one primal plan.
    pub fn new(
        cfg: &SeismicConfig,
        c: &Grid,
        opts: &BatchOptions,
        pool: &'p ThreadPool,
    ) -> BatchPlan<'p> {
        let _span = perforad_obs::span!(
            "seismic.batch_setup", "seismic", "n" => cfg.n as u64, "steps" => cfg.steps as u64
        );
        let checkpointed = opts
            .checkpointed
            .unwrap_or(cfg.steps >= CKPT_THRESHOLD_STEPS);
        let dims = [cfg.n, cfg.n, cfg.n];
        let state_bytes = (Grid::zeros(&dims), Grid::zeros(&dims)).mem_bytes();
        let adj = wave_adjoint();
        let time_loop = checkpointed.then(|| TimeLoop::new(cfg.steps, state_bytes));
        let sweep = ReverseSweep::new(cfg, c, time_loop, pool, &adj);
        let budget = opts
            .budget
            .or(sweep.tuned.checkpoint)
            .unwrap_or_else(|| default_budget(cfg.steps));
        let stepper = Stepper::new(cfg, c, &sweep.tuned, pool);
        let mut sizes = BTreeMap::new();
        sizes.insert(Symbol::new("n"), cfg.n as i64);
        let prof = profile(&adj.nests, &sizes);
        BatchPlan {
            cfg: *cfg,
            pool,
            proto: (stepper, sweep),
            idle: Mutex::new(Vec::new()),
            nest_count: adj.nests.len(),
            machine: host(pool.size()),
            prof,
            budget,
            checkpointed,
            opts: opts.clone(),
        }
    }

    /// The number of adjoint loop nests behind this plan's schedule.
    pub fn nest_count(&self) -> usize {
        self.nest_count
    }

    /// The tuned configuration every shot's reverse sweep runs under.
    pub fn tuned(&self) -> &TunedConfig {
        &self.proto.1.tuned
    }

    /// The snapshot budget checkpointed shots run with (also reported for
    /// store-all plans, where it is simply unused).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Whether shots run the bounded-memory checkpointed sweep.
    pub fn checkpointed(&self) -> bool {
        self.checkpointed
    }

    /// Swap in a new velocity model without recompiling or retuning: the
    /// schedule, tuned config, and checkpoint budget depend only on the
    /// grid *shape*, so an inversion loop (or a serving daemon fielding a
    /// same-shape `Compile` with fresh `c`) pays a grid copy, nothing else.
    pub fn set_model(&mut self, c: &Grid) {
        let dims = [self.cfg.n, self.cfg.n, self.cfg.n];
        assert_eq!(c.dims(), &dims[..], "velocity model shape must match plan");
        let idle = self.idle.get_mut().expect("idle states lock");
        for (stepper, sweep) in idle.iter_mut().chain([&mut self.proto]) {
            for ws in [&mut stepper.ws, &mut sweep.ws] {
                ws.grid_mut("c")
                    .as_mut_slice()
                    .copy_from_slice(c.as_slice());
            }
        }
    }

    /// The dispatch strategy a batch of `shots` will run under: the
    /// forced [`BatchOptions::strategy`] if set, else the perf-model's
    /// [`pick_batch_strategy`] verdict for this kernel/pool/shape.
    pub fn strategy_for(&self, shots: usize) -> BatchStrategy {
        if let Some(s) = self.opts.strategy {
            return s;
        }
        let shape = BatchShape {
            shots,
            threads: self.pool.size(),
            steps: self.cfg.steps,
        };
        pick_batch_strategy(
            &self.machine,
            &self.prof,
            self.nest_count,
            self.tuned(),
            &shape,
        )
        .0
    }

    /// Run every shot; outputs are in shot order and **bitwise-identical**
    /// to N one-shot runs under either strategy — batching changes *who
    /// runs which shot*, never how a shot executes.
    pub fn run(&self, batch: &ShotBatch) -> BatchResult {
        let shots = batch.len();
        assert_eq!(batch.observed.len(), shots, "one observed grid per shot");
        let dims = [self.cfg.n; 3];
        for (s, d) in batch.sources.iter().zip(&batch.observed) {
            assert_eq!(s.len(), self.cfg.steps, "one source sample per step");
            assert_eq!(d.dims(), dims, "one observed value per grid point");
        }
        let _root = perforad_obs::span!(
            "seismic.gradient_batch", "seismic",
            "shots" => shots as u64, "n" => self.cfg.n as u64
        );
        let strategy = self.strategy_for(shots);
        let shots_total = perforad_obs::counter("seismic.shots_total");
        let shot_ns = perforad_obs::histogram("seismic.shot_ns");
        let mut out: Vec<ShotOut> = Vec::with_capacity(shots);
        match strategy {
            BatchStrategy::GridParallel => {
                // Round-robin: each shot's steps run grid-parallel (if the
                // tuner said so) through the tuned schedules.
                let drive = self.tuned().strategy;
                for k in 0..shots {
                    out.push(self.run_shot(k, batch, drive, &shots_total, &shot_ns));
                }
            }
            BatchStrategy::ShotParallel => {
                // Workers own whole shots and run them strictly serially:
                // a region a shot opened on its own worker would run
                // inline anyway, and `Serial` skips the pool up front.
                let drive = TunedStrategy::Serial;
                let slots = Mutex::new(Vec::with_capacity(shots));
                self.pool.work_queue(
                    shots,
                    |_tid| (),
                    |k, _| {
                        let shot = self.run_shot(k, batch, drive, &shots_total, &shot_ns);
                        slots.lock().expect("batch results lock").push((k, shot));
                    },
                );
                let mut slots = slots.into_inner().expect("batch results lock");
                slots.sort_by_key(|&(k, _)| k);
                out.extend(slots.into_iter().map(|(_, shot)| shot));
            }
        }
        BatchResult {
            misfits: out.iter().map(|s| s.misfit).collect(),
            reports: out.iter().map(|s| s.report.clone()).collect(),
            degraded: out.iter().any(|s| s.degraded),
            spill_fallback: out.iter().any(|s| s.spill_fallback),
            gradients: out.into_iter().map(|s| s.gradient).collect(),
            strategy,
        }
    }

    fn run_shot(
        &self,
        k: usize,
        batch: &ShotBatch,
        drive: TunedStrategy,
        shots_total: &perforad_obs::Counter,
        shot_ns: &perforad_obs::Histogram,
    ) -> ShotOut {
        let _span = perforad_obs::span!("seismic.shot", "seismic", "shot" => k as u64);
        let t0 = perforad_obs::enabled().then(perforad_obs::now_ns);
        // Check a shot state out — one left warm by an earlier shot, else
        // a clone of the prototype — and back in when the shot is done.
        let idle = self.idle.lock().expect("idle states lock").pop();
        let mut state = idle.unwrap_or_else(|| self.proto.clone());
        let (stepper, sweep) = &mut state;
        stepper.tuned.strategy = drive;
        sweep.tuned.strategy = drive;
        stepper.set_source(&batch.sources[k]);
        // Store-all is the plan whose budget covers every step, on a
        // memory store whatever `budget` and `backend` say.
        let (plan, spill) = if self.checkpointed {
            let plan = CheckpointPlan::with_budget(self.cfg.steps, self.budget);
            (plan, spill_dir(&self.opts.backend))
        } else {
            (CheckpointPlan::store_all(self.cfg.steps), None)
        };
        let spills = spill.is_some();
        let (misfit, gradient, rep) =
            adjoint_sweep(&self.cfg, &batch.observed[k], &plan, spill, &mut state);
        let shot = ShotOut {
            misfit,
            gradient,
            degraded: state.0.bound.degraded() || state.1.bound.degraded(),
            // Not "disk": "disk+mem" kept a snapshot in memory, "memory"
            // re-ran the whole sweep there.
            spill_fallback: spills && rep.store != "disk",
            report: self.checkpointed.then_some(rep),
        };
        self.idle.lock().expect("idle states lock").push(state);
        shots_total.inc();
        if let Some(t0) = t0 {
            shot_ns.record(perforad_obs::now_ns().saturating_sub(t0));
        }
        shot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn velocity(n: usize) -> Grid {
        Grid::from_fn(&[n, n, n], |ix| 0.8 + 0.4 * (ix[2] as f64 / n as f64))
    }

    /// One shot through the one driver.
    fn one_shot(
        cfg: &SeismicConfig,
        c: &Grid,
        data: &Grid,
        source: &[f64],
        opts: &BatchOptions,
    ) -> (f64, Grid, Option<CkptReport>) {
        let mut batch = ShotBatch::new();
        batch.push(source.to_vec(), data.clone());
        let mut out = BatchPlan::new(cfg, c, opts, perforad_exec::default_pool()).run(&batch);
        (
            out.misfits[0],
            out.gradients.remove(0),
            out.reports.remove(0),
        )
    }

    #[test]
    fn forward_propagates_from_source() {
        let cfg = SeismicConfig {
            n: 12,
            steps: 5,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let traj = forward(&cfg, &velocity(cfg.n), &src);
        assert_eq!(traj.len(), 6);
        assert!(traj[5].is_finite());
        assert!(traj[5].norm2() > 0.0);
        // The wavefront has spread beyond the source point.
        let off_src = traj[5].get(&[6 + 2, 6, 6]).abs();
        assert!(off_src > 0.0);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let cfg = SeismicConfig {
            n: 10,
            steps: 4,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let c0 = velocity(cfg.n);
        // Synthetic "observed" data from a perturbed model.
        let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.05);
        let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();

        // Store-all, and a budget of 2 that recomputes: one driver either way.
        let budget_2 = BatchOptions {
            budget: Some(2),
            backend: SnapshotBackend::Memory,
            checkpointed: Some(true),
            ..BatchOptions::default()
        };
        for opts in [BatchOptions::default(), budget_2] {
            let (j0, grad, report) = one_shot(&cfg, &c0, &data, &src, &opts);
            assert!(j0 > 0.0);
            let recomputed = report.map_or(0, |r| r.recomputed_steps);
            assert_eq!(recomputed > 0, opts.budget.is_some(), "{opts:?}");

            // Probe a few interior points with central differences.
            let h = 1e-5;
            for probe in [[5usize, 5, 5], [4, 6, 5], [6, 4, 4]] {
                let mut cp = c0.clone();
                cp.set(&probe, c0.get(&probe) + h);
                let jp = misfit(&forward(&cfg, &cp, &src)[cfg.steps], &data);
                let mut cm = c0.clone();
                cm.set(&probe, c0.get(&probe) - h);
                let jm = misfit(&forward(&cfg, &cm, &src)[cfg.steps], &data);
                let fd = (jp - jm) / (2.0 * h);
                let an = grad.get(&probe);
                let denom = fd.abs().max(an.abs()).max(1e-12);
                assert!(
                    (fd - an).abs() / denom < 1e-4,
                    "{opts:?}, probe {probe:?}: fd {fd} vs adjoint {an}"
                );
            }
        }
    }

    #[test]
    fn zero_residual_gives_zero_gradient() {
        let cfg = SeismicConfig {
            n: 8,
            steps: 3,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let c0 = velocity(cfg.n);
        let data = forward(&cfg, &c0, &src)[cfg.steps].clone();
        let (j, grad, _) = one_shot(&cfg, &c0, &data, &src, &BatchOptions::default());
        assert!(j.abs() < 1e-20);
        assert!(grad.norm2() < 1e-12);
    }

    #[test]
    fn checkpointed_gradient_is_bitwise_store_all() {
        let cfg = SeismicConfig {
            n: 8,
            steps: 7,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let c0 = velocity(cfg.n);
        let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.04);
        let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();
        let store_all = BatchOptions {
            checkpointed: Some(false),
            ..BatchOptions::default()
        };
        let (j_ref, g_ref, _) = one_shot(&cfg, &c0, &data, &src, &store_all);
        for budget in [1usize, 2, 3, 7, 50] {
            let opts = BatchOptions {
                budget: Some(budget),
                backend: SnapshotBackend::Memory,
                checkpointed: Some(true),
                ..BatchOptions::default()
            };
            let (j, g, report) = one_shot(&cfg, &c0, &data, &src, &opts);
            let report = report.expect("checkpointed shot reports");
            assert_eq!(j.to_bits(), j_ref.to_bits(), "budget {budget}");
            for (a, b) in g.as_slice().iter().zip(g_ref.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "budget {budget}");
            }
            assert!(report.peak_snapshots <= budget);
            assert_eq!(report.budget, budget.min(cfg.steps));
        }
    }

    /// NaN at every interior point of `g`, its boundary left as it is.
    fn poison_interior(g: &mut Grid) {
        let n = g.dims()[0];
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                for k in 1..n - 1 {
                    g.set(&[i, j, k], f64::NAN);
                }
            }
        }
    }

    /// A kept pool is scratch: whatever a warm run finds in its grids —
    /// here NaN at every interior point, the boundary left zero — the run
    /// assigns all of it before reading any.
    #[test]
    fn a_poisoned_kept_pool_changes_no_bit_of_the_next_run() {
        let cfg = SeismicConfig {
            n: 8,
            steps: 7,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let c0 = velocity(cfg.n);
        let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.04);
        let mut batch = ShotBatch::new();
        batch.push(src.clone(), forward(&cfg, &c_true, &src)[cfg.steps].clone());
        let pool = ThreadPool::new(1);
        let mut plan = BatchPlan::new(&cfg, &c0, &BatchOptions::default(), &pool);
        let first = plan.run(&batch);

        let idle = plan.idle.get_mut().unwrap();
        assert_eq!(idle.len(), 1, "one warmed shot state");
        let grids = &mut idle[0].0.grids.grids;
        assert_eq!(grids.len(), cfg.steps, "the pool kept a grid per step");
        for g in grids.iter_mut() {
            poison_interior(Arc::get_mut(g).expect("only the pool holds a kept grid"));
        }

        let second = plan.run(&batch);
        assert!(first.misfits[0] > 0.0 && first.gradients[0].norm2() > 0.0);
        assert_eq!(second.misfits[0].to_bits(), first.misfits[0].to_bits());
        let pairs = second.gradients[0]
            .as_slice()
            .iter()
            .zip(first.gradients[0].as_slice());
        for (a, b) in pairs {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // At the threshold a forced store-all plan keeps an empty pool.
        let long = SeismicConfig {
            steps: CKPT_THRESHOLD_STEPS,
            ..cfg
        };
        let mut batch = ShotBatch::new();
        batch.push(ricker(long.steps), Grid::zeros(&[cfg.n; 3]));
        let opts = BatchOptions {
            checkpointed: Some(false),
            ..BatchOptions::default()
        };
        let mut plan = BatchPlan::new(&long, &c0, &opts, &pool);
        plan.run(&batch);
        assert!(plan.idle.get_mut().unwrap()[0].0.grids.grids.is_empty());
    }

    /// A pool grid is scratch: a step assigns every interior point of the
    /// grid it writes before anything reads it. Here the run draws every
    /// grid it steps into from a pool the test fills with grids that are
    /// NaN at every interior point (zero on the boundary), and it changes
    /// no bit.
    #[test]
    fn a_poisoned_pool_grid_changes_no_bit_of_the_run() {
        let cfg = SeismicConfig {
            n: 8,
            steps: 9,
            d: 0.1,
        };
        let src = ricker(cfg.steps);
        let c0 = velocity(cfg.n);
        let c_true = Grid::from_fn(&[cfg.n; 3], |ix| c0.get(ix) * 1.04);
        let data = forward(&cfg, &c_true, &src)[cfg.steps].clone();
        let opts = BatchOptions {
            strategy: Some(BatchStrategy::GridParallel),
            budget: Some(3),
            backend: SnapshotBackend::Memory,
            checkpointed: Some(true),
        };
        let clean = one_shot(&cfg, &c0, &data, &src, &opts);

        let pool = ThreadPool::new(1);
        let batch_plan = BatchPlan::new(&cfg, &c0, &opts, &pool);
        let mut state = batch_plan.proto.clone();
        state.0.set_source(&src);
        let mut poison = Grid::zeros(&[cfg.n; 3]);
        poison_interior(&mut poison);
        const FILLED: usize = 32;
        state.0.grids.grids = (0..FILLED).map(|_| Arc::new(poison.clone())).collect();
        let plan = CheckpointPlan::with_budget(cfg.steps, 3);
        let mut store = MemStore::new();
        let poisoned =
            replay(&data, &plan, &mut store, &mut state).expect("in-memory checkpointed sweep");
        drop(store);
        let grids = &state.0.grids.grids;
        assert_eq!(
            grids.len(),
            FILLED,
            "a grid came from outside the poisoned pool"
        );
        let written = grids
            .iter()
            .filter(|g| !g.as_slice().iter().any(|v| v.is_nan()));
        assert!(written.count() > 0, "the run stepped into no pool grid");
        assert!(clean.0 > 0.0 && clean.1.norm2() > 0.0);
        assert_eq!(poisoned.0.to_bits(), clean.0.to_bits());
        for (a, b) in poisoned.1.as_slice().iter().zip(clean.1.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The golden shot of the integration suites (`tests/batch.rs`): its
    /// model, source and observed data drawn by xorshift64*, and the digest
    /// its misfit and gradient bits have had since the time loop was first
    /// pinned.
    fn golden_shot() -> (SeismicConfig, Grid, Vec<f64>, Grid) {
        let cfg = SeismicConfig {
            n: 12,
            steps: 10,
            d: 0.1,
        };
        let mut x = 0x5EED_0014u64;
        let mut unit = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            (x.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        let c0 = Grid::from_fn(&[cfg.n; 3], |_| 0.8 + 0.4 * unit());
        let source: Vec<f64> = (0..cfg.steps).map(|_| unit() - 0.5).collect();
        let observed = Grid::from_fn(&[cfg.n; 3], |_| 1e-3 * (unit() - 0.5));
        (cfg, c0, source, observed)
    }

    const GOLDEN_SHOT_DIGEST: u64 = 0xa242_e107_7faf_a2e5;

    /// FNV-1a over the misfit's and every gradient value's bits.
    fn digest(j: f64, g: &Grid) -> u64 {
        let mut bytes = j.to_bits().to_le_bytes().to_vec();
        for v in g.as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        perforad_exec::fnv1a64(&bytes)
    }

    /// Rebind both kernels of a shot state to run on `lowering`.
    fn lower(state: &mut ShotState<'_>, lowering: Lowering) {
        let (stepper, sweep) = state;
        stepper.schedule.lowering = lowering;
        stepper.bound = BoundSchedule::new(&stepper.schedule, &stepper.ws).unwrap();
        sweep.schedule.lowering = lowering;
        sweep.bound = BoundSchedule::new(&sweep.schedule, &sweep.ws).unwrap();
    }

    /// [`replay`] on a memory store, with each grid the λ window takes in
    /// — the fresh one, and each one it rotates in — NaN at every point
    /// outside the first touch's write box before the back step that
    /// assigns it.
    fn poisoned_replay(
        data: &Grid,
        plan: &CheckpointPlan,
        (stepper, sweep): &mut ShotState<'_>,
    ) -> (f64, Grid) {
        let first_touch: Vec<IntBox> = (sweep.schedule.groups.iter())
            .flat_map(|g| g.plan.write_boxes("u_2_b"))
            .collect();
        let n = stepper.zero.dims()[0] as i64;
        let faces = perforad_sched::uncovered(&(vec![0; 3], vec![n - 1; 3]), &first_touch);
        assert!(!faces.is_empty(), "the first touch leaves the faces alone");
        let poison = |g: &mut Grid| faces.iter().for_each(|b| fill_box(g, b, f64::NAN));
        let rolling = RefCell::new(Rolling::new(stepper.zero.dims()));
        poison(&mut rolling.borrow_mut().lam[2]);
        let s0 = (Arc::clone(&stepper.zero), Arc::clone(&stepper.zero));
        let mut step = |s: &mut SharedState, t: usize| stepper.step(s, t);
        let mut seed = |s: &SharedState| rolling.borrow_mut().seed(&s.1, data);
        let mut back = |s: &mut SharedState, _t: usize| {
            let mut rolling = rolling.borrow_mut();
            rolling.back(sweep, &mut s.1);
            poison(&mut rolling.lam[2]);
        };
        let mut store = MemStore::new();
        checkpointed_adjoint_plan(plan, s0, &mut store, &mut step, &mut seed, &mut back)
            .expect("in-memory sweep");
        let st = rolling.into_inner();
        (st.j, st.c_b)
    }

    /// λ_{t−1}'s first touch assigns, and no grid of the λ window is
    /// filled: a back step reads λ (as `u_b`) only inside the box the first
    /// touch wrote, so the faces it left stale are never read. Here every
    /// grid the window takes in is NaN on those faces, at every back step,
    /// and the golden shot's misfit and gradient keep every bit —
    /// store-all and checkpointed, on the tuned lowering (the model's pick:
    /// the JIT wherever a toolchain builds it) and on rows.
    #[test]
    fn a_poisoned_lambda_face_changes_no_bit_of_the_gradient() {
        let (cfg, c0, source, observed) = golden_shot();
        let pool = ThreadPool::new(1);
        let mut batch = ShotBatch::new();
        batch.push(source.clone(), observed.clone());
        for checkpointed in [false, true] {
            // Pin the model's pick, as the plan's own tuner call finds it.
            let adj = wave_adjoint();
            let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
            let mut ws = workspace(&c0, &["u_1", "u_b", "u_1_b", "u_2_b", "c_b"]);
            let mut topts = TuneOptions::quick()
                .with_measure(perforad_tune::Measure::Model)
                .with_accumulate(CARRIED);
            let state_bytes = (c0.clone(), c0.clone()).mem_bytes();
            topts.time_loop = checkpointed.then(|| TimeLoop::new(cfg.steps, state_bytes));
            autotune_adjoint(&adj, &mut ws, &bind, &pool, &topts).unwrap();

            let opts = BatchOptions {
                budget: Some(3),
                backend: SnapshotBackend::Memory,
                checkpointed: Some(checkpointed),
                ..BatchOptions::default()
            };
            let plan = BatchPlan::new(&cfg, &c0, &opts, &pool);
            let clean = plan.run(&batch);
            let (j, g) = (clean.misfits[0], &clean.gradients[0]);
            assert_eq!(digest(j, g), GOLDEN_SHOT_DIGEST, "clean run");
            let sweep = &plan.proto.1;
            assert!(sweep.gaps.is_empty(), "λ is read only where assigned");
            let interior = (vec![1; 3], vec![cfg.n as i64 - 2; 3]);
            assert_eq!(sweep.schedule.read_box("u_b"), Some(interior));

            let ckpt = match checkpointed {
                true => CheckpointPlan::with_budget(cfg.steps, 3),
                false => CheckpointPlan::store_all(cfg.steps),
            };
            for lowering in [plan.tuned().lowering, Lowering::Rows] {
                let mut state = plan.proto.clone();
                lower(&mut state, lowering);
                state.0.set_source(&source);
                let (pj, pg) = poisoned_replay(&observed, &ckpt, &mut state);
                let tag = format!("checkpointed {checkpointed}, {lowering:?}");
                assert_eq!(pj.to_bits(), j.to_bits(), "{tag}");
                for (a, b) in pg.as_slice().iter().zip(g.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{tag}");
                }
                assert_eq!(digest(pj, &pg), GOLDEN_SHOT_DIGEST, "{tag}");
            }
        }
    }

    /// Seven shots on four workers, each shot's state checked out of the
    /// idle list or cloned from the prototype: bit for bit the one-shot
    /// runs, and no two shot states (prototype included) own a grid in
    /// common — what they share is bound read-only.
    #[test]
    fn shot_states_cloned_for_a_batch_share_no_writable_grid() {
        let cfg = SeismicConfig {
            n: 8,
            steps: 7,
            d: 0.1,
        };
        let c0 = velocity(cfg.n);
        let mut batch = ShotBatch::new();
        for k in 0..7 {
            let src: Vec<f64> = ricker(cfg.steps)
                .iter()
                .map(|s| s * (1.0 + 0.3 * k as f64))
                .collect();
            batch.push(src, Grid::full(&[cfg.n; 3], 1e-3 * k as f64));
        }
        let opts = BatchOptions {
            strategy: Some(BatchStrategy::ShotParallel),
            budget: Some(3),
            backend: SnapshotBackend::Memory,
            checkpointed: Some(true),
        };
        let pool = ThreadPool::new(4);
        let mut plan = BatchPlan::new(&cfg, &c0, &opts, &pool);
        let res = plan.run(&batch);
        for k in 0..batch.len() {
            let (src, data) = (&batch.sources[k], &batch.observed[k]);
            let (j, g, _) = one_shot(&cfg, &c0, data, src, &opts);
            assert_eq!(res.misfits[k].to_bits(), j.to_bits(), "shot {k}");
            for (a, b) in res.gradients[k].as_slice().iter().zip(g.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "shot {k}");
            }
        }
        let mut owned = std::collections::BTreeSet::new();
        let idle = plan.idle.get_mut().unwrap();
        assert!(
            (1..=4).contains(&idle.len()),
            "{} warmed states",
            idle.len()
        );
        for (stepper, sweep) in idle.iter_mut().chain([&mut plan.proto]) {
            for ws in [&mut stepper.ws, &mut sweep.ws] {
                let names: Vec<Symbol> = ws.names().cloned().collect();
                for name in names {
                    if let Some(g) = ws.get_mut(&name) {
                        let fresh = owned.insert(g.as_slice().as_ptr() as usize);
                        assert!(fresh, "`{name}` is owned by two shot states");
                    }
                }
            }
        }
        // The stepper owns `u` and `c`, the sweep `c`, three λ and `c_b`.
        assert_eq!(owned.len(), (idle.len() + 1) * 7);
    }

    /// A misfit against a grid of another shape would zip the two grids
    /// short and seed λ_T from the overlap: refused instead.
    #[test]
    #[should_panic(expected = "one observed value per grid point")]
    fn an_observed_grid_of_another_shape_is_refused() {
        let cfg = SeismicConfig {
            n: 8,
            steps: 3,
            d: 0.1,
        };
        let mut batch = ShotBatch::new();
        batch.push(ricker(cfg.steps), Grid::zeros(&[cfg.n, cfg.n, cfg.n - 1]));
        let pool = ThreadPool::new(1);
        BatchPlan::new(&cfg, &velocity(cfg.n), &BatchOptions::default(), &pool).run(&batch);
    }

    #[test]
    fn default_budget_is_reasonable() {
        assert_eq!(default_budget(0), 2);
        assert_eq!(default_budget(4), 4);
        assert_eq!(default_budget(100), 20);
        assert!(default_budget(3) <= 3 + 1);
        for steps in [1usize, 2, 10, 1000] {
            let b = default_budget(steps);
            assert!(b >= 2 && b <= steps.max(2), "steps {steps}: {b}");
        }
    }
}
