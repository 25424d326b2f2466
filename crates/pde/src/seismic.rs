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
//! The primal trajectory the nonlinear `∂F/∂c` term needs is *not*
//! materialized for long sweeps: plans of [`CKPT_THRESHOLD_STEPS`] or more
//! steps (or forced with [`BatchOptions::checkpointed`]) stream the
//! forward pass under a `perforad-ckpt` [`CheckpointPlan`] — a snapshot
//! budget chosen by the autotuner (jointly with the stencil schedule, via
//! `TuneOptions::with_time_loop`) bounds live memory, the plan recomputes
//! the fewest steps any placement can under it (revolve's exact split),
//! and reverse segments are recomputed through the same tuned fused/JIT
//! schedule the store-all sweep uses. Both sweeps are
//! **bitwise-identical**: checkpointing changes where states come from,
//! never how steps execute.
//!
//! The time loop costs what its kernels cost: the primal step is a
//! one-nest [`Schedule`] tiled, lowered and driven like the tuned adjoint
//! — through the JIT tier when the tuner chose it for the adjoint, as a
//! second native artifact keyed by the primal plan's own fingerprint, and
//! on the row executor when that cannot be prepared; no step allocates or
//! copies a grid (a state is two shared grids, bound read-only into the
//! kernel workspaces, and a step writes only into a grid nothing else
//! holds; the adjoint kernel, compiled in accumulate mode, is lent λ_t,
//! λ_{t−1} and `∂J/∂c` to add its increments into) and the primal step
//! clears none, though a back step fills one (the λ grid rotated in by
//! `Rolling::back`) and adds nothing back; the adjoint field is a 3-grid
//! rolling window in both sweeps; a memory-store snapshot holds the
//! cursor's grids rather than a copy of them, so a warm checkpointed sweep
//! copies no grid at all, and what it steps into comes from a per-sweep
//! pool that recycles every grid no state, snapshot or workspace holds any
//! more; and a plan keeps its warmed shot states between runs instead of
//! cloning them per call.
//!
//! A short store-all sweep keeps its trajectory the same way: a plan below
//! [`CKPT_THRESHOLD_STEPS`] that runs store-all (the dispatch rule's choice
//! there) leaves `u_0 .. u_steps` in the warmed shot state and the next run
//! writes over them in place, so a warm run allocates its λ window and its
//! gradient and nothing per step — for `steps + 1` grids resident per warmed
//! shot state, fewer than 64 by construction. A plan *forced* to store-all
//! at or past the threshold allocates its trajectory per run and drops it.

use crate::wave3d;
use perforad_ckpt::{
    checkpointed_adjoint_plan, CheckpointPlan, CkptError, CkptReport, DiskStore, FallbackStore,
    MemStore, Snapshot, SnapshotStore,
};
use perforad_core::{Adjoint, AdjointOptions, BoundaryStrategy};
use perforad_exec::{default_pool, Binding, Grid, Lowering, ThreadPool, Workspace};
use perforad_sched::{
    compile_schedule, run_tuned, SchedOptions, Schedule, TunedConfig, TunedStrategy,
};
use perforad_symbolic::Symbol;
use perforad_tune::{
    autotune_adjoint, compile_tuned, fingerprint_nests, host, pick_batch_strategy, profile,
    BatchShape, BatchStrategy, KernelProfile, Machine, TimeLoop, TuneOptions,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::mem::swap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Plans at least this long default to the bounded-memory checkpointed
/// sweep; shorter ones keep the dense store-all sweep, and keep its
/// trajectory (fewer than this many grids) resident in each warmed shot
/// state between runs. [`BatchOptions::checkpointed`] overrides the sweep.
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
/// module (the dense [`forward`], the checkpointed streaming pass, and
/// its recomputed segments), so replayed segments are bitwise-identical
/// to the first execution. A one-nest [`Schedule`] tiled, lowered and
/// driven like the tuned adjoint: a `Jit` configuration is natively
/// prepared here ([`compile_tuned`] — registry, artifact cache, `rustc`),
/// and one that cannot be prepared is lowered to `Rows` instead, so an
/// unprepared `Jit` primal never runs and `jit.degraded_fallbacks` keeps
/// counting only the adjoint's degraded executions.
#[derive(Clone)]
struct Stepper<'p> {
    schedule: Schedule,
    tuned: TunedConfig,
    pool: &'p ThreadPool,
    /// The kernel's workspace: `u` owned (the step writes it), `u_1` and
    /// `u_2` bound shared (it only reads them) — to `zero` between steps.
    ws: Workspace,
    /// An all-zero grid nothing ever writes: `u_{−1}`, `u_0` of a
    /// checkpointed sweep, and what `u_1` and `u_2` hold between steps.
    zero: Arc<Grid>,
    src: [usize; 3],
    source: Vec<f64>,
    /// `u_0 .. u_steps` as the last store-all sweep of a plan shorter than
    /// [`CKPT_THRESHOLD_STEPS`] left them; empty for every other plan.
    traj: Vec<Arc<Grid>>,
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
        let mut tuned = TunedConfig {
            cse: false,
            ..tuned.clone()
        };
        let (mut schedule, native) =
            compile_tuned(&[wave3d::nest()], &ws, &bind, false, &tuned).expect("primal schedules");
        if !native {
            // Plain rows, not an unprepared `Jit` (the same tiles on the
            // same executor, but counted as a degraded execution).
            tuned.lowering = Lowering::Rows;
            schedule.lowering = Lowering::Rows;
        }
        Stepper {
            schedule,
            tuned,
            pool,
            ws,
            zero,
            src: cfg.source_index(),
            source: vec![0.0; cfg.steps],
            traj: Vec::new(),
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
    /// `out`: a grid nothing but `out` holds, which the new state then
    /// shares. The state's grids are bound to the workspace shared and
    /// `out`'s lent to it for the run, then all are handed back. No grid
    /// is allocated, copied or cleared: the step *assigns* every interior
    /// point of `out`, whose boundary planes are zero already — every grid
    /// a time loop steps into starts all-zero and is only ever written on
    /// its interior, the source point included.
    fn step(&mut self, state: &mut SharedState, out: &mut Arc<Grid>, t: usize) {
        let u = Arc::get_mut(out).expect("a step writes only a grid nothing else holds");
        self.exchange(state, u);
        self.run();
        self.exchange(state, u);
        self.inject(u, t);
        state.0 = std::mem::replace(&mut state.1, Arc::clone(out));
    }

    /// Swap `(u_{t−1}, u_t)` and the grid being written with the
    /// workspace's `u_2`, `u_1` and `u`: lends them on the first call and
    /// takes them back on the second.
    fn exchange(&mut self, (u_2, u_1): &mut SharedState, u: &mut Grid) {
        swap(self.ws.shared_mut("u_2"), u_2);
        swap(self.ws.shared_mut("u_1"), u_1);
        swap(self.ws.grid_mut("u"), u);
    }

    /// The kernel on whatever the workspace holds: `u` from `u_1`, `u_2`.
    fn run(&mut self) {
        debug_assert!(boundary_is_zero(self.ws.grid("u")), "stale boundary");
        run_tuned(&self.schedule, &self.tuned, &mut self.ws, self.pool).expect("primal step");
    }

    /// Add step `t`'s source sample to `u_{t+1}`.
    fn inject(&self, u: &mut Grid, t: usize) {
        u.set(&self.src, u.get(&self.src) + self.source[t]);
    }

    /// Step through the whole time loop (one step per source sample),
    /// keeping every state: `u_0 .. u_steps`, written over `traj`'s grids
    /// when it is a trajectory this stepper filled before and into fresh
    /// zeroed ones otherwise. Step `t` reads `u_{t−1}` and `u_t` and writes
    /// `traj[t + 1]`, which only `traj` holds, under [`Stepper::step`]'s
    /// invariant: an entry's interior is assigned in full, its boundary was
    /// never anything but zero. `u_0` and `u_{−1}` (`zero`) are the zero
    /// initial condition, never written.
    fn trajectory(&mut self, mut traj: Vec<Arc<Grid>>) -> Vec<Arc<Grid>> {
        let (steps, dims) = (self.source.len(), self.zero.dims().to_vec());
        let _span = perforad_obs::span!(
            "seismic.forward", "seismic", "steps" => steps as u64, "n" => dims[0] as u64
        );
        traj.resize_with(steps + 1, || Arc::new(Grid::zeros(&dims)));
        debug_assert!(traj[0].norm2() == 0.0, "initial condition overwritten");
        let mut state = (Arc::clone(&self.zero), Arc::clone(&traj[0]));
        for t in 0..steps {
            self.step(&mut state, &mut traj[t + 1], t);
        }
        traj
    }
}

/// Run the primal time loop densely; returns the trajectory
/// `u_0 .. u_steps`. A verification/synthesis helper for short sweeps —
/// long-sweep gradients never materialize this vector.
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
    let traj = stepper.trajectory(Vec::new());
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

/// The adjoint workspace + tuned schedule every reverse sweep drives,
/// compiled in accumulate mode (`SchedOptions::accumulate`): each back
/// step adds one summed increment per point straight into the grids it
/// is lent. Tuning is best-effort: on failure a fused row-executor
/// schedule keeps the gradient available. The pool is borrowed from the
/// caller, not spawned per plan.
#[derive(Clone)]
struct ReverseSweep<'p> {
    ws: Workspace,
    pool: &'p ThreadPool,
    schedule: Schedule,
    tuned: TunedConfig,
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
        let mut topts = TuneOptions::quick().with_accumulate(true);
        topts.time_loop = time_loop;
        let (schedule, tuned) = match autotune_adjoint(adj, &mut ws, &bind, pool, &topts) {
            Ok((s, report)) => (s, report.config),
            Err(_) => {
                let opts = SchedOptions::default().with_rows().with_accumulate(true);
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
        ReverseSweep {
            ws,
            pool,
            schedule,
            tuned,
        }
    }

    /// One adjoint step: consume `λ_{t+1}` with `u_1 = u_t` bound, adding
    /// the `u_1_b`, `u_2_b` and `c_b` increments straight into `lambda`,
    /// `lambda_prev` and `c_b`. `u_t` is bound shared and the rest lent
    /// (swapped in, not copied) for the run, and all are handed back; the
    /// first two come back as they came.
    fn back(
        &mut self,
        u_t: &mut Arc<Grid>,
        lambda_next: &mut Grid,
        lambda: &mut Grid,
        lambda_prev: &mut Grid,
        c_b: &mut Grid,
    ) {
        let _span = perforad_obs::span!("seismic.back", "seismic");
        let mut lent = [
            ("u_b", lambda_next),
            ("u_1_b", lambda),
            ("u_2_b", lambda_prev),
            ("c_b", c_b),
        ];
        let mut exchange = |ws: &mut Workspace| {
            swap(ws.shared_mut("u_1"), u_t);
            for (name, grid) in &mut lent {
                swap(ws.grid_mut(name), *grid);
            }
        };
        exchange(&mut self.ws);
        run_tuned(&self.schedule, &self.tuned, &mut self.ws, self.pool).expect("adjoint step");
        exchange(&mut self.ws);
    }
}

/// Everything one in-flight shot mutates: a compiled stepper and reverse
/// sweep with their workspaces.
type ShotState<'p> = (Stepper<'p>, ReverseSweep<'p>);

/// The reverse-phase state both sweeps share: the misfit, the 3-grid
/// rolling adjoint window, and the accumulated model gradient. Back steps
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
    /// The kernel adds into all three directly. Its accumulate mode sums a
    /// point's increments from `+0.0` and adds the sum once, which is what
    /// a zeroed scratch grid added back would have done at every point it
    /// writes — and a point it does not write keeps its value, where the
    /// add-back turned a `−0.0` into `+0.0`; no grid here holds a `−0.0`
    /// at such a point (λ_{t−1} is all `+0.0` on entry — fresh, or rotated
    /// in and cleared — and the edges no nest writes stay as they started).
    fn back(&mut self, sweep: &mut ReverseSweep<'_>, u_t: &mut Arc<Grid>) {
        let [hi, mid, lo] = &mut self.lam;
        sweep.back(u_t, hi, mid, lo, &mut self.c_b);
        self.lam.rotate_left(1);
        self.lam[2].fill(0.0);
    }
}

/// The dense reference sweep on one shot state: materializes the full
/// trajectory (memory grows linearly with `steps`), then reverses it
/// through the same [`Rolling`] window the checkpointed sweep uses. A plan
/// shorter than [`CKPT_THRESHOLD_STEPS`] leaves the trajectory's grids in
/// the shot state for its next run to write over; a longer one (forced to
/// store-all) drops them: `steps + 1` resident grids per idle shot state is
/// the memory that threshold exists to bound.
fn store_all_core(cfg: &SeismicConfig, data: &Grid, state: &mut ShotState<'_>) -> (f64, Grid) {
    let (stepper, sweep) = state;
    let kept = std::mem::take(&mut stepper.traj);
    let mut traj = stepper.trajectory(kept);
    let mut rolling = Rolling::new(&[cfg.n, cfg.n, cfg.n]);
    rolling.seed(&traj[cfg.steps], data);
    // Step t produced u_t from u_1 = u_{t-1}.
    for t in (1..=cfg.steps).rev() {
        rolling.back(sweep, &mut traj[t - 1]);
    }
    if cfg.steps < CKPT_THRESHOLD_STEPS {
        stepper.traj = traj;
    }
    (rolling.j, rolling.c_b)
}

/// Where trajectory snapshots live during a checkpointed sweep.
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

/// The bounded-memory sweep on one shot state, under an explicit
/// (already resolved) snapshot budget. The
/// forward pass streams: at most `budget` `(u_{t−1}, u_t)` snapshots are
/// live at once, the adjoint field is a 3-grid rolling window, and reverse
/// segments are recomputed from snapshots through the same compiled primal
/// step — so the result is **bitwise-identical** to [`store_all_core`] at
/// a fraction of the memory; the returned [`CkptReport`] says what that
/// fraction was. [`CheckpointPlan`]'s memoized action stream makes the
/// replayed plan shape free after the first shot.
fn checkpointed_core(
    cfg: &SeismicConfig,
    data: &Grid,
    budget: usize,
    backend: &SnapshotBackend,
    state: &mut ShotState<'_>,
) -> (f64, Grid, CkptReport) {
    let plan = CheckpointPlan::with_budget(cfg.steps, budget);

    // Disk-backed sweeps must survive spill failures: per-snapshot write
    // errors are absorbed inside [`FallbackStore`] (the snapshot lands in
    // memory instead), and anything the store cannot absorb — a read
    // failure, an unusable spill directory — falls back to re-running the
    // *whole* sweep in memory. Both the stepper and the reverse sweep
    // overwrite their workspace grids per call and the rolling adjoint
    // state is rebuilt per attempt, so a retried gradient is
    // bitwise-identical to a first-try one.
    if let Some(dir) = spill_dir(backend) {
        let spilled = DiskStore::new(&dir).and_then(|disk| {
            let mut store = FallbackStore::new(disk);
            let mut grids = GridPool::new([cfg.n; 3]);
            checkpointed_attempt(cfg, data, &plan, &mut store, &mut grids, state)
        });
        match spilled {
            Ok(out) => return out,
            Err(e) => {
                perforad_obs::counter("ckpt.spill_fallbacks").inc();
                eprintln!("perforad: disk-backed checkpoint sweep failed ({e}); using memory");
            }
        }
    }
    let mut grids = GridPool::new([cfg.n; 3]);
    checkpointed_attempt(cfg, data, &plan, &mut MemStore::new(), &mut grids, state)
        .expect("in-memory checkpointed sweep")
}

/// The grids a checkpointed sweep steps into. The pool holds a reference
/// to each as well, so a grid only it holds — no state, snapshot or
/// workspace does any more — is free, and the next step writes into it
/// instead of a fresh one. One pool per sweep: nothing stays resident
/// between runs.
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

/// One full checkpointed sweep against a concrete snapshot store: fresh
/// rolling adjoint state, the memoized action stream replayed start to
/// finish. The cursor and the snapshots share the grids `grids` hands
/// out, so a memory store moves references where it used to copy states.
/// Errors out of the store surface here for the caller's fallback
/// decision.
fn checkpointed_attempt(
    cfg: &SeismicConfig,
    data: &Grid,
    plan: &CheckpointPlan,
    store: &mut impl SnapshotStore<SharedState>,
    grids: &mut GridPool,
    (stepper, sweep): &mut ShotState<'_>,
) -> Result<(f64, Grid, CkptReport), CkptError> {
    let dims = [cfg.n, cfg.n, cfg.n];
    // `u_{−1}` and `u_0` are zero, and no step writes a state it holds.
    let s0 = (Arc::clone(&stepper.zero), Arc::clone(&stepper.zero));
    // The driver calls `seed` and `back` strictly sequentially, so a
    // RefCell resolves the closure-borrow overlap without locking.
    let rolling = RefCell::new(Rolling::new(&dims));
    let mut step = |s: &mut SharedState, t: usize| {
        let _span = perforad_obs::span!("seismic.step", "seismic", "t" => t as u64);
        stepper.step(s, grids.free(), t)
    };
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
    /// sweep; `None` applies the [`CKPT_THRESHOLD_STEPS`] rule.
    pub checkpointed: Option<bool>,
}

/// Per-shot outputs of a batched gradient, in shot order.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// `J_k` per shot.
    pub misfits: Vec<f64>,
    /// `∂J_k/∂c` per shot.
    pub gradients: Vec<Grid>,
    /// Checkpoint accounting per shot (`None` for store-all sweeps).
    pub reports: Vec<Option<CkptReport>>,
    /// The dispatch strategy that actually ran.
    pub strategy: BatchStrategy,
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
    fingerprint: u64,
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
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        let fingerprint =
            fingerprint_nests(&adj.nests, adj.strategy == BoundaryStrategy::Padded, &bind);
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
            fingerprint,
            budget,
            checkpointed,
            opts: opts.clone(),
        }
    }

    /// The adjoint nest fingerprint this plan was tuned under — the same
    /// value `perforad-tune` keys its persistent cache by, and the unit of
    /// multi-request reuse for a serving layer.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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
        let mut out: Vec<(f64, Grid, Option<CkptReport>)> = Vec::with_capacity(shots);
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
                // Workers own whole shots and run them strictly serially —
                // `run_tuned` with a `Serial` strategy never re-enters the
                // pool, which is not reentrant.
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
        let mut misfits = Vec::with_capacity(shots);
        let mut gradients = Vec::with_capacity(shots);
        let mut reports = Vec::with_capacity(shots);
        for (j, g, rep) in out {
            misfits.push(j);
            gradients.push(g);
            reports.push(rep);
        }
        BatchResult {
            misfits,
            gradients,
            reports,
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
    ) -> (f64, Grid, Option<CkptReport>) {
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
        let (data, backend) = (&batch.observed[k], &self.opts.backend);
        let shot = if self.checkpointed {
            let (j, g, rep) = checkpointed_core(&self.cfg, data, self.budget, backend, &mut state);
            (j, g, Some(rep))
        } else {
            let (j, g) = store_all_core(&self.cfg, data, &mut state);
            (j, g, None)
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

        let (j0, grad, _) = one_shot(&cfg, &c0, &data, &src, &BatchOptions::default());
        assert!(j0 > 0.0);

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
                "probe {probe:?}: fd {fd} vs adjoint {an}"
            );
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

    /// A kept trajectory is scratch: whatever a warm run finds in it — here
    /// NaN at every interior point of every entry a run writes, with the
    /// boundary left zero — the run assigns all of it before reading any.
    #[test]
    fn poisoned_kept_trajectory_changes_no_bit_of_the_next_run() {
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
        let traj = &mut idle[0].0.traj;
        assert_eq!(traj.len(), cfg.steps + 1, "the trajectory stayed");
        let interior = |ix: &[usize]| ix.iter().all(|&i| (1..cfg.n - 1).contains(&i));
        for u in &mut traj[1..] {
            *u = Arc::new(Grid::from_fn(&[cfg.n; 3], |ix| {
                if interior(ix) {
                    f64::NAN
                } else {
                    0.0
                }
            }));
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

        // At the threshold a forced store-all run keeps nothing resident.
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
        assert!(plan.idle.get_mut().unwrap()[0].0.traj.is_empty());
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
        let interior = |ix: &[usize]| ix.iter().all(|&i| (1..cfg.n - 1).contains(&i));
        let poison = Grid::from_fn(&[cfg.n; 3], |ix| if interior(ix) { f64::NAN } else { 0.0 });
        const FILLED: usize = 32;
        let mut grids = GridPool {
            dims: [cfg.n; 3],
            grids: (0..FILLED).map(|_| Arc::new(poison.clone())).collect(),
        };
        let plan = CheckpointPlan::with_budget(cfg.steps, 3);
        let mut store = MemStore::new();
        let poisoned = checkpointed_attempt(&cfg, &data, &plan, &mut store, &mut grids, &mut state)
            .expect("in-memory checkpointed sweep");
        drop(store);
        assert_eq!(
            grids.grids.len(),
            FILLED,
            "a grid came from outside the poisoned pool"
        );
        let written = grids
            .grids
            .iter()
            .filter(|g| !g.as_slice().iter().any(|v| v.is_nan()));
        assert!(written.count() > 0, "the run stepped into no pool grid");
        assert!(clean.0 > 0.0 && clean.1.norm2() > 0.0);
        assert_eq!(poisoned.0.to_bits(), clean.0.to_bits());
        for (a, b) in poisoned.1.as_slice().iter().zip(clean.1.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
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
