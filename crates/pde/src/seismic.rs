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
//! `TuneOptions::with_time_loop`) bounds live memory, and reverse
//! segments are recomputed through the same tuned fused/JIT schedule the
//! store-all sweep uses. Both sweeps are **bitwise-identical**:
//! checkpointing changes where states come from, never how steps execute.

use crate::wave3d;
use perforad_ckpt::{
    checkpointed_adjoint_plan, CheckpointPlan, CkptError, CkptReport, DiskStore, FallbackStore,
    MemStore, Snapshot, SnapshotStore,
};
use perforad_core::{Adjoint, AdjointOptions, BoundaryStrategy};
use perforad_exec::{compile_nest, run, Binding, ExecMode, Grid, Plan, ThreadPool, Workspace};
use perforad_sched::{
    compile_schedule, run_tuned, SchedOptions, Schedule, TunedConfig, TunedStrategy,
};
use perforad_symbolic::Symbol;
use perforad_tune::{
    autotune_adjoint, fingerprint_nests, host, pick_batch_strategy, profile, BatchShape,
    BatchStrategy, KernelProfile, Machine, TimeLoop, TuneOptions,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Plans at least this long default to the bounded-memory checkpointed
/// sweep; shorter ones keep the dense store-all sweep (whose trajectory is
/// a handful of grids at most). [`BatchOptions::checkpointed`] overrides.
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

/// One compiled primal wave step, shared by every forward pass in this
/// module (the dense [`forward`], the checkpointed streaming pass, and
/// its recomputed segments), so replayed segments are bitwise-identical
/// to the first execution.
#[derive(Clone)]
struct Stepper {
    plan: Plan,
    ws: Workspace,
    src: [usize; 3],
    source: Vec<f64>,
}

impl Stepper {
    fn new(cfg: &SeismicConfig, c: &Grid, source: &[f64]) -> Stepper {
        assert_eq!(source.len(), cfg.steps);
        let dims = [cfg.n, cfg.n, cfg.n];
        let nest = wave3d::nest();
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        let mut ws = Workspace::new();
        ws.insert("c", c.clone());
        ws.insert("u", Grid::zeros(&dims));
        ws.insert("u_1", Grid::zeros(&dims));
        ws.insert("u_2", Grid::zeros(&dims));
        let plan = compile_nest(&nest, &ws, &bind).expect("primal compiles");
        Stepper {
            plan,
            ws,
            src: cfg.source_index(),
            source: source.to_vec(),
        }
    }

    /// Swap in another shot's source trace; the compiled plan and the
    /// workspace are shot-independent, so a batch clones one prototype
    /// and re-targets it per shot instead of recompiling.
    fn set_source(&mut self, source: &[f64]) {
        assert_eq!(source.len(), self.source.len());
        self.source.clear();
        self.source.extend_from_slice(source);
    }

    /// Advance `(u_{t−1}, u_t)` to `(u_t, u_{t+1})`.
    fn step(&mut self, state: &WaveState, t: usize) -> WaveState {
        let _span = perforad_obs::span!("seismic.step", "seismic", "t" => t as u64);
        *self.ws.grid_mut("u_1") = state.1.clone();
        *self.ws.grid_mut("u_2") = state.0.clone();
        self.ws.grid_mut("u").fill(0.0);
        run(&self.plan, &mut self.ws, ExecMode::serial()).expect("primal step");
        let mut next = self.ws.grid("u").clone();
        let v = next.get(&self.src) + self.source[t];
        next.set(&self.src, v);
        (state.1.clone(), next)
    }
}

/// Run the primal time loop densely; returns the trajectory
/// `u_0 .. u_steps`. A verification/synthesis helper for short sweeps —
/// long-sweep gradients never materialize this vector.
pub fn forward(cfg: &SeismicConfig, c: &Grid, source: &[f64]) -> Vec<Grid> {
    let _span = perforad_obs::span!(
        "seismic.forward", "seismic", "steps" => cfg.steps as u64, "n" => cfg.n as u64
    );
    let dims = [cfg.n, cfg.n, cfg.n];
    let mut stepper = Stepper::new(cfg, c, source);
    let mut traj = Vec::with_capacity(cfg.steps + 1);
    traj.push(Grid::zeros(&dims));
    let mut state: WaveState = (Grid::zeros(&dims), Grid::zeros(&dims));
    for t in 0..cfg.steps {
        state = stepper.step(&state, t);
        traj.push(state.1.clone());
    }
    traj
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

/// The adjoint workspace + tuned schedule every reverse sweep drives.
/// Tuning is best-effort: on failure the hand-picked fused row-executor
/// schedule of PR 2 keeps the gradient available. The pool is borrowed
/// from the caller, not spawned per plan.
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
        let dims = [cfg.n, cfg.n, cfg.n];
        let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
        let mut ws = Workspace::new();
        ws.insert("c", c.clone());
        ws.insert("u_1", Grid::zeros(&dims));
        ws.insert("u_b", Grid::zeros(&dims));
        ws.insert("u_1_b", Grid::zeros(&dims));
        ws.insert("u_2_b", Grid::zeros(&dims));
        ws.insert("c_b", Grid::zeros(&dims));
        let mut topts = TuneOptions::quick();
        topts.time_loop = time_loop;
        let (schedule, tuned) = match autotune_adjoint(adj, &mut ws, &bind, pool, &topts) {
            Ok((s, report)) => (s, report.config),
            Err(_) => {
                let s = compile_schedule(adj, &ws, &bind, &SchedOptions::default().with_rows())
                    .expect("adjoint schedules");
                let fallback = TunedConfig {
                    strategy: TunedStrategy::Parallel,
                    lowering: perforad_exec::Lowering::Rows,
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

    /// One adjoint step: consume `λ_{t+1}` with `u_1 = u_t` bound, leaving
    /// the `u_1_b`/`u_2_b`/`c_b` contributions in the workspace.
    fn back(&mut self, u_t: &Grid, lambda_next: &Grid) {
        let _span = perforad_obs::span!("seismic.back", "seismic");
        *self.ws.grid_mut("u_1") = u_t.clone();
        *self.ws.grid_mut("u_b") = lambda_next.clone();
        self.ws.grid_mut("u_1_b").fill(0.0);
        self.ws.grid_mut("u_2_b").fill(0.0);
        self.ws.grid_mut("c_b").fill(0.0);
        run_tuned(&self.schedule, &self.tuned, &mut self.ws, self.pool).expect("adjoint step");
    }
}

/// The dense reference sweep against one shot's compiled stepper + reverse
/// sweep: materializes the full trajectory and the full adjoint field
/// vector, so memory grows linearly with `steps`.
fn store_all_core(
    cfg: &SeismicConfig,
    data: &Grid,
    stepper: &mut Stepper,
    sweep: &mut ReverseSweep<'_>,
) -> (f64, Grid) {
    let dims = [cfg.n, cfg.n, cfg.n];
    let mut traj = Vec::with_capacity(cfg.steps + 1);
    {
        let _fwd = perforad_obs::span!(
            "seismic.forward", "seismic", "steps" => cfg.steps as u64, "n" => cfg.n as u64
        );
        traj.push(Grid::zeros(&dims));
        let mut state: WaveState = (Grid::zeros(&dims), Grid::zeros(&dims));
        for t in 0..cfg.steps {
            state = stepper.step(&state, t);
            traj.push(state.1.clone());
        }
    }
    let j = misfit(&traj[cfg.steps], data);

    // λ_t = ∂J/∂u_t; only λ_T seeded directly. Source injection is additive
    // and c-independent, so it contributes nothing to the adjoint.
    let mut lambda: Vec<Grid> = (0..=cfg.steps).map(|_| Grid::zeros(&dims)).collect();
    {
        let lam = &mut lambda[cfg.steps];
        for (l, (u, d)) in lam
            .as_mut_slice()
            .iter_mut()
            .zip(traj[cfg.steps].as_slice().iter().zip(data.as_slice()))
        {
            *l = u - d;
        }
    }
    let mut c_b = Grid::zeros(&dims);
    for t in (1..=cfg.steps).rev() {
        // Step t produced u_t from u_1 = u_{t-1}, u_2 = u_{t-2}.
        sweep.back(&traj[t - 1], &lambda[t]);
        // Scatter-free accumulation into earlier adjoint fields.
        add_into(&mut lambda[t - 1], sweep.ws.grid("u_1_b"));
        if t >= 2 {
            add_into(&mut lambda[t - 2], sweep.ws.grid("u_2_b"));
        }
        add_into(&mut c_b, sweep.ws.grid("c_b"));
    }
    (j, c_b)
}

/// Where trajectory snapshots live during a checkpointed sweep.
#[derive(Clone, Debug, Default)]
pub enum SnapshotBackend {
    /// Spill to `$PERFORAD_CKPT_DIR` when that variable is set, keep
    /// in-memory clones otherwise.
    #[default]
    Auto,
    /// In-memory clones (fast; the budget bounds their count).
    Memory,
    /// Bitwise-exact spill files under the given directory.
    Disk(PathBuf),
}

/// The bounded-memory sweep against one shot's compiled stepper + reverse
/// sweep, under an explicit (already resolved) snapshot budget. The
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
    stepper: &mut Stepper,
    sweep: &mut ReverseSweep<'_>,
) -> (f64, Grid, CkptReport) {
    let plan = CheckpointPlan::with_budget(cfg.steps, budget);

    // Disk-backed sweeps must survive spill failures: per-snapshot write
    // errors are absorbed inside [`FallbackStore`] (the snapshot lands in
    // memory instead), and anything the store cannot absorb — a read
    // failure, an unusable spill directory — falls back to re-running the
    // *whole* sweep in memory. Both the stepper and the reverse sweep
    // reset their workspace grids per call and the rolling adjoint state
    // is rebuilt per attempt, so a retried gradient is bitwise-identical
    // to a first-try one.
    if let ResolvedBackend::Disk(dir) = resolve_backend(backend) {
        match DiskStore::new(&dir) {
            Ok(disk) => {
                let mut store = FallbackStore::new(disk);
                match checkpointed_attempt(cfg, data, &plan, &mut store, stepper, sweep) {
                    Ok(out) => return out,
                    Err(e) => {
                        perforad_obs::counter("ckpt.spill_fallbacks").inc();
                        eprintln!(
                            "perforad: disk-backed checkpoint sweep failed ({e}); \
                             re-running in memory"
                        );
                    }
                }
            }
            Err(e) => {
                perforad_obs::counter("ckpt.spill_fallbacks").inc();
                eprintln!("perforad: snapshot spill directory unavailable ({e}); using memory");
            }
        }
    }
    checkpointed_attempt(cfg, data, &plan, &mut MemStore::new(), stepper, sweep)
        .expect("in-memory checkpointed sweep")
}

/// One full checkpointed sweep against a concrete snapshot store: fresh
/// rolling adjoint state, the memoized action stream replayed start to
/// finish. Errors out of the store surface here for the caller's
/// fallback decision.
fn checkpointed_attempt(
    cfg: &SeismicConfig,
    data: &Grid,
    plan: &CheckpointPlan,
    store: &mut impl SnapshotStore<WaveState>,
    stepper: &mut Stepper,
    sweep: &mut ReverseSweep<'_>,
) -> Result<(f64, Grid, CkptReport), CkptError> {
    let dims = [cfg.n, cfg.n, cfg.n];
    let s0: WaveState = (Grid::zeros(&dims), Grid::zeros(&dims));

    // Shared mutable sweep state: the driver calls `seed` and `back`
    // strictly sequentially, so a RefCell resolves the closure-borrow
    // overlap without locking.
    struct Rolling<'a, 'p> {
        sweep: &'a mut ReverseSweep<'p>,
        j: f64,
        /// λ_{t+1}: fully accumulated, consumed by the next back step.
        lam_hi: Grid,
        /// λ_t: partial (holds the `u_1_b` row of the current step).
        lam_mid: Grid,
        /// λ_{t−1}: partial (holds the `u_2_b` row of the current step).
        lam_lo: Grid,
        c_b: Grid,
    }
    let rolling = RefCell::new(Rolling {
        sweep,
        j: 0.0,
        lam_hi: Grid::zeros(&dims),
        lam_mid: Grid::zeros(&dims),
        lam_lo: Grid::zeros(&dims),
        c_b: Grid::zeros(&dims),
    });

    let mut step = |s: &WaveState, t: usize| stepper.step(s, t);
    let mut seed = |s: &WaveState| {
        let st = &mut *rolling.borrow_mut();
        st.j = misfit(&s.1, data);
        for (l, (u, d)) in st
            .lam_hi
            .as_mut_slice()
            .iter_mut()
            .zip(s.1.as_slice().iter().zip(data.as_slice()))
        {
            *l = u - d;
        }
    };
    let mut back = |s: &WaveState, _t: usize| {
        let st = &mut *rolling.borrow_mut();
        // Step t produced u_{t+1} from u_1 = u_t (= s.1), u_2 = u_{t−1};
        // its adjoint consumes λ_{t+1} and feeds λ_t and λ_{t−1}.
        // (Field borrows of `st` are disjoint: no per-step clones.)
        st.sweep.back(&s.1, &st.lam_hi);
        add_into(&mut st.lam_mid, st.sweep.ws.grid("u_1_b"));
        add_into(&mut st.lam_lo, st.sweep.ws.grid("u_2_b"));
        add_into(&mut st.c_b, st.sweep.ws.grid("c_b"));
        // Roll the window down one step.
        std::mem::swap(&mut st.lam_hi, &mut st.lam_mid);
        std::mem::swap(&mut st.lam_mid, &mut st.lam_lo);
        st.lam_lo.fill(0.0);
    };

    let report = checkpointed_adjoint_plan(plan, s0, store, &mut step, &mut seed, &mut back)?;
    let st = rolling.into_inner();
    Ok((st.j, st.c_b, report))
}

enum ResolvedBackend {
    Memory,
    Disk(PathBuf),
}

fn resolve_backend(backend: &SnapshotBackend) -> ResolvedBackend {
    match backend {
        SnapshotBackend::Memory => ResolvedBackend::Memory,
        SnapshotBackend::Disk(dir) => ResolvedBackend::Disk(dir.clone()),
        SnapshotBackend::Auto => match std::env::var_os(perforad_ckpt::CKPT_DIR_ENV) {
            Some(dir) => ResolvedBackend::Disk(PathBuf::from(dir)),
            None => ResolvedBackend::Memory,
        },
    }
}

/// Fallback snapshot budget when tuning is unavailable: `2√T`, the
/// classic constant-repetition sweet spot, clamped into the plan's valid
/// range.
fn default_budget(steps: usize) -> usize {
    ((2.0 * (steps.max(1) as f64).sqrt()).ceil() as usize).clamp(2, steps.max(2))
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
    stepper_proto: Stepper,
    sweep_proto: ReverseSweep<'p>,
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
        let sweep_proto = ReverseSweep::new(cfg, c, time_loop, pool, &adj);
        let budget = opts
            .budget
            .or(sweep_proto.tuned.checkpoint)
            .unwrap_or_else(|| default_budget(cfg.steps));
        let stepper_proto = Stepper::new(cfg, c, &vec![0.0; cfg.steps]);
        let mut sizes = BTreeMap::new();
        sizes.insert(Symbol::new("n"), cfg.n as i64);
        let prof = profile(&adj.nests, &sizes);
        BatchPlan {
            cfg: *cfg,
            pool,
            stepper_proto,
            nest_count: adj.nests.len(),
            sweep_proto,
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
        &self.sweep_proto.tuned
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
        *self.stepper_proto.ws.grid_mut("c") = c.clone();
        *self.sweep_proto.ws.grid_mut("c") = c.clone();
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
            &self.sweep_proto.tuned,
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
        for s in &batch.sources {
            assert_eq!(s.len(), self.cfg.steps, "one source sample per step");
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
                // Round-robin: one worker pair of protos, each shot's
                // sweep runs grid-parallel through the tuned schedule.
                let mut stepper = self.stepper_proto.clone();
                let mut sweep = self.sweep_proto.clone();
                for k in 0..shots {
                    out.push(self.run_shot(
                        k,
                        batch,
                        &mut stepper,
                        &mut sweep,
                        &shots_total,
                        &shot_ns,
                    ));
                }
            }
            BatchStrategy::ShotParallel => {
                // Workers own whole shots. Each worker clones the compiled
                // prototypes once (its private workspace/snapshot state)
                // and runs its shots strictly serially — `run_tuned` with
                // a `Serial` strategy never re-enters the pool, which is
                // not reentrant.
                let serial = TunedConfig {
                    strategy: TunedStrategy::Serial,
                    ..self.sweep_proto.tuned.clone()
                };
                let slots = Mutex::new(Vec::with_capacity(shots));
                self.pool.work_queue(
                    shots,
                    |_tid| {
                        let mut sweep = self.sweep_proto.clone();
                        sweep.tuned = serial.clone();
                        (self.stepper_proto.clone(), sweep)
                    },
                    |k, state: &mut (Stepper, ReverseSweep<'p>)| {
                        let (stepper, sweep) = state;
                        let shot = self.run_shot(k, batch, stepper, sweep, &shots_total, &shot_ns);
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
        stepper: &mut Stepper,
        sweep: &mut ReverseSweep<'_>,
        shots_total: &perforad_obs::Counter,
        shot_ns: &perforad_obs::Histogram,
    ) -> (f64, Grid, Option<CkptReport>) {
        let _span = perforad_obs::span!("seismic.shot", "seismic", "shot" => k as u64);
        let t0 = perforad_obs::enabled().then(perforad_obs::now_ns);
        stepper.set_source(&batch.sources[k]);
        let shot = if self.checkpointed {
            let (j, g, rep) = checkpointed_core(
                &self.cfg,
                &batch.observed[k],
                self.budget,
                &self.opts.backend,
                stepper,
                sweep,
            );
            (j, g, Some(rep))
        } else {
            let (j, g) = store_all_core(&self.cfg, &batch.observed[k], stepper, sweep);
            (j, g, None)
        };
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
