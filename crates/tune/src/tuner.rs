//! The two-stage tuner: model-guided pruning, then empirical timing.
//!
//! Stage 1 ranks the whole [`search_space`] (plus the JIT lowering axis
//! when the host can build or load native code) with
//! [`perforad_perfmodel::predict_schedule`] — pure arithmetic, no
//! execution — and keeps the top-K candidates. Stage 2 compiles the work
//! once per fusion choice ([`compile_work`]: the candidates differ in
//! tiling, policy and lowering, which compile nothing) and tiles each
//! survivor from it into a real [`Schedule`] — JIT candidates are natively
//! prepared first, reusing `perforad-jit`'s persistent artifact cache so
//! the out-of-process compile is paid once per fingerprint — and times
//! it (best-of-N wall clock, one warm-up sweep first). A hill-climbing
//! refinement stage then walks the winner's tile vector (±1
//! doubling/halving step per rank, the palette's step size) until no
//! neighbour improves, scoring each neighbour the way stage 2 scores a
//! survivor. The final winner is returned and recorded in the tuning
//! cache so the next identical (work, machine) pair skips every stage;
//! the memory layer keeps its compiled work too, so that hit re-tiles.

use crate::cache::{
    cache_key, fingerprint_nests, fnv1a64, memory_lookup, memory_store, CacheEntry, TuneCache,
};
use crate::space::{budget_palette, search_space};
use crate::timing::time_best;
use perforad_ckpt::CheckpointPlan;
use perforad_core::{Adjoint, BoundaryStrategy, LoopNest};
use perforad_exec::{Binding, Lowering, ThreadPool, Workspace};
use perforad_perfmodel::{
    host, predict_batch, predict_checkpoint, predict_schedule, profile, BatchShape, BatchStrategy,
    KernelProfile, Machine, ScheduleShape,
};
use perforad_sched::{
    compile_schedule_nests, compile_work, run_tuned, tile_work, CompiledWork, SchedError,
    SchedOptions, Schedule, TilePolicy, TunedConfig, TunedStrategy,
};
use perforad_symbolic::Symbol;
use std::collections::BTreeSet;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// How stage 2 scores the surviving candidates.
#[derive(Clone, Copy, Debug)]
pub enum Measure {
    /// Best-of-`samples` wall-clock timing of real schedule executions
    /// (one untimed warm-up sweep first). The production mode.
    Wall { samples: usize },
    /// Deterministic pseudo-times derived from `seed` and each
    /// candidate's fingerprint — no execution (and no JIT builds: a Jit
    /// winner is prepared lazily by the caller, or falls back to rows).
    /// For tests that need the whole tuner pipeline to be reproducible.
    Synthetic { seed: u64 },
    /// Trust the analytic model outright: the top-ranked candidate wins
    /// without any execution — and without any out-of-process JIT
    /// builds (a Jit winner falls back to rows until
    /// `perforad_jit::prepare_schedule` runs). The cheapest mode;
    /// useful when a workload cannot afford even top-K timing sweeps.
    Model,
}

/// One primal step's cost as a fraction of one adjoint sweep (the
/// quantity the tuner measures). The adjoint of a stencil step does
/// strictly more work than the step itself, so this is below 1. Both the
/// snapshot budget ([`TimeLoop`]) and the batch strategy
/// ([`pick_batch_strategy`]) price recomputed and forward steps with it,
/// and a time-loop cache key records it.
pub const PRIMAL_FACTOR: f64 = 0.5;

/// A checkpointed time loop the tuned schedule will drive, described to
/// the tuner so it can search the snapshot-count axis jointly with the
/// stencil schedule. The axis is *separable*: the budget never changes
/// per-sweep cost, so the tuner times sweeps once per schedule candidate
/// and prices every budget analytically on top of the winner's measured
/// time — jointly optimal under the model at the cost of a single axis
/// sweep, not a cross product.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeLoop {
    /// Time steps in the sweep.
    pub steps: usize,
    /// Bytes per trajectory snapshot (the full time-loop state).
    pub state_bytes: usize,
}

impl TimeLoop {
    /// Describe a sweep.
    pub fn new(steps: usize, state_bytes: usize) -> Self {
        TimeLoop { steps, state_bytes }
    }
}

/// Tuner knobs.
#[derive(Clone, Debug)]
pub struct TuneOptions {
    /// Candidates surviving the model prune into the timing stage.
    pub top_k: usize,
    /// Stage-2 scoring mode.
    pub measure: Measure,
    /// Machine fed to the stage-1 analytic model.
    pub machine: Machine,
    /// JSON tuning-cache file shared across processes. Defaults to the
    /// `PERFORAD_TUNE_CACHE` environment variable when set.
    pub cache_path: Option<PathBuf>,
    /// Consult/fill the process-wide in-memory cache (default on).
    pub memory_cache: bool,
    /// Compile every candidate, and the winner, in accumulate mode,
    /// carrying state in these arrays (`SchedOptions::accumulate`; `None`:
    /// plain mode). Not a searched axis — the caller's plan-level choice —
    /// and not part of the cache key: the mode drops a scratch pass and a
    /// fill, it does not change which configuration wins.
    pub accumulate: Option<BTreeSet<Symbol>>,
    /// Include the JIT lowering in the search space (effective only when
    /// `perforad_jit::available()` — no toolchain, no Jit candidates, so
    /// the tuner never times configurations that would silently fall
    /// back to rows).
    pub jit: bool,
    /// Maximum hill-climbing rounds around the empirical winner: each
    /// round times every ±1 doubling/halving neighbour of the winning
    /// tile vector (one step per rank) and moves if one improves.
    /// `0` disables refinement; [`Measure::Model`] never refines (there
    /// is nothing empirical to climb).
    pub refine_rounds: usize,
    /// When the schedule will drive a checkpointed time loop, its shape:
    /// the tuner then also searches the snapshot budget (the
    /// [`budget_palette`] axis, priced by
    /// [`perforad_perfmodel::predict_checkpoint`] against
    /// [`Machine::mem_budget_bytes`]) and records the winner in
    /// [`TunedConfig::checkpoint`].
    pub time_loop: Option<TimeLoop>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        // Asked once: the answer is read from cgroup files, ≈ 12 µs a call.
        static THREADS: OnceLock<usize> = OnceLock::new();
        let threads = *THREADS.get_or_init(|| {
            let cores = std::thread::available_parallelism();
            cores.map(|c| c.get()).unwrap_or(2)
        });
        TuneOptions {
            top_k: 8,
            measure: Measure::Wall { samples: 3 },
            machine: host(threads),
            cache_path: std::env::var_os("PERFORAD_TUNE_CACHE").map(PathBuf::from),
            memory_cache: true,
            accumulate: None,
            jit: true,
            refine_rounds: 1,
            time_loop: None,
        }
    }
}

impl TuneOptions {
    /// A cheaper preset for workloads that tune inline (fewer survivors,
    /// fewer samples) — used by the seismic driver's default path.
    pub fn quick() -> Self {
        TuneOptions {
            top_k: 5,
            measure: Measure::Wall { samples: 2 },
            ..TuneOptions::default()
        }
    }

    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }

    pub fn with_measure(mut self, measure: Measure) -> Self {
        self.measure = measure;
        self
    }

    pub fn with_machine(mut self, machine: Machine) -> Self {
        self.machine = machine;
        self
    }

    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Disable both cache layers (every call re-searches).
    pub fn without_cache(mut self) -> Self {
        self.cache_path = None;
        self.memory_cache = false;
        self
    }

    /// Accumulate mode, carrying state in `carried`: see
    /// [`TuneOptions::accumulate`].
    pub fn with_accumulate(mut self, carried: impl IntoIterator<Item = impl Into<Symbol>>) -> Self {
        self.accumulate = Some(carried.into_iter().map(Into::into).collect());
        self
    }

    pub fn with_jit(mut self, jit: bool) -> Self {
        self.jit = jit;
        self
    }

    pub fn with_refine_rounds(mut self, rounds: usize) -> Self {
        self.refine_rounds = rounds;
        self
    }

    /// Tune for a checkpointed time loop: search the snapshot-count axis
    /// too, recording the winning budget in [`TunedConfig::checkpoint`].
    pub fn with_time_loop(mut self, time_loop: TimeLoop) -> Self {
        self.time_loop = Some(time_loop);
        self
    }
}

/// Why tuning failed. (Cache-file I/O never fails a tuning run: an
/// unreadable file is a clean miss, an unwritable one loses only the
/// persistence, not the computed winner.)
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// Every candidate failed to compile (the last error is carried).
    Sched(SchedError),
    /// The search space was empty for this nest list.
    EmptySpace,
}

impl fmt::Display for TuneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TuneError::Sched(e) => write!(f, "schedule compilation: {e}"),
            TuneError::EmptySpace => write!(f, "empty search space"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<SchedError> for TuneError {
    fn from(e: SchedError) -> Self {
        TuneError::Sched(e)
    }
}

/// What a tuning run found.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// The winning configuration.
    pub config: TunedConfig,
    /// The winner's stage-2 score, seconds.
    pub seconds: f64,
    /// True when the result came from a cache layer (no search ran).
    pub cache_hit: bool,
    /// Size of the full enumerated space (0 on a cache hit — nothing was
    /// enumerated).
    pub candidates: usize,
    /// Candidates that reached the timing stage (0 on a cache hit).
    pub timed: usize,
    /// Tile-neighbour candidates timed by the hill-climbing refinement
    /// stage (0 on a cache hit or under [`Measure::Model`]).
    pub refined: usize,
    /// Model ranking of the full space, best predicted first.
    pub predictions: Vec<(TunedConfig, f64)>,
    /// The snapshot-count axis, when a [`TimeLoop`] was described:
    /// `(budget, predicted time-loop seconds)` per candidate, in palette
    /// order; `f64::INFINITY` marks budgets whose live set blows
    /// [`Machine::mem_budget_bytes`]. Empty otherwise (and on cache
    /// hits — the cached config already carries the winning budget).
    pub checkpoint_candidates: Vec<(usize, f64)>,
}

/// Tune a full adjoint: enumerate, model-prune, time, cache, and return
/// the winning configuration together with the schedule compiled under
/// it. Extent-checks like `compile_schedule` and honours the padded
/// boundary strategy; every schedule compiled here, a cache hit's
/// included, shares the adjoint's nest list and copies it never. A memory
/// hit re-tiles the compiled work it kept when that work still
/// [`matches`](CompiledWork::matches) this call, and compiles (and keeps)
/// a new one when it does not.
pub fn autotune_adjoint(
    adj: &Adjoint,
    ws: &mut Workspace,
    bind: &Binding,
    pool: &ThreadPool,
    opts: &TuneOptions,
) -> Result<(Schedule, TuneReport), TuneError> {
    perforad_exec::check_adjoint_extents(adj, bind).map_err(SchedError::from)?;
    let padded = adj.strategy == BoundaryStrategy::Padded;
    let source = &adj.nests;
    let nests: &[LoopNest] = source;
    if nests.is_empty() {
        return Err(SchedError::BadInput("no nests to autotune".into()).into());
    }
    let sched_options = |cfg: &TunedConfig| SchedOptions {
        accumulate: opts.accumulate.clone(),
        ..SchedOptions::from_tuned(cfg)
    };
    let _span = perforad_obs::span!("tune.search", "tune", "nests" => nests.len() as u64);
    let threads = pool.size().max(1);
    let mut key = cache_key(fingerprint_nests(nests, padded, bind), threads);
    if let Some(tl) = &opts.time_loop {
        // The winning snapshot budget depends on the sweep shape AND on
        // what it was priced against — a budget cached under a roomy
        // memory cap must never be replayed under a tight one (it could
        // blow the exact cap the feature exists to honour) — so the key
        // carries the full pricing context, not just the sweep.
        key.push_str(&format!(
            "|tl{}x{}m{}p{}",
            tl.steps, tl.state_bytes, opts.machine.mem_budget_bytes, PRIMAL_FACTOR
        ));
    }

    // Cache layers first: memory, then file. An unreadable or corrupt
    // file is a clean miss, not a failure — the tuner can always fall
    // back to searching. The work key leaves out what a memory hit's
    // compiled work may differ in — parameter bits, dims, the accumulate
    // set — so the work is checked before it is re-tiled, and compiled
    // again when it does not fit.
    let memory_hit = opts.memory_cache.then(|| {
        memory_lookup(&key, |hit, work| {
            let fuse = hit.config.fuse;
            work.matches(ws, bind, padded, opts.accumulate.as_ref(), fuse)
        })
    });
    let cached = memory_hit.flatten().or_else(|| {
        let file = TuneCache::load(opts.cache_path.as_ref()?).unwrap_or_default();
        file.lookup(&key).map(|hit| (hit.clone(), None))
    });
    if let Some((hit, kept)) = cached {
        // An entry that parses but no longer compiles — a tile edge below
        // 1 or a tile of another rank, from a damaged or hand-edited file
        // — is a miss: the search below replaces it in both layers.
        let sched_opts = sched_options(&hit.config);
        let retiled = kept.is_some();
        let work = kept.map_or_else(|| compile_work(nests, ws, bind, padded, &sched_opts), Ok);
        match work.and_then(|work| tile_work(&work, source, &sched_opts)) {
            Ok(schedule) => {
                // A cached JIT winner still needs its native module in this
                // process: best effort — on failure execution falls back to
                // the bitwise-identical rows lowering.
                prepare_if_jit(&schedule, &hit.config, bind);
                if !retiled && opts.memory_cache {
                    memory_store(&key, hit.clone(), schedule.work.clone());
                }
                perforad_obs::counter("tune.cache_hits").inc();
                let report = TuneReport {
                    config: hit.config,
                    seconds: hit.seconds,
                    cache_hit: true,
                    candidates: 0,
                    timed: 0,
                    refined: 0,
                    predictions: Vec::new(),
                    checkpoint_candidates: Vec::new(),
                };
                return Ok((schedule, report));
            }
            Err(_) => perforad_obs::counter("tune.cache_unusable").inc(),
        }
    }
    perforad_obs::counter("tune.cache_misses").inc();

    // Stage 1: rank the whole space analytically. The JIT axis joins
    // only when this host can actually build (or has cached) native code.
    let rank = nests[0].rank();
    let space = search_space(rank, threads, opts.jit && perforad_jit::available());
    if space.is_empty() {
        return Err(TuneError::EmptySpace);
    }
    let prof = profile(nests, &bind.sizes);
    let mut ranked: Vec<(TunedConfig, f64)> = space
        .into_iter()
        .map(|cfg| {
            let pred = predict_schedule(&opts.machine, &prof, &shape_of(&cfg, nests.len(), &prof));
            (cfg, pred)
        })
        .collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    let candidates = ranked.len();
    let k = opts.top_k.clamp(1, candidates);
    perforad_obs::counter("tune.pruned").add((candidates - k) as u64);

    // Tile a candidate and score it. The work is compiled once per
    // fusion choice, on first use, and every candidate of that choice is
    // tiled from it. Under wall-clock timing, JIT candidates are natively
    // prepared first (the artifact cache makes this once-per-fingerprint)
    // and one untimed warm-up run (page-in, pool wake) precedes the timed
    // ones. A candidate that cannot be prepared is dropped rather than
    // timed as a silent rows fallback. Model and synthetic modes never
    // execute, so they stay build-free — their Jit winner is prepared
    // lazily by the caller (or falls back to the bitwise-identical rows
    // lowering).
    let mut works: [Option<Result<Arc<CompiledWork>, SchedError>>; 2] = [None, None];
    let mut score = |cfg: &TunedConfig, pred: f64| {
        let sched_opts = sched_options(cfg);
        let work = works[cfg.fuse as usize]
            .get_or_insert_with(|| compile_work(nests, ws, bind, padded, &sched_opts));
        let tiled = (work.as_ref().map_err(Clone::clone))
            .and_then(|work| tile_work(work, source, &sched_opts));
        let schedule = match tiled {
            Ok(s) => s,
            Err(e) => return Scored::Failed(e),
        };
        let secs = match opts.measure {
            Measure::Model => pred,
            Measure::Synthetic { seed } => synthetic_time(seed, cfg),
            Measure::Wall { samples } => {
                if !prepare_if_jit(&schedule, cfg, bind) {
                    return Scored::Unprepared;
                }
                if let Err(e) = run_tuned(&schedule, cfg, ws, pool) {
                    return Scored::Failed(e);
                }
                time_best(samples.max(1), || {
                    run_tuned(&schedule, cfg, ws, pool).expect("timed candidate run");
                })
            }
        };
        Scored::Time(schedule, secs)
    };

    // Stage 2: score the survivors. A candidate that does not compile or
    // whose warm-up fails is skipped, as the refinement skips one; its
    // error is kept for the report should no candidate survive.
    let mut best: Option<(Schedule, TunedConfig, f64)> = None;
    let mut last_err: Option<SchedError> = None;
    let mut timed = 0usize;
    for (ci, (cfg, pred)) in ranked.iter().take(k).enumerate() {
        let _cand_span = perforad_obs::span!("tune.candidate", "tune", "rank" => ci as u64);
        let (schedule, secs) = match score(cfg, *pred) {
            Scored::Time(schedule, secs) => (schedule, secs),
            Scored::Failed(e) => {
                last_err = Some(e);
                continue;
            }
            Scored::Unprepared => continue,
        };
        timed += 1;
        perforad_obs::counter("tune.timed").inc();
        if best.as_ref().is_none_or(|(_, _, b)| secs < *b) {
            best = Some((schedule, cfg.clone(), secs));
        }
    }

    // Refinement: hill-climb the winner's tile vector, one
    // doubling/halving step per rank and direction, re-basing on every
    // improvement; a neighbour that fails to compile or run is skipped.
    // Model mode has no empirical signal to climb.
    let mut refined = 0usize;
    if best.is_some() && !matches!(opts.measure, Measure::Model) {
        let mut tried: BTreeSet<Vec<i64>> = BTreeSet::new();
        tried.insert(best.as_ref().expect("winner exists").1.tile.clone());
        'rounds: for _ in 0..opts.refine_rounds {
            let (base_cfg, base_best) = {
                let (_, c, s) = best.as_ref().expect("winner exists");
                (c.clone(), *s)
            };
            let mut improved = false;
            for d in 0..base_cfg.tile.len() {
                for halve in [false, true] {
                    let mut tile = base_cfg.tile.clone();
                    tile[d] = if halve {
                        (tile[d] >> 1).max(1)
                    } else {
                        (tile[d] << 1).min(1 << 20)
                    };
                    if !tried.insert(tile.clone()) {
                        continue;
                    }
                    let _refine_span = perforad_obs::span!("tune.refine", "tune");
                    let mut cfg = base_cfg.clone();
                    cfg.tile = tile;
                    // No prediction: Model mode never refines.
                    let Scored::Time(schedule, secs) = score(&cfg, f64::NAN) else {
                        continue;
                    };
                    refined += 1;
                    perforad_obs::counter("tune.refined").inc();
                    if secs < base_best && best.as_ref().is_none_or(|(_, _, b)| secs < *b) {
                        best = Some((schedule, cfg, secs));
                        improved = true;
                    }
                }
            }
            if !improved {
                break 'rounds;
            }
        }
    }

    let (schedule, mut config, seconds) = match best {
        Some(b) => b,
        None => {
            return Err(last_err
                .map(TuneError::Sched)
                .unwrap_or(TuneError::EmptySpace))
        }
    };

    // Snapshot-count axis: with the per-sweep winner fixed, price every
    // feasible checkpoint budget on top of its measured sweep time. The
    // axis is separable (the budget never changes per-sweep cost), so
    // this single sweep is jointly optimal under the model.
    let mut checkpoint_candidates = Vec::new();
    if let Some(tl) = &opts.time_loop {
        let (budget, scored) = pick_budget(&opts.machine, tl, seconds);
        config.checkpoint = Some(budget);
        checkpoint_candidates = scored;
    }

    // Record the win in both cache layers, and its compiled work in the
    // memory layer.
    let entry = CacheEntry {
        config: config.clone(),
        seconds,
    };
    if opts.memory_cache {
        memory_store(&key, entry.clone(), schedule.work.clone());
    }
    if let Some(path) = &opts.cache_path {
        // Best effort: an unwritable cache file loses persistence, never
        // the computed winner.
        let mut file = TuneCache::load(path).unwrap_or_default();
        file.insert(&key, entry);
        let _ = file.save(path);
    }

    let report = TuneReport {
        config,
        seconds,
        cache_hit: false,
        candidates,
        timed,
        refined,
        predictions: ranked,
        checkpoint_candidates,
    };
    Ok((schedule, report))
}

/// Score every palette budget for a time loop whose adjoint sweep costs
/// `adjoint_step_s`, returning the winner (ties to the smaller budget —
/// less memory for the same predicted time) and the full scored axis.
/// When every budget is infeasible the smallest palette entry wins: the
/// model cannot bless it, but bounded memory beats none at all.
fn pick_budget(
    machine: &Machine,
    tl: &TimeLoop,
    adjoint_step_s: f64,
) -> (usize, Vec<(usize, f64)>) {
    let primal_step_s = adjoint_step_s * PRIMAL_FACTOR;
    let scored: Vec<(usize, f64)> =
        budget_palette(tl.steps, tl.state_bytes, machine.mem_budget_bytes)
            .into_iter()
            .map(|budget| {
                let shape = CheckpointPlan::with_budget(tl.steps, budget).shape(tl.state_bytes);
                (
                    budget,
                    predict_checkpoint(machine, primal_step_s, adjoint_step_s, &shape),
                )
            })
            .collect();
    let budget = scored
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|&(b, _)| b)
        .unwrap_or(1);
    (budget, scored)
}

/// Choose how a batched gradient dispatches its shots over the pool:
/// price both [`BatchStrategy`] variants with
/// [`perforad_perfmodel::predict_batch`], deriving the per-shot costs
/// from the tuned configuration's analytic sweep times (the serial
/// variant for shot-parallel workers, the configured parallel variant
/// for grid-parallel round-robin; the primal stepper runs serially in
/// both at [`PRIMAL_FACTOR`] of a serial sweep). Returns
/// the winner plus the scored axis; ties go to shot-parallel when the
/// batch can fill the pool, grid-parallel otherwise. The bitwise-identity
/// invariant makes this a pure performance choice — every strategy
/// produces bit-identical gradients.
pub fn pick_batch_strategy(
    machine: &Machine,
    prof: &KernelProfile,
    nest_count: usize,
    cfg: &TunedConfig,
    shape: &BatchShape,
) -> (BatchStrategy, Vec<(BatchStrategy, f64)>) {
    let sweep_s = |strategy: TunedStrategy| {
        let cand = TunedConfig {
            strategy,
            ..cfg.clone()
        };
        predict_schedule(machine, prof, &shape_of(&cand, nest_count, prof))
    };
    let serial_sweep = sweep_s(TunedStrategy::Serial);
    let parallel_sweep = sweep_s(TunedStrategy::Parallel);
    let steps = shape.steps.max(1) as f64;
    let primal_s = PRIMAL_FACTOR * serial_sweep;
    let serial_shot_s = steps * (primal_s + serial_sweep);
    let parallel_shot_s = steps * (primal_s + parallel_sweep);
    let scored: Vec<(BatchStrategy, f64)> =
        [BatchStrategy::ShotParallel, BatchStrategy::GridParallel]
            .into_iter()
            .map(|s| {
                (
                    s,
                    predict_batch(machine, serial_shot_s, parallel_shot_s, shape, s),
                )
            })
            .collect();
    let (sp, gp) = (scored[0].1, scored[1].1);
    let pick = if sp < gp || (sp == gp && shape.shots >= shape.threads) {
        BatchStrategy::ShotParallel
    } else {
        BatchStrategy::GridParallel
    };
    (pick, scored)
}

/// Natively prepare a JIT candidate's schedule (registry → artifact
/// cache → out-of-process build). Non-JIT candidates trivially succeed;
/// a JIT candidate that cannot be prepared reports `false` so the tuner
/// skips it instead of timing a silent rows fallback.
fn prepare_if_jit(schedule: &Schedule, cfg: &TunedConfig, bind: &Binding) -> bool {
    cfg.lowering != Lowering::Jit
        || perforad_jit::prepare_schedule(schedule, bind, &perforad_jit::JitOptions::default())
            .is_ok()
}

/// Compile `nests` (unpadded) the way a tuned configuration asks and,
/// when it asks for the JIT lowering, natively prepare the result in this
/// process (`prepare_if_jit`'s route; a warm artifact cache makes it a
/// `dlopen`, not a compile). The flag is `false` only for a `Jit`
/// schedule that could not be prepared: it still runs — on the
/// bitwise-identical rows lowering, each execution counted in
/// `jit.degraded_fallbacks` — so a caller with its own fallback sets the
/// schedule's lowering to `Rows`.
pub fn compile_tuned(
    nests: &[LoopNest],
    ws: &Workspace,
    bind: &Binding,
    cfg: &TunedConfig,
) -> Result<(Schedule, bool), SchedError> {
    let schedule = compile_schedule_nests(nests, ws, bind, false, &SchedOptions::from_tuned(cfg))?;
    let native = prepare_if_jit(&schedule, cfg, bind);
    Ok((schedule, native))
}

/// How scoring one candidate ended.
enum Scored {
    /// Compiled and scored, seconds.
    Time(Schedule, f64),
    /// The candidate did not compile, or its untimed warm-up run failed.
    Failed(SchedError),
    /// A JIT candidate that could not be natively prepared.
    Unprepared,
}

/// The [`ScheduleShape`] a candidate would execute with, estimated
/// without compiling: fused disjoint decompositions collapse to one
/// barrier (the scheduler's invariant for adjoint nest lists), unfused
/// ones pay one per nest; the tile count is the iteration volume over the
/// tile volume, floored at one tile per nest.
fn shape_of(
    cfg: &TunedConfig,
    nest_count: usize,
    prof: &perforad_perfmodel::KernelProfile,
) -> ScheduleShape {
    let tile_volume: f64 = cfg.tile.iter().map(|&t| t.max(1) as f64).product();
    let tiles = (prof.points / tile_volume).ceil().max(nest_count as f64) as usize;
    ScheduleShape {
        threads: match cfg.strategy {
            TunedStrategy::Serial => 1,
            TunedStrategy::Parallel => cfg.threads,
        },
        barriers: if cfg.fuse { 1 } else { nest_count },
        tiles,
        rows: cfg.lowering == Lowering::Rows,
        jit: cfg.lowering == Lowering::Jit,
        // The tuner ranks JIT candidates warm: its own prepare step pays
        // any compile exactly once per fingerprint (persistent artifact
        // cache), so steady-state ranking must not carry it.
        jit_cold_groups: 0,
        dynamic: cfg.policy == TilePolicy::Dynamic,
    }
}

/// Deterministic pseudo-time for [`Measure::Synthetic`]: xorshift64* over
/// the seed and the candidate fingerprint, mapped into (0, 1].
fn synthetic_time(seed: u64, cfg: &TunedConfig) -> f64 {
    let mut x = seed ^ fnv1a64(cfg.describe().as_bytes());
    if x == 0 {
        x = 0x9e37_79b9_7f4a_7c15;
    }
    for _ in 0..3 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    (x >> 11) as f64 / (1u64 << 53) as f64 + f64::EPSILON
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::memory_clear;
    use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
    use perforad_exec::Grid;
    use perforad_symbolic::{ix, Array, Idx, Symbol};

    fn paper_nest() -> LoopNest {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let (u, c) = (Array::new("u"), Array::new("c"));
        make_loop_nest(
            &Array::new("r").at(ix![&i]),
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

    fn adjoint() -> Adjoint {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap()
    }

    #[test]
    fn wall_tuning_returns_a_runnable_winner() {
        let adj = adjoint();
        let (mut ws, bind) = setup(512);
        let pool = ThreadPool::new(2);
        let opts = TuneOptions::default()
            .without_cache()
            .with_top_k(3)
            .with_measure(Measure::Wall { samples: 1 });
        let (schedule, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        assert!(!report.cache_hit);
        assert_eq!(report.timed, 3);
        assert!(report.candidates >= report.timed);
        assert!(report.seconds > 0.0);
        // Model ranking covers the whole space, best first.
        assert_eq!(report.predictions.len(), report.candidates);
        assert!(report.predictions.windows(2).all(|w| w[0].1 <= w[1].1));
        run_tuned(&schedule, &report.config, &mut ws, &pool).unwrap();
    }

    /// Stage 2 skips a candidate whose warm-up fails, as the refinement
    /// does, instead of ending the search. A scatter nest is not
    /// gather-only, so it runs only as one serial tile: every Parallel
    /// candidate fails its warm-up (`ScatterNeedsAtomics`), while at
    /// n = 64 every Serial candidate is a single tile and runs.
    #[test]
    fn a_failed_warm_up_skips_the_candidate() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let scatter = Adjoint {
            nests: vec![paper_nest().scatter_adjoint(&act).unwrap()].into(),
            ..adjoint()
        };
        let (mut ws, bind) = setup(64);
        let pool = ThreadPool::new(2);
        let opts = TuneOptions::default()
            .without_cache()
            .with_jit(false)
            .with_top_k(64)
            .with_measure(Measure::Wall { samples: 1 });
        let (schedule, report) = autotune_adjoint(&scatter, &mut ws, &bind, &pool, &opts)
            .expect("a runnable Serial candidate wins");
        assert_eq!(report.config.strategy, TunedStrategy::Serial);
        assert!(!schedule.gather_only() && schedule.tile_count() == 1);
        // Three tiles × two fusion choices are Serial; the other 12 failed.
        assert_eq!((report.candidates, report.timed), (18, 6));
        ws.grid_mut("u_b").fill(0.0);
        run_tuned(&schedule, &report.config, &mut ws, &pool).unwrap();
        assert!(ws.grid("u_b").sum() != 0.0);
    }

    #[test]
    fn memory_cache_skips_retiming() {
        memory_clear();
        let adj = adjoint();
        let (mut ws, bind) = setup(256);
        let pool = ThreadPool::new(2);
        let opts = TuneOptions::default()
            .with_top_k(2)
            .with_measure(Measure::Wall { samples: 1 });
        let (_, first) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        assert!(!first.cache_hit);
        let (_, second) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        assert!(second.cache_hit, "second run must hit the memory cache");
        assert_eq!(second.timed, 0);
        assert_eq!(second.config, first.config);
        memory_clear();
    }

    #[test]
    fn file_cache_round_trips_between_tuners() {
        // No memory_clear() here: this test keeps the memory layer off,
        // and clearing the process-global cache would race the (parallel)
        // memory-cache test between its store and its lookup.
        let path = std::env::temp_dir().join(format!(
            "perforad_tuner_file_cache_{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let adj = adjoint();
        let (mut ws, bind) = setup(300);
        let pool = ThreadPool::new(2);
        let opts = TuneOptions::default()
            .with_cache_path(&path)
            .with_measure(Measure::Synthetic { seed: 7 });
        let mut opts_no_mem = opts.clone();
        opts_no_mem.memory_cache = false;
        let (_, first) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts_no_mem).unwrap();
        assert!(!first.cache_hit);
        // A fresh tuner (no memory layer) must hit the file.
        let (_, second) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts_no_mem).unwrap();
        assert!(second.cache_hit, "second run must hit the file cache");
        assert_eq!(second.config, first.config);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn synthetic_measure_is_deterministic_per_seed() {
        let adj = adjoint();
        let pool = ThreadPool::new(2);
        let pick = |seed: u64| {
            let (mut ws, bind) = setup(128);
            let opts = TuneOptions::default()
                .without_cache()
                .with_top_k(6)
                .with_measure(Measure::Synthetic { seed });
            autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts)
                .unwrap()
                .1
                .config
        };
        assert_eq!(pick(42), pick(42), "same seed, same winner");
        // Different seeds are *allowed* to pick different winners; the
        // synthetic times themselves must differ.
        let c = TunedConfig::default();
        assert_ne!(synthetic_time(1, &c), synthetic_time(2, &c));
        assert!(synthetic_time(1, &c) > 0.0);
    }

    #[test]
    fn model_measure_trusts_the_top_prediction() {
        let adj = adjoint();
        let (mut ws, bind) = setup(256);
        let pool = ThreadPool::new(2);
        let opts = TuneOptions::default()
            .without_cache()
            .with_measure(Measure::Model);
        let (_, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        assert_eq!(report.config, report.predictions[0].0);
        assert_eq!(report.seconds, report.predictions[0].1);
    }

    #[test]
    fn refinement_walks_tile_neighbours_and_never_worsens_the_winner() {
        let adj = adjoint();
        let pool = ThreadPool::new(2);
        let run = |rounds: usize| {
            let (mut ws, bind) = setup(300);
            let opts = TuneOptions::default()
                .without_cache()
                .with_top_k(2)
                .with_jit(false)
                .with_refine_rounds(rounds)
                .with_measure(Measure::Synthetic { seed: 11 });
            autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts)
                .unwrap()
                .1
        };
        let none = run(0);
        assert_eq!(none.refined, 0);
        let one = run(1);
        // Rank-1 winner has two tile neighbours (double, halve).
        assert!(one.refined >= 2, "refined {}", one.refined);
        // The refined winner can only be at least as good (synthetic
        // times are deterministic, so this is exact).
        assert!(one.seconds <= none.seconds);
        // Determinism: the same options pick the same refined winner.
        assert_eq!(run(1).config, one.config);
        // Model mode never refines.
        let (mut ws, bind) = setup(300);
        let opts = TuneOptions::default()
            .without_cache()
            .with_jit(false)
            .with_measure(Measure::Model);
        let (_, r) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        assert_eq!(r.refined, 0);
    }

    #[test]
    fn jit_axis_joins_the_space_only_when_available() {
        let adj = adjoint();
        let pool = ThreadPool::new(2);
        let (mut ws, bind) = setup(256);
        // Explicitly disabled: no Jit candidates regardless of host.
        let opts = TuneOptions::default()
            .without_cache()
            .with_jit(false)
            .with_refine_rounds(0)
            .with_measure(Measure::Model);
        let (_, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        assert!(report
            .predictions
            .iter()
            .all(|(c, _)| c.lowering != Lowering::Jit));
        // Enabled: candidates appear exactly when the host can build.
        let opts = TuneOptions::default()
            .without_cache()
            .with_refine_rounds(0)
            .with_measure(Measure::Model);
        let (mut ws, _) = setup(256);
        let (_, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        let has_jit = report
            .predictions
            .iter()
            .any(|(c, _)| c.lowering == Lowering::Jit);
        assert_eq!(has_jit, perforad_jit::available());
        if has_jit {
            // The model must rank warm JIT ahead of the row executor for
            // the same knobs.
            let pick = |l: Lowering| {
                report
                    .predictions
                    .iter()
                    .find(|(c, _)| {
                        c.lowering == l
                            && c.strategy == TunedStrategy::Parallel
                            && c.fuse
                            && c.policy == TilePolicy::Dynamic
                            && c.tile == report.predictions[0].0.tile
                    })
                    .map(|(_, p)| *p)
            };
            if let (Some(j), Some(r)) = (pick(Lowering::Jit), pick(Lowering::Rows)) {
                assert!(j < r, "jit {j} must outrank rows {r}");
            }
        }
    }

    #[test]
    fn time_loop_tuning_picks_and_caches_a_snapshot_budget() {
        let adj = adjoint();
        let pool = ThreadPool::new(2);
        // n=320 keeps this test's cache keys disjoint from every other
        // test in this module (the memory layer is process-global).
        let (mut ws, bind) = setup(320);
        // 1 MiB states, 512-step sweep, 16 MiB budget: at most 16
        // snapshots fit, so store-all is infeasible and some recompute
        // must be accepted.
        let mut machine = host(2);
        machine.mem_budget_bytes = 16 << 20;
        let tl = TimeLoop::new(512, 1 << 20);
        let opts = TuneOptions::default()
            .without_cache()
            .with_machine(machine)
            .with_jit(false)
            .with_measure(Measure::Synthetic { seed: 5 })
            .with_time_loop(tl);
        let (_, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        let budget = report.config.checkpoint.expect("budget searched");
        assert!((2..=16).contains(&budget), "budget {budget}");
        // The axis was scored, infeasible budgets marked infinite, and
        // the winner is the finite minimum.
        assert!(!report.checkpoint_candidates.is_empty());
        assert!(report
            .checkpoint_candidates
            .iter()
            .all(|&(b, s)| (b > 16) == s.is_infinite()));
        let best = report
            .checkpoint_candidates
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(best.0, budget);

        // The budget survives the cache: a second tuner (memory layer)
        // returns the same config, checkpoint included.
        let opts = TuneOptions {
            memory_cache: true,
            ..opts
        };
        let (_, first) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        let (_, second) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.config.checkpoint, first.config.checkpoint);
        // A plain tuning of the same nests must not share the entry.
        let plain = TuneOptions {
            time_loop: None,
            ..opts
        };
        let (_, third) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &plain).unwrap();
        assert!(!third.cache_hit, "time-loop tunings must not leak");
        assert_eq!(third.config.checkpoint, None);
    }

    #[test]
    fn pick_budget_prefers_less_recompute_when_memory_allows() {
        let machine = host(4); // 2 GiB budget
        let tl = TimeLoop::new(100, 1 << 10); // 1 KiB states: everything fits
        let (budget, scored) = pick_budget(&machine, &tl, 1e-3);
        // With memory free, store-all (zero recompute) wins.
        assert_eq!(budget, 100, "{scored:?}");
        // Starve the memory: the winner shrinks but stays feasible.
        let mut tight = machine;
        tight.mem_budget_bytes = 8 << 10;
        let (budget, scored) = pick_budget(&tight, &tl, 1e-3);
        assert!(budget <= 8, "budget {budget} of {scored:?}");
        assert!(scored.iter().any(|&(_, s)| s.is_finite()));
        // Nothing fits: fall back to the constant-memory budget 1.
        tight.mem_budget_bytes = 512;
        let (budget, scored) = pick_budget(&tight, &tl, 1e-3);
        assert_eq!(budget, 1);
        assert!(scored.iter().all(|&(_, s)| s.is_infinite()));
    }

    #[test]
    fn empty_nest_lists_error_cleanly() {
        let (mut ws, bind) = setup(32);
        let pool = ThreadPool::new(1);
        let empty = Adjoint {
            nests: Vec::new().into(),
            ..adjoint()
        };
        let err =
            autotune_adjoint(&empty, &mut ws, &bind, &pool, &TuneOptions::default()).unwrap_err();
        assert!(matches!(err, TuneError::Sched(SchedError::BadInput(_))));
    }

    #[test]
    fn shape_estimate_tracks_the_knobs() {
        let prof = perforad_perfmodel::KernelProfile {
            points: 10_000.0,
            ..Default::default()
        };
        let cfg = TunedConfig {
            tile: vec![10, 10],
            fuse: false,
            threads: 4,
            ..Default::default()
        };
        let s = shape_of(&cfg, 17, &prof);
        assert_eq!(s.tiles, 100);
        assert_eq!(s.barriers, 17);
        assert_eq!(s.threads, 4);
        let fused = shape_of(&TunedConfig { fuse: true, ..cfg }, 17, &prof);
        assert_eq!(fused.barriers, 1);
    }

    #[test]
    fn batch_strategy_follows_the_shot_to_thread_ratio() {
        // A grid big enough that the parallel sweep genuinely beats the
        // serial one (barriers are noise against 10⁶ points)…
        let m = host(2);
        let prof = perforad_perfmodel::KernelProfile {
            points: 1_000_000.0,
            flops_per_point: 30.0,
            bytes_per_point: 48.0,
            ..Default::default()
        };
        let cfg = TunedConfig {
            strategy: TunedStrategy::Parallel,
            threads: 2,
            tile: vec![100, 100, 100],
            ..Default::default()
        };
        let shape = |shots: usize| BatchShape {
            shots,
            threads: 2,
            steps: 16,
        };
        // …so a full batch should hand whole (serial) shots to workers,
        let (pick, scored) = pick_batch_strategy(&m, &prof, 3, &cfg, &shape(8));
        assert_eq!(pick, BatchStrategy::ShotParallel);
        assert_eq!(scored.len(), 2);
        assert!(scored.iter().all(|&(_, s)| s.is_finite() && s > 0.0));
        // …while a lone shot keeps the tuned grid-parallel sweep.
        let (pick, _) = pick_batch_strategy(&m, &prof, 3, &cfg, &shape(1));
        assert_eq!(pick, BatchStrategy::GridParallel);
    }

    /// The whole search pinned on a host-independent score: recorded
    /// before stage 2 and the refinement shared one scoring function, it
    /// proves the shared loop times the same candidates in the same order
    /// and keeps the same winner. Seed 1 is one where the refinement
    /// replaces stage 2's winner (tile 4096 → 2048).
    #[test]
    fn synthetic_search_is_golden() {
        let adj = adjoint();
        let (mut ws, bind) = setup(200);
        let pool = ThreadPool::new(2);
        let opts = TuneOptions::default()
            .without_cache()
            .with_top_k(4)
            .with_jit(false)
            .with_refine_rounds(1)
            .with_measure(Measure::Synthetic { seed: 1 });
        let (_, report) = autotune_adjoint(&adj, &mut ws, &bind, &pool, &opts).unwrap();
        assert_eq!(
            report.config.describe(),
            "Serial/Rows/Dynamic tile [2048] fuse true (1 threads)"
        );
        assert_eq!(report.seconds.to_bits(), 0x3fb3_508a_548c_9fe0);
        assert_eq!(
            (report.candidates, report.timed, report.refined),
            (18, 4, 2)
        );
    }
}
