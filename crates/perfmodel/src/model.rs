//! Kernel profiles extracted from the IR and the runtime prediction model.

use crate::machine::Machine;
use perforad_core::{AssignOp, LoopNest};
use perforad_symbolic::{visit, Symbol};
use std::collections::{BTreeMap, BTreeSet};

/// Work performed per iteration point, extracted from loop-nest IR.
#[derive(Clone, Copy, Debug, Default)]
pub struct KernelProfile {
    /// Total iteration points (all nests).
    pub points: f64,
    /// Floating-point operations per point (expression-node estimate).
    pub flops_per_point: f64,
    /// Unique memory traffic per point, bytes (distinct arrays touched;
    /// streaming reuse assumed for neighbour loads).
    pub bytes_per_point: f64,
    /// Scatter `+=` updates per point (atomic candidates).
    pub atomics_per_point: f64,
    /// Bytes pushed to a sequential intermediate stack per point
    /// (Tapenade stack mode).
    pub stack_bytes_per_point: f64,
}

/// Build a profile from loop nests and integer size bindings.
pub fn profile(nests: &[LoopNest], sizes: &BTreeMap<Symbol, i64>) -> KernelProfile {
    let mut points_total = 0u64;
    let mut flops_weighted = 0.0;
    let mut atomics_weighted = 0.0;
    let mut arrays: BTreeSet<Symbol> = BTreeSet::new();
    let mut writes: BTreeSet<Symbol> = BTreeSet::new();
    for nest in nests {
        let pts = nest.iteration_count(sizes).unwrap_or(0);
        points_total += pts;
        let gather = nest.is_gather();
        for s in &nest.body {
            // node_count approximates scalar ops per statement.
            flops_weighted += (visit::node_count(&s.rhs) as f64) * pts as f64;
            if !gather && s.op == AssignOp::AddAssign {
                atomics_weighted += pts as f64;
            }
            writes.insert(s.lhs.array.clone());
            arrays.extend(visit::arrays(&s.rhs));
        }
    }
    arrays.extend(writes.iter().cloned());
    let points = points_total.max(1) as f64;
    KernelProfile {
        points,
        flops_per_point: flops_weighted / points,
        // 8 B per distinct array read + 16 B per written array
        // (read-for-ownership + writeback).
        bytes_per_point: 8.0 * (arrays.len() as f64) + 8.0 * (writes.len() as f64),
        atomics_per_point: atomics_weighted / points,
        stack_bytes_per_point: 0.0,
    }
}

/// Add Tapenade-style stack traffic (e.g. 2 pushes of 8 B for the Burgers
/// min/max pair).
pub fn with_stack(mut p: KernelProfile, bytes_per_point: f64) -> KernelProfile {
    p.stack_bytes_per_point = bytes_per_point;
    p
}

/// Predicted wall-clock seconds at a thread count.
pub fn predict(m: &Machine, p: &KernelProfile, threads: usize) -> f64 {
    let threads = threads.max(1);
    let t_flops = p.points * p.flops_per_point / (m.flops(threads) * 1e9);
    let t_mem = p.points * p.bytes_per_point / (m.bandwidth(threads) * 1e9);
    let t_atomic = p.points * p.atomics_per_point * m.atomic_cost(threads) * 1e-9;
    // Stack traffic is sequential (the reverse loop order is fixed).
    let t_stack = p.points * p.stack_bytes_per_point * m.stack_byte_ns * 1e-9;
    t_flops.max(t_mem) + t_atomic + t_stack
}

/// Shape of one *scheduled* execution of a kernel: how the iteration
/// space is cut up and driven, orthogonal to the arithmetic captured by
/// [`KernelProfile`]. Built by the `perforad-tune` autotuner from a
/// candidate `Strategy×Lowering×TilePolicy×tile×fusion` configuration.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleShape {
    /// Worker count driving the schedule (1 = serial execution).
    pub threads: usize,
    /// Barrier-separated parallel regions per sweep (the fusion knob:
    /// fused schedules have one region per fusion group, unfused ones pay
    /// one barrier per nest).
    pub barriers: usize,
    /// Total tile count across all regions.
    pub tiles: usize,
    /// True under the vectorized register-IR row executor, false under
    /// the per-point stack interpreter.
    pub rows: bool,
    /// True under JIT-compiled native tiles (overrides `rows` for the
    /// per-point dispatch term).
    pub jit: bool,
    /// Fusion groups whose native code would have to be compiled
    /// out-of-process for this execution (zero once the persistent
    /// artifact cache is warm — the compile cost is paid once per
    /// fingerprint). Only meaningful when `jit`.
    pub jit_cold_groups: usize,
    /// True for dynamic (shared-counter) tile assignment, false for
    /// static LPT pre-assignment.
    pub dynamic: bool,
}

/// Predicted wall-clock seconds for one scheduled sweep: the roofline of
/// [`predict`] plus the scheduling overheads the tuner trades off —
/// per-point lowering dispatch (native JIT code < rows < interpreter),
/// per-tile dispatch, region barriers, the assignment policy's
/// imbalance/contention terms, and the one-off native compile cost for
/// cold JIT fingerprints.
///
/// The model only has to *rank* candidate configurations well enough that
/// the true winner survives the top-K cut before empirical timing; its
/// absolute numbers are roofline-grade, not cycle-accurate.
pub fn predict_schedule(m: &Machine, p: &KernelProfile, s: &ScheduleShape) -> f64 {
    let threads = s.threads.max(1);
    let t_flops = p.points * p.flops_per_point / (m.flops(threads) * 1e9);
    let t_mem = p.points * p.bytes_per_point / (m.bandwidth(threads) * 1e9);
    // Lowering dispatch is CPU work on the executing threads; it cannot
    // hide behind the memory wall in this simple in-order model.
    let point_ns = if s.jit {
        m.jit_point_ns
    } else if s.rows {
        m.rows_point_ns
    } else {
        m.interp_point_ns
    };
    let t_dispatch = p.points * point_ns * 1e-9 / threads as f64;
    let tiles = s.tiles.max(1);
    let mut t_tiles = tiles as f64 * m.tile_dispatch_ns * 1e-9 / threads as f64;
    let mut imbalance = 1.0;
    if threads > 1 {
        if s.dynamic {
            // One shared-counter fetch per tile.
            t_tiles += tiles as f64 * m.atomic_cost(threads) * 1e-9 / threads as f64;
        } else {
            // LPT pre-assignment cannot rebalance at run time; the penalty
            // fades as tiles-per-worker grows.
            imbalance += 0.5 * (threads - 1) as f64 / tiles as f64;
        }
    }
    // Serial execution never forks the pool, so it pays no barriers.
    let t_barrier = if threads > 1 {
        s.barriers as f64 * m.barrier_us * 1e-6
    } else {
        0.0
    };
    let t_atomic = p.points * p.atomics_per_point * m.atomic_cost(threads) * 1e-9;
    let t_stack = p.points * p.stack_bytes_per_point * m.stack_byte_ns * 1e-9;
    // One out-of-process build per cold fused group; zero with a warm
    // artifact cache (the tuner's default assumption, since its own
    // persistent cache pays the cost once per fingerprint).
    let t_compile = if s.jit {
        s.jit_cold_groups as f64 * m.jit_compile_s
    } else {
        0.0
    };
    (t_flops.max(t_mem) + t_dispatch) * imbalance
        + t_tiles
        + t_barrier
        + t_atomic
        + t_stack
        + t_compile
}

/// Shape of one *checkpointed time loop*: how a `steps`-long reverse
/// sweep is replayed under a snapshot budget. Built by `perforad-ckpt`'s
/// `CheckpointPlan::shape` from the plan's simulated action stream —
/// the recompute ratio and store traffic are exact counts, not
/// asymptotics.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointShape {
    /// Time steps in the sweep.
    pub steps: usize,
    /// Maximum simultaneously live snapshots.
    pub budget: usize,
    /// Bytes per snapshot (the full time-loop state).
    pub state_bytes: usize,
    /// Primal steps recomputed per primal step (0.0 = store-all,
    /// `(T−1)/2` = budget 1).
    pub recompute_ratio: f64,
    /// Snapshot save events across the whole sweep (one state copy each
    /// on disk; a memory store of shared states copies nothing).
    pub saves: usize,
    /// Snapshot loads that restore a state (copied back from disk).
    pub loads: usize,
    /// Snapshot reads that move the state out instead: no bytes, no cost.
    pub moves: usize,
}

impl CheckpointShape {
    /// Live-snapshot memory high-water mark.
    pub fn mem_bytes(&self) -> usize {
        self.budget.saturating_mul(self.state_bytes)
    }
}

/// Predicted wall-clock seconds for a checkpointed adjoint time loop,
/// given the cost of one primal step and one adjoint step (predicted by
/// [`predict_schedule`] or measured by the tuner's timing stage — the
/// budget axis never changes per-step cost, so the two compose exactly):
///
/// * one streaming forward pass + one reverse sweep — the work store-all
///   would also do;
/// * `recompute_ratio × steps` extra primal steps — the price of the
///   budget;
/// * snapshot traffic: every save and load moves `state_bytes` through
///   the store at [`Machine::snapshot_cost`] ns/byte. Only a disk store
///   still copies that much: in memory the seismic driver's snapshots
///   share the cursor's grids, and this term over-prices them. It is kept
///   as is so that the tuner's budget picks stay where they were.
///
/// Budgets whose live set exceeds [`Machine::mem_budget_bytes`] return
/// `f64::INFINITY`: infeasible, never merely slow — this is what turns
/// the tuner's budget axis into a memory-capacity constraint.
pub fn predict_checkpoint(
    m: &Machine,
    primal_step_s: f64,
    adjoint_step_s: f64,
    ck: &CheckpointShape,
) -> f64 {
    if ck.mem_bytes() > m.mem_budget_bytes {
        return f64::INFINITY;
    }
    let steps = ck.steps as f64;
    let t_forward = steps * primal_step_s;
    let t_adjoint = steps * adjoint_step_s;
    let t_recompute = ck.recompute_ratio * steps * primal_step_s;
    let t_traffic = (ck.saves + ck.loads) as f64 * ck.state_bytes as f64 * m.snapshot_cost * 1e-9;
    t_forward + t_adjoint + t_recompute + t_traffic
}

/// How a batch of independent right-hand sides (seismic shots) is
/// dispatched over one compiled+tuned schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchStrategy {
    /// Each pool worker owns whole shots and executes them serially:
    /// zero extra barriers, perfect scaling while `shots ≥ threads`
    /// (modulo the `ceil(shots/threads)` tail wave).
    ShotParallel,
    /// Shots run one after another, each through the tiled grid-parallel
    /// schedule: the right shape for few large shots, where one shot's
    /// grid has enough parallelism to feed the whole pool.
    GridParallel,
}

/// Shape of one *batched gradient*: how many independent shots, over how
/// many workers, each sweeping how many time steps. The per-shot costs
/// are supplied by the caller (measured or predicted via
/// [`predict_schedule`]); this shape only fixes the dispatch geometry.
#[derive(Clone, Copy, Debug)]
pub struct BatchShape {
    /// Independent right-hand sides in the batch.
    pub shots: usize,
    /// Pool workers available for dispatch.
    pub threads: usize,
    /// Time steps per shot (forward + reverse sweep).
    pub steps: usize,
}

/// Predicted wall-clock seconds for a batched gradient under a dispatch
/// strategy, given the cost of evaluating one whole shot serially
/// (`serial_shot_s` — the shot-parallel workers' per-job price) and
/// through the grid-parallel schedule (`parallel_shot_s`):
///
/// * [`BatchStrategy::ShotParallel`] runs `ceil(shots/threads)` waves of
///   serial shots plus one pool fork/join for the whole batch;
/// * [`BatchStrategy::GridParallel`] runs the shots back to back, each
///   at its grid-parallel price (whose barrier costs per sweep are
///   already inside `parallel_shot_s`).
///
/// Like [`predict_schedule`], the model only has to *rank* the two
/// strategies; the bitwise-identity invariant makes the choice a pure
/// performance knob, never a correctness one.
pub fn predict_batch(
    m: &Machine,
    serial_shot_s: f64,
    parallel_shot_s: f64,
    b: &BatchShape,
    strategy: BatchStrategy,
) -> f64 {
    let shots = b.shots.max(1) as f64;
    match strategy {
        BatchStrategy::ShotParallel => {
            let waves = (b.shots.max(1)).div_ceil(b.threads.max(1)) as f64;
            waves * serial_shot_s + m.barrier_us * 1e-6
        }
        BatchStrategy::GridParallel => shots * parallel_shot_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{broadwell, knl};
    use perforad_core::{ActivityMap, AdjointOptions};

    fn wave_nest() -> LoopNest {
        use perforad_symbolic::{ix, Array, Expr, Idx};
        let (i, j, k) = (Symbol::new("i"), Symbol::new("j"), Symbol::new("k"));
        let n = Symbol::new("n");
        let dd = Expr::sym(Symbol::new("D"));
        let c = Array::new("c");
        let u = Array::new("u");
        let u1 = Array::new("u_1");
        let u2 = Array::new("u_2");
        let lap = u1.at(ix![&i - 1, &j, &k])
            + u1.at(ix![&i + 1, &j, &k])
            + u1.at(ix![&i, &j - 1, &k])
            + u1.at(ix![&i, &j + 1, &k])
            + u1.at(ix![&i, &j, &k - 1])
            + u1.at(ix![&i, &j, &k + 1])
            - 6.0 * u1.at(ix![&i, &j, &k]);
        let expr = 2.0 * u1.at(ix![&i, &j, &k]) - u2.at(ix![&i, &j, &k])
            + c.at(ix![&i, &j, &k]) * dd * lap;
        let b = (Idx::constant(1), Idx::sym(n.clone()) - 2);
        perforad_core::make_loop_nest(
            &u.at(ix![&i, &j, &k]),
            expr,
            vec![i.clone(), j.clone(), k.clone()],
            vec![b.clone(), b.clone(), b],
        )
        .unwrap()
    }

    fn sizes(n: i64) -> BTreeMap<Symbol, i64> {
        let mut m = BTreeMap::new();
        m.insert(Symbol::new("n"), n);
        m
    }

    #[test]
    fn paper_scale_serial_times_are_in_range() {
        // 1000³ grid, one step: paper reports 4.14 s primal serial and
        // 91 s for the atomic scatter baseline at 1 thread on Broadwell.
        let m = broadwell();
        let p = profile(std::slice::from_ref(&wave_nest()), &sizes(1000));
        let t = predict(&m, &p, 1);
        assert!(t > 1.0 && t < 10.0, "primal serial {t}");

        let act = ActivityMap::new()
            .with_suffixed("u")
            .with_suffixed("u_1")
            .with_suffixed("u_2");
        let sc = wave_nest().scatter_adjoint(&act).unwrap();
        let ps = profile(std::slice::from_ref(&sc), &sizes(1000));
        let t_atomic = predict(&m, &ps, 1);
        assert!(
            t_atomic / t > 5.0 && t_atomic / t < 40.0,
            "atomic slowdown {t_atomic} vs {t}"
        );
    }

    #[test]
    fn atomics_never_scale() {
        let m = broadwell();
        let act = ActivityMap::new()
            .with_suffixed("u")
            .with_suffixed("u_1")
            .with_suffixed("u_2");
        let sc = wave_nest().scatter_adjoint(&act).unwrap();
        let p = profile(std::slice::from_ref(&sc), &sizes(500));
        // Paper: the atomics curve is flat or falling.
        for t in [2, 4, 8, 12] {
            let s = predict(&m, &p, 1) / predict(&m, &p, t);
            assert!(s < 1.5, "atomics must not scale, got speedup {s}");
        }
    }

    #[test]
    fn gather_adjoint_scales_like_primal() {
        let m = broadwell();
        let nest = wave_nest();
        let act = ActivityMap::new()
            .with_suffixed("u")
            .with_suffixed("u_1")
            .with_suffixed("u_2");
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let pp = profile(std::slice::from_ref(&nest), &sizes(500));
        let pa = profile(&adj.nests, &sizes(500));
        let speedup = |p| predict(&m, p, 1) / predict(&m, p, 12);
        let (sp12, sa12) = (speedup(&pp), speedup(&pa));
        assert!(
            (sa12 / sp12) > 0.7,
            "adjoint stencil scalability {sa12} must track primal {sp12}"
        );
        // And the crossover: parallel PerforAD beats 1-thread atomics hugely.
        let sc = nest.scatter_adjoint(&act).unwrap();
        let ps = profile(std::slice::from_ref(&sc), &sizes(500));
        let best_atomic = (1..=12)
            .map(|t| predict(&m, &ps, t))
            .fold(f64::MAX, f64::min);
        let best_gather = predict(&m, &pa, 12);
        assert!(
            best_atomic / best_gather > 2.0,
            "paper reports 3.4×; model gives {}",
            best_atomic / best_gather
        );
    }

    #[test]
    fn knl_ratio_exceeds_broadwell_ratio() {
        // Paper: 3.4× on Broadwell, >19× on KNL for the wave adjoint.
        let nest = wave_nest();
        let act = ActivityMap::new()
            .with_suffixed("u")
            .with_suffixed("u_1")
            .with_suffixed("u_2");
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let sc = nest.scatter_adjoint(&act).unwrap();
        let pa = profile(&adj.nests, &sizes(500));
        let ps = profile(std::slice::from_ref(&sc), &sizes(500));
        let ratio = |m: &Machine| {
            let best_atomic = (1..=m.threads_max)
                .map(|t| predict(m, &ps, t))
                .fold(f64::MAX, f64::min);
            let best_gather = (1..=m.threads_max)
                .map(|t| predict(m, &pa, t))
                .fold(f64::MAX, f64::min);
            best_atomic / best_gather
        };
        let rb = ratio(&broadwell());
        let rk = ratio(&knl());
        assert!(rk > rb, "KNL ratio {rk} must exceed Broadwell {rb}");
        assert!(rk > 8.0, "KNL ratio should be order-of-magnitude, got {rk}");
    }

    #[test]
    fn schedule_model_ranks_the_recorded_wins() {
        // The tuner's pruning stage only needs the model to rank: rows
        // beat the interpreter, fused beats unfused, and a tiny problem
        // prefers serial over paying parallel-region barriers.
        let m = crate::machine::host(8);
        let act = ActivityMap::new()
            .with_suffixed("u")
            .with_suffixed("u_1")
            .with_suffixed("u_2");
        let adj = wave_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let p = profile(&adj.nests, &sizes(96));
        let base = ScheduleShape {
            threads: 8,
            barriers: 1,
            tiles: 256,
            rows: false,
            jit: false,
            jit_cold_groups: 0,
            dynamic: true,
        };
        let interp = predict_schedule(&m, &p, &base);
        let rows = predict_schedule(&m, &p, &ScheduleShape { rows: true, ..base });
        assert!(
            interp > rows,
            "rows must rank first: interp {interp} vs rows {rows}"
        );
        // Warm-cache JIT outranks rows (native code has no op dispatch)…
        let jit = predict_schedule(&m, &p, &ScheduleShape { jit: true, ..base });
        assert!(jit < rows, "jit must rank above rows: {jit} vs {rows}");
        // …but a cold compile on a small problem buries it.
        let cold = predict_schedule(
            &m,
            &p,
            &ScheduleShape {
                jit: true,
                jit_cold_groups: 1,
                ..base
            },
        );
        assert!(cold > interp, "cold compile must dominate: {cold}");
        assert!((cold - jit - m.jit_compile_s).abs() < 1e-12);
        // Serially (4.8×/11.1× measured in PR 3's bench) the margin is wide.
        let serial = ScheduleShape { threads: 1, ..base };
        let interp1 = predict_schedule(&m, &p, &serial);
        let rows1 = predict_schedule(
            &m,
            &p,
            &ScheduleShape {
                rows: true,
                ..serial
            },
        );
        assert!(
            interp1 / rows1 > 2.0,
            "serial rows speedup: {}",
            interp1 / rows1
        );
        // Unfused: one barrier per nest (53), a tile stream per nest.
        let unfused = predict_schedule(
            &m,
            &p,
            &ScheduleShape {
                barriers: 53,
                ..base
            },
        );
        assert!(
            unfused > interp,
            "barriers must cost: {unfused} vs {interp}"
        );

        // Tiny problem: serial avoids the barrier + dispatch overhead.
        let tiny = profile(&adj.nests, &sizes(6));
        let par = predict_schedule(
            &m,
            &tiny,
            &ScheduleShape {
                tiles: 53,
                barriers: 1,
                ..base
            },
        );
        let ser = predict_schedule(
            &m,
            &tiny,
            &ScheduleShape {
                threads: 1,
                tiles: 53,
                barriers: 1,
                ..base
            },
        );
        assert!(ser < par, "serial must win a 6³ problem: {ser} vs {par}");
    }

    #[test]
    fn schedule_model_reduces_to_roofline_plus_overheads() {
        let m = broadwell();
        let p = profile(std::slice::from_ref(&wave_nest()), &sizes(200));
        let s = ScheduleShape {
            threads: 1,
            barriers: 1,
            tiles: 1,
            rows: true,
            jit: false,
            jit_cold_groups: 0,
            dynamic: false,
        };
        let sched = predict_schedule(&m, &p, &s);
        let plain = predict(&m, &p, 1);
        // Same roofline core, plus small per-point/tile overheads.
        assert!(sched >= plain);
        assert!(
            sched < plain * 2.0,
            "overheads dominate: {sched} vs {plain}"
        );
    }

    #[test]
    fn checkpoint_model_trades_recompute_against_memory() {
        let m = crate::machine::host(8);
        // A 1 GiB-per-snapshot state: only small budgets fit in the 2 GiB
        // host budget.
        let big = |budget: usize, ratio: f64| CheckpointShape {
            steps: 1000,
            budget,
            state_bytes: 1 << 30,
            recompute_ratio: ratio,
            saves: 2 * budget,
            loads: 4 * budget,
            moves: 2 * budget,
        };
        let fits = predict_checkpoint(&m, 1e-3, 2e-3, &big(2, 1.5));
        assert!(fits.is_finite());
        let too_big = predict_checkpoint(&m, 1e-3, 2e-3, &big(3, 0.8));
        assert!(
            too_big.is_infinite(),
            "budgets past mem_budget_bytes must be infeasible"
        );
        // With memory to spare, less recompute is strictly cheaper...
        let small = |budget: usize, ratio: f64| CheckpointShape {
            state_bytes: 1 << 20,
            ..big(budget, ratio)
        };
        let tight = predict_checkpoint(&m, 1e-3, 2e-3, &small(4, 2.0));
        let roomy = predict_checkpoint(&m, 1e-3, 2e-3, &small(64, 0.2));
        assert!(roomy < tight, "roomy {roomy} vs tight {tight}");
        // ...and the floor is the un-checkpointed forward + adjoint cost.
        let floor = 1000.0 * (1e-3 + 2e-3);
        assert!(roomy > floor);
        assert!(
            predict_checkpoint(&m, 1e-3, 2e-3, &small(64, 0.0)) - floor
                < 64.0 * 6.0 * (1 << 20) as f64 * m.snapshot_cost * 1e-9 + 1e-12
        );
        assert_eq!(small(4, 0.0).mem_bytes(), 4 << 20);
    }

    #[test]
    fn batch_model_ranks_shot_dispatch() {
        let m = crate::machine::host(2);
        // Per-shot costs where parallelism pays 1.5× per shot: a full
        // batch amortizes the slower serial shots across workers.
        let (serial_shot, parallel_shot) = (1.5e-3, 1.0e-3);
        let shape = |shots: usize| BatchShape {
            shots,
            threads: 2,
            steps: 16,
        };
        let sp = predict_batch(
            &m,
            serial_shot,
            parallel_shot,
            &shape(8),
            BatchStrategy::ShotParallel,
        );
        let gp = predict_batch(
            &m,
            serial_shot,
            parallel_shot,
            &shape(8),
            BatchStrategy::GridParallel,
        );
        // 4 waves × 1.5 ms < 8 shots × 1.0 ms.
        assert!(
            sp < gp,
            "shot-parallel must win 8 shots on 2 threads: {sp} vs {gp}"
        );
        // A single shot cannot fill the pool: round-robin the grid instead.
        let sp1 = predict_batch(
            &m,
            serial_shot,
            parallel_shot,
            &shape(1),
            BatchStrategy::ShotParallel,
        );
        let gp1 = predict_batch(
            &m,
            serial_shot,
            parallel_shot,
            &shape(1),
            BatchStrategy::GridParallel,
        );
        assert!(gp1 < sp1, "grid-parallel must win 1 shot: {gp1} vs {sp1}");
        // The wave count rounds up: 3 shots on 2 threads still pay 2 waves.
        let sp3 = predict_batch(
            &m,
            serial_shot,
            parallel_shot,
            &shape(3),
            BatchStrategy::ShotParallel,
        );
        assert!((sp3 - (2.0 * serial_shot + m.barrier_us * 1e-6)).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_model_saturates() {
        let m = knl();
        assert!(m.bandwidth(64) <= m.bw_peak);
        assert!(m.bandwidth(1) == m.bw_single);
        assert!(m.flops(512) == m.flops(64));
    }
}
