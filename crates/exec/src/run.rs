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
//! measures.
//!
//! Orthogonally to the parallel strategy, a run uses one of three
//! lowerings ([`Lowering`]): the per-point stack interpreter (the
//! reference every property suite compares against), the vectorized
//! register-IR row executor ([`crate::rows`]), or JIT-compiled native
//! code resolved through the [`crate::native`] registry (`perforad-jit`
//! populates it; a missing entry falls back to the row executor). All
//! produce bitwise-identical results.

use crate::atomic::AtomicF64;
use crate::bytecode::{ArrayView, PointEnv};
use crate::error::ExecError;
use crate::kernel::{NestPlan, Plan};
use crate::native::{native_lookup, NativeGroup};
use crate::pool::ThreadPool;
use crate::rows::{self, RowScratch};
use crate::workspace::Workspace;
use std::sync::Arc;

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

    /// Switch to the per-point interpreter.
    pub fn per_point(mut self) -> Self {
        self.lowering = Lowering::PerPoint;
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

pub(crate) struct Buffers {
    pub(crate) views: Vec<ArrayView>,
    pub(crate) write_ptrs: Vec<*mut f64>,
    pub(crate) lens: Vec<usize>,
}

// SAFETY: `Buffers` is only shared across threads by the executors below,
// which guarantee disjoint writes (gather chunking / disjoint nests) or
// atomic writes. Reads never alias writes (checked at plan compile time).
unsafe impl Sync for Buffers {}

pub(crate) fn make_buffers(plan: &Plan, ws: &mut Workspace) -> Result<Buffers, ExecError> {
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

/// Per-worker scratch (loop counters, VM stack, CSE temporaries, register
/// lane file, row box bounds), sized for the one lowering it will run so
/// interpreter jobs don't pay for lane files and vice versa.
pub(crate) struct JobScratch {
    pub(crate) counters: Vec<i64>,
    pub(crate) stack: Vec<f64>,
    pub(crate) tmps: Vec<f64>,
    pub(crate) rows: RowScratch,
    row_lo: Vec<i64>,
    row_hi: Vec<i64>,
}

impl JobScratch {
    /// Scratch for one run; `native_active` tells a Jit run that a
    /// native module resolved, so the rows-fallback lane file (which
    /// would then be unreachable) is not allocated.
    pub(crate) fn for_run(plan: &Plan, lowering: Lowering, native_active: bool) -> JobScratch {
        let (stack, tmps, rows) = match lowering {
            Lowering::PerPoint => (
                Vec::with_capacity(max_stack(plan)),
                vec![0.0; max_tmps(plan)],
                RowScratch::empty(),
            ),
            Lowering::Jit if native_active => (Vec::new(), Vec::new(), RowScratch::empty()),
            // Rows, or Jit without a registered module — the fallback
            // runs through the row executor and needs its lane file.
            Lowering::Rows | Lowering::Jit => (Vec::new(), Vec::new(), RowScratch::for_plan(plan)),
        };
        JobScratch {
            counters: vec![0i64; plan.rank],
            stack,
            tmps,
            rows,
            row_lo: vec![0i64; plan.rank],
            row_hi: vec![0i64; plan.rank],
        }
    }
}

#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_point(
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
pub(crate) fn resolve_native(
    plan: &Plan,
    lowering: Lowering,
    atomic: bool,
) -> Option<Arc<NativeGroup>> {
    if lowering != Lowering::Jit || atomic {
        return None;
    }
    let native = native_lookup(plan.fingerprint()).filter(|g| g.nests() == plan.nests.len());
    if native.is_none() {
        // A Jit lowering that resolves no native module is a *degraded*
        // execution (bitwise-identical, slower): a failed/skipped JIT
        // prepare, a nest-count drift, or an evicted registration. Counted
        // once per runner/run, not per tile.
        perforad_obs::counter("jit.degraded_fallbacks").inc();
    }
    native
}

/// Execute a nest over `[lo0, hi0]` of the outermost counter with the
/// requested lowering. `nest_idx` indexes `plan.nests` (the native
/// module's entry points are per-nest).
#[allow(clippy::too_many_arguments)]
fn exec_nest_range(
    plan: &Plan,
    nest_idx: usize,
    bufs: &Buffers,
    lo0: i64,
    hi0: i64,
    atomic: bool,
    lowering: Lowering,
    native: Option<&NativeGroup>,
    scratch: &mut JobScratch,
) {
    let nest = &plan.nests[nest_idx];
    match lowering {
        Lowering::PerPoint => walk(
            plan,
            nest,
            bufs,
            0,
            0,
            lo0,
            hi0,
            atomic,
            &mut scratch.counters,
            &mut scratch.stack,
            &mut scratch.tmps,
        ),
        Lowering::Rows | Lowering::Jit => {
            scratch.row_lo.copy_from_slice(&nest.lo);
            scratch.row_hi.copy_from_slice(&nest.hi);
            scratch.row_lo[0] = lo0;
            scratch.row_hi[0] = hi0;
            if let Some(native) = native {
                // SAFETY: `native` was registered under this plan's
                // fingerprint, so its entry points were compiled for this
                // layout; the caller guarantees disjoint writes (same
                // contract as the rows path below).
                unsafe {
                    native.run_box(nest_idx, &scratch.row_lo, &scratch.row_hi, &bufs.write_ptrs)
                };
            } else {
                rows::exec_box_rows(
                    plan,
                    nest,
                    bufs,
                    &scratch.row_lo,
                    &scratch.row_hi,
                    atomic,
                    &mut scratch.counters,
                    &mut scratch.rows,
                );
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn walk(
    plan: &Plan,
    nest: &NestPlan,
    bufs: &Buffers,
    dim: usize,
    base: isize,
    lo0: i64,
    hi0: i64,
    atomic: bool,
    counters: &mut [i64],
    stack: &mut Vec<f64>,
    tmps: &mut [f64],
) {
    let rank = plan.rank;
    let (lo, hi) = if dim == 0 {
        (lo0, hi0)
    } else {
        (nest.lo[dim], nest.hi[dim])
    };
    let stride = plan.strides[dim] as isize;
    if dim + 1 == rank {
        for k in lo..=hi {
            counters[dim] = k;
            exec_point(
                plan,
                nest,
                bufs,
                counters,
                base + k as isize * stride,
                atomic,
                stack,
                tmps,
            );
        }
    } else {
        for k in lo..=hi {
            counters[dim] = k;
            walk(
                plan,
                nest,
                bufs,
                dim + 1,
                base + k as isize * stride,
                lo0,
                hi0,
                atomic,
                counters,
                stack,
                tmps,
            );
        }
    }
}

/// Chunked work items over the outermost dimension of every nest.
fn make_jobs(plan: &Plan, threads: usize) -> Vec<(usize, i64, i64)> {
    let mut jobs = Vec::new();
    let target = (threads * 4).max(1) as i64;
    for (k, nest) in plan.nests.iter().enumerate() {
        if nest.empty {
            continue;
        }
        let rows = nest.hi[0] - nest.lo[0] + 1;
        let chunks = rows.min(target).max(1);
        let size = (rows + chunks - 1) / chunks;
        let mut s = nest.lo[0];
        while s <= nest.hi[0] {
            let e = (s + size - 1).min(nest.hi[0]);
            jobs.push((k, s, e));
            s = e + 1;
        }
    }
    jobs
}

pub(crate) fn max_stack(plan: &Plan) -> usize {
    plan.nests
        .iter()
        .flat_map(|n| n.stmts.iter())
        .map(|s| s.prog.max_stack())
        .max()
        .unwrap_or(0)
}

pub(crate) fn max_tmps(plan: &Plan) -> usize {
    plan.nests
        .iter()
        .flat_map(|n| n.stmts.iter())
        .map(|s| s.prog.n_tmps())
        .max()
        .unwrap_or(0)
}

fn run_inline(plan: &Plan, ws: &mut Workspace, lowering: Lowering) -> Result<ExecStats, ExecError> {
    let bufs = make_buffers(plan, ws)?;
    let native = resolve_native(plan, lowering, false);
    let mut scratch = JobScratch::for_run(plan, lowering, native.is_some());
    for (k, nest) in plan.nests.iter().enumerate() {
        if nest.empty {
            continue;
        }
        exec_nest_range(
            plan,
            k,
            &bufs,
            nest.lo[0],
            nest.hi[0],
            false,
            lowering,
            native.as_deref(),
            &mut scratch,
        );
    }
    Ok(ExecStats {
        points: plan.points(),
    })
}

fn run_pool(
    plan: &Plan,
    ws: &mut Workspace,
    pool: &ThreadPool,
    atomic: bool,
    lowering: Lowering,
) -> Result<ExecStats, ExecError> {
    let bufs = make_buffers(plan, ws)?;
    let native = resolve_native(plan, lowering, atomic);
    let jobs = make_jobs(plan, pool.size());
    pool.parallel_dynamic_scratch(
        jobs.len(),
        || JobScratch::for_run(plan, lowering, native.is_some()),
        |j, scratch| {
            let (k, s, e) = jobs[j];
            exec_nest_range(
                plan,
                k,
                &bufs,
                s,
                e,
                atomic,
                lowering,
                native.as_deref(),
                scratch,
            );
        },
    );
    Ok(ExecStats {
        points: plan.points(),
    })
}

/// Execute `plan` against `ws` the way `mode` asks.
///
/// [`Strategy::Serial`] walks the nests in order on the calling thread.
/// [`Strategy::Parallel`] needs a gather-only plan
/// ([`ExecError::ScatterNeedsAtomics`] otherwise); for adjoint plans from
/// [`crate::kernel::compile_adjoint`] the nests are disjoint, so all
/// chunks execute in one region without barriers.
/// [`Strategy::ParallelAtomic`] is correct for any plan.
pub fn run(plan: &Plan, ws: &mut Workspace, mode: ExecMode<'_>) -> Result<ExecStats, ExecError> {
    match mode.strategy {
        Strategy::Serial => run_inline(plan, ws, mode.lowering),
        Strategy::Parallel(_) if !plan.gather_only => Err(ExecError::ScatterNeedsAtomics),
        Strategy::Parallel(pool) => run_pool(plan, ws, pool, false, mode.lowering),
        Strategy::ParallelAtomic(pool) => run_pool(plan, ws, pool, true, mode.lowering),
    }
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
        let (mut ws1, bind) = setup(33);
        let plan = compile_nest(&paper_nest(), &ws1, &bind).unwrap();
        run(&plan, &mut ws1, ExecMode::serial()).unwrap();
        let (mut ws2, _) = setup(33);
        run(&plan, &mut ws2, ExecMode::serial().rows()).unwrap();
        assert_eq!(ws1.grid("r").max_abs_diff(ws2.grid("r")), 0.0);
        let pool = ThreadPool::new(2);
        let (mut ws3, _) = setup(33);
        run(&plan, &mut ws3, ExecMode::parallel(&pool).rows()).unwrap();
        assert_eq!(ws1.grid("r").max_abs_diff(ws3.grid("r")), 0.0);
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
