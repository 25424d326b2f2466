//! Shared helpers for the integration tests.
//!
//! Randomness comes from a small deterministic xorshift generator (the
//! workspace builds offline without proptest); every failure therefore
//! reproduces exactly. Beside it: the one-shot seismic helpers every
//! gradient suite compares against, and the per-thread counting allocator
//! behind the zero-alloc guarantees.

// Each integration-test binary includes this module separately and uses a
// different subset of the helpers.
#![allow(dead_code)]

use perforad::ckpt::{CkptReport, Snapshot};
use perforad::codegen::rust::print_module;
use perforad::core::{AdjointOptions, AssignOp, Bound, LoopNest};
use perforad::exec::{default_pool, Binding, Grid, Lowering, ThreadPool, Workspace};
use perforad::pde::seismic::{BatchOptions, BatchPlan, SeismicConfig, ShotBatch, SnapshotBackend};
use perforad::pde::{burgers, wave3d};
use perforad::symbolic::{eval, EvalContext, SymError, Symbol};
use perforad::tune::{autotune_adjoint, Measure, TimeLoop, TuneOptions};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Deterministic xorshift64* generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Uniform in `[0, 1)` from the integer generator alone — no libm, so
    /// golden inputs built from it are the same on every host.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi]` (inclusive).
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_i64(lo as i64, hi as i64) as usize
    }

    /// A sorted set of distinct offsets in `[lo, hi]`, size in `[1, max_len]`.
    pub fn offset_set(&mut self, lo: i64, hi: i64, max_len: usize) -> Vec<i64> {
        let len = self.range_usize(1, max_len);
        let mut set = std::collections::BTreeSet::new();
        while set.len() < len {
            set.insert(self.range_i64(lo, hi));
        }
        set.into_iter().collect()
    }

    /// Coefficients in `[lo, hi]`, at least one non-zero.
    pub fn coeffs(&mut self, lo: i64, hi: i64, len: usize) -> Vec<i64> {
        loop {
            let v: Vec<i64> = (0..len).map(|_| self.range_i64(lo, hi)).collect();
            if v.iter().any(|&c| c != 0) {
                return v;
            }
        }
    }
}

/// Every named grid of `got` equals `want`'s bit for bit. Stricter than
/// `max_abs_diff(..) == 0.0`, which reads `-0.0` and `+0.0` as equal.
pub fn assert_bitwise(tag: &str, got: &Workspace, want: &Workspace, names: &[&str]) {
    for name in names {
        let (g, w) = (got.grid(name), want.grid(name));
        assert_eq!(g.dims(), w.dims(), "{tag}: {name} shape");
        for (k, (a, b)) in g.as_slice().iter().zip(w.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: {name}[{k}]");
        }
    }
}

/// The expression oracle: `nests` run on `ws` point by point through
/// `perforad::symbolic::eval`, in nest and statement order, honouring each
/// statement's guard and `=` / `+=`. With `padded`, a load outside the
/// extents reads zero. Sizes and parameters come from `bind`.
pub fn eval_nests(nests: &[LoopNest], ws: &mut Workspace, bind: &Binding, padded: bool) {
    let range = |b: &Bound| {
        (
            b.lo.eval(&bind.sizes).unwrap(),
            b.hi.eval(&bind.sizes).unwrap(),
        )
    };
    for nest in nests {
        let ranges: Vec<(i64, i64)> = nest.bounds.iter().map(range).collect();
        let mut point: Vec<i64> = ranges.iter().map(|r| r.0).collect();
        let mut at = bind.sizes.clone();
        if ranges.iter().any(|(lo, hi)| lo > hi) {
            continue;
        }
        loop {
            at.extend(nest.counters.iter().cloned().zip(point.iter().copied()));
            for st in &nest.body {
                let guards = st.guard.iter().flat_map(|g| &g.ranges);
                if guards
                    .map(|(c, b)| (at[c], range(b)))
                    .any(|(k, (lo, hi))| k < lo || k > hi)
                {
                    continue;
                }
                let ctx = Oracle {
                    ws,
                    bind,
                    at: &at,
                    padded,
                };
                let v: f64 = eval(&st.rhs, &ctx).unwrap();
                let ix = st
                    .lhs
                    .indices
                    .iter()
                    .map(|ix| ix.eval(&at).unwrap() as usize);
                let ix: Vec<usize> = ix.collect();
                let grid = ws.grid_mut(st.lhs.array.name());
                let add = st.op != AssignOp::Assign;
                grid.set(&ix, if add { grid.get(&ix) + v } else { v });
            }
            // The next point, innermost counter fastest; past the last, done.
            let mut d = point.len();
            while d > 0 && point[d - 1] == ranges[d - 1].1 {
                d -= 1;
                point[d] = ranges[d].0;
            }
            let Some(k) = d.checked_sub(1) else { break };
            point[k] += 1;
        }
    }
}

/// What [`eval_nests`] evaluates a statement against at one point.
struct Oracle<'a> {
    ws: &'a Workspace,
    bind: &'a Binding,
    at: &'a BTreeMap<Symbol, i64>,
    padded: bool,
}

impl EvalContext<f64> for Oracle<'_> {
    fn scalar(&self, s: &Symbol) -> Result<f64, SymError> {
        let value = self.bind.params.get(s).copied();
        value.ok_or_else(|| SymError::UnboundSymbol(s.name().to_string()))
    }

    fn index_value(&self, s: &Symbol) -> Result<i64, SymError> {
        let value = self.at.get(s).copied();
        value.ok_or_else(|| SymError::UnboundIndex(s.name().to_string()))
    }

    fn load(&self, array: &Symbol, indices: &[i64]) -> Result<f64, SymError> {
        let grid = self.ws.grid(array.name());
        let mut dims = indices.iter().zip(grid.dims());
        if dims.all(|(&k, &d)| k >= 0 && (k as usize) < d) {
            let ix: Vec<usize> = indices.iter().map(|&k| k as usize).collect();
            Ok(grid.get(&ix))
        } else if self.padded {
            Ok(0.0)
        } else {
            Err(SymError::Eval(format!("`{array}` read at {indices:?}")))
        }
    }
}

/// Options forcing a store-all plan (every state saved, nothing
/// recomputed) — the bitwise reference for every checkpointed one.
pub fn store_all() -> BatchOptions {
    BatchOptions {
        checkpointed: Some(false),
        ..BatchOptions::default()
    }
}

/// Options forcing the checkpointed sweep under `budget` (tuner-chosen
/// when `None`) against `backend`.
pub fn checkpointed(budget: Option<usize>, backend: SnapshotBackend) -> BatchOptions {
    BatchOptions {
        checkpointed: Some(true),
        budget,
        backend,
        ..BatchOptions::default()
    }
}

/// One shot through the one gradient driver: a [`ShotBatch`] of one on a
/// freshly built [`BatchPlan`] — everything a standalone call pays.
pub fn one_shot(
    cfg: &SeismicConfig,
    c: &Grid,
    data: &Grid,
    source: &[f64],
    opts: &BatchOptions,
    pool: &ThreadPool,
) -> (f64, Grid, Option<CkptReport>) {
    let mut batch = ShotBatch::new();
    batch.push(source.to_vec(), data.clone());
    let mut out = BatchPlan::new(cfg, c, opts, pool).run(&batch);
    (
        out.misfits[0],
        out.gradients.remove(0),
        out.reports.remove(0),
    )
}

/// The in-process reference a served gradient is compared against:
/// default options on the shared pool.
pub fn reference_gradient(
    cfg: &SeismicConfig,
    c: &Grid,
    data: &Grid,
    source: &[f64],
) -> (f64, Grid) {
    let (j, g, _) = one_shot(
        cfg,
        c,
        data,
        source,
        &BatchOptions::default(),
        default_pool(),
    );
    (j, g)
}

/// Put the analytic model's pick for `cfg`'s c-active wave adjoint on
/// `pool` into the tuner's memory cache, under the key `BatchPlan::new`'s
/// own tuner call looks up — so the plan comes up on that configuration (a
/// `Jit` one wherever a toolchain is found) rather than on the wall-clock
/// tuner's run-to-run pick. Returns the lowering pinned.
pub fn pin_model_config(cfg: &SeismicConfig, checkpointed: bool, pool: &ThreadPool) -> Lowering {
    let dims = [cfg.n; 3];
    let adj = wave3d::nest()
        .adjoint(&wave3d::activity_with_c(), &AdjointOptions::default())
        .unwrap();
    let bind = Binding::new().size("n", cfg.n as i64).param("D", cfg.d);
    let mut ws = Workspace::new();
    for name in ["c", "u_1", "u_b", "u_1_b", "u_2_b", "c_b"] {
        ws.insert(name, Grid::zeros(&dims));
    }
    let mut opts = TuneOptions::quick().with_measure(Measure::Model);
    if checkpointed {
        let state_bytes = (Grid::zeros(&dims), Grid::zeros(&dims)).mem_bytes();
        opts = opts.with_time_loop(TimeLoop::new(cfg.steps, state_bytes));
    }
    let (_, report) = autotune_adjoint(&adj, &mut ws, &bind, pool, &opts).unwrap();
    report.config.lowering
}

/// `print_module` of the paper's wave3d and Burgers kernels, primal and
/// adjoint (the script's activity, `c` passive): `(name, source)`, each
/// module named after its function that runs every nest.
pub fn printed_paper_kernels() -> Vec<(&'static str, String)> {
    let opts = AdjointOptions::default();
    let wave = wave3d::nest();
    let wave_adj = wave.adjoint(&wave3d::activity(), &opts).unwrap();
    let burgers = burgers::nest();
    let burgers_adj = burgers.adjoint(&burgers::activity(), &opts).unwrap();
    [
        ("wave3d_primal", std::slice::from_ref(&wave)),
        ("wave3d_adjoint", &wave_adj.nests[..]),
        ("burgers_primal", std::slice::from_ref(&burgers)),
        ("burgers_adjoint", &burgers_adj.nests[..]),
    ]
    .into_iter()
    .map(|(name, nests)| (name, print_module(name, nests)))
    .collect()
}

/// `System`, with a per-thread count of every allocation and of the bytes
/// asked for — the instrument behind the zero-alloc disabled-path
/// guarantees and the time loop's bytes-per-step bound. Counting per thread
/// keeps a straggling daemon/pool thread from another test in the same
/// binary out of the calling thread's tally. Install with
/// `#[global_allocator] static GLOBAL: CountingAlloc = CountingAlloc;`.
pub struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (`alloc` + `realloc`) the calling thread has made so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has asked the allocator for so far (a
/// `realloc` counts its whole new size; nothing is subtracted on free).
pub fn thread_alloc_bytes() -> u64 {
    THREAD_ALLOC_BYTES.with(Cell::get)
}

fn count_alloc(bytes: usize) {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = THREAD_ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every call forwards unchanged to `System`; the counters are
// const-initialised, destructor-free thread-locals, so touching them never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}
