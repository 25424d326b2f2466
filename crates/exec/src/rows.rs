//! Row execution of register programs — the vectorized back half of the
//! lowering pipeline.
//!
//! The per-point interpreter (`tile::exec_point`) re-dispatches
//! the op loop, re-checks statement guards, and re-derives `LoadPadded`
//! bounds at *every grid point*. This executor instead evaluates a
//! [`RegProgram`] over a whole contiguous innermost-dimension run at a
//! time, in fixed-width chunks of [`LANES`] points: each op becomes a
//! tight loop over a register *lane array*, which LLVM auto-vectorizes —
//! the same flat-loop shape the paper obtains by emitting C and letting
//! icc vectorise.
//!
//! Per-point overhead is hoisted to per-row work:
//!
//! * **guards** — outer-dimension guard bounds are checked once per row,
//!   and the innermost guard clamps the row interval up front;
//! * **zero padding** — each padded load's outer-dimension offsets are
//!   resolved once per row (a `PadRow`), and the row is split into
//!   (padded-edge, unguarded-interior, padded-edge) segments so the
//!   interior path uses plain offset loads with no branches.
//!
//! Chunking reorders evaluation *across* points, never *within* one
//! point, so results are bitwise identical to the interpreter.

use crate::atomic::AtomicF64;
use crate::bytecode::call1;
use crate::kernel::{NestPlan, Plan};
use crate::regir::{RegOp, RegProgram};
use crate::tile::Buffers;

/// Lane-chunk width: one op processes up to this many consecutive grid
/// points. Wider chunks amortise op dispatch over more points and give
/// the vectoriser longer trip counts; beyond this the lane file outgrows
/// L1 for register-heavy programs and short stencil rows waste lanes
/// (measured sweet spot on the wave/Burgers adjoints: 64).
pub const LANES: usize = 64;

/// A padded load resolved against one row's fixed outer counters.
#[derive(Clone, Copy, Debug)]
struct PadRow {
    /// All outer-dimension indices are inside the extents. When false the
    /// load is 0.0 over the entire row.
    outer_ok: bool,
    /// Linear offset contributed by the outer dimensions (valid only when
    /// `outer_ok`).
    base: isize,
    /// The load's innermost-dimension offset.
    off_last: i64,
}

/// Per-thread scratch for row execution: the register lane file plus the
/// per-row padded-load table.
#[derive(Clone)]
pub struct RowScratch {
    regs: Vec<f64>,
    pads: Vec<PadRow>,
}

impl RowScratch {
    /// Scratch sized for every statement of `plan`.
    pub fn for_plan(plan: &Plan) -> RowScratch {
        RowScratch {
            regs: vec![0.0; max_regs(plan) * LANES],
            pads: Vec::new(),
        }
    }

    /// A zero-capacity placeholder for scratch structs whose run will
    /// never take the rows path.
    pub(crate) fn empty() -> RowScratch {
        RowScratch {
            regs: Vec::new(),
            pads: Vec::new(),
        }
    }
}

/// Largest register count over all statements of a plan.
pub(crate) fn max_regs(plan: &Plan) -> usize {
    plan.nests
        .iter()
        .flat_map(|n| n.stmts.iter())
        .map(|s| s.row.n_regs)
        .max()
        .unwrap_or(0)
}

/// Execute every statement of `nest` over the row with outer counters
/// `counters[..rank-1]` and innermost interval `[lo, hi]` (inclusive).
/// `base` is the linear offset contributed by the outer counters.
///
/// Caller contract (as for `exec_point`): the row lies inside the nest's
/// compiled bounds, so the plan's range proof covers every unguarded load
/// and write; parallel callers guarantee disjoint or atomic writes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_row(
    plan: &Plan,
    nest: &NestPlan,
    bufs: &Buffers,
    counters: &[i64],
    base: isize,
    lo: i64,
    hi: i64,
    atomic: bool,
    scratch: &mut RowScratch,
) {
    let last = plan.rank - 1;
    let dim_last = plan.dims[last];
    let stride_last = plan.strides[last] as isize;
    'stmt: for st in &nest.stmts {
        // Guard hoisting: outer dims decided once per row, innermost dim
        // clamps the interval.
        let (mut slo, mut shi) = (lo, hi);
        if let Some(g) = &st.guard {
            for d in 0..last {
                if counters[d] < g[d].0 || counters[d] > g[d].1 {
                    continue 'stmt;
                }
            }
            slo = slo.max(g[last].0);
            shi = shi.min(g[last].1);
        }
        if slo > shi {
            continue;
        }
        let prog: &RegProgram = &st.row;
        // Hard check (not debug-only): the segment loops index the lane
        // file through raw pointers, so an undersized scratch must panic
        // here rather than corrupt memory.
        assert!(
            scratch.regs.len() >= prog.n_regs * LANES,
            "row scratch sized for a different plan"
        );

        // Resolve padded loads against this row's outer counters and
        // compute the branch-free interior interval.
        scratch.pads.clear();
        let (mut ilo, mut ihi) = (slo, shi);
        for pad in &prog.pads {
            let mut outer_ok = true;
            let mut pbase = 0isize;
            for (d, (&cv, &off)) in counters[..last]
                .iter()
                .zip(&pad.offsets[..last])
                .enumerate()
            {
                let ix = cv + off;
                if ix < 0 || ix as usize >= plan.dims[d] {
                    outer_ok = false;
                    break;
                }
                pbase += ix as isize * plan.strides[d] as isize;
            }
            let off_last = pad.offsets[last];
            if outer_ok {
                ilo = ilo.max(-off_last);
                ihi = ihi.min(dim_last as i64 - 1 - off_last);
            }
            scratch.pads.push(PadRow {
                outer_ok,
                base: pbase,
                off_last,
            });
        }

        let out_ptr = bufs.write_ptrs[st.out_slot];
        let mut seg = |a: i64, b: i64, edge: bool| {
            if a > b {
                return;
            }
            // SAFETY: F1 — `[a, b]` lies inside the row the caller proved
            // in the nest's bounds (clamped further by the statement's
            // guard), so the plan's range proof covers every unpadded load
            // and the write; padded loads are checked per lane on edge
            // segments and proven per row on the interior. F3 — parallel
            // callers write disjoint points or atomically.
            unsafe {
                run_segment(
                    prog,
                    bufs,
                    &scratch.pads,
                    &mut scratch.regs,
                    counters,
                    last,
                    dim_last,
                    stride_last,
                    base,
                    a,
                    b,
                    edge,
                    out_ptr,
                    st.write_rel,
                    st.overwrite,
                    atomic,
                );
            }
        };
        if ilo > ihi {
            // No interior: the whole (clamped) row takes the checked path.
            seg(slo, shi, true);
        } else {
            seg(slo, ilo - 1, true);
            seg(ilo, ihi, false);
            seg(ihi + 1, shi, true);
        }
    }
}

/// Evaluate and store one segment `[lo, hi]` of a row in lane chunks.
///
/// # Safety
///
/// Fact F1 of [`crate::tile`] must cover every load and the write target
/// for every point in the segment (edge mode additionally bounds-checks
/// padded loads per lane), and concurrent callers must hold F3: disjoint
/// locations unless `atomic`.
#[allow(clippy::too_many_arguments)]
unsafe fn run_segment(
    prog: &RegProgram,
    bufs: &Buffers,
    pads: &[PadRow],
    regs: &mut [f64],
    counters: &[i64],
    last: usize,
    dim_last: usize,
    stride_last: isize,
    base: isize,
    lo: i64,
    hi: i64,
    edge: bool,
    out_ptr: *mut f64,
    write_rel: isize,
    overwrite: bool,
    atomic: bool,
) {
    debug_assert!(regs.len() >= prog.n_regs * LANES);
    let mut j = lo;
    while j <= hi {
        let len = ((hi - j + 1) as usize).min(LANES);
        let center = base + j as isize * stride_last;
        eval_chunk(
            prog,
            bufs,
            pads,
            regs,
            counters,
            last,
            dim_last,
            stride_last,
            center,
            j,
            len,
            edge,
        );
        let res = prog.result as usize * LANES;
        let wp = out_ptr.offset(center + write_rel);
        if overwrite {
            for l in 0..len {
                *wp.offset(l as isize * stride_last) = regs[res + l];
            }
        } else if atomic {
            for l in 0..len {
                let p = wp.offset(l as isize * stride_last);
                (*(p as *const AtomicF64)).fetch_add(regs[res + l]);
            }
        } else {
            for l in 0..len {
                let p = wp.offset(l as isize * stride_last);
                *p += regs[res + l];
            }
        }
        j += len as i64;
    }
}

/// Evaluate `prog` for the `len` consecutive points starting at innermost
/// index `j0` (linear index `center`). Each op is a tight loop over the
/// lanes of its registers — the auto-vectorization target.
///
/// # Safety
///
/// As for [`run_segment`]; additionally `len <= LANES` and the register
/// file holds at least `prog.n_regs * LANES` lanes.
#[allow(clippy::too_many_arguments)]
#[inline]
unsafe fn eval_chunk(
    prog: &RegProgram,
    bufs: &Buffers,
    pads: &[PadRow],
    regs: &mut [f64],
    counters: &[i64],
    last: usize,
    dim_last: usize,
    stride_last: isize,
    center: isize,
    j0: i64,
    len: usize,
    edge: bool,
) {
    debug_assert!(len <= LANES && regs.len() >= prog.n_regs * LANES);
    let r = regs.as_mut_ptr();
    // Lane l of register `reg`.
    macro_rules! lane {
        ($reg:expr, $l:expr) => {
            *r.add($reg as usize * LANES + $l)
        };
    }
    macro_rules! binop {
        ($dst:expr, $a:expr, $b:expr, $f:expr) => {{
            let (dst, a, b) = ($dst, $a, $b);
            for l in 0..len {
                lane!(dst, l) = $f(lane!(a, l), lane!(b, l));
            }
        }};
    }
    for op in &prog.ops {
        match *op {
            RegOp::Const { dst, v } => {
                for l in 0..len {
                    lane!(dst, l) = v;
                }
            }
            RegOp::Counter { dst, dim } => {
                if dim as usize == last {
                    for l in 0..len {
                        lane!(dst, l) = (j0 + l as i64) as f64;
                    }
                } else {
                    let v = counters[dim as usize] as f64;
                    for l in 0..len {
                        lane!(dst, l) = v;
                    }
                }
            }
            RegOp::Load { dst, slot, rel } => {
                let a = &bufs.views[slot as usize];
                let idx = center + rel as isize;
                debug_assert!(
                    idx >= 0 && (idx as usize + (len - 1) * stride_last as usize) < a.len,
                    "row load out of range"
                );
                let p = a.ptr.offset(idx);
                for l in 0..len {
                    lane!(dst, l) = *p.offset(l as isize * stride_last);
                }
            }
            RegOp::LoadPadded { dst, slot, pad } => {
                let a = &bufs.views[slot as usize];
                let p = pads[pad as usize];
                if !edge {
                    // Interior segment: bounds proven per row.
                    if p.outer_ok {
                        let first = p.base + (j0 + p.off_last) as isize * stride_last;
                        debug_assert!(
                            first >= 0
                                && (first as usize + (len - 1) * stride_last as usize) < a.len
                        );
                        let q = a.ptr.offset(first);
                        for l in 0..len {
                            lane!(dst, l) = *q.offset(l as isize * stride_last);
                        }
                    } else {
                        for l in 0..len {
                            lane!(dst, l) = 0.0;
                        }
                    }
                } else {
                    for l in 0..len {
                        let ixl = j0 + l as i64 + p.off_last;
                        lane!(dst, l) = if p.outer_ok && ixl >= 0 && (ixl as usize) < dim_last {
                            *a.ptr.offset(p.base + ixl as isize * stride_last)
                        } else {
                            0.0
                        };
                    }
                }
            }
            RegOp::Add { dst, a, b } => binop!(dst, a, b, |x: f64, y: f64| x + y),
            RegOp::Mul { dst, a, b } => binop!(dst, a, b, |x: f64, y: f64| x * y),
            RegOp::Neg { dst, a } => {
                for l in 0..len {
                    lane!(dst, l) = -lane!(a, l);
                }
            }
            RegOp::Powi { dst, a, k } => {
                for l in 0..len {
                    lane!(dst, l) = lane!(a, l).powi(k);
                }
            }
            RegOp::Powf { dst, a, b } => binop!(dst, a, b, f64::powf),
            RegOp::Call1 { dst, f, a } => {
                for l in 0..len {
                    lane!(dst, l) = call1(f, lane!(a, l));
                }
            }
            // Interpreter comparison semantics, not `f64::max` (NaN order).
            RegOp::Max { dst, a, b } => {
                binop!(dst, a, b, |x: f64, y: f64| if x >= y { x } else { y })
            }
            RegOp::Min { dst, a, b } => {
                binop!(dst, a, b, |x: f64, y: f64| if x <= y { x } else { y })
            }
            RegOp::Select {
                dst,
                rel,
                lhs,
                rhs,
                then_v,
                else_v,
            } => {
                for l in 0..len {
                    lane!(dst, l) = if rel.holds(lane!(lhs, l), lane!(rhs, l)) {
                        lane!(then_v, l)
                    } else {
                        lane!(else_v, l)
                    };
                }
            }
        }
    }
}

/// Execute a rectangular box `[lo, hi]` (inclusive, rank dims) of `nest`
/// row by row: the outer dimensions are walked point-wise, the innermost
/// interval is handed to [`exec_row`] whole. Shared by the serial/parallel
/// runners and the tile runner.
#[allow(clippy::too_many_arguments)]
pub(crate) fn exec_box_rows(
    plan: &Plan,
    nest: &NestPlan,
    bufs: &Buffers,
    lo: &[i64],
    hi: &[i64],
    atomic: bool,
    counters: &mut [i64],
    scratch: &mut RowScratch,
) {
    walk(plan, nest, bufs, 0, 0, lo, hi, atomic, counters, scratch);
}

#[allow(clippy::too_many_arguments)]
fn walk(
    plan: &Plan,
    nest: &NestPlan,
    bufs: &Buffers,
    dim: usize,
    base: isize,
    lo: &[i64],
    hi: &[i64],
    atomic: bool,
    counters: &mut [i64],
    scratch: &mut RowScratch,
) {
    let last = plan.rank - 1;
    if dim == last {
        exec_row(
            plan, nest, bufs, counters, base, lo[dim], hi[dim], atomic, scratch,
        );
        return;
    }
    let stride = plan.strides[dim] as isize;
    for k in lo[dim]..=hi[dim] {
        counters[dim] = k;
        walk(
            plan,
            nest,
            bufs,
            dim + 1,
            base + k as isize * stride,
            lo,
            hi,
            atomic,
            counters,
            scratch,
        );
    }
}
