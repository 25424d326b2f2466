//! Kernel plans: loop nests bound to storage and compiled for execution.
//!
//! A [`Plan`] fixes everything the inner loops need: resolved integer
//! bounds, array slots, register programs with parameters inlined, write
//! offsets, guards. Building a plan also proves memory safety — every
//! write at `counter + c` and every access in range (F1), no read of a
//! written array (F2) — so the execution loops in [`crate::tile`] can use
//! unchecked loads. The compiled plan is that proof; nothing re-checks it.

use crate::error::ExecError;
use crate::regir::{reuse_registers, Layout, Lowerer, RegProgram, Rhs};
use crate::workspace::{Binding, Workspace};
use perforad_core::{Adjoint, AssignOp, BoundaryStrategy, LoopNest};
use perforad_symbolic::visit::{self, NodeMemo};
use perforad_symbolic::{subst, Access, Expr, Idx, Symbol};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One compiled statement. Its right-hand side is one shared
/// [`RegProgram`], which every lowering runs; statements with identical
/// right-hand sides (adjoint nests repeat the same RHS shifted across
/// boundary regions) point at one compiled copy.
#[derive(Clone, Debug)]
pub struct StmtPlan {
    /// Slot of the array being written.
    pub out_slot: usize,
    /// Linear offset of the write relative to the centre point.
    pub write_rel: isize,
    /// Per-dimension write offsets (zero for gather statements).
    pub write_offsets: Vec<i64>,
    /// True for `=`, false for `+=`.
    pub overwrite: bool,
    /// Optional per-dimension inclusive counter ranges (guarded strategy).
    pub guard: Option<Vec<(i64, i64)>>,
    /// Compiled right-hand side.
    pub prog: Arc<RegProgram>,
}

/// One compiled loop nest.
#[derive(Clone, Debug)]
pub struct NestPlan {
    /// Inclusive resolved bounds, outermost first.
    pub lo: Vec<i64>,
    pub hi: Vec<i64>,
    pub stmts: Vec<StmtPlan>,
    /// True when some dimension has an empty range.
    pub empty: bool,
}

impl NestPlan {
    /// A statement's effective box: the nest's bounds ∩ its guard
    /// (inclusive, outermost dimension first; empty when some `lo > hi`).
    pub fn stmt_box(&self, st: &StmtPlan) -> (Vec<i64>, Vec<i64>) {
        let (mut lo, mut hi) = (self.lo.clone(), self.hi.clone());
        for (d, &(glo, ghi)) in st.guard.iter().flatten().enumerate() {
            lo[d] = lo[d].max(glo);
            hi[d] = hi[d].min(ghi);
        }
        (lo, hi)
    }

    /// Number of iteration points.
    pub fn points(&self) -> u64 {
        if self.empty {
            return 0;
        }
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l + 1) as u64)
            .product()
    }
}

/// A fully bound, validated, executable set of loop nests, and the proof
/// that running it is memory safe: facts F1 and F2 of [`crate::tile`]
/// hold for every plan [`compile_nests_opts`] returns. Immutable once
/// compiled — the fields are read through accessors, so no safe code can
/// edit the proof (or the cached [`Plan::fingerprint`]) afterwards.
#[derive(Clone, Debug)]
pub struct Plan {
    pub(crate) rank: usize,
    pub(crate) dims: Vec<usize>,
    pub(crate) strides: Vec<usize>,
    pub(crate) arrays: Vec<Symbol>,
    /// Per slot of `arrays`: whether some statement writes it.
    pub(crate) written: Vec<bool>,
    pub(crate) nests: Vec<NestPlan>,
    pub(crate) gather_only: bool,
    pub(crate) padded: bool,
    pub(crate) accumulate: bool,
    /// Per slot: written by an accumulate-mode plan and not among the
    /// arrays it carries, so its first touch assigns.
    pub(crate) assigned: Vec<bool>,
    /// [`Plan::hull`], bounded once at compile time.
    hull: Option<(Vec<i64>, Vec<i64>)>,
    /// [`Plan::fingerprint`], hashed on first use.
    fingerprint: OnceLock<u64>,
    /// Distinct per compile and shared by clones: what a bound runner
    /// ([`crate::BoundPlan`]) checks it was bound for, without hashing.
    pub(crate) id: u64,
}

/// [`Plan::write_boxes`] of the array in `slot`.
fn slot_write_boxes(nests: &[NestPlan], slot: usize) -> Vec<(Vec<i64>, Vec<i64>)> {
    let mut boxes = Vec::new();
    for nest in nests.iter().filter(|n| !n.empty) {
        for st in nest.stmts.iter().filter(|s| s.out_slot == slot) {
            let (mut lo, mut hi) = nest.stmt_box(st);
            if lo.iter().zip(&hi).any(|(l, h)| l > h) {
                continue;
            }
            for (d, &o) in st.write_offsets.iter().enumerate() {
                lo[d] += o;
                hi[d] += o;
            }
            boxes.push((lo, hi));
        }
    }
    boxes
}

/// The bounding box of the non-empty nests.
fn bounding_box(nests: &[NestPlan]) -> Option<(Vec<i64>, Vec<i64>)> {
    let mut live = nests.iter().filter(|n| !n.empty);
    let first = live.next()?;
    let (mut lo, mut hi) = (first.lo.clone(), first.hi.clone());
    for nest in live {
        for d in 0..lo.len() {
            lo[d] = lo[d].min(nest.lo[d]);
            hi[d] = hi[d].max(nest.hi[d]);
        }
    }
    Some((lo, hi))
}

impl Plan {
    /// Number of loop dimensions.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Extents every array of the plan shares, outermost first.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major strides of those extents.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// The arrays the plan reads and writes, in slot order.
    pub fn arrays(&self) -> &[Symbol] {
        &self.arrays
    }

    /// The compiled nests, in plan order.
    pub fn nests(&self) -> &[NestPlan] {
        &self.nests
    }

    /// True when every statement writes at its centre point, so disjoint
    /// tiles run in parallel without atomics (fact F3 of [`crate::tile`]).
    pub fn gather_only(&self) -> bool {
        self.gather_only
    }

    /// True when out-of-range loads read zero padding.
    pub fn padded(&self) -> bool {
        self.padded
    }

    /// True when compiled in accumulate mode ([`PlanOptions::accumulate`]).
    pub fn accumulate(&self) -> bool {
        self.accumulate
    }

    /// The arrays an accumulate-mode plan assigns at their first touch:
    /// written, and not among the arrays it carries. None in plain mode.
    pub fn assigned(&self) -> impl Iterator<Item = &Symbol> {
        let slots = self.arrays.iter().zip(&self.assigned);
        slots.filter_map(|(a, &assigned)| assigned.then_some(a))
    }

    /// Every point of `array` the plan writes, as one inclusive box per
    /// statement that writes it: its nest's bounds ∩ its guard, shifted by
    /// its write offsets. Exact, not an over-approximation: a statement
    /// that never runs contributes no box.
    pub fn write_boxes(&self, array: &str) -> Vec<(Vec<i64>, Vec<i64>)> {
        match self.arrays.iter().position(|a| a.name() == array) {
            Some(slot) => slot_write_boxes(&self.nests, slot),
            None => Vec::new(),
        }
    }

    /// Total iteration points over all nests.
    pub fn points(&self) -> u64 {
        self.nests.iter().map(NestPlan::points).sum()
    }

    /// The plan's iteration hull: the bounding box of its non-empty nests
    /// (inclusive, outermost dimension first), `None` when every nest is
    /// empty. Tiles are boxes of the hull.
    pub fn hull(&self) -> Option<(&[i64], &[i64])> {
        self.hull.as_ref().map(|(lo, hi)| (&lo[..], &hi[..]))
    }

    /// Iteration points of the plan inside the inclusive box `[lo, hi]`:
    /// each non-empty nest's overlap with it, summed.
    pub(crate) fn points_in(&self, lo: &[i64], hi: &[i64]) -> u64 {
        let overlap = |nest: &NestPlan| -> u64 {
            (0..self.rank)
                .map(|d| (hi[d].min(nest.hi[d]) - lo[d].max(nest.lo[d]) + 1).max(0) as u64)
                .product()
        };
        self.nests.iter().filter(|n| !n.empty).map(overlap).sum()
    }

    /// Total statements across all nests.
    pub fn statements(&self) -> usize {
        self.nests.iter().map(|n| n.stmts.len()).sum()
    }

    /// Number of *distinct* compiled programs after cross-statement dedup
    /// (statements with equal programs share one `Arc`).
    pub fn unique_programs(&self) -> usize {
        self.nests
            .iter()
            .flat_map(|n| n.stmts.iter())
            .map(|s| Arc::as_ptr(&s.prog))
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Stable structural fingerprint of the whole plan: layout (dims,
    /// strides, slot order), every nest's resolved bounds, and every
    /// statement's write target, guard and compiled program. Two plans
    /// with equal fingerprints execute identically on identically shaped
    /// buffers, so this is the key under which `perforad-jit` registers
    /// compiled native code ([`crate::native`]) and names its on-disk
    /// artifacts. Hashed once per plan, when a `Lowering::Jit` binding
    /// first looks its module up. Accumulate mode is hashed only when set,
    /// so a plain plan keeps the name it had before the mode existed; the
    /// statements of an array it assigns hash as the `=` they are.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.hash_structure())
    }

    fn hash_structure(&self) -> u64 {
        let mut h = crate::native::Fnv::new();
        h.write_u64(self.rank as u64);
        h.write_u64(self.padded as u64);
        if self.accumulate {
            h.write(b"accumulate");
        }
        for &d in &self.dims {
            h.write_u64(d as u64);
        }
        for &s in &self.strides {
            h.write_u64(s as u64);
        }
        for a in &self.arrays {
            h.write(a.name().as_bytes());
            h.write(b"|");
        }
        for nest in &self.nests {
            h.write(b"N");
            for (&l, &u) in nest.lo.iter().zip(&nest.hi) {
                h.write_i64(l);
                h.write_i64(u);
            }
            for st in &nest.stmts {
                h.write(b"S");
                h.write_u64(st.out_slot as u64);
                h.write_i64(st.write_rel as i64);
                for &o in &st.write_offsets {
                    h.write_i64(o);
                }
                h.write_u64(st.overwrite as u64);
                match &st.guard {
                    None => h.write(b"-"),
                    Some(g) => {
                        for &(l, u) in g {
                            h.write_i64(l);
                            h.write_i64(u);
                        }
                    }
                }
                for &w in &st.prog.key {
                    h.write_u64(w);
                }
            }
        }
        h.finish()
    }
}

fn resolve_idx(ix: &Idx, sizes: &BTreeMap<Symbol, i64>) -> Result<i64, ExecError> {
    ix.eval(sizes).ok_or_else(|| {
        let missing = ix
            .symbols()
            .find(|s| !sizes.contains_key(s))
            .map(|s| s.name().to_string())
            .unwrap_or_default();
        ExecError::UnboundSize(missing)
    })
}

/// Plan compilation options.
#[derive(Clone, Debug, Default)]
pub struct PlanOptions {
    /// Zero-padding load semantics (the Padded boundary strategy).
    pub padded: bool,
    /// Apply common-subexpression elimination per statement (closes the
    /// redundant-computation gap §4 of the paper attributes to PerforAD).
    pub cse: bool,
    /// Accumulate mode, given the arrays that carry state (`None`: plain
    /// mode). A nest's `+=` updates to one array at one point are summed
    /// in statement order starting from `+0.0` — one compiled statement
    /// per target array, whose program is the sum — and the sum is
    /// added once to an array in this set, or *stored* into any other
    /// written array: its first touch assigns. Points no nest writes are
    /// left untouched. At every point one nest writes this is bit for bit
    /// "zero a scratch grid, run in plain mode, add the scratch into the
    /// target" (a `+0.0`-started sum is never `−0.0`, so storing it is
    /// adding it to a zeroed point) — the gather adjoint's iterations own
    /// their increments, so the scratch, its add-back pass and the fill
    /// of an assigned array go. Refused ([`ExecError::Unsupported`]): a
    /// nest whose increments to one array differ in guard or write
    /// offset, or mix with `=` (summing them first would round
    /// differently), and two statements writing one point of an assigned
    /// array (the second would overwrite the first).
    pub accumulate: Option<BTreeSet<Symbol>>,
}

/// Compile a list of loop nests (sharing counters) against a workspace.
pub fn compile_nests(
    nests: &[LoopNest],
    ws: &Workspace,
    binding: &Binding,
    padded: bool,
) -> Result<Plan, ExecError> {
    let opts = PlanOptions {
        padded,
        ..PlanOptions::default()
    };
    compile_nests_opts(nests, ws, binding, opts)
}

/// How accumulate mode regroups one nest's statements, given each
/// statement's write target and whether it is a `+=`: every `+=` to one
/// target joins the group its first one opened, in statement order; any
/// other statement stands alone. Groups come in the order of their first
/// statements. The plan compiler merges each `+=` group into one
/// statement.
fn increment_groups(writes: &[(usize, bool)]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::with_capacity(writes.len());
    for (k, (target, add)) in writes.iter().enumerate() {
        let open = groups.iter_mut().find(|g| {
            let (first, first_add) = &writes[g[0]];
            *add && *first_add && first == target
        });
        match open {
            Some(group) => group.push(k),
            None => groups.push(vec![k]),
        }
    }
    groups
}

/// Accumulate mode's statements of one nest: each `+=` group of
/// [`increment_groups`] becomes one statement whose program is
/// [`Lowerer::sum`] of its members' right-hand sides (`sources`, one per
/// statement). A group's members must share their guard and write
/// offsets, and no `=` may write the same array. Each distinct member
/// list is lowered once per plan, through `cache`.
fn sum_increments(
    stmts: Vec<StmtPlan>,
    sources: &[Arc<Rhs>],
    layout: &Layout<'_>,
    assigned: &[bool],
    cache: &mut ProgCache,
) -> Result<Vec<StmtPlan>, ExecError> {
    let writes: Vec<(usize, bool)> = stmts.iter().map(|s| (s.out_slot, !s.overwrite)).collect();
    let refuse = |slot: usize, why: &str| {
        let array = layout.arrays[slot].name();
        Err(ExecError::Unsupported(format!(
            "accumulated `{array}` {why} within one nest"
        )))
    };
    let groups = increment_groups(&writes);
    let mut merged = Vec::with_capacity(groups.len());
    for group in &groups {
        let first = &stmts[group[0]];
        if first.overwrite {
            if writes.contains(&(first.out_slot, true)) {
                return refuse(first.out_slot, "mixes `=` with `+=`");
            }
            merged.push(first.clone());
            continue;
        }
        let members = group.iter().map(|&k| &stmts[k]);
        if members.clone().any(|s| s.guard != first.guard) {
            return refuse(first.out_slot, "has increments under different guards");
        }
        if members
            .clone()
            .any(|s| s.write_offsets != first.write_offsets)
        {
            return refuse(first.out_slot, "has increments at different offsets");
        }
        let ids: Vec<*const RegProgram> = members.map(|s| Arc::as_ptr(&s.prog)).collect();
        let prog = match cache.sums.get(&ids) {
            Some(prog) => prog.clone(),
            None => {
                let sum = Lowerer::sum(layout, group.iter().map(|&k| &*sources[k]))?;
                // A nest's worth of statements, one statement's live values.
                let prog = cache.share(sum, reuse_registers);
                cache.sums.entry(ids).or_insert(prog).clone()
            }
        };
        merged.push(StmtPlan {
            prog,
            overwrite: assigned[first.out_slot],
            ..first.clone()
        });
    }
    Ok(merged)
}

/// The programs of one plan compile, shared: equal programs by their
/// key, and the sums of equal member lists by the members' addresses
/// (each member is held in `by_key` for the whole compile, so an address
/// names one program).
#[derive(Default)]
struct ProgCache {
    by_key: BTreeMap<Vec<u64>, Arc<RegProgram>>,
    sums: BTreeMap<Vec<*const RegProgram>, Arc<RegProgram>>,
}

impl ProgCache {
    /// The walked program's shared copy, finished and passed through
    /// `optimise` on first sight.
    fn share(
        &mut self,
        walked: Lowerer<'_>,
        optimise: fn(RegProgram) -> RegProgram,
    ) -> Arc<RegProgram> {
        if let Some(prog) = self.by_key.get(&walked.key) {
            return prog.clone();
        }
        let prog = Arc::new(optimise(walked.finish()));
        self.by_key.insert(prog.key.clone(), prog.clone());
        prog
    }
}

/// What plan compilation keeps per *distinct* right-hand side. An adjoint
/// decomposition's nests repeat a few terms — 215 statements over 9
/// expressions for the c-active 3-D wave adjoint — and everything about a
/// statement that does not depend on its bounds is found here.
struct RhsPlan {
    /// Every distinct access, in canonical order, with its offset from
    /// the counters per dimension (`None`: not `counter + constant`).
    reads: Vec<(Access, Vec<Option<i64>>)>,
    /// The compiled program and what it was lowered from, from the first
    /// statement that got that far.
    compiled: Option<(Arc<RegProgram>, Arc<Rhs>)>,
}

/// Compile with full [`PlanOptions`].
///
/// Memory safety is proved per statement — the write and every read
/// against that statement's own effective bounds (nest ∩ guard) — while
/// the accesses walked, the substitution and the register program are
/// shared by every statement with the same right-hand side node
/// ([`NodeMemo`]).
pub fn compile_nests_opts(
    nests: &[LoopNest],
    ws: &Workspace,
    binding: &Binding,
    opts: PlanOptions,
) -> Result<Plan, ExecError> {
    let padded = opts.padded;
    assert!(!nests.is_empty(), "no nests to compile");
    let counters = nests[0].counters.clone();
    let rank = counters.len();

    // Collect every array referenced anywhere, in deterministic order.
    let mut read_names: BTreeSet<Symbol> = BTreeSet::new();
    let mut write_names: BTreeSet<Symbol> = BTreeSet::new();
    let mut rhs_plans: NodeMemo<RhsPlan> = NodeMemo::default();
    for nest in nests {
        for s in &nest.body {
            write_names.insert(s.lhs.array.clone());
            rhs_plans.get_or_insert_with(&s.rhs, || {
                let reads = visit::accesses(&s.rhs).into_iter().map(|a| {
                    read_names.insert(a.array.clone());
                    let offsets = a.indices.iter().zip(&counters);
                    let offsets = offsets.map(|(ix, c)| ix.is_offset_of(c)).collect();
                    (a, offsets)
                });
                RhsPlan {
                    reads: reads.collect(),
                    compiled: None,
                }
            });
        }
    }
    // F2: no nest reads an array the plan writes.
    for w in &write_names {
        if read_names.contains(w) {
            return Err(ExecError::AliasedWrite(w.name().to_string()));
        }
    }
    let arrays: Vec<Symbol> = write_names.union(&read_names).cloned().collect();
    let written: Vec<bool> = arrays.iter().map(|a| write_names.contains(a)).collect();
    let assigned: Vec<bool> = match &opts.accumulate {
        Some(carried) => (arrays.iter().zip(&written))
            .map(|(a, &w)| w && !carried.contains(a))
            .collect(),
        None => vec![false; arrays.len()],
    };

    // All arrays must exist and share extents matching the nest rank.
    let first = ws
        .get(&arrays[0])
        .ok_or_else(|| crate::error::unknown(&arrays[0]))?;
    let dims = first.dims().to_vec();
    let strides = first.strides().to_vec();
    if dims.len() != rank {
        return Err(ExecError::RankMismatch {
            array: arrays[0].name().to_string(),
            rank: dims.len(),
            nest: rank,
        });
    }
    for name in &arrays {
        let g = ws.get(name).ok_or_else(|| crate::error::unknown(name))?;
        if g.dims() != dims.as_slice() {
            return Err(ExecError::DimsMismatch {
                array: name.name().to_string(),
                expected: dims.clone(),
                got: g.dims().to_vec(),
            });
        }
    }
    let out_of_range = |array: &Symbol, d: usize, index_range: (i64, i64)| {
        (index_range.0 < 0 || index_range.1 >= dims[d] as i64).then(|| ExecError::OutOfRange {
            array: array.name().to_string(),
            dim: d,
            index_range,
            extent: dims[d],
        })
    };

    // Substitution map: parameters and sizes become literals.
    let mut sub: BTreeMap<Symbol, Expr> = BTreeMap::new();
    for (s, v) in &binding.params {
        sub.insert(s.clone(), Expr::float(*v));
    }
    for (s, v) in &binding.sizes {
        sub.insert(s.clone(), Expr::int(*v));
    }

    let layout = Layout {
        arrays: &arrays,
        counters: &counters,
        strides: &strides,
        padded,
    };

    let mut nest_plans = Vec::with_capacity(nests.len());
    let mut gather_only = true;
    // Behind the per-node memo, a cache keyed on the lowered programs:
    // equal programs reached through *different* nodes (a hand-built nest
    // list, or two terms that substitute to the same thing) still share
    // one compiled copy — smaller plans, better icache behavior.
    let mut cache = ProgCache::default();
    let mut compiled = 0u64;
    for nest in nests {
        debug_assert_eq!(nest.counters, counters, "nests must share counters");
        let mut lo = Vec::with_capacity(rank);
        let mut hi = Vec::with_capacity(rank);
        for b in &nest.bounds {
            lo.push(resolve_idx(&b.lo, &binding.sizes)?);
            hi.push(resolve_idx(&b.hi, &binding.sizes)?);
        }
        let empty = lo.iter().zip(&hi).any(|(l, h)| l > h);

        let mut stmts = Vec::with_capacity(nest.body.len());
        let mut sources = Vec::with_capacity(nest.body.len());
        for s in &nest.body {
            // F1: every write index is `counter + c`.
            if s.lhs.indices.len() != rank {
                let what = format!("write `{}` in a rank-{rank} nest", s.lhs);
                return Err(ExecError::Unsupported(what));
            }
            let mut write_offsets = Vec::with_capacity(rank);
            for (d, ix) in s.lhs.indices.iter().enumerate() {
                let o = ix.is_offset_of(&counters[d]).ok_or_else(|| {
                    ExecError::Unsupported(format!("non-constant write index `{ix}`"))
                })?;
                write_offsets.push(o);
            }
            if write_offsets.iter().any(|&o| o != 0) {
                gather_only = false;
            }
            let write_rel: isize = write_offsets
                .iter()
                .zip(&strides)
                .map(|(&o, &st)| o as isize * st as isize)
                .sum();

            // Resolve the guard first: a guarded statement only executes on
            // the intersection of the nest bounds with its guard box, so
            // range validation must use that effective range.
            let guard = match &s.guard {
                None => None,
                Some(g) => {
                    let mut ranges = vec![(i64::MIN, i64::MAX); rank];
                    for (c, b) in &g.ranges {
                        let d = counters
                            .iter()
                            .position(|x| x == c)
                            .expect("guard counter belongs to nest");
                        ranges[d] = (
                            resolve_idx(&b.lo, &binding.sizes)?,
                            resolve_idx(&b.hi, &binding.sizes)?,
                        );
                    }
                    Some(ranges)
                }
            };
            let eff = |d: usize| match &guard {
                None => (lo[d], hi[d]),
                Some(g) => (lo[d].max(g[d].0), hi[d].min(g[d].1)),
            };
            let never_runs = (0..rank).any(|d| eff(d).0 > eff(d).1);

            let rhs_plan = rhs_plans
                .get_mut(&s.rhs)
                .expect("the array sweep met every right-hand side");
            // F1: range-validate the write and (when not padded) every
            // read. Only the offsets are remembered: the proof is this
            // statement's, against its own effective bounds.
            if !empty && !never_runs {
                for (d, o) in write_offsets.iter().enumerate() {
                    let r = (eff(d).0 + o, eff(d).1 + o);
                    if let Some(e) = out_of_range(&s.lhs.array, d, r) {
                        return Err(e);
                    }
                }
                if !padded {
                    for (a, offsets) in &rhs_plan.reads {
                        for (d, o) in offsets.iter().enumerate() {
                            let o = o.ok_or_else(|| {
                                ExecError::Unsupported(format!("non-stencil access `{a}`"))
                            })?;
                            if let Some(e) = out_of_range(&a.array, d, (eff(d).0 + o, eff(d).1 + o))
                            {
                                return Err(e);
                            }
                        }
                    }
                }
            }

            let out_slot = arrays.binary_search(&s.lhs.array).expect("slot exists");
            let (prog, source) = match &rhs_plan.compiled {
                Some(pair) => pair.clone(),
                None => {
                    compiled += 1;
                    let body = subst::subst_sym(&s.rhs, &sub);
                    let rhs = Arc::new(if opts.cse {
                        let (bindings, body) =
                            perforad_symbolic::cse::eliminate_one(&body, "__cse");
                        Rhs { bindings, body }
                    } else {
                        let bindings = Vec::new();
                        Rhs { bindings, body }
                    });
                    let prog = cache.share(Lowerer::statement(&layout, &rhs)?, |p| p);
                    rhs_plan.compiled.insert((prog, rhs)).clone()
                }
            };
            sources.push(source);

            stmts.push(StmtPlan {
                out_slot,
                write_rel,
                write_offsets,
                overwrite: s.op == AssignOp::Assign,
                guard,
                prog,
            });
        }
        if opts.accumulate.is_some() {
            stmts = sum_increments(stmts, &sources, &layout, &assigned, &mut cache)?;
        }
        nest_plans.push(NestPlan {
            lo,
            hi,
            stmts,
            empty,
        });
    }
    for slot in (0..arrays.len()).filter(|&k| assigned[k]) {
        let boxes = slot_write_boxes(&nest_plans, slot);
        let meet = |(alo, ahi): &(Vec<i64>, Vec<i64>), (blo, bhi): &(Vec<i64>, Vec<i64>)| {
            (0..rank).all(|d| alo[d] <= bhi[d] && blo[d] <= ahi[d])
        };
        if (0..boxes.len()).any(|i| boxes[i + 1..].iter().any(|b| meet(&boxes[i], b))) {
            let array = arrays[slot].name();
            return Err(ExecError::Unsupported(format!(
                "assigned `{array}` is written twice at one point"
            )));
        }
    }
    if perforad_obs::enabled() {
        // The per-term claim, countable: statements planned against
        // right-hand sides actually substituted and lowered.
        let statements: usize = nest_plans.iter().map(|n| n.stmts.len()).sum();
        perforad_obs::counter("exec.stmts_planned").add(statements as u64);
        perforad_obs::counter("exec.rhs_compiled").add(compiled);
    }

    Ok(Plan {
        rank,
        dims,
        strides,
        arrays,
        written,
        hull: bounding_box(&nest_plans),
        nests: nest_plans,
        gather_only,
        padded,
        accumulate: opts.accumulate.is_some(),
        assigned,
        fingerprint: OnceLock::new(),
        id: {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            NEXT.fetch_add(1, Ordering::Relaxed)
        },
    })
}

/// Compile a single nest.
pub fn compile_nest(nest: &LoopNest, ws: &Workspace, binding: &Binding) -> Result<Plan, ExecError> {
    compile_nests(std::slice::from_ref(nest), ws, binding, false)
}

/// Compile a full adjoint (all generated nests), checking the minimum-extent
/// requirement of the disjoint decomposition and selecting padded loads when
/// the adjoint was built with [`BoundaryStrategy::Padded`].
pub fn compile_adjoint(
    adj: &Adjoint,
    ws: &Workspace,
    binding: &Binding,
) -> Result<Plan, ExecError> {
    compile_adjoint_opts(adj, ws, binding, false)
}

/// Check the minimum-extent requirement of a disjoint adjoint
/// decomposition against concrete size bindings ("n sufficiently large",
/// §3.2): every primal extent must cover the offset spread or the
/// generated regions overlap.
pub fn check_adjoint_extents(adj: &Adjoint, binding: &Binding) -> Result<(), ExecError> {
    for (d, b) in adj.primal_bounds.iter().enumerate() {
        let lo = resolve_idx(&b.lo, &binding.sizes)?;
        let hi = resolve_idx(&b.hi, &binding.sizes)?;
        let extent = hi - lo + 1;
        if extent < adj.required_extent[d] {
            return Err(ExecError::ExtentTooSmall {
                dim: d,
                extent,
                required: adj.required_extent[d],
            });
        }
    }
    Ok(())
}

/// Compile a full adjoint with optional per-statement CSE.
pub fn compile_adjoint_opts(
    adj: &Adjoint,
    ws: &Workspace,
    binding: &Binding,
    cse: bool,
) -> Result<Plan, ExecError> {
    check_adjoint_extents(adj, binding)?;
    let padded = adj.strategy == BoundaryStrategy::Padded;
    let opts = PlanOptions {
        padded,
        cse,
        ..PlanOptions::default()
    };
    compile_nests_opts(&adj.nests, ws, binding, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid;
    use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
    use perforad_symbolic::{ix, Array};

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

    fn ws(n: usize) -> Workspace {
        Workspace::new()
            .with("u", Grid::zeros(&[n + 1]))
            .with("c", Grid::zeros(&[n + 1]))
            .with("r", Grid::zeros(&[n + 1]))
    }

    #[test]
    fn compiles_primal() {
        let plan = compile_nest(&paper_nest(), &ws(10), &Binding::new().size("n", 10)).unwrap();
        assert_eq!(plan.rank, 1);
        assert!(plan.gather_only);
        assert_eq!(plan.nests[0].lo, vec![1]);
        assert_eq!(plan.nests[0].hi, vec![9]);
        assert_eq!(plan.points(), 9);
    }

    #[test]
    fn missing_size_is_reported() {
        let err = compile_nest(&paper_nest(), &ws(10), &Binding::new()).unwrap_err();
        assert_eq!(err, ExecError::UnboundSize("n".into()));
    }

    #[test]
    fn out_of_range_detected() {
        // n = 12 but arrays only have 11 entries -> u[i+1] at i=11 is index 12.
        let err = compile_nest(&paper_nest(), &ws(10), &Binding::new().size("n", 12)).unwrap_err();
        assert!(matches!(err, ExecError::OutOfRange { .. }), "{err:?}");
    }

    #[test]
    fn aliased_write_detected() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        // r = u and also writes u: build manually (validation in core would
        // reject; the executor must too since it can run raw nest lists).
        let nest = LoopNest::new(
            vec![i.clone()],
            vec![perforad_core::Bound::new(1, 5)],
            vec![perforad_core::Statement::assign(
                perforad_symbolic::Access::new("u", ix![&i]),
                u.at(ix![&i - 1]),
            )],
        );
        let err = compile_nest(&nest, &ws(10), &Binding::new()).unwrap_err();
        assert_eq!(err, ExecError::AliasedWrite("u".into()));
    }

    #[test]
    fn adjoint_extent_check() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let mut w = ws(10);
        w.insert("u_b", Grid::zeros(&[11]));
        w.insert("r_b", Grid::zeros(&[11]));
        assert!(compile_adjoint(&adj, &w, &Binding::new().size("n", 10)).is_ok());
        // n = 2 gives primal i in [1,1], extent 1 < spread 2.
        let err = compile_adjoint(&adj, &w, &Binding::new().size("n", 2)).unwrap_err();
        assert!(matches!(err, ExecError::ExtentTooSmall { .. }));
    }

    #[test]
    fn scatter_plan_is_not_gather_only() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let sc = paper_nest().scatter_adjoint(&act).unwrap();
        let mut w = ws(10);
        w.insert("u_b", Grid::zeros(&[11]));
        w.insert("r_b", Grid::zeros(&[11]));
        let plan = compile_nest(&sc, &w, &Binding::new().size("n", 10)).unwrap();
        assert!(!plan.gather_only);
    }

    #[test]
    fn cse_plan_matches_plain_plan() {
        use crate::regir::RegOp;
        use crate::run::{run, ExecMode};
        // Nonlinear body with shared subexpressions: r = sin(u[i]*u[i+1])
        //   + sin(u[i]*u[i+1]) * u[i-1].
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let u = perforad_symbolic::Array::new("u");
        use perforad_symbolic::ix;
        let shared = (u.at(ix![&i]) * u.at(ix![&i + 1])).sin();
        let nest = make_loop_nest(
            &perforad_symbolic::Array::new("r").at(ix![&i]),
            &shared + &shared * u.at(ix![&i - 1]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(n) - 1)],
        )
        .unwrap();
        let build = || {
            Workspace::new()
                .with(
                    "u",
                    crate::grid::Grid::from_fn(&[34], |ix| (ix[0] as f64 * 0.31).sin()),
                )
                .with("r", crate::grid::Grid::zeros(&[34]))
        };
        let bind = Binding::new().size("n", 33);
        let mut ws1 = build();
        let plain = compile_nest(&nest, &ws1, &bind).unwrap();
        run(&plain, &mut ws1, ExecMode::serial()).unwrap();
        let mut ws2 = build();
        let cse = compile_nests_opts(
            std::slice::from_ref(&nest),
            &ws2,
            &bind,
            PlanOptions {
                cse: true,
                ..PlanOptions::default()
            },
        )
        .unwrap();
        // The CSE plan must actually share the sine through a temporary...
        let sines = |plan: &Plan| {
            let ops = &plan.nests[0].stmts[0].prog.ops;
            ops.iter()
                .filter(|op| matches!(op, RegOp::Call1 { .. }))
                .count()
        };
        assert_eq!((sines(&plain), sines(&cse)), (2, 1));
        run(&cse, &mut ws2, ExecMode::serial()).unwrap();
        // ...and produce identical results.
        assert_eq!(ws1.grid("r").max_abs_diff(ws2.grid("r")), 0.0);
    }

    #[test]
    fn cse_adjoint_matches_plain_adjoint() {
        use crate::run::{run, ExecMode};
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let bind = Binding::new().size("n", 10);
        let mut w1 = ws(10);
        w1.insert("u_b", Grid::zeros(&[11]));
        w1.insert("r_b", Grid::from_fn(&[11], |ix| ix[0] as f64));
        let mut w2 = w1.clone();
        let p1 = compile_adjoint(&adj, &w1, &bind).unwrap();
        run(&p1, &mut w1, ExecMode::serial()).unwrap();
        let p2 = compile_adjoint_opts(&adj, &w2, &bind, true).unwrap();
        run(&p2, &mut w2, ExecMode::serial()).unwrap();
        assert_eq!(w1.grid("u_b").max_abs_diff(w2.grid("u_b")), 0.0);
    }

    /// `w(i) += rhs` over `[lo, hi]`, optionally guarded to `i ∈ guard`.
    fn nest_over(w: &str, rhs: &Expr, lo: i64, hi: i64, guard: Option<(i64, i64)>) -> LoopNest {
        let i = Symbol::new("i");
        let mut stmt = perforad_core::Statement::add_assign(
            perforad_symbolic::Access::new(w, ix![&i]),
            rhs.clone(),
        );
        if let Some((glo, ghi)) = guard {
            stmt = stmt.with_guard(perforad_core::Guard {
                ranges: vec![(i.clone(), perforad_core::Bound::new(glo, ghi))],
            });
        }
        LoopNest::new(vec![i], vec![perforad_core::Bound::new(lo, hi)], vec![stmt])
    }

    fn opts(padded: bool) -> PlanOptions {
        PlanOptions {
            padded,
            ..PlanOptions::default()
        }
    }

    /// The per-right-hand-side memo may share everything about a repeated
    /// expression except the range proof: that runs for every statement
    /// against its own bounds.
    #[test]
    fn shared_rhs_is_range_proved_against_each_statements_own_bounds() {
        let i = Symbol::new("i");
        let rhs = Array::new("u").at(ix![&i + 1]) * Array::new("c").at(ix![&i]);
        let nests = [
            nest_over("w", &rhs, 1, 5, None),
            nest_over("w", &rhs, 6, 10, None),
        ];
        assert!(std::ptr::eq(
            nests[0].body[0].rhs.node(),
            nests[1].body[0].rhs.node()
        ));
        let w = ws(10).with("w", Grid::zeros(&[11]));
        let err = compile_nests_opts(&nests, &w, &Binding::new(), opts(false)).unwrap_err();
        assert_eq!(
            err,
            ExecError::OutOfRange {
                array: "u".into(),
                dim: 0,
                index_range: (7, 11),
                extent: 11,
            }
        );
        // Zero padding makes the same pair legal; one compiled program
        // serves both statements.
        let plan = compile_nests_opts(&nests, &w, &Binding::new(), opts(true)).unwrap();
        assert_eq!((plan.statements(), plan.unique_programs()), (2, 1));
        // In range, without padding, likewise.
        let nests = [
            nest_over("w", &rhs, 1, 5, None),
            nest_over("w", &rhs, 6, 9, None),
        ];
        let plan = compile_nests_opts(&nests, &w, &Binding::new(), opts(false)).unwrap();
        assert_eq!((plan.statements(), plan.unique_programs()), (2, 1));
    }

    #[test]
    fn guard_narrows_the_range_proof_of_its_own_statement_only() {
        let i = Symbol::new("i");
        let rhs = Array::new("u").at(ix![&i - 1]);
        let w = ws(10).with("w", Grid::zeros(&[11]));
        // Legal only because the guard keeps `i - 1` off index -1.
        let guarded = nest_over("w", &rhs, 0, 10, Some((1, 10)));
        let plan = compile_nests_opts(
            std::slice::from_ref(&guarded),
            &w,
            &Binding::new(),
            opts(false),
        )
        .unwrap();
        assert_eq!(plan.nests[0].stmts[0].guard, Some(vec![(1, 10)]));
        // The same expression, unguarded, after it: refused on its own box.
        let bare = nest_over("w", &rhs, 0, 10, None);
        let out_of_range = ExecError::OutOfRange {
            array: "u".into(),
            dim: 0,
            index_range: (-1, 9),
            extent: 11,
        };
        for nests in [[guarded.clone(), bare.clone()], [bare, guarded]] {
            let err = compile_nests_opts(&nests, &w, &Binding::new(), opts(false)).unwrap_err();
            assert_eq!(err, out_of_range);
        }
    }

    /// Every refusal of plan compilation, variant and message, recorded
    /// against the per-statement compiler this one replaced.
    #[test]
    fn refusals_keep_their_variant_and_message() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let w = ws(10).with("w", Grid::zeros(&[11]));
        let bind = Binding::new();
        let compile = |nests: &[LoopNest], padded: bool| {
            compile_nests_opts(nests, &w, &bind, opts(padded)).map(|p| p.statements())
        };
        let unsupported = |m: &str| Err(ExecError::Unsupported(m.to_string()));

        // A written array read by a *later* nest through a shared rhs.
        let reads_w = Array::new("w").at(ix![&i]);
        let nests = [
            nest_over("w", &u.at(ix![&i]), 1, 5, None),
            nest_over("r", &reads_w, 1, 5, None),
            nest_over("c", &reads_w, 1, 5, None),
        ];
        assert_eq!(
            compile(&nests, false),
            Err(ExecError::AliasedWrite("w".into()))
        );

        let mut scaled = nest_over("w", &u.at(ix![&i]), 1, 5, None);
        scaled.body[0].lhs.indices = [Idx::scaled(i.clone(), 2)].into();
        assert_eq!(
            compile(std::slice::from_ref(&scaled), false),
            unsupported("non-constant write index `2*i`")
        );

        let mut short = nest_over("w", &u.at(ix![&i]), 1, 5, None);
        short.body[0].lhs.indices = [].into();
        assert_eq!(
            compile(std::slice::from_ref(&short), false),
            unsupported("write `w()` in a rank-1 nest")
        );

        // A non-stencil read is met by the range proof when there is one…
        let strided = u.at(vec![Idx::scaled(i.clone(), 2)]) + u.at(ix![&i + 1]);
        let live = nest_over("w", &strided, 1, 5, None);
        assert_eq!(
            compile(std::slice::from_ref(&live), false),
            unsupported("non-stencil access `u(2*i)`")
        );
        // …after the accesses that sort before it…
        let sorted_first = u.at(vec![Idx::scaled(i.clone(), 2)]) + u.at(ix![&i + 7]);
        assert_eq!(
            compile(&[nest_over("w", &sorted_first, 1, 5, None)], false),
            Err(ExecError::OutOfRange {
                array: "u".into(),
                dim: 0,
                index_range: (8, 12),
                extent: 11,
            })
        );
        // …and by the lowering when no read is inspected: zero
        // padding, an empty nest, a statement its guard never lets run.
        for (nest, padded) in [
            (live.clone(), true),
            (nest_over("w", &strided, 5, 1, None), false),
            (nest_over("w", &strided, 1, 5, Some((8, 9))), false),
        ] {
            assert_eq!(
                compile(std::slice::from_ref(&nest), padded),
                unsupported("non-stencil access `u(2*i)`")
            );
        }
        // A shared rhs first met where no read is inspected is still
        // proved where one is.
        let far = u.at(ix![&i + 7]);
        let nests = [
            nest_over("w", &far, 5, 1, None),
            nest_over("w", &far, 1, 5, None),
        ];
        assert_eq!(
            compile(&nests, false),
            Err(ExecError::OutOfRange {
                array: "u".into(),
                dim: 0,
                index_range: (8, 12),
                extent: 11,
            })
        );

        // Unbound sizes: in a bound, in a guard.
        let mut open = nest_over("w", &u.at(ix![&i]), 1, 5, None);
        open.bounds[0].hi = Idx::sym(Symbol::new("m")) - 1;
        assert_eq!(
            compile(std::slice::from_ref(&open), false),
            Err(ExecError::UnboundSize("m".into()))
        );
        let mut guarded = nest_over("w", &u.at(ix![&i]), 1, 5, Some((1, 5)));
        guarded.body[0].guard.as_mut().unwrap().ranges[0].1.lo = Idx::sym(Symbol::new("g"));
        assert_eq!(
            compile(std::slice::from_ref(&guarded), false),
            Err(ExecError::UnboundSize("g".into()))
        );
    }

    #[test]
    fn dims_mismatch_detected() {
        let mut w = ws(10);
        w.insert("c", Grid::zeros(&[5]));
        let err = compile_nest(&paper_nest(), &w, &Binding::new().size("n", 10)).unwrap_err();
        assert!(matches!(err, ExecError::DimsMismatch { .. }));
    }
}
