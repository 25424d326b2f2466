//! Schedule compilation and execution.
//!
//! [`compile_schedule`] turns an [`Adjoint`] (or any list of loop nests
//! sharing counters) into a [`Schedule`]: the nests are partitioned into
//! fusion groups by the dependence graph, each group is compiled into an
//! executable [`Plan`], and the group's iteration hull — the bounding box
//! of its nests — is cut into a [`Tiling`] of cache-blocked tiles, each
//! running every nest's part of its box. [`run_schedule`] then hands each
//! group to [`BoundPlan::run`] as a *single* parallel region — core and
//! boundary nests together in every tile — paying one barrier per group
//! instead of one per nest.

use crate::error::SchedError;
use crate::fuse::fuse_groups;
use crate::graph::{dependence_graph, uncovered, DepGraph, IntBox};
use perforad_core::{Adjoint, BoundaryStrategy, LoopNest};
use perforad_exec::kernel::PlanOptions;
pub use perforad_exec::TilePolicy;
use perforad_exec::{
    compile_nests_opts, tile_plan, Binding, BoundPlan, ExecStats, Lowering, Plan, Strategy,
    ThreadPool, Tiling, Workspace,
};
use perforad_symbolic::visit::{self, NodeMemo};
use perforad_symbolic::{Expr, Node, Symbol};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Options for [`compile_schedule`].
#[derive(Clone, Debug)]
pub struct SchedOptions {
    /// Per-dimension tile edges. `None` picks a rank-based default; a
    /// single element broadcasts to every dimension.
    pub tile: Option<Vec<i64>>,
    /// Tile-to-worker assignment policy.
    pub policy: TilePolicy,
    /// Statement lowering tiles run with: the per-point evaluator
    /// (default, reference), the vectorized register-IR row executor, or
    /// JIT-compiled native code (rows when no module is registered).
    pub lowering: Lowering,
    /// Merge conflict-free nests into shared parallel regions (default).
    /// Off, every nest becomes its own group — one barrier per nest, the
    /// unfused baseline the paper's figures compare against and one axis
    /// of the autotuner's search space.
    pub fuse: bool,
    /// Compile every group in accumulate mode, given the arrays that
    /// carry state ([`PlanOptions::accumulate`]; `None`: plain mode). Each
    /// nest adds one summed increment per written point into a carried
    /// array and stores it into any other written array, so a caller may
    /// lend the arrays it accumulates into instead of zeroed scratch grids
    /// it then adds back, and hand over the others unfilled — their first
    /// touch assigns.
    pub accumulate: Option<BTreeSet<Symbol>>,
}

impl Default for SchedOptions {
    fn default() -> Self {
        SchedOptions {
            tile: None,
            policy: TilePolicy::default(),
            lowering: Lowering::default(),
            fuse: true,
            accumulate: None,
        }
    }
}

impl SchedOptions {
    pub fn with_tile(mut self, tile: &[i64]) -> Self {
        self.tile = Some(tile.to_vec());
        self
    }

    pub fn with_policy(mut self, policy: TilePolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_lowering(mut self, lowering: Lowering) -> Self {
        self.lowering = lowering;
        self
    }

    /// Shorthand for selecting the vectorized row executor.
    pub fn with_rows(self) -> Self {
        self.with_lowering(Lowering::Rows)
    }

    /// Shorthand for selecting JIT-compiled native tiles (prepare the
    /// compiled schedule with `perforad_jit::prepare_schedule`; without
    /// a registered native module, execution falls back to rows).
    pub fn with_jit(self) -> Self {
        self.with_lowering(Lowering::Jit)
    }

    pub fn with_fuse(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Accumulate mode, carrying state in `carried`: see
    /// [`SchedOptions::accumulate`].
    pub fn with_accumulate(mut self, carried: impl IntoIterator<Item = impl Into<Symbol>>) -> Self {
        self.accumulate = Some(carried.into_iter().map(Into::into).collect());
        self
    }

    /// Options matching a tuner-selected configuration (the run-time half
    /// — serial vs pool — lives in [`crate::run_tuned`]).
    pub fn from_tuned(cfg: &crate::TunedConfig) -> Self {
        SchedOptions {
            // An empty tile vector means "rank default".
            tile: (!cfg.tile.is_empty()).then(|| cfg.tile.clone()),
            policy: cfg.policy,
            lowering: cfg.lowering,
            fuse: cfg.fuse,
            accumulate: None,
        }
    }
}

/// Default tile edges per rank: long innermost blocks (the contiguous,
/// streamed dimension), small outer blocks, sized so a tile's working set
/// (a handful of f64 arrays) stays within a per-core L2.
pub fn default_tile(rank: usize) -> Vec<i64> {
    match rank {
        1 => vec![1 << 14],
        2 => vec![64, 1 << 10],
        3 => vec![16, 32, 512],
        r => {
            let mut t = vec![8; r];
            t[r - 1] = 256;
            t
        }
    }
}

/// One fusion group: a set of mutually independent nests compiled into
/// their own [`Plan`], executed as a single parallel region.
///
/// Each group carries a separate plan so that cross-group producer →
/// consumer flows (nest B reads what nest A wrote) compile: within one
/// plan the executor forbids write/read aliasing — precisely the
/// single-region race condition — while across groups the barrier makes
/// the flow safe.
#[derive(Clone, Debug)]
pub struct FusedGroup {
    /// Indices into the source nest list, aligned with `plan.nests`.
    pub nests: Vec<usize>,
    /// The group's compiled nests.
    pub plan: Plan,
    /// The group's tiles — disjoint boxes of the plan's iteration hull, in
    /// LPT order. Read-only: only `tile_plan` builds a tiling.
    pub tiles: Tiling,
}

impl FusedGroup {
    /// Iteration points across the group.
    pub fn points(&self) -> u64 {
        self.tiles.points()
    }
}

/// A fused, tiled, dependence-checked execution schedule.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Fusion groups in execution order; a barrier separates consecutive
    /// groups, no synchronisation happens within one.
    pub groups: Vec<FusedGroup>,
    /// The dependence graph the grouping was derived from.
    pub graph: DepGraph,
    /// Tile edges used, aligned with the nest rank.
    pub tile: Vec<i64>,
    /// Worker-assignment policy.
    pub policy: TilePolicy,
    /// Statement lowering tiles run with.
    pub lowering: Lowering,
    /// Whether conflict-free nests were merged into shared groups.
    pub fused: bool,
    /// The arrays that carry state when the groups were compiled in
    /// accumulate mode; `None` in plain mode.
    pub accumulate: Option<BTreeSet<Symbol>>,
    /// The source nests the schedule was compiled from, in original order
    /// — kept so the autotuner can recompile the same work under other
    /// configurations (`perforad-tune`'s `Schedule::autotune`). Behind an
    /// `Arc` so cloning a schedule does not deep-copy the nest IR.
    pub source: Arc<[LoopNest]>,
    /// Whether out-of-range reads resolve to zero padding (the adjoint's
    /// `BoundaryStrategy::Padded`), needed alongside `source` to recompile.
    pub padded: bool,
}

impl Schedule {
    /// Number of barrier-separated parallel regions.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Size of the largest fusion group (how many nests share one region).
    pub fn max_fused(&self) -> usize {
        self.groups.iter().map(|g| g.nests.len()).max().unwrap_or(0)
    }

    /// Total tile count.
    pub fn tile_count(&self) -> usize {
        self.groups.iter().map(|g| g.tiles.len()).sum()
    }

    /// True when every scheduled nest writes only at its centre point.
    pub fn gather_only(&self) -> bool {
        self.groups.iter().all(|g| g.plan.gather_only())
    }

    /// Total iteration points over all groups.
    pub fn points(&self) -> u64 {
        self.groups.iter().map(|g| g.plan.points()).sum()
    }

    /// The bounding box of every point of `array` some nest of the
    /// schedule reads, from its nests' integer footprints: each nest's
    /// resolved box shifted by every read offset of `array`. Guards are
    /// ignored, so it may hold more than is read — never less. `None` when
    /// no nest reads `array`.
    pub fn read_box(&self, array: &str) -> Option<IntBox> {
        let mut hull: Option<IntBox> = None;
        for group in &self.groups {
            // A group's nests share counters and repeat a handful of
            // right-hand sides: each one's read offsets are found once.
            let mut memo = NodeMemo::default();
            for (nest, &k) in group.plan.nests().iter().zip(&group.nests) {
                if nest.empty {
                    continue;
                }
                let source = &self.source[k];
                for s in &source.body {
                    let offsets = memo.get_or_insert_with(&s.rhs, || {
                        read_offsets(&s.rhs, array, &source.counters)
                    });
                    for offset in offsets.iter() {
                        let lo: Vec<i64> = nest.lo.iter().zip(offset).map(|(l, o)| l + o).collect();
                        let hi: Vec<i64> = nest.hi.iter().zip(offset).map(|(h, o)| h + o).collect();
                        let (hlo, hhi) = hull.get_or_insert_with(|| (lo.clone(), hi.clone()));
                        for d in 0..lo.len() {
                            hlo[d] = hlo[d].min(lo[d]);
                            hhi[d] = hhi[d].max(hi[d]);
                        }
                    }
                }
            }
        }
        hull
    }

    /// The points of `read` some nest reads ([`Schedule::read_box`]) that
    /// no nest assigns to `assigned` at its first touch, as disjoint boxes
    /// ([`uncovered`]). A time loop that hands the grid it lends as
    /// `assigned` back as `read` a later step zeroes these points, and no
    /// other, instead of filling the grid: every other point it reads was
    /// assigned first. Every point of `read`'s box when `assigned` is not
    /// assigned (a plain-mode schedule, or an array it carries).
    pub fn unassigned_reads(&self, read: &str, assigned: &str) -> Vec<IntBox> {
        let Some(read) = self.read_box(read) else {
            return Vec::new();
        };
        let first_touch: Vec<IntBox> = (self.groups.iter())
            .filter(|g| g.plan.assigned().any(|a| a.name() == assigned))
            .flat_map(|g| g.plan.write_boxes(assigned))
            .collect();
        uncovered(&read, &first_touch)
    }

    /// One-line summary for logs and bench output.
    pub fn describe(&self) -> String {
        format!(
            "{} nests -> {} group(s), {} tiles (tile {:?}, {:?}, {:?}, {} conflict edges)",
            self.graph.len(),
            self.group_count(),
            self.tile_count(),
            self.tile,
            self.policy,
            self.lowering,
            self.graph.edge_count(),
        )
    }
}

/// The offsets from `counters` of every read of `array` in `rhs`.
fn read_offsets(rhs: &Expr, array: &str, counters: &[Symbol]) -> Vec<Vec<i64>> {
    let mut out = Vec::new();
    visit::for_each(rhs, &mut |e: &Expr| match e.node() {
        Node::Access(a) if a.array.name() == array => {
            let at = a.indices.iter().zip(counters);
            // The plan proved every read `counter + c`.
            out.push(
                at.map(|(ix, c)| ix.is_offset_of(c).expect("a stencil read"))
                    .collect(),
            );
        }
        _ => {}
    });
    out
}

fn resolve_tile(opts: &SchedOptions, rank: usize) -> Result<Vec<i64>, SchedError> {
    let tile = match &opts.tile {
        None => default_tile(rank),
        Some(t) if t.len() == 1 => vec![t[0]; rank],
        Some(t) if t.len() == rank => t.clone(),
        Some(t) => {
            return Err(SchedError::BadTile(format!(
                "{} tile edges for a rank-{rank} nest",
                t.len()
            )))
        }
    };
    if let Some(&bad) = tile.iter().find(|&&t| t < 1) {
        return Err(SchedError::BadTile(format!("non-positive tile edge {bad}")));
    }
    Ok(tile)
}

/// Compile a list of loop nests (sharing counters, as produced by one
/// adjoint transformation) into a fused, tiled schedule.
pub fn compile_schedule_nests(
    nests: &[LoopNest],
    ws: &Workspace,
    binding: &Binding,
    padded: bool,
    opts: &SchedOptions,
) -> Result<Schedule, SchedError> {
    compile_schedule_source(&nests.into(), ws, binding, padded, opts)
}

/// The nests of one fusion group: borrowed from the source list when the
/// group is a run of consecutive nests (the whole list in order — every
/// disjoint adjoint decomposition — or a single nest of an unfused
/// schedule), copied only when fusion reordered them.
fn group_nests<'a>(source: &'a [LoopNest], members: &[usize]) -> Cow<'a, [LoopNest]> {
    let first = members.first().copied().unwrap_or(0);
    if members.iter().copied().eq(first..first + members.len()) {
        Cow::Borrowed(&source[first..first + members.len()])
    } else {
        Cow::Owned(members.iter().map(|&m| source[m].clone()).collect())
    }
}

/// [`compile_schedule_nests`] for a caller that already shares the nest
/// list: the schedule keeps a reference to `source` instead of a copy of
/// its own, so compiling the same work under many configurations — the
/// autotuner's candidates, its cache hits — copies the IR never.
pub fn compile_schedule_source(
    source: &Arc<[LoopNest]>,
    ws: &Workspace,
    binding: &Binding,
    padded: bool,
    opts: &SchedOptions,
) -> Result<Schedule, SchedError> {
    let nests: &[LoopNest] = source;
    if nests.is_empty() {
        return Err(SchedError::BadInput("no nests to schedule".into()));
    }
    if let Some(bad) = nests.iter().find(|n| n.rank() != nests[0].rank()) {
        return Err(SchedError::BadInput(format!(
            "mixed ranks in one nest list ({} vs {})",
            nests[0].rank(),
            bad.rank()
        )));
    }
    let _span = perforad_obs::span!("sched.compile", "sched", "nests" => nests.len() as u64);
    let graph = dependence_graph(nests, &binding.sizes)?;
    let tile = resolve_tile(opts, nests[0].rank())?;
    let plan_opts = PlanOptions {
        padded,
        accumulate: opts.accumulate.clone(),
    };
    let members = if opts.fuse {
        fuse_groups(&graph)
    } else {
        // Unfused: one group (one barrier) per nest, source order — the
        // original order is a valid sequential order of the nest list.
        (0..nests.len()).map(|i| vec![i]).collect()
    };
    let groups = members
        .into_iter()
        .map(|members| {
            let nests = &group_nests(nests, &members);
            let plan = compile_nests_opts(nests, ws, binding, plan_opts.clone())?;
            let group = FusedGroup {
                nests: members,
                tiles: tile_plan(&plan, &tile),
                plan,
            };
            debug_assert_eq!(
                group.points(),
                group.plan.points(),
                "tiles must cover the group's iteration space exactly"
            );
            Ok(group)
        })
        .collect::<Result<Vec<_>, SchedError>>()?;
    if perforad_obs::enabled() {
        // Fusion decisions, countable: how many regions the dependence
        // graph allowed, and how many edges forbade merging further.
        perforad_obs::counter("sched.compiles").inc();
        perforad_obs::counter("sched.groups").add(groups.len() as u64);
        perforad_obs::counter("sched.fused_nests").add(nests.len() as u64);
        perforad_obs::counter("sched.conflict_edges").add(graph.edge_count() as u64);
    }
    Ok(Schedule {
        groups,
        graph,
        tile,
        policy: opts.policy,
        lowering: opts.lowering,
        fused: opts.fuse,
        accumulate: opts.accumulate.clone(),
        source: source.clone(),
        padded,
    })
}

/// Compile a full adjoint into a fused, tiled schedule, checking the
/// minimum-extent requirement of the disjoint decomposition (as
/// [`perforad_exec::compile_adjoint`] does) and honouring the padded
/// boundary strategy. The schedule's `source` is the adjoint's own nest
/// list, shared.
pub fn compile_schedule(
    adj: &Adjoint,
    ws: &Workspace,
    binding: &Binding,
    opts: &SchedOptions,
) -> Result<Schedule, SchedError> {
    perforad_exec::check_adjoint_extents(adj, binding)?;
    let padded = adj.strategy == BoundaryStrategy::Padded;
    compile_schedule_source(&adj.nests, ws, binding, padded, opts)
}

/// Execute a schedule on a worker pool: each fusion group's tiling runs
/// as one parallel region of [`BoundPlan::run`], groups separated
/// by the pool's region barrier. The driver refuses a group whose plan is
/// not gather-only (`ExecError::ScatterNeedsAtomics`): its tiles would
/// race. Groups before it have run by then.
pub fn run_schedule(
    schedule: &Schedule,
    ws: &mut Workspace,
    pool: &ThreadPool,
) -> Result<ExecStats, SchedError> {
    BoundSchedule::new(schedule, ws)?.run(schedule, ws, Strategy::Parallel(pool))
}

/// Run serially (tile order, no pool) — the determinism reference. A
/// group whose plan is not gather-only runs only when it is one tile.
pub fn run_schedule_serial(
    schedule: &Schedule,
    ws: &mut Workspace,
) -> Result<ExecStats, SchedError> {
    BoundSchedule::new(schedule, ws)?.run(schedule, ws, Strategy::Serial)
}

/// A schedule's groups bound to one workspace layout, one [`BoundPlan`]
/// per group: what a time loop builds once and runs every step, with no
/// name lookup, registry lock or allocation per run. [`run_schedule`] and
/// [`run_schedule_serial`] bind and run once, through the same code.
#[derive(Clone)]
pub struct BoundSchedule {
    groups: Vec<BoundPlan>,
}

impl BoundSchedule {
    /// Bind every group of `schedule` to `ws` ([`BoundPlan::new`]).
    pub fn new(schedule: &Schedule, ws: &Workspace) -> Result<BoundSchedule, SchedError> {
        let groups = schedule
            .groups
            .iter()
            .map(|g| BoundPlan::new(&g.plan, ws, schedule.lowering).map_err(SchedError::from));
        Ok(BoundSchedule {
            groups: groups.collect::<Result<_, _>>()?,
        })
    }

    /// Whether some group's last run was degraded
    /// ([`BoundPlan::degraded`]): a Jit group with no native module.
    pub fn degraded(&self) -> bool {
        self.groups.iter().any(BoundPlan::degraded)
    }

    /// Run `schedule`, the one this was bound for, against `ws`: one
    /// `exec.group` span and one [`BoundPlan::run`] per group, in order.
    pub fn run(
        &mut self,
        schedule: &Schedule,
        ws: &mut Workspace,
        strategy: Strategy<'_>,
    ) -> Result<ExecStats, SchedError> {
        assert_eq!(
            self.groups.len(),
            schedule.groups.len(),
            "bound for another schedule"
        );
        let mut points = 0;
        for (gi, (group, bound)) in schedule.groups.iter().zip(&mut self.groups).enumerate() {
            let _group_span = perforad_obs::span!(
                "exec.group", "exec", "group" => gi as u64, "tiles" => group.tiles.len() as u64
            );
            points += bound
                .run(&group.plan, &group.tiles, ws, strategy, schedule.policy)?
                .points;
        }
        Ok(ExecStats { points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
    use perforad_exec::{compile_adjoint, run, ExecMode, Grid};
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

    #[test]
    fn adjoint_fuses_into_one_group() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (ws, bind) = setup(64);
        let s = compile_schedule(&adj, &ws, &bind, &SchedOptions::default()).unwrap();
        assert_eq!(s.group_count(), 1, "{}", s.describe());
        assert_eq!(s.max_fused(), 5);
        assert!(s.gather_only());
    }

    #[test]
    fn fused_parallel_matches_unfused_serial_bitwise() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();

        // Unfused serial reference through the existing executor.
        let (mut ws_ref, bind) = setup(257);
        let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

        for policy in [TilePolicy::Dynamic, TilePolicy::Static] {
            let (mut ws, _) = setup(257);
            let opts = SchedOptions::default().with_tile(&[16]).with_policy(policy);
            let s = compile_schedule(&adj, &ws, &bind, &opts).unwrap();
            let pool = ThreadPool::new(4);
            run_schedule(&s, &mut ws, &pool).unwrap();
            assert_eq!(
                ws.grid("u_b").max_abs_diff(ws_ref.grid("u_b")),
                0.0,
                "policy {policy:?}"
            );
        }
    }

    #[test]
    fn rows_lowering_matches_interpreter_bitwise_through_tiles() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (mut ws_ref, bind) = setup(201);
        let plan = compile_adjoint(&adj, &ws_ref, &bind).unwrap();
        run(&plan, &mut ws_ref, ExecMode::serial()).unwrap();

        for policy in [TilePolicy::Dynamic, TilePolicy::Static] {
            let (mut ws, _) = setup(201);
            let opts = SchedOptions::default()
                .with_tile(&[16])
                .with_policy(policy)
                .with_rows();
            let s = compile_schedule(&adj, &ws, &bind, &opts).unwrap();
            let pool = ThreadPool::new(4);
            run_schedule(&s, &mut ws, &pool).unwrap();
            assert_eq!(
                ws.grid("u_b").max_abs_diff(ws_ref.grid("u_b")),
                0.0,
                "rows lowering, policy {policy:?}"
            );
        }
        // Serial tile order agrees too.
        let (mut ws, _) = setup(201);
        let s = compile_schedule(&adj, &ws, &bind, &SchedOptions::default().with_rows()).unwrap();
        run_schedule_serial(&s, &mut ws).unwrap();
        assert_eq!(ws.grid("u_b").max_abs_diff(ws_ref.grid("u_b")), 0.0);
    }

    #[test]
    fn unfused_schedule_matches_fused_bitwise() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (mut ws_f, bind) = setup(129);
        let fused = compile_schedule(&adj, &ws_f, &bind, &SchedOptions::default()).unwrap();
        assert!(fused.fused);
        assert_eq!(fused.source.len(), 5);
        assert!(
            matches!(group_nests(&fused.source, &fused.groups[0].nests), Cow::Borrowed(all) if all.len() == 5)
        );
        let pool = ThreadPool::new(3);
        run_schedule(&fused, &mut ws_f, &pool).unwrap();

        let (mut ws_u, _) = setup(129);
        let opts = SchedOptions::default().with_fuse(false);
        let unfused = compile_schedule(&adj, &ws_u, &bind, &opts).unwrap();
        assert_eq!(unfused.group_count(), 5, "{}", unfused.describe());
        assert!(!unfused.fused);
        assert!(
            matches!(group_nests(&unfused.source, &unfused.groups[3].nests), Cow::Borrowed([one]) if *one == adj.nests[3])
        );
        run_schedule(&unfused, &mut ws_u, &pool).unwrap();
        assert_eq!(ws_f.grid("u_b").max_abs_diff(ws_u.grid("u_b")), 0.0);
    }

    #[test]
    fn overlapping_writes_never_fuse() {
        // Negative dependence test: two gather nests writing the same array
        // over overlapping boxes must land in different groups.
        let i = Symbol::new("i");
        let u = Array::new("u");
        let mk = |lo: i64, hi: i64| {
            make_loop_nest(
                &Array::new("w").at(ix![&i]),
                u.at(ix![&i]),
                vec![i.clone()],
                vec![(Idx::constant(lo), Idx::constant(hi))],
            )
            .unwrap()
        };
        let nests = [mk(1, 20), mk(10, 30)];
        let ws = Workspace::new()
            .with("u", Grid::zeros(&[40]))
            .with("w", Grid::zeros(&[40]));
        let bind = Binding::new();
        let s =
            compile_schedule_nests(&nests, &ws, &bind, false, &SchedOptions::default()).unwrap();
        assert_eq!(s.group_count(), 2, "{}", s.describe());
        assert!(s.graph.conflicts(0, 1));

        // Disjoint variants fuse.
        let nests = [mk(1, 20), mk(21, 30)];
        let s =
            compile_schedule_nests(&nests, &ws, &bind, false, &SchedOptions::default()).unwrap();
        assert_eq!(s.group_count(), 1);
    }

    #[test]
    fn barrier_between_groups_orders_raw_dependences() {
        // Nest 1 reads what nest 0 writes: a fused run must still see the
        // serial result because the groups execute in order.
        let i = Symbol::new("i");
        let (u, w) = (Array::new("u"), Array::new("w"));
        let first = make_loop_nest(
            &w.at(ix![&i]),
            2.0 * u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::constant(30))],
        )
        .unwrap();
        let second = make_loop_nest(
            &Array::new("v").at(ix![&i]),
            w.at(ix![&i - 1]) + w.at(ix![&i + 1]),
            vec![i.clone()],
            vec![(Idx::constant(2), Idx::constant(29))],
        )
        .unwrap();
        let nests = [first.clone(), second.clone()];
        let build = || {
            Workspace::new()
                .with("u", Grid::from_fn(&[32], |ix| ix[0] as f64))
                .with("w", Grid::zeros(&[32]))
                .with("v", Grid::zeros(&[32]))
        };
        let bind = Binding::new();
        let mut ws = build();
        let opts = SchedOptions::default().with_tile(&[4]);
        let s = compile_schedule_nests(&nests, &ws, &bind, false, &opts).unwrap();
        assert_eq!(s.group_count(), 2);
        let pool = ThreadPool::new(4);
        run_schedule(&s, &mut ws, &pool).unwrap();

        let mut ws_ref = build();
        let p1 = perforad_exec::compile_nest(&first, &ws_ref, &bind).unwrap();
        run(&p1, &mut ws_ref, ExecMode::serial()).unwrap();
        let p2 = perforad_exec::compile_nest(&second, &ws_ref, &bind).unwrap();
        run(&p2, &mut ws_ref, ExecMode::serial()).unwrap();
        assert_eq!(ws.grid("v").max_abs_diff(ws_ref.grid("v")), 0.0);
    }

    #[test]
    fn reordered_group_compiles_its_own_members() {
        // 0 and 1 race on w; 2 is independent and joins 0's group, so that
        // group is not a run of consecutive nests: its plan must hold
        // nests 0 and 2 (copied), the other nest 1 (borrowed).
        let i = Symbol::new("i");
        let u = Array::new("u");
        let mk = |out: &str, k: f64, lo: i64, hi: i64| {
            make_loop_nest(
                &Array::new(out).at(ix![&i]),
                k * u.at(ix![&i]),
                vec![i.clone()],
                vec![(Idx::constant(lo), Idx::constant(hi))],
            )
            .unwrap()
        };
        let nests = [
            mk("w", 2.0, 1, 20),
            mk("w", 3.0, 10, 30),
            mk("v", 5.0, 1, 30),
        ];
        let mut ws = Workspace::new()
            .with("u", Grid::from_fn(&[40], |ix| ix[0] as f64))
            .with("w", Grid::zeros(&[40]))
            .with("v", Grid::zeros(&[40]));
        let s = compile_schedule_nests(
            &nests,
            &ws,
            &Binding::new(),
            false,
            &SchedOptions::default(),
        )
        .unwrap();
        let members: Vec<&[usize]> = s.groups.iter().map(|g| g.nests.as_slice()).collect();
        assert_eq!(members, [&[0, 2][..], &[1]]);
        assert!(matches!(
            group_nests(&s.source, &s.groups[0].nests),
            Cow::Owned(_)
        ));
        assert_eq!(
            &group_nests(&s.source, &s.groups[0].nests)[..],
            [nests[0].clone(), nests[2].clone()]
        );
        assert!(matches!(
            group_nests(&s.source, &s.groups[1].nests),
            Cow::Borrowed(_)
        ));
        assert_eq!(
            &group_nests(&s.source, &s.groups[1].nests)[..],
            &nests[1..2]
        );
        assert_eq!(s.groups[0].plan.nests()[1].hi, vec![30]);
        run_schedule(&s, &mut ws, &ThreadPool::new(2)).unwrap();
        assert_eq!(ws.grid("w").get(&[5]), 10.0);
        assert_eq!(ws.grid("w").get(&[15]), 45.0);
        assert_eq!(ws.grid("v").get(&[25]), 125.0);
    }

    #[test]
    fn disjoint_producer_consumer_schedules_into_two_groups() {
        // Nest 0 writes w[1..10]; nest 1 reads w[20..30] (disjoint) into v.
        // The executor cannot host both in one plan (AliasedWrite), so the
        // scheduler must split them rather than fail compilation.
        let i = Symbol::new("i");
        let (u, w) = (Array::new("u"), Array::new("w"));
        let producer = make_loop_nest(
            &w.at(ix![&i]),
            3.0 * u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::constant(10))],
        )
        .unwrap();
        let consumer = make_loop_nest(
            &Array::new("v").at(ix![&i]),
            w.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(20), Idx::constant(30))],
        )
        .unwrap();
        let mut ws = Workspace::new()
            .with("u", Grid::from_fn(&[40], |ix| ix[0] as f64))
            .with("w", Grid::full(&[40], 7.0))
            .with("v", Grid::zeros(&[40]));
        let bind = Binding::new();
        let s = compile_schedule_nests(
            &[producer, consumer],
            &ws,
            &bind,
            false,
            &SchedOptions::default(),
        )
        .expect("disjoint producer/consumer must schedule, not fail");
        assert_eq!(s.group_count(), 2, "{}", s.describe());
        let pool = ThreadPool::new(2);
        run_schedule(&s, &mut ws, &pool).unwrap();
        assert_eq!(ws.grid("w").get(&[5]), 15.0);
        assert_eq!(ws.grid("v").get(&[25]), 7.0);
    }

    #[test]
    fn scatter_plans_are_rejected() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let sc = paper_nest().scatter_adjoint(&act).unwrap();
        let (mut ws, bind) = setup(32);
        let s = compile_schedule_nests(
            std::slice::from_ref(&sc),
            &ws,
            &bind,
            false,
            &SchedOptions::default(),
        )
        .unwrap();
        let pool = ThreadPool::new(2);
        assert_eq!(
            run_schedule(&s, &mut ws, &pool).unwrap_err(),
            SchedError::Exec(perforad_exec::ExecError::ScatterNeedsAtomics)
        );
    }

    #[test]
    fn extent_check_matches_compile_adjoint() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (ws, _) = setup(10);
        let err = compile_schedule(
            &adj,
            &ws,
            &Binding::new().size("n", 2),
            &SchedOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SchedError::Exec(perforad_exec::ExecError::ExtentTooSmall { .. })
        ));
    }

    #[test]
    fn empty_and_mixed_rank_nest_lists_are_errors_not_panics() {
        let ws = Workspace::new()
            .with("u", Grid::zeros(&[8]))
            .with("w", Grid::zeros(&[8]));
        let bind = Binding::new();
        let err =
            compile_schedule_nests(&[], &ws, &bind, false, &SchedOptions::default()).unwrap_err();
        assert!(matches!(err, SchedError::BadInput(_)), "{err}");

        let i = Symbol::new("i");
        let j = Symbol::new("j");
        let u = Array::new("u");
        let one_d = make_loop_nest(
            &Array::new("w").at(ix![&i]),
            u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::constant(5))],
        )
        .unwrap();
        let two_d = make_loop_nest(
            &Array::new("v").at(ix![&i, &j]),
            Array::new("p").at(ix![&i, &j]),
            vec![i.clone(), j.clone()],
            vec![
                (Idx::constant(1), Idx::constant(5)),
                (Idx::constant(1), Idx::constant(5)),
            ],
        )
        .unwrap();
        let err =
            compile_schedule_nests(&[one_d, two_d], &ws, &bind, false, &SchedOptions::default())
                .unwrap_err();
        assert!(matches!(err, SchedError::BadInput(_)), "{err}");
    }

    #[test]
    fn bad_tiles_are_rejected() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = paper_nest()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap();
        let (ws, bind) = setup(32);
        for bad in [vec![0i64], vec![4, 4]] {
            let opts = SchedOptions::default().with_tile(&bad);
            assert!(matches!(
                compile_schedule(&adj, &ws, &bind, &opts),
                Err(SchedError::BadTile(_))
            ));
        }
    }
}
