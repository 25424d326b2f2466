//! Checkpoint placement: the binomial (treeverse/revolve) schedule.
//!
//! A [`CheckpointPlan`] fixes two numbers — the sweep length `steps` and
//! the snapshot `budget` (maximum simultaneously live snapshots) — and
//! from them derives a deterministic stream of [`CkptAction`]s that a
//! driver executes with one cursor state and one snapshot store. The
//! placement follows Griewank's binomial rule: with `c` snapshots and
//! repetition number `r`, sweeps up to `C(c+r, c)` steps are reversible,
//! and the split point of a segment of length `l` advances
//! `l − C(c+r−1, c−1)` steps (clamped into range) before saving. At exact
//! binomial lengths this is the provably optimal revolve schedule; in
//! between it stays within the same repetition number. The two budget
//! extremes degenerate exactly as they should: `budget ≥ steps` is
//! store-all (zero recomputation) and `budget = 1` is recompute-from-
//! the-start (quadratic recomputation, constant memory).
//!
//! The first forward pass is *streaming*: the driver has to advance to
//! the final state anyway (the objective needs it), so the schedule
//! deposits the right-most checkpoint chain during that pass instead of
//! replaying it — the recomputation the stats report is pure reverse-
//! sweep overhead on top of one primal and one adjoint sweep.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// One primitive of a checkpointed reverse sweep, interpreted by
/// [`checkpointed_adjoint_plan`](crate::checkpointed_adjoint_plan) (or by
/// the stats simulator, which walks the same stream without any state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptAction {
    /// Advance the cursor from the state at time `from` to the state at
    /// time `to` by calling `step` for `t = from .. to`. `recompute` is
    /// false only for the initial streaming pass (work the objective
    /// evaluation pays anyway).
    Advance {
        from: usize,
        to: usize,
        recompute: bool,
    },
    /// Save the cursor (the state at time `t`) into the snapshot store.
    Save { t: usize },
    /// Copy the stored state at time `t` over the cursor. Never emitted
    /// for the state the cursor already holds.
    Load { t: usize },
    /// Move the stored state at time `t` into the cursor and drop it from
    /// the store: a snapshot's last read, always followed by `Back { t }`.
    Take { t: usize },
    /// The cursor holds the final state `s_T`; the driver hands it to the
    /// caller's `seed` closure (misfit + adjoint seeding) exactly once,
    /// between the forward and reverse phases.
    Seed,
    /// Reverse step `t`: the cursor holds the state *before* step `t`.
    /// Emitted exactly once per `t`, in strictly descending order.
    Back { t: usize },
}

/// Memory/recompute profile of a plan, simulated from its action stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Primal steps re-executed during the reverse phase (on top of the
    /// single streaming forward pass).
    pub recomputed_steps: usize,
    /// Maximum simultaneously live snapshots (≤ budget).
    pub peak_snapshots: usize,
    /// Total snapshot save events (each copies one state).
    pub saves: usize,
    /// Snapshot loads that copy a state (the snapshot stays live).
    pub loads: usize,
    /// Snapshot takes: the state is moved out, nothing is copied.
    pub moves: usize,
}

impl PlanStats {
    /// Recomputed steps per primal step — 0.0 for store-all, `(T−1)/2`
    /// for budget 1.
    pub fn recompute_ratio(&self, steps: usize) -> f64 {
        if steps == 0 {
            0.0
        } else {
            self.recomputed_steps as f64 / steps as f64
        }
    }
}

/// Saturating binomial coefficient `C(n, k)` — the schedule only ever
/// compares it against sweep lengths, so saturation is harmless.
pub(crate) fn binom(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc.saturating_mul((n - i) as u128) / (i + 1) as u128;
        if acc > usize::MAX as u128 {
            return usize::MAX;
        }
    }
    acc as usize
}

/// Minimal repetition number `r ≥ 1` with `C(c + r, c) ≥ len`.
fn repetition(len: usize, c: usize) -> usize {
    let mut r = 1;
    while binom(c + r, c) < len {
        r += 1;
    }
    r
}

/// Binomial split: how far to advance from the left edge of a segment of
/// `len` steps before saving, given `avail ≥ 1` snapshot slots still free.
/// Clamped to `[1, len − 1]`; exactly the revolve split at binomial
/// lengths.
fn advance_by(len: usize, avail: usize) -> usize {
    debug_assert!(len >= 2 && avail >= 1);
    let r = repetition(len, avail);
    len.saturating_sub(binom(avail + r - 1, avail - 1))
        .clamp(1, len - 1)
}

/// Reverse `[lo, hi)` given a live snapshot at `lo` and `avail` free
/// slots — the classic treeverse recursion, aware of where the cursor is:
/// a state the cursor holds is never loaded, a state reversed straight
/// from the cursor is never saved, and the snapshot at `lo` is moved out
/// (`Take`) for its last read, the `Back { t: lo }` that ends the segment.
fn reverse_segment(acts: &mut Vec<CkptAction>, lo: usize, hi: usize, avail: usize) {
    debug_assert!(lo < hi);
    // The cursor holds `lo` exactly when the segment's snapshot was saved
    // from it the action before.
    let restore = |acts: &mut Vec<CkptAction>| {
        if acts.last() != Some(&CkptAction::Save { t: lo }) {
            acts.push(CkptAction::Load { t: lo });
        }
    };
    let advance = |to: usize| CkptAction::Advance {
        from: lo,
        to,
        recompute: true,
    };
    if avail == 0 || hi - lo == 1 {
        // No slots left: recompute each state from `lo`. Quadratic in
        // the segment length — exactly the budget-1 degenerate case.
        for t in (lo + 1..hi).rev() {
            restore(acts);
            acts.extend([advance(t), CkptAction::Back { t }]);
        }
        acts.extend([CkptAction::Take { t: lo }, CkptAction::Back { t: lo }]);
        return;
    }
    let mid = lo + advance_by(hi - lo, avail);
    restore(acts);
    acts.push(advance(mid));
    if hi - mid == 1 {
        acts.push(CkptAction::Back { t: mid });
    } else {
        acts.push(CkptAction::Save { t: mid });
        reverse_segment(acts, mid, hi, avail - 1);
    }
    reverse_segment(acts, lo, mid, avail);
}

/// Distinct `(steps, budget)` shapes the [`CheckpointPlan::actions_cached`]
/// memo holds before resetting.
const ACTION_CACHE_CAP: usize = 256;

/// A memory-budgeted checkpoint schedule for a `steps`-long time loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPlan {
    steps: usize,
    budget: usize,
}

impl CheckpointPlan {
    /// Budgeted plan: at most `budget` snapshots live at once. The budget
    /// is clamped into `[1, max(steps, 1)]` — zero-budget reversal is
    /// impossible (the initial state must be storable) and more than
    /// `steps` snapshots can never be used.
    pub fn with_budget(steps: usize, budget: usize) -> Self {
        CheckpointPlan {
            steps,
            budget: budget.clamp(1, steps.max(1)),
        }
    }

    /// The zero-recompute plan: one snapshot per step.
    pub fn store_all(steps: usize) -> Self {
        Self::with_budget(steps, steps.max(1))
    }

    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The clamped snapshot budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Live-snapshot memory ceiling for a given per-snapshot size.
    pub fn mem_bytes(&self, state_bytes: usize) -> usize {
        self.budget.saturating_mul(state_bytes)
    }

    /// The full action stream: streaming forward pass (depositing the
    /// right-most checkpoint chain), `Seed`, then the recursive reverse
    /// phase. `steps == 0` degenerates to `[Seed]`.
    pub fn actions(&self) -> Vec<CkptAction> {
        let mut acts = Vec::new();
        if self.steps == 0 {
            acts.push(CkptAction::Seed);
            return acts;
        }
        // Forward phase: advance to T, saving the chain of right-most
        // checkpoints the reverse recursion will want first.
        acts.push(CkptAction::Save { t: 0 });
        let (mut lo, hi) = (0usize, self.steps);
        let mut avail = self.budget - 1;
        // Left segments to reverse after the one containing T, outermost
        // first: (lo, mid, slots available when its turn comes).
        let mut segs: Vec<(usize, usize, usize)> = Vec::new();
        while hi - lo > 1 && avail > 0 {
            let m = advance_by(hi - lo, avail);
            acts.push(CkptAction::Advance {
                from: lo,
                to: lo + m,
                recompute: false,
            });
            acts.push(CkptAction::Save { t: lo + m });
            segs.push((lo, lo + m, avail));
            lo += m;
            avail -= 1;
        }
        if hi > lo {
            acts.push(CkptAction::Advance {
                from: lo,
                to: hi,
                recompute: false,
            });
        }
        acts.push(CkptAction::Seed);
        // Reverse phase: the terminal segment first, then the stored left
        // segments inside-out; each consumes the snapshot anchoring it.
        reverse_segment(&mut acts, lo, hi, avail);
        for &(slo, smid, savail) in segs.iter().rev() {
            reverse_segment(&mut acts, slo, smid, savail);
        }
        acts
    }

    /// [`CheckpointPlan::actions`] behind a process-wide memo keyed on
    /// `(steps, budget)`: the stream is derived once and shared via
    /// `Arc`, so drivers that replay the same plan shape — every shot of
    /// a batched seismic gradient, every iteration of an inversion loop —
    /// skip the recursive construction. The cache is bounded (it resets
    /// past `ACTION_CACHE_CAP` distinct shapes, far more than any
    /// workload sweeps) and the entries are immutable, so sharing across
    /// threads is free.
    pub fn actions_cached(&self) -> Arc<Vec<CkptAction>> {
        type ActionCache = Mutex<HashMap<(usize, usize), Arc<Vec<CkptAction>>>>;
        static CACHE: OnceLock<ActionCache> = OnceLock::new();
        let mut map = CACHE
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let key = (self.steps, self.budget);
        if map.len() >= ACTION_CACHE_CAP && !map.contains_key(&key) {
            map.clear();
        }
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(self.actions())))
    }

    /// Simulate the action stream without any state: recompute count,
    /// peak snapshot liveness, store traffic.
    pub fn stats(&self) -> PlanStats {
        let mut stats = PlanStats::default();
        let mut live = 0usize;
        for &act in self.actions_cached().iter() {
            match act {
                CkptAction::Advance {
                    from,
                    to,
                    recompute,
                } => {
                    if recompute {
                        stats.recomputed_steps += to - from;
                    }
                }
                CkptAction::Save { .. } => {
                    stats.saves += 1;
                    live += 1;
                    stats.peak_snapshots = stats.peak_snapshots.max(live);
                }
                CkptAction::Load { .. } => stats.loads += 1,
                CkptAction::Take { .. } => {
                    stats.moves += 1;
                    live -= 1;
                }
                CkptAction::Seed | CkptAction::Back { .. } => {}
            }
        }
        stats
    }

    /// Recomputed steps per primal step under this plan.
    pub fn recompute_ratio(&self) -> f64 {
        self.stats().recompute_ratio(self.steps)
    }

    /// The [`perforad_perfmodel::CheckpointShape`] this plan presents to
    /// the analytic model, for a given per-snapshot byte size.
    pub fn shape(&self, state_bytes: usize) -> perforad_perfmodel::CheckpointShape {
        let stats = self.stats();
        perforad_perfmodel::CheckpointShape {
            steps: self.steps,
            budget: self.budget,
            state_bytes,
            recompute_ratio: stats.recompute_ratio(self.steps),
            saves: stats.saves,
            loads: stats.loads,
            moves: stats.moves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Walk an action stream asserting every structural invariant: loads
    /// and takes only touch live snapshots, the cursor is positioned
    /// correctly for every advance and back, backs are exactly `T-1..0`,
    /// liveness never exceeds the budget, seed happens exactly once with
    /// the cursor at `T` — and nothing moves that need not: no load of the
    /// state the cursor holds, no save that is not read back from a
    /// different cursor position.
    fn validate_stream(plan: &CheckpointPlan, acts: &[CkptAction]) -> Result<usize, String> {
        let steps = plan.steps();
        let mut live: BTreeSet<usize> = BTreeSet::new();
        let mut peak = 0usize;
        let mut cursor = 0usize; // time index the cursor holds
        let mut backs = Vec::new();
        let mut seeded = false;
        let check = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
        for &act in acts {
            match act {
                CkptAction::Advance { from, to, .. } => {
                    check(
                        cursor == from,
                        format!("advance {from}->{to} from {cursor}"),
                    )?;
                    check(from < to && to <= steps, format!("advance {from}->{to}"))?;
                    cursor = to;
                }
                CkptAction::Save { t } => {
                    check(cursor == t, format!("save {t} with the cursor at {cursor}"))?;
                    check(live.insert(t), format!("double save at {t}"))?;
                    peak = peak.max(live.len());
                }
                CkptAction::Load { t } | CkptAction::Take { t } => {
                    check(cursor != t, format!("read of {t}, which the cursor holds"))?;
                    check(live.contains(&t), format!("read of dead snapshot {t}"))?;
                    if matches!(act, CkptAction::Take { .. }) {
                        live.remove(&t);
                    }
                    cursor = t;
                }
                CkptAction::Seed => {
                    check(!seeded && cursor == steps, format!("seed at {cursor}"))?;
                    seeded = true;
                }
                CkptAction::Back { t } => {
                    check(seeded && cursor == t, format!("back {t} at {cursor}"))?;
                    backs.push(t);
                }
            }
        }
        check(seeded, "never seeded".into())?;
        // A snapshot leaves the store by a take, so one that was never
        // read from a different cursor position is still here.
        check(
            live.is_empty(),
            format!("snapshots never read back: {live:?}"),
        )?;
        check(
            backs == (0..steps).rev().collect::<Vec<_>>(),
            "backs must be T-1..0 exactly once each".into(),
        )?;
        check(peak <= plan.budget(), format!("budget exceeded: {peak}"))?;
        Ok(peak)
    }

    fn validate(plan: &CheckpointPlan) -> PlanStats {
        let peak =
            validate_stream(plan, &plan.actions()).unwrap_or_else(|e| panic!("{plan:?}: {e}"));
        let stats = plan.stats();
        assert_eq!(stats.peak_snapshots, peak);
        assert_eq!(stats.saves, stats.moves, "every snapshot ends in a take");
        stats
    }

    /// `(recomputed_steps, peak_snapshots)` of the stream this module
    /// emitted before it tracked the cursor: the same recursion, counted.
    fn parent_profile(plan: &CheckpointPlan) -> (usize, usize) {
        fn reverse(lo: usize, hi: usize, avail: usize, live: usize, out: &mut (usize, usize)) {
            if hi - lo <= 1 {
                return;
            }
            if avail == 0 {
                out.0 += (1..hi - lo).sum::<usize>();
                return;
            }
            let m = advance_by(hi - lo, avail);
            out.0 += m;
            out.1 = out.1.max(live + 1);
            reverse(lo + m, hi, avail - 1, live + 1, out);
            reverse(lo, lo + m, avail, live, out);
        }
        if plan.steps() == 0 {
            return (0, 0);
        }
        let (mut lo, hi, mut avail) = (0, plan.steps(), plan.budget() - 1);
        let mut segs = Vec::new();
        while hi - lo > 1 && avail > 0 {
            let m = advance_by(hi - lo, avail);
            segs.push((lo, lo + m, avail));
            lo += m;
            avail -= 1;
        }
        let live = segs.len() + 1;
        let mut out = (0, live);
        reverse(lo, hi, avail, live, &mut out);
        for (k, &(slo, smid, savail)) in segs.iter().enumerate().rev() {
            reverse(slo, smid, savail, k + 1, &mut out);
        }
        out
    }

    #[test]
    fn every_plan_is_structurally_valid_and_recomputes_what_the_parent_did() {
        for steps in [0usize, 1, 2, 3, 5, 7, 8, 16, 17, 33, 64, 100, 255] {
            for budget in [1usize, 2, 3, 5, 7, 8, 1000] {
                let plan = CheckpointPlan::with_budget(steps, budget);
                let stats = validate(&plan);
                assert_eq!(
                    (stats.recomputed_steps, stats.peak_snapshots),
                    parent_profile(&plan),
                    "{plan:?}"
                );
            }
        }
    }

    #[test]
    fn golden_stream_profile_at_64_steps_budget_8() {
        let stats = validate(&CheckpointPlan::with_budget(64, 8));
        let want = PlanStats {
            recomputed_steps: 91,
            peak_snapshots: 8,
            saves: 43,
            loads: 21,
            moves: 43,
        };
        assert_eq!(stats, want);
    }

    #[test]
    fn a_redundant_load_or_a_dropped_save_fails_validation() {
        let plan = CheckpointPlan::with_budget(64, 8);
        let acts = plan.actions();
        assert!(validate_stream(&plan, &acts).is_ok());
        // Re-insert the load the parent's stream had after every save.
        let last_save = acts.iter().enumerate().rev().find_map(|(i, a)| match a {
            CkptAction::Save { t } => Some((i, *t)),
            _ => None,
        });
        let (at, t) = last_save.expect("a save in the stream");
        let mut redundant = acts.clone();
        redundant.insert(at + 1, CkptAction::Load { t });
        let err = validate_stream(&plan, &redundant).unwrap_err();
        assert!(err.contains("the cursor holds"), "{err}");
        // Drop a save that is read back later.
        let mut dropped = acts.clone();
        dropped.remove(at);
        let err = validate_stream(&plan, &dropped).unwrap_err();
        assert!(err.contains("dead snapshot"), "{err}");
        // Save a state that is only ever reversed straight from the cursor.
        let at = acts.windows(2).position(
            |w| matches!(w, [CkptAction::Advance { to, .. }, CkptAction::Back { t }] if to == t),
        );
        let at = at.expect("a state reversed from the cursor") + 1;
        let CkptAction::Back { t } = acts[at] else {
            unreachable!()
        };
        let mut unread = acts.clone();
        unread.insert(at, CkptAction::Save { t });
        let err = validate_stream(&plan, &unread).unwrap_err();
        assert!(err.contains("never read back"), "{err}");
    }

    #[test]
    fn store_all_never_recomputes() {
        for steps in [1usize, 2, 9, 64, 100] {
            let plan = CheckpointPlan::store_all(steps);
            let stats = validate(&plan);
            assert_eq!(stats.recomputed_steps, 0, "steps {steps}");
            assert_eq!(plan.recompute_ratio(), 0.0);
        }
        // Any budget ≥ steps behaves identically.
        let stats = CheckpointPlan::with_budget(10, 99).stats();
        assert_eq!(stats.recomputed_steps, 0);
    }

    #[test]
    fn budget_one_is_quadratic_and_constant_memory() {
        for steps in [1usize, 2, 7, 20] {
            let plan = CheckpointPlan::with_budget(steps, 1);
            let stats = validate(&plan);
            assert_eq!(stats.peak_snapshots, 1);
            // The terminal segment is the whole sweep: T(T-1)/2 recompute.
            assert_eq!(stats.recomputed_steps, steps * (steps - 1) / 2);
        }
    }

    #[test]
    fn binomial_lengths_meet_the_revolve_bound() {
        // With c snapshots and repetition r, revolve reverses
        // l = C(c+r, c) steps recomputing at most r·l − l steps beyond
        // the streaming forward pass (r·l total primal executions,
        // one of which the objective pays).
        for (c, r) in [(2usize, 2usize), (2, 3), (3, 2), (3, 3), (4, 2), (5, 3)] {
            let l = binom(c + r, c);
            let plan = CheckpointPlan::with_budget(l, c + 1);
            let stats = validate(&plan);
            assert!(
                stats.recomputed_steps <= (r - 1) * l + (l - 1),
                "c={c} r={r} l={l}: {stats:?}"
            );
        }
    }

    #[test]
    fn log_budget_plan_dominates_recursive_bisection() {
        // Recompute count of the recursive-bisection scheme this crate
        // replaced: advance to the midpoint, reverse the right half, then
        // the left, at ⌈log₂T⌉ + 1 live snapshots.
        fn bisection(n: usize) -> usize {
            if n <= 1 {
                return 0;
            }
            n / 2 + bisection(n - n / 2) + bisection(n / 2)
        }
        for steps in 1usize..=64 {
            let budget = steps.next_power_of_two().trailing_zeros() as usize + 1;
            let stats = validate(&CheckpointPlan::with_budget(steps, budget));
            assert!(stats.peak_snapshots <= budget, "T={steps}: {stats:?}");
            assert!(
                stats.recomputed_steps <= bisection(steps),
                "T={steps}: {stats:?} vs bisection {}",
                bisection(steps)
            );
        }
        let t64 = CheckpointPlan::with_budget(64, 7).stats();
        assert_eq!((t64.recomputed_steps, bisection(64)), (93, 192));
    }

    #[test]
    fn ratio_decreases_monotonically_with_budget() {
        let steps = 200;
        let mut last = f64::INFINITY;
        for budget in [1usize, 2, 4, 8, 16, 32, 64, 200] {
            let ratio = CheckpointPlan::with_budget(steps, budget).recompute_ratio();
            assert!(
                ratio <= last,
                "budget {budget}: ratio {ratio} rose above {last}"
            );
            last = ratio;
        }
        assert_eq!(last, 0.0);
    }

    #[test]
    fn budget_is_clamped_into_range() {
        assert_eq!(CheckpointPlan::with_budget(10, 0).budget(), 1);
        assert_eq!(CheckpointPlan::with_budget(10, 1 << 40).budget(), 10);
        assert_eq!(CheckpointPlan::with_budget(0, 0).budget(), 1);
        assert_eq!(
            CheckpointPlan::with_budget(0, 5).actions(),
            vec![CkptAction::Seed]
        );
    }

    #[test]
    fn shape_reports_the_simulated_profile() {
        let plan = CheckpointPlan::with_budget(100, 5);
        let stats = plan.stats();
        let shape = plan.shape(4096);
        assert_eq!(shape.steps, 100);
        assert_eq!(shape.budget, 5);
        assert_eq!(shape.state_bytes, 4096);
        assert_eq!(shape.saves, stats.saves);
        assert_eq!(shape.loads, stats.loads);
        assert_eq!(shape.moves, stats.moves);
        assert!(shape.recompute_ratio > 0.0);
        assert_eq!(plan.mem_bytes(4096), 5 * 4096);
    }

    #[test]
    fn cached_actions_share_one_allocation_and_match_fresh_construction() {
        let plan = CheckpointPlan::with_budget(97, 6);
        let first = plan.actions_cached();
        // Pointer reuse: the same plan shape returns the same Arc, from
        // this or any other CheckpointPlan value.
        let second = CheckpointPlan::with_budget(97, 6).actions_cached();
        assert!(Arc::ptr_eq(&first, &second), "memo must share the stream");
        // Structural reuse: the cached stream is the fresh construction.
        assert_eq!(*first, plan.actions());
        // A different shape gets its own stream.
        let other = CheckpointPlan::with_budget(97, 7).actions_cached();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_ne!(*first, *other);
    }

    #[test]
    fn binom_saturates_instead_of_overflowing() {
        assert_eq!(binom(6, 2), 15);
        assert_eq!(binom(5, 0), 1);
        assert_eq!(binom(3, 5), 0);
        assert_eq!(binom(10_000, 5_000), usize::MAX);
    }
}
