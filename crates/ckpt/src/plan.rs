//! Checkpoint placement: the exact (revolve) schedule.
//!
//! A [`CheckpointPlan`] fixes two numbers — the sweep length `steps` and
//! the snapshot `budget` (maximum simultaneously live snapshots) — and
//! from them derives a deterministic stream of [`CkptAction`]s that a
//! driver executes with one cursor state and one snapshot store.
//!
//! Placement is Griewank–Walther revolve, split for split. Reversing a
//! segment of `l` steps from a snapshot at its left end, with `c` slots
//! counting that one, costs at least `t(l, c) = r·l − C(c+r, r−1)`
//! advanced steps, where `r` is the least repetition number with
//! `C(c+r, c) ≥ l`; a first split of `m` steps meets that bound exactly
//! when `max(l − C(c+r−1, r), C(c+r−2, r−2)) ≤ m ≤ min(C(c+r−1, r−1),
//! l − C(c+r−2, r−1))`, and the plan takes the smallest such `m` (at 64
//! steps and budget 8, 46 saves where the largest takes 53). The two
//! budget extremes degenerate exactly as they should: `budget ≥ steps` is
//! store-all (zero recomputation) and `budget = 1` is
//! recompute-from-the-start (quadratic recomputation, constant memory).
//!
//! The first forward pass is *streaming*: the driver has to advance to
//! the final state anyway (the objective needs it), so the schedule
//! deposits the right-most checkpoint chain during that pass instead of
//! replaying it. That pass is revolve's first sweep over `steps + 1`
//! steps — the last one being the seed, which needs `u_T` — so the whole
//! stream recomputes `t(steps + 1, budget) − steps` steps, the fewest any
//! placement can: a brute-force search over every placement agrees for
//! every sweep of up to 100 steps and every budget up to 10. The
//! recomputation the stats report is pure reverse-sweep overhead on top
//! of one primal and one adjoint sweep.
//!
//! A [`CheckpointPlan::two_level`] plan is for a state of two time
//! levels, `s_t = (u_{t−1}, u_t)`, whose reverse step `t` reads only
//! `u_t`. The state after a step carries that level too, so one reached
//! state reverses two steps: `Back { t }` from its newer level and
//! [`CkptAction::BackOlder`] `{ t − 1 }` from its older one. The stream is
//! the same revolve stream over `steps / 2` units of two steps each, unit
//! `k` the state `s_{2k}` (or `s_{2k+1}` for odd `steps`, whose stream
//! advances one step before its first save). At 64 steps and budget 8 it
//! recomputes 48 steps with 25 saves where the one-level plan recomputes
//! 76 with 46, at the same peak of 8 snapshots. It is not exact over
//! two-level placements — a search over every one finds 47 there — but
//! recomputes no more than the one-level plan on every shape the tests
//! sweep.

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
    /// Restore the stored state at time `t` into the cursor
    /// ([`crate::Snapshot::assign`]: a copy, or a reference move for a
    /// shared state). Never emitted for the state the cursor already holds.
    Load { t: usize },
    /// Move the stored state at time `t` into the cursor and drop it from
    /// the store: a snapshot's last read, always followed by `Back { t }`
    /// (and, in a two-level stream, by `BackOlder { t − 1 }` after it).
    Take { t: usize },
    /// The cursor holds the final state `s_T`; the driver hands it to the
    /// caller's `seed` closure (misfit + adjoint seeding) exactly once,
    /// between the forward and reverse phases.
    Seed,
    /// Reverse step `t`: the cursor holds the state *before* step `t`.
    /// Each step is reversed exactly once, by this or by `BackOlder`, in
    /// strictly descending order.
    Back { t: usize },
    /// Reverse step `t` from the older level of the state *after* it,
    /// `s_{t+1}`, which the cursor holds: a two-level stream's second back
    /// at a reached state, right after its `Back { t: t + 1 }` or `Seed`.
    BackOlder { t: usize },
}

/// Memory/recompute profile of a plan, simulated from its action stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Primal steps re-executed during the reverse phase (on top of the
    /// single streaming forward pass).
    pub recomputed_steps: usize,
    /// Maximum simultaneously live snapshots (≤ budget).
    pub peak_snapshots: usize,
    /// Total snapshot save events (each stores one state: a copy, or a
    /// reference for a shared state in memory).
    pub saves: usize,
    /// Snapshot loads that restore a state (the snapshot stays live).
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

/// The exact revolve split: how far to advance from the left edge of a
/// segment of `len ≥ 2` steps before saving, given `slots ≥ 2` snapshot
/// slots counting the one at the left edge — the least `m` the module
/// doc's optimality window admits. `O(r)` work for repetition number `r`;
/// no table.
fn split(len: usize, slots: usize) -> usize {
    debug_assert!(len >= 2 && slots >= 2);
    let (len, c) = (len as u128, slots as u128);
    // `hi = C(c+r, c)` for the least `r` with `hi ≥ len`, `lo` the one
    // before it (`C(c+r−1, c)`); each is exact from the last.
    let (mut r, mut hi, mut lo) = (0u128, 1u128, 0u128);
    while hi < len {
        r += 1;
        lo = hi;
        hi = hi * (c + r) / r;
    }
    let shorter_rep = lo * (r - 1) / (c + r - 1); // C(c+r−2, c)
    let fewer_slots = hi * c / (c + r); // C(c+r−1, c−1)
    let m = len.saturating_sub(fewer_slots).max(shorter_rep).max(1);
    debug_assert!(m < len);
    m as usize
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
    let mid = lo + split(hi - lo, avail + 1);
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

/// Distinct `(steps, budget, two_level)` shapes the
/// [`CheckpointPlan::actions_cached`] memo holds before resetting.
const ACTION_CACHE_CAP: usize = 256;

/// A memory-budgeted checkpoint schedule for a `steps`-long time loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPlan {
    steps: usize,
    budget: usize,
    /// Whether a reached state reverses two steps
    /// ([`CheckpointPlan::two_level`]).
    two_level: bool,
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
            two_level: false,
        }
    }

    /// Budgeted plan for a state of two time levels, `s_t = (u_{t−1},
    /// u_t)`, whose reverse step `t` reads only `u_t`: each state the
    /// stream reaches reverses step `t` and, from its older level, step
    /// `t − 1` ([`CkptAction::BackOlder`]). The budget is clamped as in
    /// [`CheckpointPlan::with_budget`].
    pub fn two_level(steps: usize, budget: usize) -> Self {
        CheckpointPlan {
            two_level: true,
            ..Self::with_budget(steps, budget)
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
        if !self.two_level {
            return self.one_level_actions();
        }
        // The one-level stream over units of two steps, unit `k` the state
        // at `base + 2k`; an odd sweep streams its first step unsaved.
        let base = self.steps % 2;
        let at = |k: usize| base + 2 * k;
        let units = Self::with_budget(self.steps / 2, self.budget).one_level_actions();
        let mut acts = Vec::with_capacity(2 * units.len() + 1);
        if base == 1 {
            acts.push(CkptAction::Advance {
                from: 0,
                to: 1,
                recompute: false,
            });
        }
        for act in units {
            acts.push(match act {
                CkptAction::Advance {
                    from,
                    to,
                    recompute,
                } => CkptAction::Advance {
                    from: at(from),
                    to: at(to),
                    recompute,
                },
                CkptAction::Save { t } => CkptAction::Save { t: at(t) },
                CkptAction::Load { t } => CkptAction::Load { t: at(t) },
                CkptAction::Take { t } => CkptAction::Take { t: at(t) },
                CkptAction::Back { t } => CkptAction::Back { t: at(t) },
                CkptAction::Seed | CkptAction::BackOlder { .. } => act,
            });
            // A reached state reverses the step before it from its older
            // level.
            let reached = match act {
                CkptAction::Seed => Some(self.steps),
                CkptAction::Back { t } => Some(at(t)),
                _ => None,
            };
            if let Some(t) = reached.and_then(|c| c.checked_sub(1)) {
                acts.push(CkptAction::BackOlder { t });
            }
        }
        acts
    }

    /// The one-level stream [`CheckpointPlan::actions`] returns for a plan
    /// built by [`CheckpointPlan::with_budget`].
    fn one_level_actions(&self) -> Vec<CkptAction> {
        let mut acts = Vec::new();
        if self.steps == 0 {
            acts.push(CkptAction::Seed);
            return acts;
        }
        // Forward phase: advance to T, saving the chain of right-most
        // checkpoints the reverse recursion will want first. It is
        // revolve's first sweep over `steps + 1` steps, the last being the
        // seed: a split landing on T would save a state nothing reads back.
        acts.push(CkptAction::Save { t: 0 });
        let (mut lo, hi) = (0usize, self.steps);
        let mut avail = self.budget - 1;
        // Left segments to reverse after the one containing T, outermost
        // first: (lo, mid, slots available when its turn comes).
        let mut segs: Vec<(usize, usize, usize)> = Vec::new();
        while avail > 0 {
            let mid = lo + split(hi + 1 - lo, avail + 1);
            if mid >= hi {
                break;
            }
            acts.push(CkptAction::Advance {
                from: lo,
                to: mid,
                recompute: false,
            });
            acts.push(CkptAction::Save { t: mid });
            segs.push((lo, mid, avail));
            lo = mid;
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
    /// `(steps, budget, two_level)`: the stream is derived once and shared via
    /// `Arc`, so drivers that replay the same plan shape — every shot of
    /// a batched seismic gradient, every iteration of an inversion loop —
    /// skip the recursive construction. The cache is bounded (it resets
    /// past `ACTION_CACHE_CAP` distinct shapes, far more than any
    /// workload sweeps) and the entries are immutable, so sharing across
    /// threads is free.
    pub fn actions_cached(&self) -> Arc<Vec<CkptAction>> {
        type ActionCache = Mutex<HashMap<(usize, usize, bool), Arc<Vec<CkptAction>>>>;
        static CACHE: OnceLock<ActionCache> = OnceLock::new();
        let mut map = CACHE
            .get_or_init(|| Mutex::new(HashMap::new()))
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let key = (self.steps, self.budget, self.two_level);
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
                CkptAction::Seed | CkptAction::Back { .. } | CkptAction::BackOlder { .. } => {}
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
                CkptAction::BackOlder { t } => {
                    check(plan.two_level, format!("older back {t}, one level"))?;
                    check(
                        seeded && cursor == t + 1,
                        format!("older back {t} at {cursor}"),
                    )?;
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

    /// Saturating binomial coefficient `C(n, k)`.
    fn binom(n: usize, k: usize) -> usize {
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

    /// The binomial split this module took before the exact one: advance
    /// `len − C(avail+r−1, avail−1)` steps (clamped into `[1, len − 1]`),
    /// `r` the least repetition number `≥ 1` with `C(avail+r, avail) ≥ len`,
    /// given `avail ≥ 1` free slots besides the segment's own.
    fn advance_by(len: usize, avail: usize) -> usize {
        let mut r = 1;
        while binom(avail + r, avail) < len {
            r += 1;
        }
        len.saturating_sub(binom(avail + r - 1, avail - 1))
            .clamp(1, len - 1)
    }

    /// The fewest recomputed steps at `(steps, budget)` in closed form:
    /// revolve on `steps + 1` steps minus the free first sweep.
    fn fewest(steps: usize, budget: usize) -> usize {
        if steps == 0 {
            return 0;
        }
        let (l, c) = (steps + 1, budget.clamp(1, steps));
        let r = (0..).find(|&r| binom(c + r, c) >= l).unwrap();
        r * l - binom(c + r, r - 1) - steps
    }

    /// `(recomputed_steps, peak_snapshots)` of the stream this module
    /// emitted under the binomial split, before it tracked the cursor: the
    /// same recursion, counted.
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
    fn every_plan_is_structurally_valid_and_recomputes_no_more_than_the_binomial_stream() {
        for steps in [0usize, 1, 2, 3, 5, 7, 8, 16, 17, 33, 64, 100, 255] {
            for budget in [1usize, 2, 3, 5, 7, 8, 1000] {
                let plan = CheckpointPlan::with_budget(steps, budget);
                let stats = validate(&plan);
                let (binomial, _) = parent_profile(&plan);
                assert!(stats.recomputed_steps <= binomial, "{plan:?}: {stats:?}");
                assert_eq!(stats.recomputed_steps, fewest(steps, budget), "{plan:?}");
            }
        }
    }

    #[test]
    fn golden_stream_profile_at_64_steps_budget_8() {
        let stats = validate(&CheckpointPlan::with_budget(64, 8));
        let want = PlanStats {
            recomputed_steps: 76,
            peak_snapshots: 8,
            saves: 46,
            loads: 18,
            moves: 46,
        };
        assert_eq!(stats, want);
    }

    /// Every placement of checkpoints, searched by dynamic programming:
    /// `rev[l][c]` reverses `l` steps from a snapshot at their left end with
    /// `c` slots counting that one (advance `m`, save, reverse the right
    /// part with a slot fewer, then the left part), and `stream[l][c]` is
    /// the same with the forward pass to the end free (stream to the end
    /// and reverse, or stream `m` steps, save, and go on). The plan must
    /// hit the minimum, and so must the closed form.
    #[test]
    fn the_exact_split_recomputes_the_fewest_steps_any_placement_can() {
        const STEPS: usize = 100;
        const BUDGET: usize = 10;
        let mut rev = vec![[0usize; BUDGET + 1]; STEPS + 1];
        let mut stream = rev.clone();
        for l in 1..=STEPS {
            for c in 1..=BUDGET {
                rev[l][c] = if c == 1 {
                    l * (l - 1) / 2
                } else {
                    let split = |m: usize| m + rev[l - m][c - 1] + rev[m][c];
                    (1..l).map(split).min().unwrap_or(0)
                };
                stream[l][c] = match c {
                    1 => rev[l][1],
                    _ => (1..l)
                        .map(|m| rev[m][c] + stream[l - m][c - 1])
                        .fold(rev[l][c], usize::min),
                };
            }
        }
        for (steps, by_budget) in stream.iter().enumerate() {
            for (budget, &placed) in by_budget.iter().enumerate().skip(1) {
                let plan = CheckpointPlan::with_budget(steps, budget);
                let stats = validate(&plan);
                assert_eq!(stats.recomputed_steps, placed, "{plan:?}: {stats:?}");
                assert_eq!(stats.recomputed_steps, fewest(steps, budget), "{plan:?}");
            }
        }
    }

    /// `(recomputed, backs)` of a stream, counted from its actions.
    fn recomputed_and_backs(acts: &[CkptAction]) -> (usize, usize) {
        acts.iter().fold((0, 0), |(rec, backs), act| match *act {
            CkptAction::Advance {
                from,
                to,
                recompute: true,
            } => (rec + to - from, backs),
            CkptAction::Back { .. } | CkptAction::BackOlder { .. } => (rec, backs + 1),
            _ => (rec, backs),
        })
    }

    #[test]
    fn two_level_plans_are_valid_and_never_recompute_more_than_one_level() {
        for steps in [0usize, 1, 2, 3, 5, 7, 8, 16, 17, 33, 64, 100, 255] {
            for budget in [1usize, 2, 3, 5, 7, 8, 1000] {
                let plan = CheckpointPlan::two_level(steps, budget);
                let two = validate(&plan);
                let one = CheckpointPlan::with_budget(steps, budget).stats();
                assert!(two.recomputed_steps <= one.recomputed_steps, "{plan:?}");
                // Two steps per unit of the one-level plan over the units.
                assert_eq!(two.recomputed_steps, 2 * fewest(steps / 2, budget));
            }
        }
    }

    #[test]
    fn golden_two_level_profile_at_64_steps_budget_8() {
        let stats = validate(&CheckpointPlan::two_level(64, 8));
        let want = PlanStats {
            recomputed_steps: 48,
            peak_snapshots: 8,
            saves: 25,
            loads: 7,
            moves: 25,
        };
        assert_eq!(stats, want);
    }

    /// An odd sweep streams its first step unsaved and anchors the
    /// reversal at `s_1`, whose older level reverses step 0.
    #[test]
    fn an_odd_two_level_sweep_saves_s1_first() {
        let advance = |from, to| CkptAction::Advance {
            from,
            to,
            recompute: false,
        };
        let one = CheckpointPlan::two_level(1, 4).actions();
        let want = [
            advance(0, 1),
            CkptAction::Seed,
            CkptAction::BackOlder { t: 0 },
        ];
        assert_eq!(one, want);
        let acts = CheckpointPlan::two_level(9, 2).actions();
        assert_eq!(acts[..2], [advance(0, 1), CkptAction::Save { t: 1 }]);
        let tail = [
            CkptAction::Take { t: 1 },
            CkptAction::Back { t: 1 },
            CkptAction::BackOlder { t: 0 },
        ];
        assert!(acts.ends_with(&tail), "{acts:?}");
    }

    /// Every two-level placement, searched by dynamic programming. A
    /// state `s_a` reverses step `a` and, from its older level, `a − 1`.
    /// `rev[l][c]` reverses steps `[a, a + l)` from a snapshot at `s_a`
    /// with `c` slots counting it: advance `m`, save `s_{a+m}`, reverse
    /// `[a + m, a + l)` from it with a slot fewer — its older level takes
    /// step `a + m − 1` too — then `[a, a + m − 1)`; with one slot, reach
    /// `s_{a+l−1}` for the top two steps and go on. `stream[l][c]` is the
    /// same with the forward pass to the end free, where the seed state
    /// reverses the last step. The sweep anchors at `s_0` or `s_1` (step
    /// 0 needs one of them). The plan cannot beat the search, and the gap
    /// it leaves is what the unit stream gives up for being revolve over
    /// units: at most 2 steps from budget 6 on, 47 against 48 at (64, 8).
    #[test]
    fn the_two_level_stream_against_every_two_level_placement() {
        const STEPS: usize = 100;
        const BUDGET: usize = 10;
        let mut rev = vec![[0usize; BUDGET + 1]; STEPS + 1];
        let mut stream = rev.clone();
        for l in 1..=STEPS {
            for c in 1..=BUDGET {
                let top = match l {
                    1 => 0,
                    _ => l - 1 + rev[l - 2][c],
                };
                rev[l][c] = match c {
                    1 => top,
                    _ => (1..l)
                        .map(|m| m + rev[l - m][c - 1] + rev[m - 1][c])
                        .fold(top, usize::min),
                };
                stream[l][c] = match c {
                    1 => rev[l - 1][1],
                    _ => (1..l)
                        .map(|m| stream[l - m][c - 1] + rev[m - 1][c])
                        .fold(rev[l - 1][c], usize::min),
                };
            }
        }
        let mut worst = Vec::new();
        for steps in 0..=STEPS {
            for budget in 1..=BUDGET {
                let best = match steps {
                    0 => 0,
                    _ => stream[steps][budget].min(stream[steps - 1][budget]),
                };
                let plan = CheckpointPlan::two_level(steps, budget);
                let got = validate(&plan).recomputed_steps;
                assert!(got >= best, "{plan:?}: {got} beats the search's {best}");
                if budget >= 6 {
                    assert!(got - best <= 2, "{plan:?}: {got} vs {best}");
                }
                if worst.len() < budget {
                    worst.push((0, 0));
                }
                worst[budget - 1] = worst[budget - 1].max((got - best, steps));
            }
        }
        assert_eq!(stream[64][8].min(stream[63][8]), 47);
        println!("largest gap to the search by budget (gap, steps): {worst:?}");
    }

    /// No table: a long plan costs `O(r)` per split. The shape of the
    /// ignored memory-cap test and the longest sweep a served `Compile`
    /// accepts both build in a fraction of a second; a steps² table at
    /// 2²⁰ steps would not fit in memory. The time bound is loose for a
    /// loaded host.
    #[test]
    fn long_plans_build_without_a_steps_squared_table() {
        let t = std::time::Instant::now();
        for (steps, budget) in [(4096usize, 255usize), (1 << 20, 64)] {
            let plan = CheckpointPlan::with_budget(steps, budget);
            let acts = plan.actions();
            let backs = acts.iter().filter(|a| matches!(a, CkptAction::Back { .. }));
            assert_eq!(backs.count(), steps);
            let recomputed: usize = acts
                .iter()
                .map(|a| match *a {
                    CkptAction::Advance {
                        from,
                        to,
                        recompute: true,
                    } => to - from,
                    _ => 0,
                })
                .sum();
            assert_eq!(recomputed, fewest(steps, budget), "{plan:?}");
        }
        let secs = t.elapsed().as_secs_f64();
        assert!(secs < 20.0, "two long plans took {secs:.1} s");
    }

    /// The two-level stream is the unit stream expanded: no table either.
    #[test]
    fn long_two_level_plans_build_without_a_steps_squared_table() {
        let t = std::time::Instant::now();
        let (steps, budget) = (1usize << 20, 64);
        let acts = CheckpointPlan::two_level(steps, budget).actions();
        let (recomputed, backs) = recomputed_and_backs(&acts);
        assert_eq!(backs, steps);
        assert_eq!(recomputed, 2 * fewest(steps / 2, budget));
        assert!(recomputed < fewest(steps, budget));
        let secs = t.elapsed().as_secs_f64();
        assert!(secs < 20.0, "a long two-level plan took {secs:.1} s");
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
        assert_eq!((t64.recomputed_steps, bisection(64)), (86, 192));
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
        // A different shape gets its own stream, and so does the other
        // level of the same shape.
        let other = CheckpointPlan::with_budget(97, 7).actions_cached();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_ne!(*first, *other);
        let two = CheckpointPlan::two_level(97, 6);
        let two_cached = two.actions_cached();
        assert!(!Arc::ptr_eq(&first, &two_cached));
        assert_eq!(*two_cached, two.actions());
        assert_ne!(*first, *two_cached);
        assert_eq!(*CheckpointPlan::with_budget(97, 6).actions_cached(), *first);
    }

    #[test]
    fn binom_saturates_instead_of_overflowing() {
        assert_eq!(binom(6, 2), 15);
        assert_eq!(binom(5, 0), 1);
        assert_eq!(binom(3, 5), 0);
        assert_eq!(binom(10_000, 5_000), usize::MAX);
    }
}
