//! The replay driver: executes a [`CheckpointPlan`]'s action stream with
//! one cursor state, one snapshot store, and the caller's `step`/`back`
//! closures.
//!
//! The driver is deliberately oblivious to what a "state" or a "step"
//! is: the seismic driver passes a compiled primal plan as `step` and
//! the tuned fused/JIT adjoint schedule as `back`, and runs every sweep
//! through here — store-all is the plan whose budget covers the steps.
//! Every recomputed forward segment and every reverse step runs through
//! the same fast path whatever the budget: checkpointing changes *where
//! states come from*, never *how steps execute*, which is why the result
//! is bitwise-identical to store-all.

use crate::error::CkptError;
use crate::plan::{CheckpointPlan, CkptAction};
use crate::store::SnapshotStore;
use std::sync::OnceLock;

/// What a checkpointed sweep did: the plan's simulated profile made
/// concrete, plus store accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CkptReport {
    /// Sweep length.
    pub steps: usize,
    /// Snapshot budget the plan ran under (clamped).
    pub budget: usize,
    /// Primal steps re-executed during the reverse phase.
    pub recomputed_steps: usize,
    /// Maximum simultaneously live snapshots.
    pub peak_snapshots: usize,
    /// Snapshot saves the stream executed.
    pub saves: usize,
    /// Snapshot loads (the snapshot stays live) the stream executed.
    pub loads: usize,
    /// Snapshot takes (moved out, the snapshot's last read) the stream
    /// executed.
    pub moves: usize,
    /// High-water mark of snapshot bytes (resident for the memory store,
    /// spilled for the disk store).
    pub peak_snapshot_bytes: usize,
    /// Snapshot store backend ("memory" / "disk").
    pub store: &'static str,
    /// *Measured* recompute ratio, from the observability layer: primal
    /// steps re-executed under `ckpt.recompute` spans, divided by
    /// `steps`. `Some` only when recording was enabled
    /// ([`perforad_obs::enabled`]) for the whole sweep; by construction
    /// it must equal [`CkptReport::recompute_ratio`], and a test pins
    /// both against [`CheckpointPlan::stats`]'s exact prediction —
    /// closing the model-vs-reality gap instead of assuming it.
    pub recompute_ratio_observed: Option<f64>,
}

impl CkptReport {
    /// Recomputed steps per primal step.
    pub fn recompute_ratio(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.recomputed_steps as f64 / self.steps as f64
        }
    }
}

/// `ckpt.saves` / `ckpt.loads` (copies) / `ckpt.moves` (takes) /
/// `ckpt.recomputed_steps`, resolved once per process rather than through
/// the registry lock on every action of every sweep.
fn counters() -> &'static [perforad_obs::Counter; 4] {
    static C: OnceLock<[perforad_obs::Counter; 4]> = OnceLock::new();
    const NAMES: [&str; 4] = [
        "ckpt.saves",
        "ckpt.loads",
        "ckpt.moves",
        "ckpt.recomputed_steps",
    ];
    C.get_or_init(|| NAMES.map(perforad_obs::counter))
}

/// Run a checkpointed adjoint sweep.
///
/// * `step(s, t)` advances the cursor **in place** from the state at
///   time `t` to time `t+1` — no state is allocated per step;
/// * `seed(s_T)` is called exactly once with the final state, between
///   the (streaming) forward pass and the reverse phase — evaluate the
///   objective and seed the adjoint here;
/// * `back(s, t, at)` reverses step `t` given the cursor's state `s_at`:
///   `at = t`, the state *before* the step, or — in a
///   [`CheckpointPlan::two_level`] stream — `at = t + 1`, the state after
///   it, whose older level is what step `t` reads. Called exactly once
///   per `t`, in strictly descending order, so rolling adjoint buffers
///   work unchanged from a store-all sweep. It gets the state mutably so
///   it can lend the buffers to a kernel workspace (swap in, run, swap
///   out) instead of copying them; it must hand the state back with the
///   value it had.
///
/// The trajectory is never materialized beyond the budget: at most
/// `plan.budget()` snapshots are live in `store` at any moment, plus the
/// single cursor state, which loads overwrite in place and takes replace
/// with the stored one. `CheckpointPlan::store_all` is the plan whose
/// budget covers every step: the same stream with nothing recomputed.
pub fn checkpointed_adjoint_plan<S>(
    plan: &CheckpointPlan,
    s0: S,
    store: &mut impl SnapshotStore<S>,
    step: &mut impl FnMut(&mut S, usize),
    seed: &mut impl FnMut(&S),
    back: &mut impl FnMut(&mut S, usize, usize),
) -> Result<CkptReport, CkptError> {
    let mut cursor = s0;
    let mut recomputed = 0usize;
    let mut peak_live = 0usize;
    let [mut n_saves, mut n_loads, mut n_moves] = [0usize; 3];
    // The observed ratio is accumulated locally (not read back from the
    // process-wide counters) so concurrent sweeps in one process cannot
    // contaminate each other's reports; `obs_on` is latched once so a
    // mid-sweep toggle yields `None` semantics, not a partial count.
    let obs_on = perforad_obs::enabled();
    let mut obs_recomputed = 0u64;
    let [saves, loads, moves, recomputed_steps] = counters();
    // Spans per region, not per action: one over the streaming forward
    // pass (closed at the seed) and one per recomputed segment. Saves,
    // loads, takes and back steps are counted, not timed.
    let mut forward = Some(perforad_obs::span!(
        "ckpt.forward", "ckpt", "steps" => plan.steps() as u64
    ));
    // The memoized stream: batched gradients replay one plan shape per
    // shot, so the recursive construction is paid once per shape.
    for &act in plan.actions_cached().iter() {
        match act {
            CkptAction::Advance {
                from,
                to,
                recompute,
            } => {
                let _span = recompute.then(|| {
                    perforad_obs::span!(
                        "ckpt.recompute", "ckpt", "from" => from as u64, "to" => to as u64
                    )
                });
                for t in from..to {
                    step(&mut cursor, t);
                }
                if recompute {
                    recomputed += to - from;
                    if obs_on {
                        obs_recomputed += (to - from) as u64;
                        recomputed_steps.add((to - from) as u64);
                    }
                }
            }
            CkptAction::Save { t } => {
                store.save(t, &cursor)?;
                saves.inc();
                n_saves += 1;
                peak_live = peak_live.max(store.live());
            }
            CkptAction::Load { t } => {
                store.restore(t, &mut cursor)?;
                loads.inc();
                n_loads += 1;
            }
            CkptAction::Take { t } => {
                store.take(t, &mut cursor)?;
                moves.inc();
                n_moves += 1;
            }
            CkptAction::Seed => {
                drop(forward.take());
                seed(&cursor);
            }
            CkptAction::Back { t } => back(&mut cursor, t, t),
            CkptAction::BackOlder { t } => back(&mut cursor, t, t + 1),
        }
    }
    perforad_obs::gauge("ckpt.peak_snapshot_bytes").set_max(store.peak_bytes() as u64);
    let steps = plan.steps();
    Ok(CkptReport {
        steps,
        budget: plan.budget(),
        recomputed_steps: recomputed,
        peak_snapshots: peak_live,
        saves: n_saves,
        loads: n_loads,
        moves: n_moves,
        peak_snapshot_bytes: store.peak_bytes(),
        store: store.label(),
        recompute_ratio_observed: obs_on.then(|| {
            if steps == 0 {
                0.0
            } else {
                obs_recomputed as f64 / steps as f64
            }
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{DiskStore, MemStore};

    /// A toy nonlinear recurrence:
    /// x_{t+1} = x_t + dt·x_t², J = x_T, λ_t = λ_{t+1}(1 + 2·dt·x_t).
    fn step(x: &f64, _t: usize) -> f64 {
        x + 0.01 * x * x
    }

    fn store_all_reference(x0: f64, steps: usize) -> (f64, f64) {
        let mut traj = vec![x0];
        for t in 0..steps {
            traj.push(step(&traj[t], t));
        }
        let mut lambda = 1.0;
        for t in (0..steps).rev() {
            lambda *= 1.0 + 0.02 * traj[t];
        }
        (traj[steps], lambda)
    }

    fn run_with(
        store: &mut impl SnapshotStore<f64>,
        steps: usize,
        budget: usize,
    ) -> (f64, f64, CkptReport) {
        let plan = CheckpointPlan::with_budget(steps, budget);
        let (mut xt, mut lambda) = (f64::NAN, 1.0);
        let report = checkpointed_adjoint_plan(
            &plan,
            0.8f64,
            store,
            &mut |x, t| *x = step(x, t),
            &mut |x| xt = *x,
            &mut |x, t, at| {
                assert_eq!(at, t, "a one-level stream reverses from s_t");
                lambda *= 1.0 + 0.02 * *x
            },
        )
        .unwrap();
        (xt, lambda, report)
    }

    /// A two-level toy recurrence, leapfrog like the wave equation: the
    /// state is `(x_{t−1}, x_t)`, `x_{t+1} = 2x_t − x_{t−1} − h·sin x_t`,
    /// `J = x_T`, and reversing step `t` reads `x_t` alone:
    /// `μ_t += μ_{t+1}(2 − h·cos x_t)`, `μ_{t−1} −= μ_{t+1}`.
    fn leap(s: &(f64, f64)) -> (f64, f64) {
        (s.1, 2.0 * s.1 - s.0 - 0.05 * s.1.sin())
    }

    /// Back step `t` on the rolling window `[μ_{t+1}, μ_t, μ_{t−1}]`.
    fn leap_back(mu: &mut [f64; 3], x_t: f64) {
        mu[1] += mu[0] * (2.0 - 0.05 * x_t.cos());
        mu[2] -= mu[0];
        *mu = [mu[1], mu[2], 0.0];
    }

    /// `x_T` and the window `[μ_0, μ_{−1}, 0]` the store-all sweep ends
    /// with.
    fn leap_reference(steps: usize) -> (f64, [f64; 3]) {
        let mut traj = vec![(0.3f64, 0.5f64)];
        for t in 0..steps {
            traj.push(leap(&traj[t]));
        }
        let mut mu = [1.0, 0.0, 0.0];
        for t in (0..steps).rev() {
            leap_back(&mut mu, traj[t].1);
        }
        (traj[steps].1, mu)
    }

    fn leap_with(
        plan: &CheckpointPlan,
        store: &mut impl SnapshotStore<(f64, f64)>,
    ) -> (f64, [f64; 3], CkptReport) {
        let (mut xt, mut mu) = (f64::NAN, [1.0, 0.0, 0.0]);
        let report = checkpointed_adjoint_plan(
            plan,
            (0.3f64, 0.5f64),
            store,
            &mut |s, _t| *s = leap(s),
            &mut |s| xt = s.1,
            &mut |s, t, at| leap_back(&mut mu, if at == t { s.1 } else { s.0 }),
        )
        .unwrap();
        (xt, mu, report)
    }

    #[test]
    fn a_two_level_sweep_matches_store_all_bitwise_on_both_backends() {
        let _g = crate::store::disk_test_lock();
        let dir = std::env::temp_dir().join(format!("perforad_drv_two_{}", std::process::id()));
        for steps in 0usize..=40 {
            let (x_ref, mu_ref) = leap_reference(steps);
            for budget in 1usize..=9 {
                let plan = CheckpointPlan::two_level(steps, budget);
                let stats = plan.stats();
                for disk in [false, true] {
                    let (x, mu, rep) = match disk {
                        false => leap_with(&plan, &mut MemStore::new()),
                        true => leap_with(&plan, &mut DiskStore::new(&dir).unwrap()),
                    };
                    let what = format!("steps {steps} budget {budget} disk {disk}");
                    assert_eq!(x.to_bits(), x_ref.to_bits(), "{what}");
                    assert_eq!(mu.map(f64::to_bits), mu_ref.map(f64::to_bits), "{what}");
                    assert_eq!(rep.recomputed_steps, stats.recomputed_steps, "{what}");
                    assert_eq!(rep.peak_snapshots, stats.peak_snapshots, "{what}");
                    assert_eq!(
                        (rep.saves, rep.loads, rep.moves),
                        (stats.saves, stats.loads, stats.moves),
                        "{what}"
                    );
                }
            }
        }
        let left = std::fs::read_dir(&dir).map_or(0, |d| d.count());
        assert_eq!(left, 0, "spill files outlived their stores");
        let _ = std::fs::remove_dir_all(&dir);
        // Reading the wrong level is caught: the same plan with the newer
        // level read for every back changes the bits.
        let plan = CheckpointPlan::two_level(12, 3);
        let mut mu = [1.0, 0.0, 0.0];
        checkpointed_adjoint_plan(
            &plan,
            (0.3f64, 0.5f64),
            &mut MemStore::new(),
            &mut |s, _t| *s = leap(s),
            &mut |_| {},
            &mut |s, _t, _at| leap_back(&mut mu, s.1),
        )
        .unwrap();
        assert_ne!(mu.map(f64::to_bits), leap_reference(12).1.map(f64::to_bits));
    }

    #[test]
    fn matches_store_all_bitwise_across_budgets_and_backends() {
        let _g = crate::store::disk_test_lock();
        let dir = std::env::temp_dir().join(format!("perforad_drv_test_{}", std::process::id()));
        for steps in [0usize, 1, 2, 3, 7, 16, 33, 100] {
            let (x_ref, l_ref) = store_all_reference(0.8, steps);
            for budget in [1usize, 2, 3, 6, steps.max(1), steps + 5] {
                let (x, l, rep) = run_with(&mut MemStore::new(), steps, budget);
                assert_eq!(
                    x.to_bits(),
                    x_ref.to_bits(),
                    "steps {steps} budget {budget}"
                );
                assert_eq!(
                    l.to_bits(),
                    l_ref.to_bits(),
                    "steps {steps} budget {budget}"
                );
                assert!(rep.peak_snapshots <= rep.budget);
                assert_eq!(rep.store, "memory");

                let (x, l, rep) = run_with(&mut DiskStore::new(&dir).unwrap(), steps, budget);
                assert_eq!(x.to_bits(), x_ref.to_bits(), "disk steps {steps}");
                assert_eq!(l.to_bits(), l_ref.to_bits(), "disk steps {steps}");
                assert_eq!(rep.store, "disk");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_matches_the_plan_simulation() {
        for (steps, budget) in [(50usize, 4usize), (64, 8), (100, 1), (12, 20)] {
            let plan = CheckpointPlan::with_budget(steps, budget);
            let stats = plan.stats();
            let (_, _, rep) = run_with(&mut MemStore::new(), steps, budget);
            assert_eq!(rep.recomputed_steps, stats.recomputed_steps);
            assert_eq!(rep.peak_snapshots, stats.peak_snapshots);
            assert_eq!(
                (rep.saves, rep.loads, rep.moves),
                (stats.saves, stats.loads, stats.moves)
            );
            assert_eq!(rep.recompute_ratio(), stats.recompute_ratio(steps));
            // 8 bytes per f64 snapshot.
            assert_eq!(rep.peak_snapshot_bytes, 8 * stats.peak_snapshots);
        }
    }

    #[test]
    fn zero_steps_seeds_without_stepping_or_backing() {
        let plan = CheckpointPlan::with_budget(0, 3);
        let mut seeded = 0;
        let rep = checkpointed_adjoint_plan(
            &plan,
            1.5f64,
            &mut MemStore::new(),
            &mut |_, _| panic!("no steps to take"),
            &mut |x| {
                assert_eq!(*x, 1.5);
                seeded += 1;
            },
            &mut |_, _, _| panic!("no steps to reverse"),
        )
        .unwrap();
        assert_eq!(seeded, 1);
        assert_eq!(rep.recomputed_steps, 0);
        assert_eq!(rep.peak_snapshots, 0);
        assert_eq!(rep.recompute_ratio(), 0.0);
    }

    #[test]
    fn observed_recompute_ratio_pins_the_plan_prediction() {
        // Recording off: no observation, the field stays absent.
        perforad_obs::set_enabled(false);
        let (_, _, rep) = run_with(&mut MemStore::new(), 30, 3);
        assert_eq!(rep.recompute_ratio_observed, None);

        // Recording on: what the obs layer measured must equal both the
        // report's own counting and the plan's exact simulation.
        perforad_obs::set_enabled(true);
        // This thread's spans only: other tests may record beside it.
        drop(perforad_obs::span!("ckpt_test.marker", "test"));
        let events = perforad_obs::collect_events();
        let marker = events.iter().find(|e| e.name == "ckpt_test.marker");
        let tid = marker.expect("the marker span was recorded").tid;
        let shapes = [
            (50usize, 4usize),
            (64, 8),
            (100, 1),
            (33, 7),
            (0, 2),
            (24, 24),
        ];
        for (steps, budget) in shapes {
            let plan = CheckpointPlan::with_budget(steps, budget);
            let stats = plan.stats();
            let (_, _, rep) = run_with(&mut MemStore::new(), steps, budget);
            let observed = rep
                .recompute_ratio_observed
                .expect("recording was enabled for the whole sweep");
            assert_eq!(observed, stats.recompute_ratio(steps), "steps {steps}");
            assert_eq!(observed, rep.recompute_ratio(), "steps {steps}");
            // Spans per region: one over the forward pass, one per
            // recomputed segment, none per save, load, take or back step.
            let segments = plan.actions().into_iter().filter(|a| {
                matches!(
                    a,
                    CkptAction::Advance {
                        recompute: true,
                        ..
                    }
                )
            });
            let mut names: Vec<&str> = perforad_obs::collect_events()
                .into_iter()
                .filter(|e| e.tid == tid)
                .map(|e| e.name)
                .collect();
            names.sort_unstable();
            let mut want = vec!["ckpt.forward"];
            want.extend(segments.map(|_| "ckpt.recompute"));
            assert_eq!(names, want, "steps {steps}, budget {budget}");
        }
        perforad_obs::set_enabled(false);
        perforad_obs::clear_events();
    }

    #[test]
    fn budget_at_least_steps_never_recomputes() {
        let (_, _, rep) = run_with(&mut MemStore::new(), 40, 64);
        assert_eq!(rep.recomputed_steps, 0);
        assert_eq!(rep.budget, 40, "budget clamps to steps");
    }
}
