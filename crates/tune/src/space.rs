//! Enumeration of the adjoint schedule search space.
//!
//! One [`TunedConfig`] per point of
//! `Strategy × Lowering × TilePolicy × tile-size × fusion-on/off`, the
//! knobs PRs 1–2 exposed on `SchedOptions`/`run_schedule`. The space is
//! small (a few dozen points) by design: the analytic model prunes it to a
//! top-K set and only those get timed, so an exhaustive enumeration here
//! keeps the tuner simple without making it slow.

use perforad_exec::Lowering;
use perforad_sched::{default_tile, TilePolicy, TunedConfig, TunedStrategy};

/// Candidate tile-edge vectors for a given nest rank: the rank default
/// plus a smaller (boundary-friendly) and a larger (bandwidth-friendly)
/// blocking on either side.
pub fn tile_palette(rank: usize) -> Vec<Vec<i64>> {
    let mut palette = match rank {
        1 => vec![vec![1 << 12], vec![1 << 16]],
        2 => vec![vec![32, 256], vec![128, 1 << 11]],
        3 => vec![vec![8, 16, 256], vec![32, 64, 1 << 10]],
        _ => Vec::new(),
    };
    let dflt = default_tile(rank);
    if !palette.contains(&dflt) {
        palette.insert(0, dflt);
    }
    palette
}

/// Enumerate every candidate configuration for a rank-`rank` nest list on
/// a pool of `threads` workers. Serial candidates are included (tiny
/// problems lose more to a parallel-region barrier than they gain from
/// workers) but collapse the policy axis — tile order is policy-free with
/// one worker.
///
/// `jit` adds the JIT lowering as a second point on the lowering axis.
/// The tuner gates it on `perforad_jit::available()` so it never times
/// candidates that would silently fall back to rows.
///
/// [`Lowering::PerPoint`] is never offered: the interpreter is the
/// reference the property suites compare against, 3–8× slower than rows
/// in every measurement, so no tuned config should carry it into the
/// serving path. (A cached entry naming it still parses and runs.)
pub fn search_space(rank: usize, threads: usize, jit: bool) -> Vec<TunedConfig> {
    let lowerings: &[Lowering] = if jit {
        &[Lowering::Jit, Lowering::Rows]
    } else {
        &[Lowering::Rows]
    };
    let mut space = Vec::new();
    for tile in tile_palette(rank) {
        for &lowering in lowerings {
            for fuse in [true, false] {
                for policy in [TilePolicy::Dynamic, TilePolicy::Static] {
                    space.push(TunedConfig {
                        strategy: TunedStrategy::Parallel,
                        lowering,
                        policy,
                        tile: tile.clone(),
                        fuse,
                        threads: threads.max(1),
                        checkpoint: None,
                    });
                }
                space.push(TunedConfig {
                    strategy: TunedStrategy::Serial,
                    lowering,
                    policy: TilePolicy::Dynamic,
                    tile: tile.clone(),
                    fuse,
                    threads: 1,
                    checkpoint: None,
                });
            }
        }
    }
    space
}

/// The snapshot-count axis for checkpointed time loops: candidate
/// budgets for a `steps`-long sweep whose per-snapshot state occupies
/// `state_bytes`, on a machine willing to spend `mem_budget_bytes` on
/// live snapshots. Powers of two from 2 up to the memory ceiling, plus
/// the ceiling itself and — when it fits — `steps` (store-all). Budget 1
/// (quadratic recompute) joins only when nothing else fits, so the tuner
/// always has at least one candidate.
pub fn budget_palette(steps: usize, state_bytes: usize, mem_budget_bytes: usize) -> Vec<usize> {
    if steps == 0 {
        return vec![1];
    }
    let fit_cap = mem_budget_bytes
        .checked_div(state_bytes)
        .unwrap_or(steps)
        .min(steps);
    let mut palette = Vec::new();
    let mut b = 2usize;
    while b <= fit_cap {
        palette.push(b);
        b *= 2;
    }
    if fit_cap >= 2 && !palette.contains(&fit_cap) {
        palette.push(fit_cap);
    }
    if palette.is_empty() {
        // Even two snapshots blow the budget: recompute-from-start is
        // the only bounded-memory option left.
        palette.push(1);
    }
    palette
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn palette_always_contains_the_rank_default() {
        for rank in 1..=5 {
            assert!(
                tile_palette(rank).contains(&default_tile(rank)),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn space_covers_every_axis() {
        let space = search_space(3, 8, false);
        // 3 tiles × 1 lowering × 2 fuse × (2 parallel policies + serial).
        assert_eq!(space.len(), 3 * 2 * 3);
        assert!(space.iter().any(|c| c.strategy == TunedStrategy::Serial));
        assert!(space.iter().all(|c| c.lowering == Lowering::Rows));
        assert!(space.iter().any(|c| !c.fuse));
        assert!(space.iter().any(|c| c.policy == TilePolicy::Static));
        assert!(space
            .iter()
            .all(|c| (c.strategy == TunedStrategy::Serial) == (c.threads == 1)));
        // Every candidate's tile matches the rank.
        assert!(space.iter().all(|c| c.tile.len() == 3));
    }

    #[test]
    fn jit_axis_is_opt_in() {
        let base = search_space(2, 4, false);
        assert!(base.iter().all(|c| c.lowering != Lowering::Jit));
        let with_jit = search_space(2, 4, true);
        // One extra lowering point doubles the base space; the
        // interpreter is on neither.
        assert_eq!(with_jit.len(), base.len() * 2);
        assert!(with_jit.iter().any(|c| c.lowering == Lowering::Jit));
        assert!(with_jit.iter().all(|c| c.lowering != Lowering::PerPoint));
        // Jit candidates cover both strategies and every tile.
        assert!(with_jit
            .iter()
            .any(|c| c.lowering == Lowering::Jit && c.strategy == TunedStrategy::Serial));
    }

    #[test]
    fn budget_palette_respects_the_memory_ceiling() {
        // 1 KiB states, 10 KiB budget: at most 10 snapshots fit.
        let p = budget_palette(1000, 1 << 10, 10 << 10);
        assert_eq!(p, vec![2, 4, 8, 10]);
        // Roomy memory: the palette tops out at store-all.
        let p = budget_palette(24, 8, 1 << 30);
        assert!(p.contains(&24), "store-all must be a candidate: {p:?}");
        assert!(p.iter().all(|&b| b <= 24));
        // Nothing fits: budget 1 is the only bounded-memory option.
        assert_eq!(budget_palette(100, 1 << 20, 1 << 20), vec![1]);
        assert_eq!(budget_palette(0, 8, 1 << 20), vec![1]);
        // Monotone and duplicate-free.
        let p = budget_palette(4096, 1 << 20, 100 << 20);
        assert!(p.windows(2).all(|w| w[0] < w[1]), "{p:?}");
    }

    #[test]
    fn serial_candidates_do_not_duplicate_policies() {
        let space = search_space(1, 4, false);
        let serial: Vec<_> = space
            .iter()
            .filter(|c| c.strategy == TunedStrategy::Serial)
            .collect();
        assert!(serial
            .iter()
            .all(|c| c.policy == TilePolicy::Dynamic && c.threads == 1));
    }
}
