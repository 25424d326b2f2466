//! Loop-nest fusion: partition a nest list into barrier-separated groups
//! whose members are pairwise independent.
//!
//! The classic greedy "earliest legal partition" scheme: scanning nests in
//! program order, each nest joins the first group after the *last* group
//! containing a conflicting predecessor. Every group member pair is
//! conflict-free (a later group never holds a nest conflicting with an
//! earlier one, by construction), so one group = one race-free parallel
//! region; the barrier count drops from `#nests` to `#groups` — for a
//! disjoint adjoint decomposition (no conflicts at all), from `(2n−1)^d`
//! to exactly one.

use crate::graph::DepGraph;

/// Group the nests `0..graph.len()` into fusion groups. Groups execute in
/// order with a barrier between them; members of one group may run
/// concurrently.
pub fn fuse_groups(graph: &DepGraph) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = Vec::with_capacity(graph.len());
    for j in 0..graph.len() {
        // One past the last group holding a nest that conflicts with `j`.
        let earlier = graph.conflicting(j).take_while(|&k| k < j);
        let target = earlier.map(|k| group_of[k] + 1).max().unwrap_or(0);
        if target == groups.len() {
            groups.push(vec![j]);
        } else {
            groups[target].push(j);
        }
        group_of.push(target);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::dependence_graph;
    use perforad_core::{make_loop_nest, LoopNest};
    use perforad_symbolic::{ix, Array, Idx, Symbol};
    use std::collections::BTreeMap;

    fn writer(out: &str, lo: i64, hi: i64) -> LoopNest {
        let i = Symbol::new("i");
        let u = Array::new("u");
        make_loop_nest(
            &Array::new(out).at(ix![&i]),
            u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(lo), Idx::constant(hi))],
        )
        .unwrap()
    }

    #[test]
    fn independent_nests_fuse_into_one_group() {
        let nests = [writer("w", 0, 9), writer("w", 10, 19), writer("v", 0, 19)];
        let g = dependence_graph(&nests, &BTreeMap::new()).unwrap();
        let groups = fuse_groups(&g);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn conflicting_nests_split_at_a_barrier() {
        let nests = [writer("w", 0, 10), writer("w", 5, 15)];
        let g = dependence_graph(&nests, &BTreeMap::new()).unwrap();
        let groups = fuse_groups(&g);
        assert_eq!(groups, vec![vec![0], vec![1]]);
    }

    #[test]
    fn later_nest_rejoins_after_the_conflicting_group() {
        // 0 and 1 conflict; 2 is independent of both, so it joins the
        // first group instead of opening a third.
        let nests = [writer("w", 0, 10), writer("w", 5, 15), writer("v", 0, 9)];
        let g = dependence_graph(&nests, &BTreeMap::new()).unwrap();
        let groups = fuse_groups(&g);
        assert_eq!(groups, vec![vec![0, 2], vec![1]]);
    }

    #[test]
    fn chain_of_conflicts_stays_ordered() {
        let nests = [writer("w", 0, 10), writer("w", 5, 15), writer("w", 12, 20)];
        let g = dependence_graph(&nests, &BTreeMap::new()).unwrap();
        let groups = fuse_groups(&g);
        assert_eq!(groups, vec![vec![0], vec![1], vec![2]]);
        // Every pair within a group must be conflict-free.
        for grp in &groups {
            for (x, &a) in grp.iter().enumerate() {
                for &b in &grp[x + 1..] {
                    assert!(!g.conflicts(a, b));
                }
            }
        }
    }
}
