//! Dependence analysis over loop nests.
//!
//! A nest's read/write footprints are the disjoint-region metadata of
//! `perforad_core::regions` ([`access_boxes`]): the nest bounds translated
//! by every access offset, per array. Under integer size bindings they are
//! integer boxes, and two nests *conflict* when
//!
//! * both write the same array over overlapping boxes (a race), or
//! * one writes an array the other reads, overlapping or not — the
//!   executor refuses to alias a written array with a read one inside a
//!   single plan, so such nests cannot share a parallel region anyway.
//!
//! Conflicting nests must be separated by a barrier; independent nests may
//! fuse into one parallel pass.
//!
//! Footprints over-approximate (statement guards are ignored), so the
//! graph may report a false conflict — costing a barrier, never a race.
//!
//! An adjoint's nests are clones of a handful of terms, so the pass works
//! per term: a nest's box is resolved once and a footprint is an integer
//! translate of it, a right-hand side's reads are collected once per
//! distinct expression ([`NodeMemo`]), and over interned array ids only
//! same-array write/write pairs ever compare boxes — and of those only
//! the ones a sweep along the outermost dimension finds overlapping
//! there. The conflicts are one bit per ordered pair, set as they are
//! found: 262 KiB for the 1 457 nests of the radius-4 star, and a list
//! where most pairs conflict (every nest reading what every other
//! writes) costs no sort and no more memory than a conflict-free one.
//!
//! [`access_boxes`]: perforad_core::regions::access_boxes

use crate::error::SchedError;
use perforad_core::{access_boxes, LoopNest};
use perforad_symbolic::visit::{self, NodeMemo};
use perforad_symbolic::{Expr, Idx, Node, Symbol};
use std::collections::BTreeMap;

fn resolve(ix: &Idx, sizes: &BTreeMap<Symbol, i64>) -> Result<i64, SchedError> {
    ix.eval(sizes).ok_or_else(|| {
        let missing = ix
            .symbols()
            .find(|s| !sizes.contains_key(s))
            .map(|s| s.name().to_string())
            .unwrap_or_default();
        SchedError::UnboundSize(missing)
    })
}

/// The pairwise conflict relation over a list of nests: one bit per
/// ordered pair, so a conflict found twice needs no dedup.
#[derive(Clone, Debug)]
pub struct DepGraph {
    n: usize,
    /// Nest `a`'s row is `bits[a * words..][..words]`, bit `b` set when
    /// `a` and `b` conflict.
    bits: Vec<u64>,
}

impl DepGraph {
    /// `n` nests, no conflicts yet.
    fn new(n: usize) -> DepGraph {
        DepGraph {
            n,
            bits: vec![0; n * n.div_ceil(64)],
        }
    }

    fn row(&self, a: usize) -> &[u64] {
        let words = self.n.div_ceil(64);
        &self.bits[a * words..][..words]
    }

    /// Mark nests `a` and `b` (distinct) as conflicting.
    fn add(&mut self, a: usize, b: usize) {
        let words = self.n.div_ceil(64);
        self.bits[a * words + b / 64] |= 1 << (b % 64);
        self.bits[b * words + a / 64] |= 1 << (a % 64);
    }

    /// Number of nests.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The nests `a` may not run concurrently with, ascending.
    pub fn conflicting(&self, a: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(a).iter().enumerate().flat_map(|(w, &word)| {
            let mut left = word;
            std::iter::from_fn(move || {
                let bit = (left != 0).then(|| left.trailing_zeros() as usize)?;
                left &= left - 1;
                Some(w * 64 + bit)
            })
        })
    }

    /// True when nests `a` and `b` may not run concurrently.
    pub fn conflicts(&self, a: usize, b: usize) -> bool {
        (self.row(a)[b / 64] >> (b % 64)) & 1 == 1
    }

    /// Number of conflicting pairs.
    pub fn edge_count(&self) -> usize {
        self.bits
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            / 2
    }
}

/// Dense array ids, interned by name over one nest list.
type ArrayIds<'a> = BTreeMap<&'a str, usize>;

fn intern<'a>(ids: &mut ArrayIds<'a>, array: &'a Symbol) -> usize {
    let next = ids.len();
    *ids.entry(array.name()).or_insert(next)
}

/// The offsets of `indices` from `counters` into `out`; false unless
/// every index is its dimension's counter plus a constant.
fn offsets_into(indices: &[Idx], counters: &[Symbol], out: &mut Vec<i64>) -> bool {
    out.clear();
    let mut offsets = indices
        .iter()
        .zip(counters)
        .map(|(ix, c)| ix.is_offset_of(c));
    indices.len() == counters.len() && offsets.all(|o| o.map(|o| out.push(o)).is_some())
}

/// A write footprint: nest `nest` writes `array` over the box at
/// `boxes[at..at + 2 * rank]` (`rank` lower bounds, then `rank` upper).
struct Write {
    array: usize,
    nest: usize,
    at: usize,
    rank: usize,
}

/// Every nest's footprints under the size bindings, flat: its resolved
/// box translated by each distinct `(array, offset)` it writes, and the
/// arrays it reads (where a read lands never matters to the relation).
/// A nest whose box is empty touches nothing.
#[derive(Default)]
struct Footprints<'a> {
    writes: Vec<Write>,
    boxes: Vec<i64>,
    /// `(array, nest)`, one per array a nest reads.
    reads: Vec<(usize, usize)>,
    ids: ArrayIds<'a>,
    /// The arrays each distinct right-hand side reads, one run each.
    read_ids: Vec<usize>,
    offset: Vec<i64>,
}

impl<'a> Footprints<'a> {
    /// Add nest `k`'s footprints. `memo` holds, for each right-hand side
    /// met under this nest's counters, its run of `read_ids` if every
    /// access in it is stencil-shaped.
    fn add(
        &mut self,
        k: usize,
        nest: &'a LoopNest,
        sizes: &BTreeMap<Symbol, i64>,
        memo: &mut NodeMemo<'a, Option<(usize, usize)>>,
    ) -> Result<(), SchedError> {
        let (ids, read_ids, offset) = (&mut self.ids, &mut self.read_ids, &mut self.offset);
        // An access that is not `counter + constant`: the region metadata
        // meets it first too (same statement order, write before reads)
        // and words the refusal.
        let misshapen = || match access_boxes(nest) {
            Err(e) => SchedError::from(e),
            Ok(_) => unreachable!("access_boxes accepts what offsets_into refused"),
        };
        // A box has a dimension per counter that has a bound.
        let rank = nest.counters.len().min(nest.bounds.len());
        let (first_write, first_read) = (self.writes.len(), self.reads.len());
        let mut last: Option<(&Symbol, usize)> = None;
        for s in &nest.body {
            if !offsets_into(&s.lhs.indices, &nest.counters, offset) {
                return Err(misshapen());
            }
            // A nest's statements mostly write one array: ask the map once.
            let array = match last {
                Some((written, id)) if *written == s.lhs.array => id,
                _ => intern(ids, &s.lhs.array),
            };
            last = Some((&s.lhs.array, array));
            let woff = &offset[..rank];
            let mut written = self.writes[first_write..].iter();
            if !written.any(|w| w.array == array && self.boxes[w.at..w.at + rank] == *woff) {
                // The offset for now; the box once the bounds resolve.
                let at = self.boxes.len();
                self.boxes.extend_from_slice(woff);
                self.boxes.extend_from_slice(woff);
                let (nest, array) = (k, array);
                self.writes.push(Write {
                    array,
                    nest,
                    at,
                    rank,
                });
            }
            let run = *memo.get_or_insert_with(&s.rhs, || {
                let start = read_ids.len();
                let mut shaped = true;
                visit::for_each(&s.rhs, &mut |e: &'a Expr| {
                    if let Node::Access(a) = e.node() {
                        shaped &= offsets_into(&a.indices, &nest.counters, offset);
                        read_ids.push(intern(ids, &a.array));
                    }
                });
                shaped.then_some((start, read_ids.len()))
            });
            let (lo, hi) = run.ok_or_else(misshapen)?;
            for &array in &read_ids[lo..hi] {
                if !self.reads[first_read..].iter().any(|r| r.0 == array) {
                    self.reads.push((array, k));
                }
            }
        }
        if nest.body.is_empty() {
            return Ok(());
        }
        let mut empty = false;
        for (d, b) in nest.bounds.iter().take(rank).enumerate() {
            let (lo, hi) = (resolve(&b.lo, sizes)?, resolve(&b.hi, sizes)?);
            empty |= lo > hi;
            for w in &self.writes[first_write..] {
                self.boxes[w.at + d] += lo;
                self.boxes[w.at + rank + d] += hi;
            }
        }
        if empty {
            self.writes.truncate(first_write);
            self.reads.truncate(first_read);
        }
        Ok(())
    }
}

/// Build the dependence graph for `nests` under the given size bindings.
///
/// Write/write races only on overlapping boxes (the disjoint adjoint
/// decomposition must fuse): each array's write boxes are swept in order
/// of their outermost lower bound, so only boxes that overlap there are
/// compared. A write paired with a read of the same array conflicts even
/// when the boxes are disjoint: the executor refuses to alias a written
/// array with a read one within a single plan, so such nests must land in
/// separate groups.
pub fn dependence_graph(
    nests: &[LoopNest],
    sizes: &BTreeMap<Symbol, i64>,
) -> Result<DepGraph, SchedError> {
    let mut shared = NodeMemo::default();
    let mut fp = Footprints::default();
    for (k, nest) in nests.iter().enumerate() {
        // A verdict holds for the counters it was reached under: a nest
        // with other counters gets a memo of its own.
        let mut own = NodeMemo::default();
        let memo = match nest.counters == nests[0].counters {
            true => &mut shared,
            false => &mut own,
        };
        fp.add(k, nest, sizes, memo)?;
    }
    let mut graph = DepGraph::new(nests.len());

    // Every writer of an array against every reader of it.
    let mut writers: Vec<(usize, usize)> = fp.writes.iter().map(|w| (w.array, w.nest)).collect();
    writers.sort_unstable();
    writers.dedup();
    fp.reads.sort_unstable();
    for &(array, w) in &writers {
        let from = fp.reads.partition_point(|r| r.0 < array);
        let readers = fp.reads[from..].iter().take_while(|r| r.0 == array);
        for &(_, r) in readers.filter(|r| r.1 != w) {
            graph.add(w, r);
        }
    }

    // Write boxes of one array against each other, swept along the
    // outermost dimension: `active` holds the boxes met so far that still
    // reach the current lower bound there.
    let boxes = &fp.boxes;
    let outer = |w: &Write| match w.rank {
        0 => (i64::MIN, i64::MAX),
        r => (boxes[w.at], boxes[w.at + r]),
    };
    let overlap = |x: &Write, y: &Write| {
        let (xlo, xhi) = (&boxes[x.at..], &boxes[x.at + x.rank..]);
        let (ylo, yhi) = (&boxes[y.at..], &boxes[y.at + y.rank..]);
        (0..x.rank.min(y.rank)).all(|d| xlo[d] <= yhi[d] && ylo[d] <= xhi[d])
    };
    fp.writes.sort_unstable_by_key(|w| (w.array, outer(w).0));
    let mut active: Vec<&Write> = Vec::new();
    for run in fp.writes.chunk_by(|x, y| x.array == y.array) {
        active.clear();
        for w in run {
            let lo = outer(w).0;
            active.retain(|v| outer(v).1 >= lo);
            for v in active.iter().filter(|v| v.nest != w.nest && overlap(v, w)) {
                graph.add(v.nest, w.nest);
            }
            active.push(w);
        }
    }
    Ok(graph)
}

/// An inclusive integer box, outermost dimension first.
pub type IntBox = (Vec<i64>, Vec<i64>);

/// The points of `read` that no box of `cover` holds, as disjoint boxes:
/// each cover box in turn carves what is left into at most two slabs per
/// dimension. Empty when the cover holds all of `read`.
pub fn uncovered(read: &IntBox, cover: &[IntBox]) -> Vec<IntBox> {
    let rank = read.0.len();
    let empty = |(lo, hi): &IntBox| (0..rank).any(|d| lo[d] > hi[d]);
    let mut left: Vec<IntBox> = if empty(read) {
        Vec::new()
    } else {
        vec![read.clone()]
    };
    for (clo, chi) in cover.iter().filter(|b| !empty(b)) {
        let mut next = Vec::with_capacity(left.len());
        for (mut lo, mut hi) in left {
            if (0..rank).any(|d| chi[d] < lo[d] || hi[d] < clo[d]) {
                next.push((lo, hi));
                continue;
            }
            for d in 0..rank {
                if lo[d] < clo[d] {
                    let mut below = hi.clone();
                    below[d] = clo[d] - 1;
                    next.push((lo.clone(), below));
                    lo[d] = clo[d];
                }
                if hi[d] > chi[d] {
                    let mut above = lo.clone();
                    above[d] = chi[d] + 1;
                    next.push((above, hi.clone()));
                    hi[d] = chi[d];
                }
            }
            // What is left of the box lies inside the cover box.
        }
        left = next;
    }
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_core::{make_loop_nest, ActivityMap, AdjointOptions};
    use perforad_symbolic::{ix, Array, Idx};

    fn sizes(n: i64) -> BTreeMap<Symbol, i64> {
        let mut m = BTreeMap::new();
        m.insert(Symbol::new("n"), n);
        m
    }

    fn writer(lo: i64, hi: i64) -> LoopNest {
        let i = Symbol::new("i");
        let u = Array::new("u");
        make_loop_nest(
            &Array::new("w").at(ix![&i]),
            u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(lo), Idx::constant(hi))],
        )
        .unwrap()
    }

    #[test]
    fn overlapping_writers_conflict() {
        let g = dependence_graph(&[writer(0, 10), writer(5, 15)], &sizes(32)).unwrap();
        assert!(g.conflicts(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn disjoint_writers_do_not_conflict() {
        let g = dependence_graph(&[writer(0, 10), writer(11, 20)], &sizes(32)).unwrap();
        assert!(!g.conflicts(0, 1));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn read_write_overlap_conflicts() {
        // Nest 0 writes w over [0,10]; nest 1 reads w over [4,14].
        let i = Symbol::new("i");
        let w = Array::new("w");
        let reader = make_loop_nest(
            &Array::new("v").at(ix![&i]),
            w.at(ix![&i - 1]),
            vec![i.clone()],
            vec![(Idx::constant(5), Idx::constant(15))],
        )
        .unwrap();
        let g = dependence_graph(&[writer(0, 10), reader], &sizes(32)).unwrap();
        assert!(g.conflicts(0, 1));
    }

    #[test]
    fn disjoint_write_and_read_of_same_array_still_conflict() {
        // Nest 0 writes w over [0,10]; nest 1 reads w over [20,30] — no
        // overlap, but the plan compiler cannot host both in one region
        // (AliasedWrite), so the graph must split them.
        let i = Symbol::new("i");
        let w = Array::new("w");
        let reader = make_loop_nest(
            &Array::new("v").at(ix![&i]),
            w.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(20), Idx::constant(30))],
        )
        .unwrap();
        let g = dependence_graph(&[writer(0, 10), reader], &sizes(64)).unwrap();
        assert!(g.conflicts(0, 1));
    }

    #[test]
    fn shared_reads_do_not_conflict() {
        // Both nests read u over overlapping boxes but write disjoint arrays.
        let i = Symbol::new("i");
        let u = Array::new("u");
        let a = make_loop_nest(
            &Array::new("p").at(ix![&i]),
            u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::constant(20))],
        )
        .unwrap();
        let b = make_loop_nest(
            &Array::new("q").at(ix![&i]),
            u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::constant(20))],
        )
        .unwrap();
        let g = dependence_graph(&[a, b], &sizes(32)).unwrap();
        assert!(!g.conflicts(0, 1));
    }

    #[test]
    fn disjoint_adjoint_nests_are_conflict_free() {
        // The §3.2 adjoint: 5 nests, pairwise-disjoint write regions over
        // u_b, shared reads of c and r_b — conflict-free by construction.
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let (u, c) = (Array::new("u"), Array::new("c"));
        let nest = make_loop_nest(
            &Array::new("r").at(ix![&i]),
            c.at(ix![&i])
                * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1])),
            vec![i.clone()],
            vec![(Idx::constant(1), Idx::sym(n) - 1)],
        )
        .unwrap();
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        let adj = nest.adjoint(&act, &AdjointOptions::default()).unwrap();
        let g = dependence_graph(&adj.nests, &sizes(32)).unwrap();
        assert_eq!(g.len(), 5);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn unbound_size_is_reported() {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let u = Array::new("u");
        let nest = make_loop_nest(
            &Array::new("w").at(ix![&i]),
            u.at(ix![&i]),
            vec![i.clone()],
            vec![(Idx::constant(0), Idx::sym(n))],
        )
        .unwrap();
        let err = dependence_graph(std::slice::from_ref(&nest), &BTreeMap::new()).unwrap_err();
        assert_eq!(err, SchedError::UnboundSize("n".into()));
    }

    /// The definition this module's graph must agree with, pair for pair:
    /// every footprint of [`access_boxes`] resolved to an integer box of
    /// its own, every pair of boxes of every pair of nests compared by
    /// array *name* — how the graph was built before it worked per term.
    fn reference_graph(
        nests: &[LoopNest],
        sizes: &BTreeMap<Symbol, i64>,
    ) -> Result<DepGraph, SchedError> {
        struct ResolvedBox {
            array: Symbol,
            lo: Vec<i64>,
            hi: Vec<i64>,
            write: bool,
        }
        let overlaps = |x: &ResolvedBox, y: &ResolvedBox| {
            let (xs, ys) = (x.lo.iter().zip(&x.hi), y.lo.iter().zip(&y.hi));
            xs.zip(ys)
                .all(|((alo, ahi), (blo, bhi))| alo <= bhi && blo <= ahi)
        };
        let mut boxes: Vec<Vec<ResolvedBox>> = Vec::new();
        for nest in nests {
            let mut out = Vec::new();
            for b in access_boxes(nest)? {
                let mut lo = Vec::new();
                let mut hi = Vec::new();
                for d in &b.bounds {
                    lo.push(resolve(&d.lo, sizes)?);
                    hi.push(resolve(&d.hi, sizes)?);
                }
                if lo.iter().zip(&hi).all(|(l, h)| l <= h) {
                    out.push(ResolvedBox {
                        array: b.array,
                        lo,
                        hi,
                        write: b.write,
                    });
                }
            }
            boxes.push(out);
        }
        let n = nests.len();
        let mut graph = DepGraph::new(n);
        for a in 0..n {
            for b in a + 1..n {
                let conflict = boxes[a].iter().any(|x| {
                    boxes[b].iter().any(|y| {
                        x.array == y.array
                            && match (x.write, y.write) {
                                (true, true) => overlaps(x, y),
                                (false, false) => false,
                                _ => true,
                            }
                    })
                });
                if conflict {
                    graph.add(a, b);
                }
            }
        }
        Ok(graph)
    }

    fn assert_matches_reference(nests: &[LoopNest], sizes: &BTreeMap<Symbol, i64>, what: &str) {
        let got = dependence_graph(nests, sizes).expect(what);
        let want = reference_graph(nests, sizes).expect(what);
        for a in 0..nests.len() {
            for b in 0..nests.len() {
                assert_eq!(
                    got.conflicts(a, b),
                    want.conflicts(a, b),
                    "{what}: nests {a} and {b}\n{}\n{}",
                    nests[a],
                    nests[b]
                );
            }
        }
        assert_eq!(
            crate::fuse_groups(&got),
            crate::fuse_groups(&want),
            "{what}"
        );
    }

    /// xorshift64*, as `tests/common::Rng`.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// A random gather-or-scatter nest of the given rank over arrays
    /// `a0..a{pool}`: constant or `n`-relative bounds (sometimes empty),
    /// one to three statements, right-hand sides drawn from — and added
    /// to — `shared`, so lists repeat expression nodes the way adjoint
    /// decompositions do.
    fn random_nest(rng: &mut Rng, rank: usize, pool: i64, shared: &mut Vec<Expr>) -> LoopNest {
        let counters: Vec<Symbol> = ["i", "j", "k"][..rank]
            .iter()
            .map(|&c| Symbol::new(c))
            .collect();
        let at = |rng: &mut Rng, spread: i64| -> Vec<Idx> {
            counters
                .iter()
                .map(|c| Idx::sym(c.clone()) + rng.range(-spread, spread))
                .collect()
        };
        let array = |rng: &mut Rng| Array::new(format!("a{}", rng.range(0, pool - 1)));
        let bounds = (0..rank)
            .map(|_| {
                let lo = rng.range(0, 12);
                let hi = match rng.range(0, 9) {
                    0 => Idx::constant(lo - 1 - rng.range(0, 2)),
                    1..=3 => Idx::sym(Symbol::new("n")) - rng.range(1, 12),
                    _ => Idx::constant(lo + rng.range(0, 8)),
                };
                perforad_core::Bound::new(lo, hi)
            })
            .collect();
        let body = (0..rng.range(1, 3))
            .map(|_| {
                let rhs = if !shared.is_empty() && rng.range(0, 2) > 0 {
                    shared[rng.range(0, shared.len() as i64 - 1) as usize].clone()
                } else {
                    let mut e = array(rng).at(at(rng, 2));
                    for _ in 0..rng.range(0, 2) {
                        e = e + 0.5 * array(rng).at(at(rng, 2));
                    }
                    shared.push(e.clone());
                    e
                };
                // Mostly gather writes; a scatter offset now and then.
                let spread = (rng.range(0, 3) == 0) as i64;
                let lhs =
                    perforad_symbolic::Access::new(array(rng).name().clone(), at(rng, spread));
                perforad_core::Statement::add_assign(lhs, rhs)
            })
            .collect();
        LoopNest::new(counters, bounds, body)
    }

    #[test]
    fn random_nest_lists_match_the_pairwise_reference() {
        let mut rng = Rng(0x51ED_2020);
        let (mut conflicts, mut free, mut widest) = (0, 0, 0);
        for case in 0..400 {
            // Few arrays: every kind of conflict. Many: more than one
            // machine word of distinct ids in a list.
            let pool = [3, 6, 200][case % 3];
            let rank = rng.range(1, 3) as usize;
            let mixed = case % 10 == 9;
            let mut shared: Vec<Vec<Expr>> = vec![Vec::new(); 4];
            let nests: Vec<LoopNest> = (0..rng.range(2, if pool == 200 { 40 } else { 12 }))
                .map(|_| {
                    let rank = if mixed {
                        rng.range(1, 3) as usize
                    } else {
                        rank
                    };
                    random_nest(&mut rng, rank, pool, &mut shared[rank])
                })
                .collect();
            let sizes = sizes(rng.range(10, 30));
            assert_matches_reference(&nests, &sizes, &format!("case {case}"));
            let g = dependence_graph(&nests, &sizes).unwrap();
            conflicts += g.edge_count();
            free += nests.len() * (nests.len() - 1) / 2 - g.edge_count();
            let names: std::collections::BTreeSet<Symbol> = nests
                .iter()
                .flat_map(|n| n.outputs().into_iter().chain(n.inputs()))
                .collect();
            widest = widest.max(names.len());
        }
        // The generator reaches both answers, often, and wide lists.
        assert!(conflicts > 1000 && free > 1000, "{conflicts} vs {free}");
        assert!(widest > 64, "{widest} distinct arrays at most");
    }

    /// `r(c) = c(c) * Σ_d (u(c - e_d) + 2 u(c + e_d)) - 3 u(c)`, the star
    /// stencil of the given rank over `[1, n-2]^rank`.
    fn star(rank: usize) -> LoopNest {
        let counters: Vec<Symbol> = ["i", "j", "k"][..rank]
            .iter()
            .map(|&c| Symbol::new(c))
            .collect();
        let at = |d: usize, o: i64| -> Vec<Idx> {
            counters
                .iter()
                .enumerate()
                .map(|(k, c)| Idx::sym(c.clone()) + if k == d { o } else { 0 })
                .collect()
        };
        let (u, c) = (Array::new("u"), Array::new("c"));
        let mut sum = -3.0 * u.at(at(0, 0));
        for d in 0..rank {
            sum = sum + u.at(at(d, -1)) + 2.0 * u.at(at(d, 1));
        }
        make_loop_nest(
            &Array::new("r").at(at(0, 0)),
            c.at(at(0, 0)) * sum,
            counters.clone(),
            vec![(Idx::constant(1), Idx::sym(Symbol::new("n")) - 2); rank],
        )
        .unwrap()
    }

    #[test]
    fn star_adjoints_of_every_strategy_match_the_pairwise_reference() {
        use perforad_core::BoundaryStrategy::{Disjoint, Guarded, Padded};
        // `c` active too: more than one written array per nest.
        let act = ["u", "r", "c"]
            .into_iter()
            .fold(ActivityMap::new(), ActivityMap::with_suffixed);
        for rank in 1..=3 {
            for strategy in [Disjoint, Guarded, Padded] {
                for merged in [false, true] {
                    let mut opts = AdjointOptions::default().with_strategy(strategy);
                    if merged {
                        opts = opts.merged();
                    }
                    let adj = star(rank).adjoint(&act, &opts).unwrap();
                    let what = format!("rank {rank} {strategy:?} merged={merged}");
                    assert_matches_reference(&adj.nests, &sizes(16), &what);
                    // The primal reads what the adjoint's nests do and
                    // writes what they read: conflicts with every one.
                    let mut with_primal = adj.nests.to_vec();
                    with_primal.push(star(rank));
                    assert_matches_reference(&with_primal, &sizes(16), &what);
                }
            }
        }
    }

    /// Random box sets over a few shared arrays in a small domain, so that
    /// boxes overlap, touch at an edge, miss by one or are empty: the
    /// sweep finds exactly the pairs the reference does. Lists run past
    /// 64 and 128 nests, so rows of the bit matrix span words.
    #[test]
    fn swept_boxes_match_the_pairwise_reference() {
        let mut rng = Rng(0xB0C5_5EE9);
        let (mut conflicts, mut touching) = (0, 0);
        for case in 0..300 {
            let rank = rng.range(1, 3) as usize;
            let counters: Vec<Symbol> = ["i", "j", "k"][..rank]
                .iter()
                .map(|&c| Symbol::new(c))
                .collect();
            let arrays = rng.range(1, 4);
            let nests: Vec<LoopNest> = (0..rng.range(2, 150))
                .map(|_| {
                    let bounds = (0..rank)
                        .map(|_| {
                            let lo = rng.range(0, 6);
                            // Now and then empty; often a single plane.
                            let hi = lo + rng.range(-1, 3);
                            perforad_core::Bound::new(lo, hi)
                        })
                        .collect();
                    let at = counters.iter().map(|c| Idx::sym(c.clone()));
                    let lhs = perforad_symbolic::Access::new(
                        format!("w{}", rng.range(0, arrays - 1)),
                        at.collect(),
                    );
                    let rhs = Array::new(format!("u{}", rng.range(0, 2)))
                        .at(counters.iter().map(|c| Idx::sym(c.clone())).collect());
                    let body = vec![perforad_core::Statement::add_assign(lhs, rhs)];
                    LoopNest::new(counters.clone(), bounds, body)
                })
                .collect();
            assert_matches_reference(&nests, &sizes(8), &format!("case {case}"));
            let g = dependence_graph(&nests, &sizes(8)).unwrap();
            conflicts += g.edge_count();
            // Pairs of one array whose boxes share exactly a face.
            let lo_hi = |n: &LoopNest, d: usize| {
                let b = &n.bounds[d];
                (b.lo.offset(), b.hi.offset())
            };
            for a in 0..nests.len() {
                for b in a + 1..nests.len() {
                    let same = nests[a].body[0].lhs.array == nests[b].body[0].lhs.array;
                    let faces = (0..rank).filter(|&d| {
                        let ((al, ah), (bl, bh)) = (lo_hi(&nests[a], d), lo_hi(&nests[b], d));
                        al <= ah && bl <= bh && (ah == bl || bh == al)
                    });
                    touching += (same && faces.count() > 0 && g.conflicts(a, b)) as usize;
                }
            }
        }
        assert!(conflicts > 2000 && touching > 200, "{conflicts} {touching}");
    }

    /// The radius-`r` 3-D star over `[r, n-r-1]^3`: `c` times `u` at every
    /// offset `±1 ..= ±r` along each axis, minus the centre.
    fn radius_star(r: i64) -> LoopNest {
        let counters: Vec<Symbol> = ["i", "j", "k"].iter().map(|&c| Symbol::new(c)).collect();
        let at = |d: usize, o: i64| -> Vec<Idx> {
            let at = counters.iter().enumerate();
            at.map(|(k, c)| Idx::sym(c.clone()) + if k == d { o } else { 0 })
                .collect()
        };
        let (u, c) = (Array::new("u"), Array::new("c"));
        let mut sum = -1.25 * u.at(at(0, 0));
        for d in 0..3 {
            for o in 1..=r {
                sum = sum + 0.5 * u.at(at(d, -o)) + 0.75 * u.at(at(d, o));
            }
        }
        make_loop_nest(
            &Array::new("r").at(at(0, 0)),
            c.at(at(0, 0)) * sum,
            counters.clone(),
            vec![(Idx::constant(r), Idx::sym(Symbol::new("n")) - (r + 1)); 3],
        )
        .unwrap()
    }

    /// The swept graph of the radius-1 … 4 star adjoints is the pairwise
    /// reference's: conflict-free lists of 53 to 1 457 nests.
    #[test]
    fn radius_star_adjoints_match_the_pairwise_reference() {
        let act = ActivityMap::new().with_suffixed("u").with_suffixed("r");
        for (r, nests) in [(1, 53), (2, 249), (3, 685), (4, 1457)] {
            let adj = radius_star(r)
                .adjoint(&act, &AdjointOptions::default())
                .unwrap();
            assert_eq!(adj.nest_count(), nests, "r = {r}");
            assert_matches_reference(&adj.nests, &sizes(32), &format!("r = {r}"));
            assert_eq!(
                dependence_graph(&adj.nests, &sizes(32))
                    .unwrap()
                    .edge_count(),
                0
            );
        }
    }

    /// Refusals, variant and message, against the reference — including
    /// which of two comes first.
    #[test]
    fn refusals_match_the_pairwise_reference() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let good = writer(0, 10);
        let mut scaled_write = writer(0, 10);
        scaled_write.body[0].lhs.indices = [Idx::scaled(i.clone(), 2)].into();
        let mut short_write = writer(0, 10);
        short_write.body[0].lhs.indices = [].into();
        let mut scaled_read = writer(0, 10);
        scaled_read.body[0].rhs = u.at(ix![&i + 1]) + u.at(vec![Idx::scaled(i.clone(), 2)]);
        let mut deep_read = writer(0, 10);
        deep_read.body[0].rhs = u.at(ix![&i, &i]);
        let mut unbound = writer(0, 10);
        unbound.bounds[0].hi = Idx::sym(Symbol::new("m"));
        // A bad read behind a good statement, sharing the good
        // statement's right-hand side with an earlier nest.
        let mut second_stmt = good.clone();
        second_stmt.body.push(scaled_read.body[0].clone());
        // No statement, no footprint: its unbound size is never looked at.
        let mut hollow = unbound.clone();
        hollow.body.clear();
        assert!(dependence_graph(std::slice::from_ref(&hollow), &sizes(8)).is_ok());

        let lists = [
            vec![good.clone(), scaled_write.clone()],
            vec![short_write],
            vec![good.clone(), scaled_read.clone()],
            vec![deep_read],
            vec![good.clone(), second_stmt],
            vec![unbound.clone(), scaled_write.clone()],
            vec![scaled_read, unbound.clone()],
            vec![hollow, good, unbound],
        ];
        let mut seen = Vec::new();
        for nests in &lists {
            let got = dependence_graph(nests, &sizes(8)).unwrap_err();
            let want = reference_graph(nests, &sizes(8)).unwrap_err();
            assert_eq!(got, want);
            assert_eq!(got.to_string(), want.to_string());
            seen.push(got);
        }
        use perforad_core::CoreError::{BadReadIndex, BadWriteIndex};
        assert!(matches!(&seen[0], SchedError::Core(BadWriteIndex { .. })));
        assert!(matches!(&seen[2], SchedError::Core(BadReadIndex { .. })));
        assert_eq!(seen[5], SchedError::UnboundSize("m".into()));
        assert!(matches!(&seen[6], SchedError::Core(BadReadIndex { .. })));
    }

    /// Every point of `b`, innermost dimension fastest.
    fn points(b: &IntBox) -> Vec<Vec<i64>> {
        let mut out = vec![Vec::new()];
        for d in 0..b.0.len() {
            out = out
                .into_iter()
                .flat_map(|p| {
                    (b.0[d]..=b.1[d]).map(move |k| {
                        let mut q = p.clone();
                        q.push(k);
                        q
                    })
                })
                .collect();
        }
        out
    }

    #[test]
    fn uncovered_is_the_read_box_minus_the_assigned_boxes() {
        let cube = |lo: i64, hi: i64| (vec![lo; 3], vec![hi; 3]);
        // An interior read box the assigned box covers: nothing left to zero.
        assert!(uncovered(&cube(1, 14), &[cube(1, 14)]).is_empty());
        assert!(uncovered(&cube(1, 14), &[cube(0, 15)]).is_empty());
        // One plane short: a one-plane slab.
        let short = (vec![1, 1, 1], vec![13, 14, 14]);
        assert_eq!(
            uncovered(&cube(1, 14), &[short]),
            [(vec![14, 1, 1], vec![14, 14, 14])]
        );
        // Covered by pieces, a hole left: exactly the hole, disjointly.
        let read = (vec![0, 0], vec![5, 6]);
        let cover = [
            (vec![0, 0], vec![5, 2]),
            (vec![0, 4], vec![5, 6]),
            (vec![0, 3], vec![2, 3]),
            (vec![9, 9], vec![8, 9]),
        ];
        let left = uncovered(&read, &cover);
        let mut got: Vec<Vec<i64>> = left.iter().flat_map(points).collect();
        got.sort();
        assert_eq!(got, [vec![3, 3], vec![4, 3], vec![5, 3]]);
        // Nothing covered, or nothing read.
        assert_eq!(uncovered(&read, &[]), vec![read]);
        assert!(uncovered(&(vec![3], vec![2]), &[]).is_empty());
    }
}
