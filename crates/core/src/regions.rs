//! Iteration-space decomposition for adjoint stencil loops (§3.3.3–§3.3.4).
//!
//! After shifting, the derivative statement with primal access offset `o` is
//! valid on the translated box `Π_d [lo_d + o_d, hi_d + o_d]`. This module
//! splits the union of those boxes into *disjoint* regions such that each
//! region executes exactly the statements valid everywhere inside it — the
//! paper's splitting strategy, which needs no synchronisation between the
//! generated loop nests because every output index is touched by one nest
//! only.
//!
//! The split is hierarchical: in the outermost dimension the distinct
//! offsets `o⁽¹⁾ < … < o⁽ᵐ⁾` of the currently-valid statements induce
//! `2m−1` segments (m−1 left remainders, the core, m−1 right remainders);
//! each segment recurses into the next dimension with the statement subset
//! valid there. For dense stencils with `n` points per dimension this yields
//! the paper's `(2n−1)^d` bound; for star stencils far fewer (53 nests for
//! the 3-D 7-point stencil, 5 for the 1-D 3-point stencil of §3.2).

use crate::error::CoreError;
use crate::nest::{Bound, LoopNest};
use crate::validate::access_offsets;
use perforad_symbolic::{visit, Symbol};
use std::collections::BTreeSet;
use std::ops::Range;

/// One region of the decomposed adjoint iteration space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Per-dimension inclusive bounds.
    pub bounds: Vec<Bound>,
    /// Indices (into the caller's term list) of the statements valid here.
    pub terms: Vec<usize>,
    /// True for the unique region on which *every* statement is valid.
    pub is_core: bool,
}

/// One memory footprint of a loop nest: the symbolic box an array is read
/// or written over, i.e. the nest bounds translated by the access offset.
///
/// This is the region metadata an execution scheduler needs to prove two
/// nests independent (read-set/write-set overlap tests): statement guards
/// are ignored, so the boxes *over-approximate* the true footprint — safe
/// for dependence checking, never unsound.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AccessBox {
    /// The array touched.
    pub array: Symbol,
    /// Per-dimension inclusive symbolic bounds of the touched box.
    pub bounds: Vec<Bound>,
    /// True for a write footprint, false for a read.
    pub write: bool,
}

/// The read and write footprints of a nest, one box per distinct
/// `(array, offset, is_write)` triple.
///
/// Requires stencil-shaped accesses (constant offsets of the counters) —
/// the same restriction the §3.4 validation imposes — and supports both
/// gather and scatter nests.
pub fn access_boxes(nest: &LoopNest) -> Result<Vec<AccessBox>, CoreError> {
    let mut seen: BTreeSet<(Symbol, Vec<i64>, bool)> = BTreeSet::new();
    let mut out = Vec::new();
    let mut push = |array: &Symbol, offset: &[i64], write: bool, out: &mut Vec<AccessBox>| {
        if seen.insert((array.clone(), offset.to_vec(), write)) {
            let bounds = nest
                .bounds
                .iter()
                .zip(offset)
                .map(|(b, &o)| b.shift(o))
                .collect();
            out.push(AccessBox {
                array: array.clone(),
                bounds,
                write,
            });
        }
    };
    for s in &nest.body {
        let mut woff = Vec::with_capacity(nest.counters.len());
        if s.lhs.indices.len() != nest.counters.len() {
            return Err(CoreError::BadWriteIndex {
                array: s.lhs.array.name().to_string(),
                detail: format!(
                    "{} indices for a {}-deep nest",
                    s.lhs.indices.len(),
                    nest.counters.len()
                ),
            });
        }
        for (ix, c) in s.lhs.indices.iter().zip(&nest.counters) {
            match ix.is_offset_of(c) {
                Some(o) => woff.push(o),
                None => {
                    return Err(CoreError::BadWriteIndex {
                        array: s.lhs.array.name().to_string(),
                        detail: format!("index `{ix}` is not counter + constant"),
                    })
                }
            }
        }
        push(&s.lhs.array, &woff, true, &mut out);
        for a in visit::accesses(&s.rhs) {
            let off = access_offsets(nest, &a)?;
            push(&a.array, &off, false, &mut out);
        }
    }
    Ok(out)
}

/// The core loop bounds: `[lo_d + max_t o_d(t), hi_d + min_t o_d(t)]`.
pub fn core_bounds(primal: &[Bound], offsets: &[Vec<i64>]) -> Vec<Bound> {
    primal
        .iter()
        .enumerate()
        .map(|(d, b)| {
            let max = offsets.iter().map(|o| o[d]).max().unwrap_or(0);
            let min = offsets.iter().map(|o| o[d]).min().unwrap_or(0);
            Bound {
                lo: b.lo.shift(max),
                hi: b.hi.shift(min),
            }
        })
        .collect()
}

/// The full adjoint iteration space: union of all shifted boxes,
/// `[lo_d + min_t o_d(t), hi_d + max_t o_d(t)]` per dimension.
pub fn full_bounds(primal: &[Bound], offsets: &[Vec<i64>]) -> Vec<Bound> {
    primal
        .iter()
        .enumerate()
        .map(|(d, b)| {
            let max = offsets.iter().map(|o| o[d]).max().unwrap_or(0);
            let min = offsets.iter().map(|o| o[d]).min().unwrap_or(0);
            Bound {
                lo: b.lo.shift(min),
                hi: b.hi.shift(max),
            }
        })
        .collect()
}

/// Per-dimension offset spread `max_t o_d(t) − min_t o_d(t)`.
///
/// The decomposition's regions are disjoint only when each primal extent is
/// at least this large ("n sufficiently large" in §3.2); executors check the
/// condition at bind time.
pub fn required_extent(offsets: &[Vec<i64>], rank: usize) -> Vec<i64> {
    (0..rank)
        .map(|d| {
            let max = offsets.iter().map(|o| o[d]).max().unwrap_or(0);
            let min = offsets.iter().map(|o| o[d]).min().unwrap_or(0);
            max - min
        })
        .collect()
}

/// Recursively split the adjoint iteration space into disjoint regions.
///
/// `offsets[t]` is the primal access offset vector of statement `t`; the
/// shifted statement `t` is valid on `Π_d [lo_d + o_d(t), hi_d + o_d(t)]`.
pub fn split_disjoint(primal: &[Bound], offsets: &[Vec<i64>]) -> Vec<Region> {
    if offsets.is_empty() {
        return Vec::new();
    }
    let mut split = Splitter {
        primal,
        offsets,
        prefix: Vec::with_capacity(primal.len()),
        terms: (0..offsets.len()).collect(),
        offs: Vec::new(),
        out: Vec::new(),
    };
    split.rec(0, 0..offsets.len(), true);
    split.out
}

/// The walk of [`split_disjoint`]. Its buffers are stacks: a level pushes
/// its segment onto `prefix`, its distinct offsets onto `offs` and each
/// segment's statement subset onto `terms`, and pops them when done, so
/// a region's bounds and terms are the only lists it allocates.
struct Splitter<'a> {
    primal: &'a [Bound],
    offsets: &'a [Vec<i64>],
    prefix: Vec<Bound>,
    terms: Vec<usize>,
    offs: Vec<i64>,
    out: Vec<Region>,
}

impl Splitter<'_> {
    /// Split dimension `d` for the statements `terms[active]`.
    fn rec(&mut self, d: usize, active: Range<usize>, core_path: bool) {
        if d == self.primal.len() {
            self.out.push(Region {
                bounds: self.prefix.clone(),
                terms: self.terms[active].to_vec(),
                is_core: core_path,
            });
            return;
        }
        let base = self.offs.len();
        for k in active.clone() {
            self.offs.push(self.offsets[self.terms[k]][d]);
        }
        self.offs[base..].sort_unstable();
        let mut m = 1;
        for k in base + 1..self.offs.len() {
            if self.offs[k] != self.offs[base + m - 1] {
                self.offs[base + m] = self.offs[k];
                m += 1;
            }
        }
        self.offs.truncate(base + m);
        let os = |s: &Self, k: usize| s.offs[base + k];
        let (lo, hi) = (&self.primal[d].lo, &self.primal[d].hi);

        // Left remainders: [lo+o_k, lo+o_{k+1} - 1] admits offsets <= o_k.
        for k in 0..m - 1 {
            let (ok, next) = (os(self, k), os(self, k + 1));
            let seg = Bound {
                lo: lo.shift(ok),
                hi: lo.shift(next - 1),
            };
            self.subset(d, seg, active.clone(), |o| o <= ok);
        }

        // Core segment: [lo + o_max, hi + o_min] admits every active statement.
        self.prefix.push(Bound {
            lo: lo.shift(os(self, m - 1)),
            hi: hi.shift(os(self, 0)),
        });
        self.rec(d + 1, active.clone(), core_path);
        self.prefix.pop();

        // Right remainders: [hi+o_k + 1, hi+o_{k+1}] admits offsets >= o_{k+1}.
        for k in 0..m - 1 {
            let (ok, next) = (os(self, k), os(self, k + 1));
            let seg = Bound {
                lo: hi.shift(ok + 1),
                hi: hi.shift(next),
            };
            self.subset(d, seg, active.clone(), |o| o >= next);
        }
        self.offs.truncate(base);
    }

    /// Recurse into segment `seg` of dimension `d` with the statements of
    /// `terms[active]` whose offset there `keep` admits.
    fn subset(&mut self, d: usize, seg: Bound, active: Range<usize>, keep: impl Fn(i64) -> bool) {
        let start = self.terms.len();
        for k in active {
            let t = self.terms[k];
            if keep(self.offsets[t][d]) {
                self.terms.push(t);
            }
        }
        self.prefix.push(seg);
        self.rec(d + 1, start..self.terms.len(), false);
        self.prefix.pop();
        self.terms.truncate(start);
    }
}

/// Slab decomposition for the *guarded* strategy: one remainder slab per
/// side per dimension (statements carry guards), plus the unguarded core.
///
/// Returns `(core, slabs)`; every slab region lists all statements.
pub fn split_guarded(primal: &[Bound], offsets: &[Vec<i64>]) -> (Region, Vec<Region>) {
    let rank = primal.len();
    let core = Region {
        bounds: core_bounds(primal, offsets),
        terms: (0..offsets.len()).collect(),
        is_core: true,
    };
    let full = full_bounds(primal, offsets);
    let corebs = core_bounds(primal, offsets);
    let mut slabs = Vec::new();
    for d in 0..rank {
        let min = offsets.iter().map(|o| o[d]).min().unwrap_or(0);
        let max = offsets.iter().map(|o| o[d]).max().unwrap_or(0);
        if min == max {
            continue; // no remainder in this dimension
        }
        // dims < d: core range; dim d: lower/upper remainder; dims > d: full.
        let mut lower = Vec::with_capacity(rank);
        let mut upper = Vec::with_capacity(rank);
        for k in 0..rank {
            if k < d {
                lower.push(corebs[k].clone());
                upper.push(corebs[k].clone());
            } else if k > d {
                lower.push(full[k].clone());
                upper.push(full[k].clone());
            } else {
                lower.push(Bound {
                    lo: primal[d].lo.shift(min),
                    hi: primal[d].lo.shift(max - 1),
                });
                upper.push(Bound {
                    lo: primal[d].hi.shift(min + 1),
                    hi: primal[d].hi.shift(max),
                });
            }
        }
        slabs.push(Region {
            bounds: lower,
            terms: (0..offsets.len()).collect(),
            is_core: false,
        });
        slabs.push(Region {
            bounds: upper,
            terms: (0..offsets.len()).collect(),
            is_core: false,
        });
    }
    (core, slabs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use perforad_symbolic::{Idx, Symbol};

    fn bounds1d() -> Vec<Bound> {
        let n = Symbol::new("n");
        vec![Bound::new(1, Idx::sym(n) - 1)]
    }

    fn star(rank: usize) -> Vec<Vec<i64>> {
        // centre + ±1 along each axis
        let mut v = vec![vec![0; rank]];
        for d in 0..rank {
            for s in [-1i64, 1] {
                let mut o = vec![0; rank];
                o[d] = s;
                v.push(o);
            }
        }
        v
    }

    fn dense(rank: usize) -> Vec<Vec<i64>> {
        let mut v = vec![vec![]];
        for _ in 0..rank {
            let mut next = Vec::new();
            for p in &v {
                for s in [-1i64, 0, 1] {
                    let mut q = p.clone();
                    q.push(s);
                    next.push(q);
                }
            }
            v = next;
        }
        v
    }

    #[test]
    fn one_d_three_point_gives_five_loops() {
        // §3.2: the 1-D three-point stencil yields 5 adjoint loops.
        let regions = split_disjoint(&bounds1d(), &dense(1));
        assert_eq!(regions.len(), 5);
        assert_eq!(regions.iter().filter(|r| r.is_core).count(), 1);
    }

    #[test]
    fn paper_loop_nest_counts() {
        // §3.3.4: 25 for dense 3×3 (2-D), 125 for dense 3×3×3 (3-D),
        // 53 for the 3-D 7-point star.
        let b2: Vec<Bound> = vec![bounds1d()[0].clone(), bounds1d()[0].clone()];
        let b3: Vec<Bound> = vec![
            bounds1d()[0].clone(),
            bounds1d()[0].clone(),
            bounds1d()[0].clone(),
        ];
        assert_eq!(split_disjoint(&b2, &dense(2)).len(), 25);
        assert_eq!(split_disjoint(&b3, &dense(3)).len(), 125);
        assert_eq!(split_disjoint(&b3, &star(3)).len(), 53);
    }

    #[test]
    fn two_d_five_point_star_matches_figure_3() {
        // Fig. 3 shows the 2-D 5-point decomposition: 17 loop nests
        // (the 3×3 block grid with empty corners, edges merged per column).
        let b2: Vec<Bound> = vec![bounds1d()[0].clone(), bounds1d()[0].clone()];
        let regions = split_disjoint(&b2, &star(2));
        assert_eq!(regions.len(), 17);
    }

    #[test]
    fn one_d_example_bounds_match_paper() {
        // §3.2 expects: j=0 (one stmt), j=1 (two), core [2, n-2] (three),
        // j=n-1 (two), j=n (one), for primal i ∈ [1, n-1], offsets -1,0,1.
        let regions = split_disjoint(&bounds1d(), &dense(1));
        let display: Vec<(String, usize, bool)> = regions
            .iter()
            .map(|r| (format!("{}", r.bounds[0]), r.terms.len(), r.is_core))
            .collect();
        assert_eq!(
            display,
            vec![
                ("[0, 0]".to_string(), 1, false),
                ("[1, 1]".to_string(), 2, false),
                ("[2, n - 2]".to_string(), 3, true),
                ("[n - 1, n - 1]".to_string(), 2, false),
                ("[n, n]".to_string(), 1, false),
            ]
        );
    }

    #[test]
    fn core_and_full_bounds() {
        let cb = core_bounds(&bounds1d(), &dense(1));
        assert_eq!(format!("{}", cb[0]), "[2, n - 2]");
        let fb = full_bounds(&bounds1d(), &dense(1));
        assert_eq!(format!("{}", fb[0]), "[0, n]");
        assert_eq!(required_extent(&dense(1), 1), vec![2]);
    }

    #[test]
    fn zero_offset_only_keeps_primal_bounds() {
        let regions = split_disjoint(&bounds1d(), &[vec![0]]);
        assert_eq!(regions.len(), 1);
        assert!(regions[0].is_core);
        assert_eq!(format!("{}", regions[0].bounds[0]), "[1, n - 1]");
    }

    #[test]
    fn asymmetric_offsets() {
        // Offsets {0, 2}: left remainders [lo, lo+1], core [lo+2, hi],
        // right remainders [hi+1, hi+2].
        let regions = split_disjoint(&bounds1d(), &[vec![0], vec![2]]);
        assert_eq!(regions.len(), 3);
        assert_eq!(format!("{}", regions[0].bounds[0]), "[1, 2]");
        assert_eq!(regions[0].terms, vec![0]);
        assert_eq!(format!("{}", regions[1].bounds[0]), "[3, n - 1]");
        assert_eq!(regions[1].terms, vec![0, 1]);
        assert_eq!(format!("{}", regions[2].bounds[0]), "[n, n + 1]");
        assert_eq!(regions[2].terms, vec![1]);
    }

    #[test]
    fn guarded_slab_count() {
        // 2 slabs per dimension with remainders + core.
        let b3: Vec<Bound> = vec![
            bounds1d()[0].clone(),
            bounds1d()[0].clone(),
            bounds1d()[0].clone(),
        ];
        let (core, slabs) = split_guarded(&b3, &star(3));
        assert!(core.is_core);
        assert_eq!(slabs.len(), 6);
    }

    /// Exhaustive coverage check on a concrete grid: every point of the full
    /// adjoint space is covered by exactly one region, and that region's
    /// statement set is exactly the set of statements valid at the point.
    fn check_coverage(offsets: &[Vec<i64>], lo: i64, hi: i64, rank: usize) {
        use std::collections::BTreeMap;
        let n = Symbol::new("n");
        let primal: Vec<Bound> = (0..rank)
            .map(|_| Bound::new(lo, Idx::sym(n.clone()) + (hi - 10))) // hi = n + (hi-10) with n=10
            .collect();
        let mut env = BTreeMap::new();
        env.insert(n.clone(), 10i64);
        let regions = split_disjoint(&primal, offsets);

        // Enumerate the full adjoint space.
        let full = full_bounds(&primal, offsets);
        let lo_v: Vec<i64> = full.iter().map(|b| b.lo.eval(&env).unwrap()).collect();
        let hi_v: Vec<i64> = full.iter().map(|b| b.hi.eval(&env).unwrap()).collect();
        let mut point = lo_v.clone();
        loop {
            // Which statements are valid here?
            let mut expect: Vec<usize> = Vec::new();
            for (t, o) in offsets.iter().enumerate() {
                let ok = (0..rank).all(|d| {
                    let l = primal[d].lo.eval(&env).unwrap() + o[d];
                    let h = primal[d].hi.eval(&env).unwrap() + o[d];
                    point[d] >= l && point[d] <= h
                });
                if ok {
                    expect.push(t);
                }
            }
            // Which regions contain this point?
            let mut got: Vec<&Region> = Vec::new();
            for r in &regions {
                let inside = (0..rank).all(|d| {
                    let l = r.bounds[d].lo.eval(&env).unwrap();
                    let h = r.bounds[d].hi.eval(&env).unwrap();
                    point[d] >= l && point[d] <= h
                });
                if inside {
                    got.push(r);
                }
            }
            if expect.is_empty() {
                // Outside every shifted box (e.g. star-stencil corners):
                // no region may cover the point.
                assert!(
                    got.is_empty(),
                    "point {point:?} covered but no statement valid"
                );
            } else {
                assert_eq!(
                    got.len(),
                    1,
                    "point {point:?} covered by {} regions",
                    got.len()
                );
                assert_eq!(got[0].terms, expect, "wrong statement set at {point:?}");
            }

            // Advance odometer.
            let mut d = rank;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                point[d] += 1;
                if point[d] <= hi_v[d] {
                    break;
                }
                point[d] = lo_v[d];
            }
        }
    }

    #[test]
    fn access_boxes_of_three_point_stencil() {
        use crate::nest::Statement;
        use perforad_symbolic::{ix, Access, Array};
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let u = Array::new("u");
        let nest = LoopNest::new(
            vec![i.clone()],
            vec![Bound::new(1, Idx::sym(n) - 1)],
            vec![Statement::assign(
                Access::new("r", ix![&i]),
                u.at(ix![&i - 1]) + u.at(ix![&i + 1]),
            )],
        );
        let boxes = access_boxes(&nest).unwrap();
        // One write box (r at centre) + two read boxes (u at ±1).
        assert_eq!(boxes.len(), 3);
        let w: Vec<_> = boxes.iter().filter(|b| b.write).collect();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].array, Symbol::new("r"));
        assert_eq!(format!("{}", w[0].bounds[0]), "[1, n - 1]");
        let r: Vec<String> = boxes
            .iter()
            .filter(|b| !b.write)
            .map(|b| format!("{}", b.bounds[0]))
            .collect();
        assert_eq!(r, vec!["[0, n - 2]".to_string(), "[2, n]".to_string()]);
    }

    #[test]
    fn access_boxes_dedup_and_scatter_writes() {
        use crate::nest::Statement;
        use perforad_symbolic::{ix, Access, Array};
        let i = Symbol::new("i");
        let rb = Array::new("rb");
        // Scatter nest: ub[i-1] += rb[i]; ub[i+1] += rb[i].
        let nest = LoopNest::new(
            vec![i.clone()],
            vec![Bound::new(1, 8)],
            vec![
                Statement::add_assign(Access::new("ub", ix![&i - 1]), rb.at(ix![&i])),
                Statement::add_assign(Access::new("ub", ix![&i + 1]), rb.at(ix![&i])),
            ],
        );
        let boxes = access_boxes(&nest).unwrap();
        // Two distinct write boxes, one deduplicated read box.
        assert_eq!(boxes.iter().filter(|b| b.write).count(), 2);
        assert_eq!(boxes.iter().filter(|b| !b.write).count(), 1);
    }

    #[test]
    fn coverage_1d_dense() {
        check_coverage(&dense(1), 1, 9, 1);
    }

    #[test]
    fn coverage_2d_star() {
        check_coverage(&star(2), 1, 9, 2);
    }

    #[test]
    fn coverage_2d_dense() {
        check_coverage(&dense(2), 1, 9, 2);
    }

    #[test]
    fn coverage_asymmetric_2d() {
        check_coverage(&[vec![0, 0], vec![2, -1], vec![-1, 2], vec![1, 1]], 2, 9, 2);
    }
}
