//! The adjoint stencil transformation (§3.3) — the paper's contribution.
//!
//! Given a gather stencil nest `w[c] (=|+=) f(u[c+o], ...)`, produce loop
//! nests that compute the reverse-mode adjoint
//! `ub[c+o] += ∂f/∂u[c+o] · wb[c]` using **only gather operations**:
//!
//! 1. differentiate the body with respect to each distinct active access;
//! 2. multiply by the output adjoint and *shift* indices by `−o` so every
//!    statement writes `ub[c]`;
//! 3. decompose the iteration space (core + boundary) so each statement
//!    executes exactly on its valid translated box.
//!
//! The resulting nests have the same read/write pattern as the primal, can
//! be parallelised identically, need no atomics, no extra memory and no
//! barriers between nests (their write sets are disjoint). They are clones
//! of a few terms — one `Expr` and one written `Access` per term, shared by
//! every statement split from it — in one `Arc<[LoopNest]>` that whatever is
//! compiled from the adjoint references instead of copying.

use crate::error::CoreError;
use crate::nest::{AssignOp, Bound, Guard, LoopNest, Statement};
use crate::regions::{self, Region};
use crate::validate::{access_offsets, validate};
use perforad_symbolic::{diff, subst, visit, Access, DiffVar, Expr, Idx, Symbol};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Maps each *active* primal array to the name of its adjoint counterpart,
/// like the `{u: u_b, u_1: u_1_b}` dictionary of the PerforAD scripts.
/// Arrays not present are passive: they are read-only data (`c`) and get no
/// derivative.
#[derive(Clone, Debug, Default)]
pub struct ActivityMap {
    map: BTreeMap<Symbol, Symbol>,
}

impl ActivityMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `primal → adjoint`.
    pub fn with(mut self, primal: impl Into<Symbol>, adjoint: impl Into<Symbol>) -> Self {
        self.map.insert(primal.into(), adjoint.into());
        self
    }

    /// Register `name → name_b` (PerforAD's conventional suffix).
    pub fn with_suffixed(self, primal: impl Into<Symbol>) -> Self {
        let p = primal.into();
        let b = Symbol::new(format!("{}_b", p.name()));
        self.with(p, b)
    }

    pub fn adjoint_of(&self, primal: &Symbol) -> Option<&Symbol> {
        self.map.get(primal)
    }

    pub fn is_active(&self, primal: &Symbol) -> bool {
        self.map.contains_key(primal)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Symbol, &Symbol)> {
        self.map.iter()
    }
}

/// How boundary iterations are handled (§3.3.4 discusses all three).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BoundaryStrategy {
    /// Disjoint loop nests per region (PerforAD's strategy): most code, no
    /// guards, no synchronisation, exact iteration spaces.
    #[default]
    Disjoint,
    /// One remainder slab per side per dimension; every statement carries an
    /// if-guard. Less code, branchy remainders (core stays guard-free).
    Guarded,
    /// A single nest over the full adjoint space; requires zero-padded
    /// arrays (the Halide-style approach the paper contrasts with).
    Padded,
}

/// Options for [`LoopNest::adjoint`].
#[derive(Clone, Debug, Default)]
pub struct AdjointOptions {
    pub strategy: BoundaryStrategy,
    /// Merge all updates to the same adjoint array within a nest into a
    /// single `+=` statement (the merged core loop of §3.2).
    pub merge: bool,
}

impl AdjointOptions {
    pub fn merged(mut self) -> Self {
        self.merge = true;
        self
    }

    pub fn with_strategy(mut self, s: BoundaryStrategy) -> Self {
        self.strategy = s;
        self
    }
}

/// One shifted derivative statement `S_l` together with its bookkeeping.
#[derive(Clone, Debug)]
pub struct AdjointTerm {
    /// Primal input array this term propagates into.
    pub input: Symbol,
    /// Adjoint (output) array of this term.
    pub adjoint: Symbol,
    /// Offset `o` of the primal access `u[c+o]` the term came from.
    pub offset: Vec<i64>,
    /// Shifted expression: `(∂f/∂u[c+o] · wb[c])` with `c ↦ c − o` applied.
    pub expr: Expr,
}

/// The result of the adjoint stencil transformation.
#[derive(Clone, Debug)]
pub struct Adjoint {
    /// Generated loop nests. Under [`BoundaryStrategy::Disjoint`] their
    /// iteration spaces are pairwise disjoint. A schedule shares this list.
    pub nests: Arc<[LoopNest]>,
    /// Index into `nests` of the core loop nest (absent only if the term
    /// list is empty).
    pub core: Option<usize>,
    /// The shifted derivative statements the nests were assembled from.
    pub terms: Vec<AdjointTerm>,
    /// Strategy used (executors need to know about padding).
    pub strategy: BoundaryStrategy,
    /// Minimum primal extent per dimension for the decomposition to be
    /// disjoint (offset spread).
    pub required_extent: Vec<i64>,
    /// Loop counters (shared by all nests).
    pub counters: Vec<Symbol>,
    /// Bounds of the primal nest the adjoint was derived from.
    pub primal_bounds: Vec<Bound>,
    /// True if the primal overwrote its output (`=` rather than `+=`), in
    /// which case a multi-step driver must zero the output adjoint after
    /// propagating it.
    pub consumes_seed: bool,
}

impl Adjoint {
    /// Total number of generated loop nests (the paper's `(2n−1)^d` metric).
    pub fn nest_count(&self) -> usize {
        self.nests.len()
    }

    /// The core loop nest.
    pub fn core_nest(&self) -> Option<&LoopNest> {
        self.core.map(|k| &self.nests[k])
    }

    /// Adjoint array names written by the transformation.
    pub fn outputs(&self) -> Vec<Symbol> {
        let mut v: Vec<Symbol> = self.terms.iter().map(|t| t.adjoint.clone()).collect();
        v.sort();
        v.dedup();
        v
    }
}

impl fmt::Display for Adjoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, nest) in self.nests.iter().enumerate() {
            if Some(k) == self.core {
                writeln!(f, "// core loop nest")?;
            } else {
                writeln!(f, "// boundary nest {k}")?;
            }
            write!(f, "{nest}")?;
        }
        Ok(())
    }
}

impl LoopNest {
    /// Reverse-mode differentiate this gather stencil nest into gather-only
    /// adjoint stencil nests (the PerforAD transformation).
    pub fn adjoint(&self, act: &ActivityMap, opts: &AdjointOptions) -> Result<Adjoint, CoreError> {
        validate(self)?;
        let terms = derive_terms(self, act)?;
        let offsets: Vec<Vec<i64>> = terms.iter().map(|t| t.offset.clone()).collect();
        let required_extent = regions::required_extent(&offsets, self.rank());
        let consumes_seed = self.body.iter().any(|s| s.op == AssignOp::Assign);
        let counter_ix: Vec<Idx> = self.counters.iter().map(Idx::from).collect();
        // `adjoint[c]` per term: what every statement split from it writes.
        let lhs: Vec<Access> = (terms.iter())
            .map(|t| Access::new(t.adjoint.clone(), counter_ix.clone()))
            .collect();

        let mut nests = Vec::new();
        let mut core = None;
        match opts.strategy {
            BoundaryStrategy::Disjoint => {
                let regions = regions::split_disjoint(&self.bounds, &offsets);
                for r in regions {
                    if r.is_core {
                        core = Some(nests.len());
                    }
                    nests.push(region_nest(self, &terms, &lhs, r, opts.merge, false));
                }
            }
            BoundaryStrategy::Guarded => {
                let (core_r, slabs) = regions::split_guarded(&self.bounds, &offsets);
                core = Some(0);
                nests.push(region_nest(self, &terms, &lhs, core_r, opts.merge, false));
                for r in slabs {
                    nests.push(region_nest(self, &terms, &lhs, r, false, true));
                }
            }
            BoundaryStrategy::Padded => {
                let full = regions::full_bounds(&self.bounds, &offsets);
                let r = Region {
                    bounds: full,
                    terms: (0..terms.len()).collect(),
                    is_core: true,
                };
                core = Some(0);
                nests.push(region_nest(self, &terms, &lhs, r, opts.merge, false));
            }
        }
        Ok(Adjoint {
            nests: nests.into(),
            core,
            terms,
            strategy: opts.strategy,
            required_extent,
            counters: self.counters.clone(),
            primal_bounds: self.bounds.clone(),
            consumes_seed,
        })
    }
}

/// Differentiate every statement of the nest with respect to every distinct
/// active access, multiply by the output adjoint, and shift (§3.3.1–§3.3.2).
pub(crate) fn derive_terms(
    nest: &LoopNest,
    act: &ActivityMap,
) -> Result<Vec<AdjointTerm>, CoreError> {
    let counters = &nest.counters;
    let counter_ix: Vec<Idx> = counters.iter().map(Idx::from).collect();
    let mut terms = Vec::new();
    for stmt in &nest.body {
        let wb = act
            .adjoint_of(&stmt.lhs.array)
            .ok_or_else(|| CoreError::InactiveOutput(stmt.lhs.array.name().to_string()))?;
        let wb_access = Expr::access(Access::new(wb.clone(), counter_ix.clone()));
        for access in visit::accesses(&stmt.rhs) {
            let Some(ub) = act.adjoint_of(&access.array) else {
                continue; // passive input
            };
            let offset = access_offsets(nest, &access)?;
            let partial = diff(&stmt.rhs, &DiffVar::Access(access.clone()))?;
            if partial.is_zero() {
                continue;
            }
            // Scatter statement would be: ub[c+o] += partial(c) * wb[c].
            // Substituting c ↦ c − o turns it into the gather form
            // ub[c] += partial(c−o) * wb[c−o], valid for c ∈ [lo+o, hi+o].
            let scatter_rhs = partial * &wb_access;
            let delta: Vec<i64> = offset.iter().map(|o| -o).collect();
            let shifted = subst::shift(&scatter_rhs, counters, &delta);
            terms.push(AdjointTerm {
                input: access.array.clone(),
                adjoint: ub.clone(),
                offset,
                expr: shifted,
            });
        }
    }
    Ok(terms)
}

/// Materialise one region into a loop nest.
fn region_nest(
    primal: &LoopNest,
    terms: &[AdjointTerm],
    lhs: &[Access],
    region: Region,
    merge: bool,
    guard_statements: bool,
) -> LoopNest {
    let mut body = Vec::with_capacity(region.terms.len());
    for &t in &region.terms {
        let term = &terms[t];
        let mut stmt = Statement::add_assign(lhs[t].clone(), term.expr.clone());
        if guard_statements {
            // Guard with the term's valid translated box (all dimensions).
            let ranges = primal
                .counters
                .iter()
                .zip(primal.bounds.iter().zip(&term.offset))
                .map(|(c, (b, &o))| (c.clone(), b.shift(o)))
                .collect();
            stmt = stmt.with_guard(Guard { ranges });
        }
        body.push(stmt);
    }
    let mut nest = LoopNest::new(primal.counters.clone(), region.bounds, body);
    if merge {
        nest = crate::merge::merge_statements(&nest);
    }
    nest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{Bound, Statement};
    use perforad_symbolic::{ix, Array};

    /// The §3.2 example: r[i] = c[i]*(2 u[i-1] - 3 u[i] + 4 u[i+1]),
    /// i ∈ [1, n-1].
    fn paper_1d() -> LoopNest {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let u = Array::new("u");
        let c = Array::new("c");
        let rhs = c.at(ix![&i])
            * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4.0 * u.at(ix![&i + 1]));
        LoopNest::new(
            vec![i.clone()],
            vec![Bound::new(1, Idx::sym(n) - 1)],
            vec![Statement::assign(Access::new("r", ix![&i]), rhs)],
        )
    }

    fn act_1d() -> ActivityMap {
        ActivityMap::new().with_suffixed("u").with_suffixed("r")
    }

    #[test]
    fn paper_example_structure() {
        let adj = paper_1d()
            .adjoint(&act_1d(), &AdjointOptions::default())
            .unwrap();
        // Five loops, one of them the core (§3.2).
        assert_eq!(adj.nest_count(), 5);
        let core = adj.core_nest().unwrap();
        assert_eq!(format!("{}", core.bounds[0]), "[2, n - 2]");
        assert_eq!(core.body.len(), 3);
        assert_eq!(adj.required_extent, vec![2]);
        assert!(adj.consumes_seed);
        // All nests are gather nests.
        for nest in adj.nests.iter() {
            assert!(nest.is_gather());
        }
    }

    #[test]
    fn paper_example_core_statements() {
        // Core body: ub[j] += 2 c[j+1] rb[j+1]; ub[j] -= 3 c[j] rb[j];
        //            ub[j] += 4 c[j-1] rb[j-1]  (constants swapped vs primal).
        let adj = paper_1d()
            .adjoint(&act_1d(), &AdjointOptions::default())
            .unwrap();
        let core = adj.core_nest().unwrap();
        let bodies: Vec<String> = core.body.iter().map(|s| s.to_string()).collect();
        assert!(
            bodies
                .iter()
                .any(|s| s == "u_b(i) += 2.0*c(i + 1)*r_b(i + 1)"),
            "{bodies:?}"
        );
        assert!(
            bodies.iter().any(|s| s == "u_b(i) += -3.0*c(i)*r_b(i)"),
            "{bodies:?}"
        );
        assert!(
            bodies
                .iter()
                .any(|s| s == "u_b(i) += 4.0*c(i - 1)*r_b(i - 1)"),
            "{bodies:?}"
        );
    }

    #[test]
    fn merged_core_is_single_statement() {
        let adj = paper_1d()
            .adjoint(&act_1d(), &AdjointOptions::default().merged())
            .unwrap();
        let core = adj.core_nest().unwrap();
        assert_eq!(core.body.len(), 1);
        assert_eq!(
            core.body[0].to_string(),
            "u_b(i) += 4.0*c(i - 1)*r_b(i - 1) - 3.0*c(i)*r_b(i) + 2.0*c(i + 1)*r_b(i + 1)"
        );
    }

    #[test]
    fn inactive_output_is_an_error() {
        let act = ActivityMap::new().with_suffixed("u"); // r missing
        let err = paper_1d()
            .adjoint(&act, &AdjointOptions::default())
            .unwrap_err();
        assert_eq!(err, CoreError::InactiveOutput("r".into()));
    }

    #[test]
    fn passive_inputs_get_no_terms() {
        let adj = paper_1d()
            .adjoint(&act_1d(), &AdjointOptions::default())
            .unwrap();
        assert!(adj.terms.iter().all(|t| t.input.name() == "u"));
        assert_eq!(adj.outputs(), vec![Symbol::new("u_b")]);
    }

    #[test]
    fn guarded_strategy_has_three_nests_in_1d() {
        let adj = paper_1d()
            .adjoint(
                &act_1d(),
                &AdjointOptions::default().with_strategy(BoundaryStrategy::Guarded),
            )
            .unwrap();
        // core + lower slab + upper slab
        assert_eq!(adj.nest_count(), 3);
        assert!(adj.nests[0].body.iter().all(|s| s.guard.is_none()));
        assert!(adj.nests[1].body.iter().all(|s| s.guard.is_some()));
    }

    #[test]
    fn padded_strategy_is_one_nest_over_full_space() {
        let adj = paper_1d()
            .adjoint(
                &act_1d(),
                &AdjointOptions::default().with_strategy(BoundaryStrategy::Padded),
            )
            .unwrap();
        assert_eq!(adj.nest_count(), 1);
        assert_eq!(format!("{}", adj.nests[0].bounds[0]), "[0, n]");
    }

    #[test]
    fn add_assign_primal_does_not_consume_seed() {
        let mut nest = paper_1d();
        nest.body[0].op = AssignOp::AddAssign;
        let adj = nest.adjoint(&act_1d(), &AdjointOptions::default()).unwrap();
        assert!(!adj.consumes_seed);
    }

    #[test]
    fn nonlinear_body_reads_shifted_primal_values() {
        // r[i] = u[i]*u[i+1]: d/du[i+1] = u[i]; after shift by -(+1) the
        // term reads u[i-1]*r_b[i-1].
        let i = Symbol::new("i");
        let u = Array::new("u");
        let rhs = u.at(ix![&i]) * u.at(ix![&i + 1]);
        let nest = LoopNest::new(
            vec![i.clone()],
            vec![Bound::new(1, Idx::sym(Symbol::new("n")) - 1)],
            vec![Statement::assign(Access::new("r", ix![&i]), rhs)],
        );
        let adj = nest.adjoint(&act_1d(), &AdjointOptions::default()).unwrap();
        let t = adj
            .terms
            .iter()
            .find(|t| t.offset == vec![1])
            .expect("term for offset +1");
        assert_eq!(t.expr.to_string(), "r_b(i - 1)*u(i - 1)");
    }
}
