//! Expression traversal utilities.

use crate::expr::{Access, Expr, Node};
use crate::symbol::Symbol;
use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;

/// A memo over *distinct expression nodes*: what was computed for an
/// [`Expr`] is found again through any clone of it (clones share one
/// reference-counted node). Passes over an adjoint's loop nests use it to
/// do per term what they would otherwise do per statement — the split
/// regions' bodies are clones of the same few terms.
///
/// Identity is only ever a hit test: an equal expression built separately
/// misses and is computed again, which is correct, merely slower. Keys
/// stay borrowed for `'a`, so no address can be freed and reused by
/// another expression while its entry is reachable.
pub struct NodeMemo<'a, T> {
    map: HashMap<*const Node, T>,
    live: PhantomData<&'a Expr>,
}

impl<T> Default for NodeMemo<'_, T> {
    fn default() -> Self {
        NodeMemo {
            map: HashMap::new(),
            live: PhantomData,
        }
    }
}

impl<'a, T> NodeMemo<'a, T> {
    /// What was stored for `e`'s node, if anything.
    pub fn get_mut(&mut self, e: &Expr) -> Option<&mut T> {
        self.map.get_mut(&(e.node() as *const Node))
    }

    /// The entry for `e`'s node, computed by `init` the first time the
    /// node is seen.
    pub fn get_or_insert_with(&mut self, e: &'a Expr, init: impl FnOnce() -> T) -> &mut T {
        self.map.entry(e.node()).or_insert_with(init)
    }
}

/// Pre-order traversal over every sub-expression (conditions included).
/// The visitor may keep what it borrows from the tree.
pub fn for_each<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e.node() {
        Node::Num(_) | Node::Sym(_) | Node::Access(_) => {}
        Node::Add(ts) | Node::Mul(ts) => {
            for t in ts {
                for_each(t, f);
            }
        }
        Node::Pow(b, x) => {
            for_each(b, f);
            for_each(x, f);
        }
        Node::Call(_, args) => {
            for args in args {
                for_each(args, f);
            }
        }
        Node::Select(c, a, b) => {
            for_each(&c.lhs, f);
            for_each(&c.rhs, f);
            for_each(a, f);
            for_each(b, f);
        }
        Node::UFun(app) | Node::UDeriv(app, _) => {
            for a in &app.args {
                for_each(a, f);
            }
        }
    }
}

/// All distinct array accesses, in canonical order.
pub fn accesses(e: &Expr) -> Vec<Access> {
    let mut set = BTreeSet::new();
    for_each(e, &mut |x| {
        if let Node::Access(a) = x.node() {
            set.insert(a.clone());
        }
    });
    set.into_iter().collect()
}

/// All distinct accesses to a particular array.
pub fn accesses_of(e: &Expr, array: &Symbol) -> Vec<Access> {
    accesses(e)
        .into_iter()
        .filter(|a| &a.array == array)
        .collect()
}

/// Names of all arrays accessed.
pub fn arrays(e: &Expr) -> BTreeSet<Symbol> {
    let mut set = BTreeSet::new();
    for_each(e, &mut |x| {
        if let Node::Access(a) = x.node() {
            set.insert(a.array.clone());
        }
    });
    set
}

/// Scalar symbols appearing outside of indices.
pub fn scalar_symbols(e: &Expr) -> BTreeSet<Symbol> {
    let mut set = BTreeSet::new();
    for_each(e, &mut |x| {
        if let Node::Sym(s) = x.node() {
            set.insert(s.clone());
        }
    });
    set
}

/// Does any sub-expression satisfy the predicate?
pub fn contains(e: &Expr, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
    let mut found = false;
    for_each(e, &mut |x| {
        if !found && pred(x) {
            found = true;
        }
    });
    found
}

/// Count of nodes — a cheap expression-size metric used by tests and the
/// performance model's "operations per point" estimates.
pub fn node_count(e: &Expr) -> usize {
    let mut n = 0;
    for_each(e, &mut |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Array;
    use crate::ix;

    #[test]
    fn collects_distinct_accesses() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let c = Array::new("c");
        let e = c.at(ix![&i])
            * (2.0 * u.at(ix![&i - 1]) - 3.0 * u.at(ix![&i]) + 4 * u.at(ix![&i + 1]))
            + u.at(ix![&i]);
        let acc = accesses(&e);
        assert_eq!(acc.len(), 4); // c(i), u(i-1), u(i), u(i+1)
        assert_eq!(accesses_of(&e, &Symbol::new("u")).len(), 3);
        assert_eq!(arrays(&e).len(), 2);
    }

    #[test]
    fn scalar_symbols_skip_indices() {
        let i = Symbol::new("i");
        let n = Symbol::new("n");
        let u = Array::new("u");
        let e = u.at(vec![(&i + 1) + crate::Idx::sym(n.clone())]);
        assert!(scalar_symbols(&e).is_empty());
    }

    #[test]
    fn node_count_counts() {
        let i = Symbol::new("i");
        let u = Array::new("u");
        let e = u.at(ix![&i]) + 1;
        assert_eq!(node_count(&e), 3); // Add, Access, Num
    }
}
