//! Interned-by-name scalar symbols.
//!
//! A [`Symbol`] names a scalar quantity: a loop counter (`i`, `j`, `k`), a
//! grid extent (`n`), or a physical parameter (`C`, `D`). Symbols compare and
//! hash by name, so two independently created symbols with the same name are
//! the same symbol — this mirrors SymPy's behaviour, on which the original
//! PerforAD tool relies. Clones share one name, which a comparison looks
//! at first: a nest's counters are clones all the way down its accesses.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A named scalar symbol.
#[derive(Clone)]
pub struct Symbol(Arc<str>);

impl PartialEq for Symbol {
    fn eq(&self, other: &Symbol) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for Symbol {}

impl Ord for Symbol {
    fn cmp(&self, other: &Symbol) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            Ordering::Equal
        } else {
            self.0.cmp(&other.0)
        }
    }
}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Symbol) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Symbol {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl Symbol {
    /// Create (or re-reference) the symbol with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        Symbol(Arc::from(name.as_ref()))
    }

    /// The symbol's name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.0)
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(s)
    }
}

/// Convenience: build several symbols at once, like SymPy's `symbols("i,j,k")`.
pub fn symbols(names: &str) -> Vec<Symbol> {
    names
        .split(',')
        .map(|s| Symbol::new(s.trim()))
        .filter(|s| !s.name().is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_with_same_name_are_equal() {
        assert_eq!(Symbol::new("i"), Symbol::new("i"));
        assert_ne!(Symbol::new("i"), Symbol::new("j"));
    }

    #[test]
    fn symbols_order_by_name() {
        let mut v = [Symbol::new("k"), Symbol::new("i"), Symbol::new("j")];
        v.sort();
        let names: Vec<_> = v.iter().map(|s| s.name().to_string()).collect();
        assert_eq!(names, ["i", "j", "k"]);
    }

    #[test]
    fn symbols_helper_splits_and_trims() {
        let v = symbols("i, j ,k");
        assert_eq!(v.len(), 3);
        assert_eq!(v[1].name(), "j");
    }

    #[test]
    fn display_is_bare_name() {
        assert_eq!(Symbol::new("n").to_string(), "n");
    }
}
