//! Named array storage shared by kernels.

use crate::grid::Grid;
use perforad_symbolic::Symbol;
use std::collections::BTreeMap;

/// A set of named grids — the memory a stencil program runs against.
#[derive(Default, Clone, Debug)]
pub struct Workspace {
    grids: BTreeMap<Symbol, Grid>,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a grid under a name.
    pub fn insert(&mut self, name: impl Into<Symbol>, grid: Grid) -> &mut Self {
        self.grids.insert(name.into(), grid);
        self
    }

    /// Builder-style insert.
    pub fn with(mut self, name: impl Into<Symbol>, grid: Grid) -> Self {
        self.insert(name, grid);
        self
    }

    pub fn get(&self, name: &Symbol) -> Option<&Grid> {
        self.grids.get(name)
    }

    pub fn get_mut(&mut self, name: &Symbol) -> Option<&mut Grid> {
        self.grids.get_mut(name)
    }

    /// Panicking accessor by name. A scan over the handful of grids a
    /// workspace holds: no `Symbol` is built, so time loops may call it
    /// every step without allocating.
    pub fn grid(&self, name: &str) -> &Grid {
        self.grids
            .iter()
            .find_map(|(k, g)| (k.name() == name).then_some(g))
            .unwrap_or_else(|| panic!("no grid named `{name}` in workspace"))
    }

    /// Panicking mutable accessor by name (same scan as [`Workspace::grid`]).
    pub fn grid_mut(&mut self, name: &str) -> &mut Grid {
        self.grids
            .iter_mut()
            .find_map(|(k, g)| (k.name() == name).then_some(g))
            .unwrap_or_else(|| panic!("no grid named `{name}` in workspace"))
    }

    pub fn contains(&self, name: &Symbol) -> bool {
        self.grids.contains_key(name)
    }

    pub fn names(&self) -> impl Iterator<Item = &Symbol> {
        self.grids.keys()
    }

    pub fn len(&self) -> usize {
        self.grids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.grids.is_empty()
    }
}

/// Integer sizes (`n`) and scalar parameters (`C`, `D`) bound for a run.
#[derive(Default, Clone, Debug)]
pub struct Binding {
    pub sizes: BTreeMap<Symbol, i64>,
    pub params: BTreeMap<Symbol, f64>,
}

impl Binding {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn size(mut self, name: impl Into<Symbol>, v: i64) -> Self {
        self.sizes.insert(name.into(), v);
        self
    }

    pub fn param(mut self, name: impl Into<Symbol>, v: f64) -> Self {
        self.params.insert(name.into(), v);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut ws = Workspace::new();
        ws.insert("u", Grid::zeros(&[4]));
        assert!(ws.contains(&Symbol::new("u")));
        assert_eq!(ws.grid("u").len(), 4);
        ws.grid_mut("u").set(&[1], 3.0);
        assert_eq!(ws.grid("u").get(&[1]), 3.0);
        assert_eq!(ws.len(), 1);
    }

    #[test]
    #[should_panic(expected = "no grid named")]
    fn missing_grid_panics() {
        Workspace::new().grid("nope");
    }

    #[test]
    fn binding_builder() {
        let b = Binding::new().size("n", 10).param("D", 0.5);
        assert_eq!(b.sizes[&Symbol::new("n")], 10);
        assert_eq!(b.params[&Symbol::new("D")], 0.5);
    }
}
