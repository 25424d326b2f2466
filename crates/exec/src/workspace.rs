//! Named array storage shared by kernels.

use crate::grid::Grid;
use perforad_symbolic::Symbol;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How a workspace holds one array.
#[derive(Clone, Debug)]
pub(crate) enum Slot {
    /// The workspace's own grid: a plan may write it.
    Owned(Grid),
    /// A grid shared, read-only, with whatever else holds the `Arc` — a
    /// checkpoint snapshot, a time loop's cursor, another workspace. A plan
    /// may only read it: the tile runner refuses a plan that writes one
    /// ([`crate::ExecError::SharedWrite`]).
    Shared(Arc<Grid>),
}

impl Slot {
    fn grid(&self) -> &Grid {
        match self {
            Slot::Owned(g) => g,
            Slot::Shared(g) => g,
        }
    }
}

/// A set of named grids — the memory a stencil program runs against. Each
/// is owned by the workspace, or bound shared and read-only
/// ([`Workspace::insert_shared`]).
#[derive(Default, Clone, Debug)]
pub struct Workspace {
    grids: BTreeMap<Symbol, Slot>,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a grid under a name.
    pub fn insert(&mut self, name: impl Into<Symbol>, grid: Grid) -> &mut Self {
        self.grids.insert(name.into(), Slot::Owned(grid));
        self
    }

    /// Builder-style insert.
    pub fn with(mut self, name: impl Into<Symbol>, grid: Grid) -> Self {
        self.insert(name, grid);
        self
    }

    /// Bind (or rebind) a name to a shared grid, read-only: plans may read
    /// it and nothing may write it through this workspace.
    pub fn insert_shared(&mut self, name: impl Into<Symbol>, grid: Arc<Grid>) -> &mut Self {
        self.grids.insert(name.into(), Slot::Shared(grid));
        self
    }

    /// Builder-style [`Workspace::insert_shared`].
    pub fn with_shared(mut self, name: impl Into<Symbol>, grid: Arc<Grid>) -> Self {
        self.insert_shared(name, grid);
        self
    }

    /// The grid bound to `name`, owned or shared.
    pub fn get(&self, name: &Symbol) -> Option<&Grid> {
        self.grids.get(name).map(Slot::grid)
    }

    /// The grid bound to `name`, for writing: `None` when there is none or
    /// it is bound shared.
    pub fn get_mut(&mut self, name: &Symbol) -> Option<&mut Grid> {
        match self.grids.get_mut(name)? {
            Slot::Owned(g) => Some(g),
            Slot::Shared(_) => None,
        }
    }

    pub(crate) fn slot_mut(&mut self, name: &Symbol) -> Option<&mut Slot> {
        self.grids.get_mut(name)
    }

    /// The binding named `name`: a scan over the handful a workspace
    /// holds. No `Symbol` is built, so time loops may call it every step
    /// without allocating.
    fn find(&mut self, name: &str) -> &mut Slot {
        self.grids
            .iter_mut()
            .find_map(|(k, g)| (k.name() == name).then_some(g))
            .unwrap_or_else(|| panic!("no grid named `{name}` in workspace"))
    }

    /// Panicking accessor by name, owned or shared (the same scan as
    /// [`Workspace::grid_mut`]).
    pub fn grid(&self, name: &str) -> &Grid {
        self.grids
            .iter()
            .find_map(|(k, g)| (k.name() == name).then_some(g.grid()))
            .unwrap_or_else(|| panic!("no grid named `{name}` in workspace"))
    }

    /// Panicking mutable accessor by name; panics on a shared binding too.
    pub fn grid_mut(&mut self, name: &str) -> &mut Grid {
        match self.find(name) {
            Slot::Owned(g) => g,
            Slot::Shared(_) => panic!("grid `{name}` is bound shared, read-only"),
        }
    }

    /// The shared binding named `name`, to swap another `Arc` in or out
    /// without allocating; panics on an owned one.
    pub fn shared_mut(&mut self, name: &str) -> &mut Arc<Grid> {
        match self.find(name) {
            Slot::Shared(g) => g,
            Slot::Owned(_) => panic!("grid `{name}` is owned, not bound shared"),
        }
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
    fn a_shared_binding_reads_but_never_lends_a_writable_grid() {
        let shared = Arc::new(Grid::full(&[3], 2.0));
        let mut ws = Workspace::new().with_shared("u", Arc::clone(&shared));
        assert_eq!(ws.grid("u").as_slice(), shared.as_slice());
        assert!(ws.get_mut(&Symbol::new("u")).is_none());
        // Swapping another `Arc` in hands the first one back untouched.
        let mut other = Arc::new(Grid::zeros(&[3]));
        std::mem::swap(ws.shared_mut("u"), &mut other);
        assert!(Arc::ptr_eq(&other, &shared));
        assert_eq!(ws.grid("u").sum(), 0.0);
        // A clone of the workspace shares the grid; it does not copy it.
        let twin = ws.clone();
        assert!(std::ptr::eq(twin.grid("u"), ws.grid("u")));
    }

    #[test]
    #[should_panic(expected = "bound shared, read-only")]
    fn grid_mut_refuses_a_shared_binding() {
        let mut ws = Workspace::new().with_shared("u", Arc::new(Grid::zeros(&[2])));
        ws.grid_mut("u");
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
