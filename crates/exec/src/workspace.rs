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

/// Where a workspace holds one array: a handle from [`Workspace::id`],
/// valid for that workspace, its clones, and every later state of either
/// (a name keeps its place once inserted).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridId(usize);

/// A set of named grids — the memory a stencil program runs against. Each
/// is owned by the workspace, or bound shared and read-only
/// ([`Workspace::insert_shared`]).
///
/// Names keep the place they were first inserted at, so a [`GridId`] stays
/// valid, and a bound runner ([`crate::BoundPlan`]) reaches its arrays by
/// place rather than by name on every run.
#[derive(Default, Clone, Debug)]
pub struct Workspace {
    names: Vec<Symbol>,
    slots: Vec<Slot>,
    /// FNV of `names` in order: workspaces with equal layouts place every
    /// name alike.
    layout: u64,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Put `slot` under `name`: in its place when the name is bound,
    /// appended (and the layout re-stamped) when it is new.
    fn put(&mut self, name: Symbol, slot: Slot) {
        match self.names.iter().position(|k| *k == name) {
            Some(k) => self.slots[k] = slot,
            None => {
                self.names.push(name);
                self.slots.push(slot);
                let mut h = crate::native::Fnv::new();
                for k in &self.names {
                    h.write(k.name().as_bytes());
                    h.write(b"|");
                }
                self.layout = h.finish();
            }
        }
    }

    /// Insert (or replace) a grid under a name.
    pub fn insert(&mut self, name: impl Into<Symbol>, grid: Grid) -> &mut Self {
        self.put(name.into(), Slot::Owned(grid));
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
        self.put(name.into(), Slot::Shared(grid));
        self
    }

    /// Builder-style [`Workspace::insert_shared`].
    pub fn with_shared(mut self, name: impl Into<Symbol>, grid: Arc<Grid>) -> Self {
        self.insert_shared(name, grid);
        self
    }

    /// The place of the grid named `name`: a scan over the handful a
    /// workspace holds, comparing names as strings (no `Symbol` is built).
    pub fn id(&self, name: &str) -> Option<GridId> {
        self.names.iter().position(|k| k.name() == name).map(GridId)
    }

    /// [`Workspace::id`], panicking when there is no such grid.
    fn expect_id(&self, name: &str) -> GridId {
        self.id(name)
            .unwrap_or_else(|| panic!("no grid named `{name}` in workspace"))
    }

    /// The grid bound to `name`, owned or shared.
    pub fn get(&self, name: &Symbol) -> Option<&Grid> {
        self.id(name.name()).map(|id| self.slots[id.0].grid())
    }

    /// The grid bound to `name`, for writing: `None` when there is none or
    /// it is bound shared.
    pub fn get_mut(&mut self, name: &Symbol) -> Option<&mut Grid> {
        let id = self.id(name.name())?;
        match &mut self.slots[id.0] {
            Slot::Owned(g) => Some(g),
            Slot::Shared(_) => None,
        }
    }

    /// The binding at `id`.
    pub(crate) fn slot(&self, id: GridId) -> &Slot {
        &self.slots[id.0]
    }

    /// The binding at `id`, for writing.
    pub(crate) fn slot_mut(&mut self, id: GridId) -> &mut Slot {
        &mut self.slots[id.0]
    }

    /// The layout stamp: equal stamps, equal places for every name.
    pub(crate) fn layout(&self) -> u64 {
        self.layout
    }

    /// Panicking accessor by name, owned or shared.
    pub fn grid(&self, name: &str) -> &Grid {
        self.grid_at(self.expect_id(name))
    }

    /// Panicking mutable accessor by name; panics on a shared binding too.
    pub fn grid_mut(&mut self, name: &str) -> &mut Grid {
        self.grid_at_mut(self.expect_id(name))
    }

    /// The shared binding named `name`, to swap another `Arc` in or out
    /// without allocating; panics on an owned one.
    pub fn shared_mut(&mut self, name: &str) -> &mut Arc<Grid> {
        self.shared_at_mut(self.expect_id(name))
    }

    /// The grid at `id`, owned or shared.
    pub fn grid_at(&self, id: GridId) -> &Grid {
        self.slots[id.0].grid()
    }

    /// The owned grid at `id`, to write or swap; panics on a shared one.
    pub fn grid_at_mut(&mut self, id: GridId) -> &mut Grid {
        match &mut self.slots[id.0] {
            Slot::Owned(g) => g,
            Slot::Shared(_) => panic!("grid `{}` is bound shared, read-only", self.names[id.0]),
        }
    }

    /// The shared binding at `id`, to swap another `Arc` in or out;
    /// panics on an owned one.
    pub fn shared_at_mut(&mut self, id: GridId) -> &mut Arc<Grid> {
        match &mut self.slots[id.0] {
            Slot::Shared(g) => g,
            Slot::Owned(_) => panic!("grid `{}` is owned, not bound shared", self.names[id.0]),
        }
    }

    pub fn contains(&self, name: &Symbol) -> bool {
        self.names.contains(name)
    }

    /// The names bound, in the order they were first inserted.
    pub fn names(&self) -> impl Iterator<Item = &Symbol> {
        self.names.iter()
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
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

    /// A name keeps the place it was first inserted at, whatever is bound
    /// there later; a clone shares the layout, a new name changes it.
    #[test]
    fn a_name_keeps_its_place_and_a_clone_its_layout() {
        let mut ws = Workspace::new()
            .with("u", Grid::zeros(&[2]))
            .with("r", Grid::zeros(&[2]));
        let (u, r) = (ws.id("u").unwrap(), ws.id("r").unwrap());
        let layout = ws.layout();
        ws.insert_shared("u", Arc::new(Grid::full(&[2], 3.0)));
        ws.insert("r", Grid::full(&[3], 1.0));
        assert_eq!(
            (ws.id("u"), ws.id("r"), ws.layout()),
            (Some(u), Some(r), layout)
        );
        assert_eq!(ws.grid_at(u).sum(), 6.0);
        assert_eq!(ws.grid_at_mut(r).len(), 3);
        assert_eq!(ws.clone().layout(), layout);
        ws.insert("c", Grid::zeros(&[2]));
        assert_ne!(ws.layout(), layout);
        assert_eq!(ws.id("u"), Some(u));
        assert_eq!(ws.id("nope"), None);
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
