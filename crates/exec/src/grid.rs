//! Dense n-dimensional `f64` grids (row-major).
//!
//! The runtime's array storage: the paper's test cases use 1-D (Burgers) and
//! 3-D (wave) grids; everything here is rank-generic.

use std::fmt;

/// A dense row-major array of `f64` with runtime rank.
#[derive(Clone, PartialEq)]
pub struct Grid {
    dims: Vec<usize>,
    strides: Vec<usize>,
    data: Vec<f64>,
}

fn compute_strides(dims: &[usize]) -> Vec<usize> {
    let mut strides = vec![1; dims.len()];
    for d in (0..dims.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * dims[d + 1];
    }
    strides
}

impl Grid {
    /// All-zero grid with the given extents.
    pub fn zeros(dims: &[usize]) -> Self {
        let len = dims.iter().product();
        Grid {
            dims: dims.to_vec(),
            strides: compute_strides(dims),
            data: vec![0.0; len],
        }
    }

    /// Grid filled with a constant.
    pub fn full(dims: &[usize], v: f64) -> Self {
        let mut g = Grid::zeros(dims);
        g.data.fill(v);
        g
    }

    /// Build from a function of the (multi-)index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> f64) -> Self {
        let mut g = Grid::zeros(dims);
        let rank = dims.len();
        let mut idx = vec![0usize; rank];
        for lin in 0..g.data.len() {
            g.data[lin] = f(&idx);
            // advance odometer
            for d in (0..rank).rev() {
                idx[d] += 1;
                if idx[d] < dims[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
        g
    }

    /// Wrap an existing buffer (length must match).
    pub fn from_vec(dims: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(dims.iter().product::<usize>(), data.len());
        Grid {
            dims: dims.to_vec(),
            strides: compute_strides(dims),
            data,
        }
    }

    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Linear index of a multi-index (debug-checked).
    pub fn linear(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.dims.len());
        let mut lin = 0;
        for (d, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.dims[d], "index {i} out of dim {}", self.dims[d]);
            lin += i * self.strides[d];
        }
        lin
    }

    pub fn get(&self, idx: &[usize]) -> f64 {
        self.data[self.linear(idx)]
    }

    pub fn set(&mut self, idx: &[usize], v: f64) {
        let lin = self.linear(idx);
        self.data[lin] = v;
    }

    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Euclidean norm of the data.
    pub fn norm2(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Dot product with another grid of identical shape.
    pub fn dot(&self, other: &Grid) -> f64 {
        assert_eq!(self.dims, other.dims, "shape mismatch in dot product");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Largest absolute elementwise difference to another grid.
    pub fn max_abs_diff(&self, other: &Grid) -> f64 {
        assert_eq!(self.dims, other.dims, "shape mismatch in comparison");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Are all entries finite?
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl fmt::Debug for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Grid{:?} ({} elements)", self.dims, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_are_row_major() {
        let g = Grid::zeros(&[4, 5, 6]);
        assert_eq!(g.strides(), &[30, 6, 1]);
        assert_eq!(g.len(), 120);
    }

    #[test]
    fn from_fn_and_indexing_agree() {
        let g = Grid::from_fn(&[3, 4], |ix| (ix[0] * 10 + ix[1]) as f64);
        assert_eq!(g.get(&[0, 0]), 0.0);
        assert_eq!(g.get(&[2, 3]), 23.0);
        assert_eq!(g.linear(&[1, 2]), 6);
    }

    #[test]
    fn reductions() {
        let a = Grid::from_vec(&[3], vec![1.0, 2.0, 2.0]);
        let b = Grid::from_vec(&[3], vec![1.0, 0.0, 0.0]);
        assert_eq!(a.norm2(), 3.0);
        assert_eq!(a.dot(&b), 1.0);
        assert_eq!(a.max_abs_diff(&b), 2.0);
        assert_eq!(a.sum(), 5.0);
        assert!(a.is_finite());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn dot_requires_same_shape() {
        let a = Grid::zeros(&[2]);
        let b = Grid::zeros(&[3]);
        let _ = a.dot(&b);
    }

    #[test]
    fn one_dimensional() {
        let g = Grid::from_fn(&[5], |ix| ix[0] as f64);
        assert_eq!(g.strides(), &[1]);
        assert_eq!(g.get(&[4]), 4.0);
    }
}
