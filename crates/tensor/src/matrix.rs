//! Dense, row-major `f32` matrix.

use crate::{Result, TensorError};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f32` values.
///
/// This is the canonical dense representation used throughout the TASD reproduction:
/// weights and activations are materialized as `Matrix` before decomposition, and the
/// reference GEMM kernels operate on it.
///
/// # Example
///
/// ```
/// use tasd_tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimensions`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(TensorError::InvalidDimensions {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have different lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have the same length");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A flat, row-major view of the underlying data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable flat, row-major view of the underlying data.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows rows `[r0, r1)` as one contiguous row-major slice (the matrix is row-major,
    /// so a row range is always contiguous). This is what the GEMM backends tile over.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > rows`.
    pub fn rows_slice(&self, r0: usize, r1: usize) -> &[f32] {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} out of bounds"
        );
        &self.data[r0 * self.cols..r1 * self.cols]
    }

    /// Mutable variant of [`Matrix::rows_slice`].
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > rows`.
    pub fn rows_slice_mut(&mut self, r0: usize, r1: usize) -> &mut [f32] {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} out of bounds"
        );
        &mut self.data[r0 * self.cols..r1 * self.cols]
    }

    /// A 64-bit content fingerprint of the matrix (shape + element bit patterns).
    ///
    /// Used by the execution engine's decomposition cache to key matrices without storing
    /// them. Equal matrices always produce equal fingerprints; distinct matrices collide
    /// with probability ~2⁻⁶⁴ per pair, which the cache accepts by design (a collision
    /// returns a decomposition of the colliding matrix — detectable, never memory-unsafe).
    ///
    /// The hash runs four independent multiply-xor lanes over pairs of element bit
    /// patterns (so the multiplier's latency pipelines instead of serializing) and
    /// finishes each lane with a splitmix64-style avalanche. This is a content scan —
    /// O(elements) — which is why the engine memoizes fingerprints per operand
    /// allocation on its serving path instead of rescanning per request.
    pub fn fingerprint(&self) -> u64 {
        crate::hash::hash_f32s(&self.data, self.rows as u64, self.cols as u64)
    }

    /// Dense storage footprint in bytes (`rows · cols · 4`), the figure the execution
    /// engine's cache accounts for a dense-packed prepared term.
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * 4
    }

    /// Returns element `(i, j)` or `None` if out of bounds.
    pub fn get(&self, i: usize, j: usize) -> Option<f32> {
        if i < self.rows && j < self.cols {
            Some(self.data[i * self.cols + j])
        } else {
            None
        }
    }

    /// Iterator over all elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iterator over all elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Returns the transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn try_add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction (`self - other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn try_sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        other: &Matrix,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Multiplies every element by a scalar, returning a new matrix.
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Sum of the absolute values of all elements.
    pub fn abs_sum(&self) -> f64 {
        self.data.iter().map(|&x| x.abs() as f64).sum()
    }

    /// Number of non-zero elements.
    pub fn count_nonzeros(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Number of exactly-zero elements.
    pub fn count_zeros(&self) -> usize {
        self.len() - self.count_nonzeros()
    }

    /// Extracts rows `[r0, r1)` as a standalone matrix in one contiguous copy (the
    /// storage is row-major, so a row range is a single `memcpy`). This is how a weight
    /// store extracts the 64-row bands it decomposes: unlike [`Matrix::block`] it never
    /// walks elements one by one.
    ///
    /// # Panics
    ///
    /// Panics if `r0 > r1` or `r1 > rows`.
    pub fn row_block(&self, r0: usize, r1: usize) -> Matrix {
        Matrix {
            rows: r1 - r0,
            cols: self.cols,
            data: self.rows_slice(r0, r1).to_vec(),
        }
    }

    /// Per-row non-zero counts, in row order. One pass over the storage.
    pub fn row_nnz_counts(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|i| self.row(i).iter().filter(|&&x| x != 0.0).count())
            .collect()
    }

    /// Returns a sub-matrix covering rows `[r0, r0+nrows)` and columns `[c0, c0+ncols)`.
    ///
    /// # Panics
    ///
    /// Panics if the requested block extends past the matrix bounds.
    pub fn block(&self, r0: usize, c0: usize, nrows: usize, ncols: usize) -> Matrix {
        assert!(
            r0 + nrows <= self.rows && c0 + ncols <= self.cols,
            "block out of bounds"
        );
        Matrix::from_fn(nrows, ncols, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Pads the matrix with zero columns on the right so that the width becomes a multiple
    /// of `multiple`. Returns `self` unchanged (cloned) when already aligned.
    pub fn pad_cols_to_multiple(&self, multiple: usize) -> Matrix {
        assert!(multiple > 0, "padding multiple must be positive");
        let rem = self.cols % multiple;
        if rem == 0 {
            return self.clone();
        }
        let new_cols = self.cols + (multiple - rem);
        Matrix::from_fn(self.rows, new_cols, |i, j| {
            if j < self.cols {
                self[(i, j)]
            } else {
                0.0
            }
        })
    }

    /// Returns `true` if every corresponding element differs by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.try_add(rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.try_sub(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: &Matrix) -> Matrix {
        crate::gemm::gemm(self, rhs).expect("matrix multiplication shape mismatch")
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:8.3}", self[(i, j)])?;
                if j + 1 < self.cols.min(12) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 12 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 5);
        assert_eq!(m.shape(), (3, 5));
        assert_eq!(m.len(), 15);
        assert!(m.iter().all(|&x| x == 0.0));
        assert_eq!(m.count_nonzeros(), 0);
        assert_eq!(m.count_zeros(), 15);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        let err = Matrix::from_vec(2, 2, vec![1.0; 5]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimensions { .. }));
    }

    #[test]
    fn indexing_round_trip() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 7.5;
        assert_eq!(m[(1, 2)], 7.5);
        assert_eq!(m.get(1, 2), Some(7.5));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 3), None);
    }

    #[test]
    fn transpose_is_involution() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as f32);
        let t = m.transpose();
        assert_eq!(t.shape(), (4, 3));
        assert_eq!(t[(2, 1)], m[(1, 2)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_multiplication() {
        let m = Matrix::from_fn(4, 4, |i, j| (i + j) as f32);
        let id = Matrix::identity(4);
        assert_eq!(&m * &id, m);
        assert_eq!(&id * &m, m);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::filled(2, 2, 2.0);
        assert_eq!((&a + &b)[(0, 0)], 3.0);
        assert_eq!((&a - &b)[(1, 1)], 2.0);
        assert_eq!(a.hadamard(&b).unwrap()[(1, 0)], 6.0);
        assert_eq!(a.scale(0.5)[(1, 1)], 2.0);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.abs_sum(), 10.0);
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.try_add(&b).unwrap_err(),
            TensorError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn row_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        let mut m = m;
        m.row_mut(0)[2] = 9.0;
        assert_eq!(m[(0, 2)], 9.0);
    }

    #[test]
    fn block_extraction() {
        let m = Matrix::from_fn(4, 6, |i, j| (i * 6 + j) as f32);
        let b = m.block(1, 2, 2, 3);
        assert_eq!(b.shape(), (2, 3));
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        assert_eq!(b[(1, 2)], m[(2, 4)]);
    }

    #[test]
    fn pad_cols() {
        let m = Matrix::filled(2, 6, 1.0);
        let p = m.pad_cols_to_multiple(4);
        assert_eq!(p.shape(), (2, 8));
        assert_eq!(p[(0, 5)], 1.0);
        assert_eq!(p[(0, 6)], 0.0);
        assert_eq!(p[(1, 7)], 0.0);
        // Already aligned: unchanged.
        let q = p.pad_cols_to_multiple(4);
        assert_eq!(q, p);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Matrix::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(0, 0)] = 1.0005;
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn count_nonzeros_counts_exact_zeros_only() {
        let m = Matrix::from_rows(&[vec![0.0, 1e-30, -0.0, 2.0]]);
        assert_eq!(m.count_nonzeros(), 2);
    }

    #[test]
    fn rows_slice_is_contiguous_row_major() {
        let m = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f32);
        assert_eq!(m.rows_slice(1, 3), &[3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(m.rows_slice(0, 4).len(), 12);
        assert_eq!(m.rows_slice(2, 2), &[] as &[f32]);
        let mut m = m;
        m.rows_slice_mut(3, 4)[0] = -1.0;
        assert_eq!(m[(3, 0)], -1.0);
    }

    #[test]
    fn row_block_is_a_contiguous_row_slice() {
        let m = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f32);
        let b = m.row_block(1, 4);
        assert_eq!(b.shape(), (3, 3));
        assert_eq!(b.as_slice(), m.rows_slice(1, 4));
        assert_eq!(b, m.block(1, 0, 3, 3));
        // Degenerate ranges stay well-formed.
        assert_eq!(m.row_block(2, 2).shape(), (0, 3));
        assert_eq!(m.row_block(0, 5), m);
    }

    #[test]
    fn row_nnz_counts_match_per_row_scans() {
        let m = Matrix::from_rows(&[
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![2.0, 3.0, -4.0],
        ]);
        assert_eq!(m.row_nnz_counts(), vec![1, 0, 3]);
        assert_eq!(m.row_nnz_counts().iter().sum::<usize>(), m.count_nonzeros());
        assert!(Matrix::zeros(0, 4).row_nnz_counts().is_empty());
    }

    #[test]
    fn fingerprint_tracks_content_and_shape() {
        let a = Matrix::from_fn(3, 4, |i, j| (i + j) as f32);
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c[(2, 3)] += 1.0;
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Same data, different shape.
        let flat = a.as_slice().to_vec();
        let reshaped = Matrix::from_vec(4, 3, flat).unwrap();
        assert_ne!(a.fingerprint(), reshaped.fingerprint());
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Store snapshots keep row hashes from this same hash, so its values must not
        // drift between builds. 3x5 covers full 8-element chunks and a ragged tail.
        let m = Matrix::from_fn(3, 5, |i, j| i as f32 * 0.5 - j as f32 * 1.25);
        assert_eq!(m.fingerprint(), 325_991_931_397_060_744);
    }

    #[test]
    fn map_and_map_inplace_agree() {
        let m = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f32);
        let doubled = m.map(|x| x * 2.0);
        let mut m2 = m.clone();
        m2.map_inplace(|x| x * 2.0);
        assert_eq!(doubled, m2);
    }
}
