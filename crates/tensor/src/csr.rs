//! Compressed sparse row storage for unstructured sparse matrices.
//!
//! The unstructured-sparse baselines in the paper (SCNN, SIGMA, DSTC) consume operands in a
//! fully unstructured compressed form. [`CsrMatrix`] is the reference for that: it stores
//! only non-zeros with explicit column indices, and its SpMM performs exactly one MAC per
//! stored value per output column.

use crate::backend::simd::{self, SimdLevel};
use crate::{Matrix, Result, TensorError};

/// A compressed-sparse-row matrix of `f32` values.
///
/// # Example
///
/// ```
/// use tasd_tensor::{CsrMatrix, Matrix};
///
/// let dense = Matrix::from_rows(&[vec![0.0, 3.0], vec![1.0, 0.0]]);
/// let csr = CsrMatrix::from_dense(&dense);
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.to_dense(), dense);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from a dense matrix, storing only the exact non-zeros.
    pub fn from_dense(dense: &Matrix) -> Self {
        let rows = dense.rows();
        let cols = dense.cols();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..rows {
            for (j, &v) in dense.row(i).iter().enumerate() {
                if v != 0.0 {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(values.len());
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds a CSR matrix from raw parts.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CorruptCompressed`] if the parts are structurally
    /// inconsistent (pointer monotonicity, index bounds, array lengths).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self> {
        let csr = CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        };
        csr.validate()?;
        Ok(csr)
    }

    /// Number of rows of the logical matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape of the logical matrix as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Sparsity degree of the logical matrix.
    pub fn sparsity(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Storage footprint in bytes: 4-byte values, 4-byte column indices, 8-byte row
    /// pointers — the indexing overhead that makes unstructured formats expensive in
    /// hardware relative to N:M metadata.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 4 + self.col_idx.len() * 4 + self.row_ptr.len() * 8
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[(i, self.col_idx[k])] = self.values[k];
            }
        }
        out
    }

    /// Iterator over the stored `(column, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        let span = self.row_ptr[i]..self.row_ptr[i + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Sparse-dense matrix multiply `C = self * B`, one MAC per stored non-zero per output
    /// column.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != b.rows()`.
    pub fn spmm(&self, b: &Matrix) -> Result<Matrix> {
        if self.cols != b.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "csr spmm",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        let mut c = Matrix::zeros(self.rows, b.cols());
        let rows = self.rows;
        let n = b.cols();
        self.spmm_rows_into(b, 0, rows, c.rows_slice_mut(0, rows), n);
        Ok(c)
    }

    /// Row-range SpMM kernel: `C[r0..r1] += self[r0..r1, :] * B`, where `c_rows` is the
    /// contiguous row-major slab covering output rows `[r0, r1)` with `n_cols` columns.
    /// This is the format-native kernel the GEMM backends (and the execution engine's
    /// row tiles) drive.
    ///
    /// # Panics
    ///
    /// Panics if the row range, `b`, or `c_rows` are inconsistent with this matrix. Use the
    /// backend layer ([`crate::backend`]) for checked dispatch.
    // lint: hot-path, warm-path, allow(panic, indexing): the asserts are this kernel's
    // documented # Panics contract, and they pin the slab and row-pointer indexing below
    pub fn spmm_rows_into(
        &self,
        b: &Matrix,
        r0: usize,
        r1: usize,
        c_rows: &mut [f32],
        n_cols: usize,
    ) {
        self.spmm_rows_into_simd(b, r0, r1, c_rows, n_cols, SimdLevel::detected());
    }

    /// [`spmm_rows_into`](Self::spmm_rows_into) at an explicit SIMD tier: each stored
    /// non-zero streams its `B` row through an 8-wide axpy at `level`. Stored zeros are
    /// skipped — the backend layer's zero-annihilation contract
    /// ([`crate::backend::GemmBackend`]).
    ///
    /// # Panics
    ///
    /// Panics if the row range, `b`, or `c_rows` are inconsistent with this matrix. Use the
    /// backend layer ([`crate::backend`]) for checked dispatch.
    // lint: hot-path, warm-path, allow(panic, indexing): the asserts are this kernel's
    // documented # Panics contract, and they pin the slab and row-pointer indexing below
    pub fn spmm_rows_into_simd(
        &self,
        b: &Matrix,
        r0: usize,
        r1: usize,
        c_rows: &mut [f32],
        n_cols: usize,
        level: SimdLevel,
    ) {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row range {r0}..{r1} out of bounds"
        );
        assert_eq!(self.cols, b.rows(), "reduction depth mismatch");
        assert_eq!(n_cols, b.cols(), "output width mismatch");
        assert_eq!(
            c_rows.len(),
            (r1 - r0) * n_cols,
            "output slab size mismatch"
        );
        for i in r0..r1 {
            let c_row = &mut c_rows[(i - r0) * n_cols..(i - r0 + 1) * n_cols];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let v = self.values[k];
                if v == 0.0 {
                    continue;
                }
                simd::axpy(level, v, b.row(self.col_idx[k]), c_row);
            }
        }
    }

    /// Number of effectual MACs this operand contributes to a GEMM with `n_cols` output
    /// columns.
    pub fn effectual_macs(&self, n_cols: usize) -> u64 {
        self.nnz() as u64 * n_cols as u64
    }

    /// Verifies structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CorruptCompressed`] describing the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        if self.row_ptr.len() != self.rows + 1 {
            return Err(TensorError::CorruptCompressed(format!(
                "row_ptr length {} does not match {} rows",
                self.row_ptr.len(),
                self.rows
            )));
        }
        if self.col_idx.len() != self.values.len() {
            return Err(TensorError::CorruptCompressed(
                "col_idx and values lengths differ".to_string(),
            ));
        }
        if *self.row_ptr.last().unwrap_or(&0) != self.values.len() {
            return Err(TensorError::CorruptCompressed(
                "final row pointer does not cover all values".to_string(),
            ));
        }
        if self.row_ptr.windows(2).any(|w| w[1] < w[0]) {
            return Err(TensorError::CorruptCompressed(
                "row pointers are not monotone".to_string(),
            ));
        }
        if self.col_idx.iter().any(|&j| j >= self.cols) {
            return Err(TensorError::CorruptCompressed(
                "column index out of bounds".to_string(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm;
    use crate::random::MatrixGenerator;

    #[test]
    fn round_trip_dense() {
        let m = MatrixGenerator::seeded(3).sparse_normal(20, 30, 0.8);
        let csr = CsrMatrix::from_dense(&m);
        assert_eq!(csr.to_dense(), m);
        assert_eq!(csr.nnz(), m.count_nonzeros());
        csr.validate().unwrap();
    }

    #[test]
    fn spmm_matches_gemm() {
        let mut gen = MatrixGenerator::seeded(4);
        let a = gen.sparse_normal(17, 23, 0.6);
        let b = gen.normal(23, 9, 0.0, 1.0);
        let c_ref = gemm(&a, &b).unwrap();
        let c_sp = CsrMatrix::from_dense(&a).spmm(&b).unwrap();
        assert!(c_sp.approx_eq(&c_ref, 1e-4));
    }

    #[test]
    fn spmm_shape_mismatch() {
        let a = CsrMatrix::from_dense(&Matrix::zeros(3, 4));
        assert!(a.spmm(&Matrix::zeros(5, 2)).is_err());
    }

    #[test]
    fn from_parts_validation() {
        // Valid 2x2 with one nonzero.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1, 1], vec![1], vec![5.0]).is_ok());
        // Bad row_ptr length.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![1], vec![5.0]).is_err());
        // Column index out of bounds.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1, 1], vec![2], vec![5.0]).is_err());
        // Non-monotone pointers.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1, 0], vec![1], vec![5.0]).is_err());
        // Mismatched values / col_idx lengths.
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1, 1], vec![1, 0], vec![5.0]).is_err());
    }

    #[test]
    fn sparsity_and_storage() {
        let m = Matrix::from_rows(&[vec![1.0, 0.0, 0.0, 0.0], vec![0.0, 0.0, 0.0, 0.0]]);
        let csr = CsrMatrix::from_dense(&m);
        assert_eq!(csr.sparsity(), 7.0 / 8.0);
        assert_eq!(csr.effectual_macs(10), 10);
        assert_eq!(csr.storage_bytes(), 4 + 4 + 3 * 8);
    }

    #[test]
    fn empty_matrix() {
        let csr = CsrMatrix::from_dense(&Matrix::zeros(0, 0));
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.sparsity(), 0.0);
        csr.validate().unwrap();
    }
}
