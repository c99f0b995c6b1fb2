//! Compressed storage for N:M structured sparse matrices.
//!
//! A structured-sparse tensor core does not consume a dense matrix with zeros; it consumes
//! a *compressed* operand: for every M-element block, up to N values plus small metadata
//! indices recording which lanes those values came from (NVIDIA's sparse tensor core uses
//! 2-bit metadata per kept value for 2:4). [`NmCompressed`] is that representation, and its
//! [`NmCompressed::spmm`] kernel performs only the effectual MACs — one per stored value
//! per output column — which is what the accelerator model counts.

use crate::backend::simd::{self, SimdLevel};
use crate::nm::NmPattern;
use crate::{Matrix, Result, TensorError};

/// One stored entry of a compressed block: the value and its lane index within the block.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    /// Column offset within the M-element block.
    lane: u8,
    /// The kept value.
    value: f32,
}

/// An N:M structured sparse matrix in compressed (values + metadata) form.
///
/// # Example
///
/// ```
/// use tasd_tensor::{Matrix, NmCompressed, NmPattern};
///
/// let dense = Matrix::from_rows(&[vec![0.0, 5.0, 0.0, -2.0, 1.0, 0.0, 0.0, 0.0]]);
/// let p = NmPattern::new(2, 4).unwrap();
/// let c = NmCompressed::from_dense(&dense, p).unwrap();
/// assert_eq!(c.nnz(), 3);
/// assert_eq!(c.to_dense(), dense);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NmCompressed {
    rows: usize,
    cols: usize,
    pattern: NmPattern,
    /// Entries stored block-major: for row `i` and block `b`, the entries live at
    /// `block_ptr[i * blocks_per_row + b] .. block_ptr[i * blocks_per_row + b + 1]`.
    entries: Vec<Entry>,
    block_ptr: Vec<usize>,
}

impl NmCompressed {
    /// Compresses a dense matrix that satisfies (or is to be clamped to) the N:M pattern.
    ///
    /// Each block keeps the lanes the pattern's selection rule picks (see [`crate::nm`]) —
    /// every nonzero of a conforming block, the N of largest magnitude otherwise — so this
    /// constructor is total and equals compressing the pattern's view; use
    /// [`NmCompressed::from_dense_strict`] to reject non-conforming inputs instead.
    ///
    /// # Errors
    ///
    /// Currently infallible for any well-formed matrix, but returns `Result` to keep the
    /// signature uniform with the strict constructor.
    pub fn from_dense(matrix: &Matrix, pattern: NmPattern) -> Result<Self> {
        let mut terms = Self::extract_series(matrix, &[pattern], None);
        Ok(terms.pop().expect("one pattern extracts one term").0)
    }

    /// Extracts the terms of a greedy TASD series (paper Eq. 1–4) from `matrix` in one
    /// pass: each row is copied once into a reused buffer; then for each pattern in order
    /// and each of its blocks, the lanes the selection rule picks (see [`crate::nm`]) are
    /// appended as `(lane, value)` entries in lane order and zeroed in the buffer, so the
    /// next pattern sees exactly what earlier ones left. Moving values out instead of
    /// subtracting them puts each input value in at most one term, non-finite values
    /// included.
    ///
    /// Returns one term per pattern, each paired with the number of nonzeros the buffer
    /// still held after it (the nonzeros its residual has). When `residual` is given, it
    /// receives what the last pattern left of each row.
    ///
    /// # Panics
    ///
    /// Panics if `residual` does not have `matrix`'s shape.
    // lint: hot-path
    pub fn extract_series(
        matrix: &Matrix,
        patterns: &[NmPattern],
        mut residual: Option<&mut Matrix>,
    ) -> Vec<(NmCompressed, usize)> {
        let (rows, cols) = matrix.shape();
        let mut terms: Vec<(NmCompressed, usize)> = patterns
            .iter()
            .map(|&pattern| {
                let mut block_ptr = Vec::with_capacity(rows * pattern.blocks_per_row(cols) + 1);
                block_ptr.push(0);
                let term = NmCompressed {
                    rows,
                    cols,
                    pattern,
                    entries: Vec::new(),
                    block_ptr,
                };
                (term, 0)
            })
            .collect();
        let mut buffer = vec![0.0f32; cols];
        for i in 0..rows {
            buffer.copy_from_slice(matrix.row(i));
            for (term, nonzeros_left) in &mut terms {
                *nonzeros_left += term.extract_row(&mut buffer);
            }
            if let Some(residual) = residual.as_deref_mut() {
                residual.row_mut(i).copy_from_slice(&buffer);
            }
        }
        terms
    }

    /// Appends this term's entries for the next row, moving each kept value out of `row`;
    /// returns the number of nonzeros left in it.
    // lint: hot-path
    fn extract_row(&mut self, row: &mut [f32]) -> usize {
        let mut nonzeros_left = 0;
        for block in row.chunks_mut(self.pattern.m()) {
            let (mut kept, left) = self.pattern.select(block);
            nonzeros_left += left;
            while kept != 0 {
                let lane = kept.trailing_zeros() as usize;
                kept &= kept - 1;
                if let Some(x) = block.get_mut(lane) {
                    self.entries.push(Entry {
                        lane: lane as u8,
                        value: *x,
                    });
                    *x = 0.0;
                }
            }
            self.block_ptr.push(self.entries.len());
        }
        nonzeros_left
    }

    /// Compresses a dense matrix, returning an error if it does not already satisfy the
    /// pattern. Every nonzero of a conforming block is kept, exactly as
    /// [`NmCompressed::from_dense`] keeps it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CorruptCompressed`] if any block violates the pattern.
    pub fn from_dense_strict(matrix: &Matrix, pattern: NmPattern) -> Result<Self> {
        if !pattern.is_satisfied_by(matrix) {
            return Err(TensorError::CorruptCompressed(format!(
                "matrix does not satisfy {pattern} pattern"
            )));
        }
        Self::from_dense(matrix, pattern)
    }

    /// Number of rows of the logical (dense) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the logical (dense) matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape of the logical matrix as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The N:M pattern this matrix conforms to.
    pub fn pattern(&self) -> NmPattern {
        self.pattern
    }

    /// Number of stored (non-zero) values.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Sparsity degree of the logical matrix.
    pub fn sparsity(&self) -> f64 {
        if self.rows * self.cols == 0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Storage footprint in bytes: 4 bytes per value plus `ceil(log2(M))` bits of metadata
    /// per value, rounded up to whole bytes per matrix (the format a sparse tensor core
    /// would consume).
    pub fn storage_bytes(&self) -> usize {
        let meta_bits_per_value =
            usize::BITS as usize - (self.pattern.m().max(2) - 1).leading_zeros() as usize;
        let value_bytes = self.nnz() * 4;
        let meta_bytes = (self.nnz() * meta_bits_per_value).div_ceil(8);
        value_bytes + meta_bytes
    }

    /// Expands back to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let bpr = self.pattern.blocks_per_row(self.cols);
        for i in 0..self.rows {
            for b in 0..bpr {
                let base_col = b * self.pattern.m();
                let blk = i * bpr + b;
                for e in &self.entries[self.block_ptr[blk]..self.block_ptr[blk + 1]] {
                    out[(i, base_col + e.lane as usize)] = e.value;
                }
            }
        }
        out
    }

    /// Structured sparse matrix multiply: `C = self * B`, performing one MAC per stored
    /// value per output column (ineffectual MACs are skipped by construction).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != b.rows()`.
    pub fn spmm(&self, b: &Matrix) -> Result<Matrix> {
        let mut c = Matrix::zeros(self.rows, b.cols());
        self.spmm_into(b, &mut c)?;
        Ok(c)
    }

    /// Accumulating variant of [`NmCompressed::spmm`]: `C += self * B`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes are inconsistent.
    pub fn spmm_into(&self, b: &Matrix, c: &mut Matrix) -> Result<()> {
        if self.cols != b.rows() {
            return Err(TensorError::ShapeMismatch {
                op: "nm spmm",
                lhs: self.shape(),
                rhs: b.shape(),
            });
        }
        if c.rows() != self.rows || c.cols() != b.cols() {
            return Err(TensorError::ShapeMismatch {
                op: "nm spmm accumulator",
                lhs: (self.rows, b.cols()),
                rhs: c.shape(),
            });
        }
        let rows = self.rows;
        let n = b.cols();
        self.spmm_rows_into(b, 0, rows, c.rows_slice_mut(0, rows), n);
        Ok(())
    }

    /// Row-range SpMM kernel: `C[r0..r1] += self[r0..r1, :] * B`, where `c_rows` is the
    /// contiguous row-major slab covering output rows `[r0, r1)` with `n_cols` columns.
    /// This is the format-native kernel the GEMM backends (and the execution engine's
    /// row tiles) drive; it performs one MAC per stored value per output column.
    ///
    /// # Panics
    ///
    /// Panics if the row range, `b`, or `c_rows` are inconsistent with this matrix. Use the
    /// backend layer ([`crate::backend`]) for checked dispatch.
    // lint: hot-path, warm-path, allow(panic, indexing): the asserts are this kernel's
    // documented # Panics contract, and they pin the slab and block-pointer indexing below
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
    /// value's lane metadata indexes its `B` row, which streams through an 8-wide axpy
    /// at `level` — indexed vector MACs, IndexMAC-style. Stored zeros (padding lanes)
    /// are skipped — the backend layer's zero-annihilation contract
    /// ([`crate::backend::GemmBackend`]).
    ///
    /// # Panics
    ///
    /// Panics if the row range, `b`, or `c_rows` are inconsistent with this matrix. Use the
    /// backend layer ([`crate::backend`]) for checked dispatch.
    // lint: hot-path, warm-path, allow(panic, indexing): the asserts are this kernel's
    // documented # Panics contract, and they pin the slab and block-pointer indexing below
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
        let bpr = self.pattern.blocks_per_row(self.cols);
        let m_block = self.pattern.m();
        for i in r0..r1 {
            let c_row = &mut c_rows[(i - r0) * n_cols..(i - r0 + 1) * n_cols];
            for blk_in_row in 0..bpr {
                let base_col = blk_in_row * m_block;
                let blk = i * bpr + blk_in_row;
                for e in &self.entries[self.block_ptr[blk]..self.block_ptr[blk + 1]] {
                    if e.value == 0.0 {
                        continue;
                    }
                    let k = base_col + e.lane as usize;
                    simd::axpy(level, e.value, b.row(k), c_row);
                }
            }
        }
    }

    /// Iterator over the stored `(column, value)` pairs of row `i`, in column order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        let bpr = self.pattern.blocks_per_row(self.cols);
        let m_block = self.pattern.m();
        (0..bpr).flat_map(move |blk_in_row| {
            let blk = i * bpr + blk_in_row;
            let base_col = blk_in_row * m_block;
            self.entries[self.block_ptr[blk]..self.block_ptr[blk + 1]]
                .iter()
                .map(move |e| (base_col + e.lane as usize, e.value))
        })
    }

    /// Number of effectual MACs this operand contributes to a GEMM with `n_cols` output
    /// columns.
    pub fn effectual_macs(&self, n_cols: usize) -> u64 {
        self.nnz() as u64 * n_cols as u64
    }

    /// Converts to CSR form directly (no dense round trip), preserving per-row entry
    /// order: row `i`'s CSR entries are exactly [`NmCompressed::row_entries`]`(i)` in
    /// sequence, so a GEMM over the CSR form accumulates every output element in the
    /// same floating-point order as the native N:M kernel — results are bitwise
    /// identical. This is the prepare-time conversion the execution engine uses to
    /// materialize a CSR-planned TASD term in its kernel's native format.
    pub fn to_csr(&self) -> crate::CsrMatrix {
        let bpr = self.pattern.blocks_per_row(self.cols);
        let m_block = self.pattern.m();
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        row_ptr.push(0);
        for i in 0..self.rows {
            for blk_in_row in 0..bpr {
                let blk = i * bpr + blk_in_row;
                let base_col = blk_in_row * m_block;
                for e in &self.entries[self.block_ptr[blk]..self.block_ptr[blk + 1]] {
                    col_idx.push(base_col + e.lane as usize);
                    values.push(e.value);
                }
            }
            row_ptr.push(values.len());
        }
        crate::CsrMatrix::from_parts(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("a valid compressed matrix converts to valid CSR")
    }

    /// Verifies internal structural invariants (monotone block pointers, lane bounds,
    /// per-block entry count within N). Useful for property tests and after deserialization.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::CorruptCompressed`] describing the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        let bpr = self.pattern.blocks_per_row(self.cols);
        if self.block_ptr.len() != self.rows * bpr + 1 {
            return Err(TensorError::CorruptCompressed(format!(
                "block_ptr length {} does not match {} blocks",
                self.block_ptr.len(),
                self.rows * bpr
            )));
        }
        if *self.block_ptr.last().unwrap_or(&0) != self.entries.len() {
            return Err(TensorError::CorruptCompressed(
                "final block pointer does not cover all entries".to_string(),
            ));
        }
        for w in self.block_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(TensorError::CorruptCompressed(
                    "block pointers are not monotone".to_string(),
                ));
            }
            if w[1] - w[0] > self.pattern.n() {
                return Err(TensorError::CorruptCompressed(format!(
                    "a block stores {} values, exceeding N={}",
                    w[1] - w[0],
                    self.pattern.n()
                )));
            }
        }
        for e in &self.entries {
            if (e.lane as usize) >= self.pattern.m() {
                return Err(TensorError::CorruptCompressed(format!(
                    "lane {} out of bounds for M={}",
                    e.lane,
                    self.pattern.m()
                )));
            }
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
    fn round_trip_conforming_matrix() {
        let p = NmPattern::new(2, 4).unwrap();
        let dense = MatrixGenerator::seeded(1).structured_nm(16, 32, p);
        let c = NmCompressed::from_dense_strict(&dense, p).unwrap();
        assert_eq!(c.to_dense(), dense);
        assert_eq!(c.nnz(), dense.count_nonzeros());
        c.validate().unwrap();
    }

    #[test]
    fn from_dense_clamps_nonconforming() {
        let dense = Matrix::filled(2, 8, 1.0);
        let p = NmPattern::new(2, 4).unwrap();
        let c = NmCompressed::from_dense(&dense, p).unwrap();
        assert_eq!(c.nnz(), 2 * 2 * 2);
        assert!(p.is_satisfied_by(&c.to_dense()));
        assert!(NmCompressed::from_dense_strict(&dense, p).is_err());
    }

    #[test]
    fn spmm_matches_dense_gemm_on_view() {
        let mut gen = MatrixGenerator::seeded(5);
        let p = NmPattern::new(2, 8).unwrap();
        let a = gen.sparse_normal(24, 32, 0.5);
        let view = p.view(&a);
        let b = gen.normal(32, 12, 0.0, 1.0);
        let c_sparse = NmCompressed::from_dense(&a, p).unwrap().spmm(&b).unwrap();
        let c_dense = gemm(&view, &b).unwrap();
        assert!(c_sparse.approx_eq(&c_dense, 1e-4));
    }

    #[test]
    fn spmm_into_accumulates() {
        let p = NmPattern::new(1, 4).unwrap();
        let a = Matrix::from_rows(&[vec![2.0, 0.0, 0.0, 0.0]]);
        let c = NmCompressed::from_dense_strict(&a, p).unwrap();
        let b = Matrix::filled(4, 3, 1.0);
        let mut acc = Matrix::filled(1, 3, 10.0);
        c.spmm_into(&b, &mut acc).unwrap();
        assert_eq!(acc, Matrix::filled(1, 3, 12.0));
    }

    #[test]
    fn shape_mismatch_errors() {
        let p = NmPattern::new(2, 4).unwrap();
        let a = NmCompressed::from_dense(&Matrix::zeros(2, 8), p).unwrap();
        assert!(a.spmm(&Matrix::zeros(4, 4)).is_err());
        let b = Matrix::zeros(8, 3);
        let mut bad_acc = Matrix::zeros(3, 3);
        assert!(a.spmm_into(&b, &mut bad_acc).is_err());
    }

    #[test]
    fn storage_bytes_reflects_metadata_width() {
        let p4 = NmPattern::new(2, 4).unwrap();
        let p8 = NmPattern::new(2, 8).unwrap();
        let dense = Matrix::from_rows(&[vec![1.0, 0.0, 2.0, 0.0, 0.0, 3.0, 0.0, 4.0]]);
        let c4 = NmCompressed::from_dense(&dense, p4).unwrap();
        let c8 = NmCompressed::from_dense(&dense, p8).unwrap();
        assert_eq!(c4.nnz(), 4);
        assert_eq!(c8.nnz(), 2);
        // 2-bit metadata for M=4, 3-bit for M=8.
        assert_eq!(c4.storage_bytes(), 4 * 4 + 1);
        assert_eq!(c8.storage_bytes(), 2 * 4 + 1);
    }

    #[test]
    fn sparsity_and_effectual_macs() {
        let p = NmPattern::new(2, 4).unwrap();
        let dense = Matrix::from_rows(&[vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]]);
        let c = NmCompressed::from_dense_strict(&dense, p).unwrap();
        assert_eq!(c.sparsity(), 0.75);
        assert_eq!(c.effectual_macs(16), 2 * 16);
    }

    #[test]
    fn empty_matrix_handled() {
        let p = NmPattern::new(2, 4).unwrap();
        let c = NmCompressed::from_dense(&Matrix::zeros(0, 0), p).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.sparsity(), 0.0);
        c.validate().unwrap();
    }
}
