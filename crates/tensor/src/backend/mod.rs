//! Pluggable GEMM backends: one trait, three kernels, one seam.
//!
//! Everything in this repository that multiplies a (possibly sparse, possibly compressed)
//! left-hand operand by a dense right-hand matrix goes through [`GemmBackend`]. The trait
//! separates *what* is multiplied — any [`GemmOperand`]: a dense [`Matrix`](crate::Matrix),
//! a [`CsrMatrix`](crate::CsrMatrix), or a compressed [`NmCompressed`](crate::NmCompressed)
//! term of a TASD series — from *how* it is executed:
//!
//! * [`DenseBackend`] — cache-blocked dense kernel (B panels tiled to stay resident across
//!   output rows) with exact-zero skipping; densifies compressed operands into a row-block
//!   scratch first, which wins once operands are dense enough for streaming to beat
//!   per-entry dispatch.
//! * [`CsrBackend`] — unstructured sparse row kernel: one MAC per stored non-zero per
//!   output column, driven off each format's native row entries.
//! * [`NmBackend`] — structured N:M kernel consuming compressed (values + lane metadata)
//!   operands directly, the software analogue of a sparse-tensor-core datapath.
//!
//! Every backend also exposes its row-range kernel
//! ([`gemm_rows_into`](GemmBackend::gemm_rows_into)). Backends run on the caller's
//! thread: spreading a GEMM's rows over threads is the execution engine's job (the
//! `tasd` crate tiles large GEMMs over its one resident worker pool), so this crate
//! spawns nothing.
//!
//! Every kernel's inner loop is an 8-wide f32 SIMD microkernel from the [`simd`] layer
//! (re-exported here as [`SimdLevel`]): the instruction tier — 256-bit AVX/FMA on x86-64
//! hardware that has it, a hand-unrolled portable loop everywhere else — is detected once
//! at backend construction and stored in the backend, so no kernel call ever re-runs
//! feature detection.
//!
//! Backends accept every operand: when the operand is not in a backend's native format the
//! backend falls back to a correct (if slower) path, so backend choice is purely a
//! performance decision. That is what lets the execution engine in the `tasd` crate pick a
//! backend per TASD term from density alone. The fallback is a correctness safety net,
//! not an execution strategy: the engine's *planned* paths materialize each operand into
//! its chosen backend's native format ahead of time ([`PackedOperand`]), so the
//! per-entry dyn-dispatched fallback never runs on a prepared hot path. The relative
//! costs the engine's heuristic encodes are measured by `benches/backends.rs` in the
//! `tasd-bench` crate.
//!
//! # Example
//!
//! ```
//! use tasd_tensor::backend::{CsrBackend, DenseBackend, GemmBackend};
//! use tasd_tensor::{CsrMatrix, Matrix, MatrixGenerator};
//!
//! let mut gen = MatrixGenerator::seeded(1);
//! let a = gen.sparse_normal(64, 64, 0.8);
//! let b = gen.normal(64, 32, 0.0, 1.0);
//!
//! let csr = CsrMatrix::from_dense(&a);
//!
//! let mut c1 = Matrix::zeros(64, 32);
//! let mut c2 = Matrix::zeros(64, 32);
//! let csr_backend = CsrBackend::default();
//! DenseBackend::default().gemm_into(&csr, &b, &mut c1).unwrap(); // any backend × any operand
//! csr_backend.gemm_into(&csr, &b, &mut c2).unwrap();
//! assert!(c1.approx_eq(&c2, 1e-4));
//!
//! // The row-range kernel: the same product, one row block at a time, bit for bit.
//! let mut c3 = Matrix::zeros(64, 32);
//! for (r0, r1) in [(0, 24), (24, 64)] {
//!     csr_backend.gemm_rows_into(&csr, &b, r0, r1, c3.rows_slice_mut(r0, r1), 32);
//! }
//! assert_eq!(c2, c3);
//! ```

mod csr;
mod dense;
mod multi;
mod nm;
mod operand;
mod packed;
pub mod simd;

pub use csr::CsrBackend;
pub use dense::DenseBackend;
pub use multi::{pack_panels, unpack_panels, unpack_panels_into};
pub use nm::NmBackend;
pub use operand::GemmOperand;
pub use packed::{PackedKind, PackedOperand};
pub use simd::SimdLevel;

use crate::{Matrix, Result, TensorError};
use std::fmt;

/// Relative execution-cost estimate a backend reports for a `(operand, output width)`
/// pair, in MAC-equivalents. The execution engine compares hints across backends when
/// planning; absolute values are meaningless, ratios matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostHint {
    /// Multiply-accumulates the backend will execute (its compute proper).
    pub compute_macs: u64,
    /// Additional non-MAC work in MAC-equivalents: format conversion, decompression
    /// scratch fills, per-entry dispatch overhead.
    pub overhead_macs: u64,
}

impl CostHint {
    /// Total estimated cost in MAC-equivalents.
    pub fn total(&self) -> u64 {
        self.compute_macs.saturating_add(self.overhead_macs)
    }
}

/// A GEMM execution strategy: computes `C += A · B` for any [`GemmOperand`] `A`.
///
/// Implementations must be [`Sync`] + [`Send`]: the engine shares one backend across
/// threads and drives its row-range kernel from worker threads.
///
/// # Zero annihilation (non-finite contract)
///
/// An exact-zero operand entry (stored or implicit) **never contributes to the output**,
/// even when the corresponding `B` row contains `NaN` or `±Inf` — zeros annihilate
/// (`0 · NaN` is treated as `0`), rather than propagating non-finite values per IEEE-754
/// `0.0 * NaN = NaN`. This is the only contract a sparse backend *can* honor — CSR and
/// N:M kernels never see unstored zeros — so the dense and SIMD kernels skip exact-zero
/// operand lanes to match. Consequence: which outputs are non-finite is determined by
/// the operand's sparsity pattern alone and is identical across every backend, SIMD
/// tier, and blocking strategy. Pinned by `zero_operand_entries_annihilate_nonfinite_b`
/// in `tests/simd_kernels.rs`.
pub trait GemmBackend: fmt::Debug + Sync + Send {
    /// Short stable name for plans, logs, and bench labels (e.g. `"dense"`, `"csr"`).
    fn name(&self) -> &'static str;

    /// Computes `C += lhs · b`, accumulating into `c`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the operand shapes are inconsistent.
    fn gemm_into(&self, lhs: &dyn GemmOperand, b: &Matrix, c: &mut Matrix) -> Result<()> {
        check_shapes(self.name(), lhs, b, c)?;
        let rows = lhs.shape().0;
        let n_cols = b.cols();
        self.gemm_rows_into(lhs, b, 0, rows, c.rows_slice_mut(0, rows), n_cols);
        Ok(())
    }

    /// Row-block kernel: computes `C[r0..r1] += lhs[r0..r1, :] · b` into the contiguous
    /// row-major slab `c_rows` (length `(r1 - r0) * n_cols`).
    ///
    /// This is the unit of work the execution engine distributes over its workers (row
    /// tiles and bands); shape checking happens once up front ([`GemmBackend::gemm_into`]
    /// or the engine's own check), so implementations may assume consistent arguments
    /// and panic otherwise.
    fn gemm_rows_into(
        &self,
        lhs: &dyn GemmOperand,
        b: &Matrix,
        r0: usize,
        r1: usize,
        c_rows: &mut [f32],
        n_cols: usize,
    );

    /// Multi-RHS entry: computes `Cᵢ += lhs · Bᵢ` for a batch of right-hand panels
    /// sharing the operand, in one kernel pass. The panels are packed column-wise into
    /// one wide RHS ([`pack_panels`]), executed through [`GemmBackend::gemm_into`] — so
    /// the row kernel streams every stored entry of `lhs` across the whole batch width
    /// once instead of once per panel — and the wide result is scattered back. Column
    /// independence of GEMM makes each `Cᵢ` identical to a one-at-a-time
    /// `gemm_into(lhs, Bᵢ, Cᵢ)` call, including accumulation order.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the panel and output counts differ or
    /// any `(lhs, Bᵢ, Cᵢ)` triple has inconsistent shapes.
    fn gemm_multi_into(
        &self,
        lhs: &dyn GemmOperand,
        panels: &[&Matrix],
        outs: &mut [Matrix],
    ) -> Result<()> {
        if panels.len() != outs.len() {
            return Err(TensorError::ShapeMismatch {
                op: "multi-rhs panel/output count",
                lhs: (panels.len(), 0),
                rhs: (outs.len(), 0),
            });
        }
        for (b, c) in panels.iter().zip(outs.iter()) {
            check_shapes(self.name(), lhs, b, c)?;
        }
        if panels.is_empty() {
            return Ok(());
        }
        let wide_b = pack_panels(panels)?;
        // Pack the outputs too so `+=` accumulation carries through the wide pass.
        let mut wide_c = pack_panels(&outs.iter().collect::<Vec<_>>())?;
        self.gemm_into(lhs, &wide_b, &mut wide_c)?;
        unpack_panels_into(&wide_c, outs);
        Ok(())
    }

    /// Estimated cost of executing `lhs · B` where `B` has `n_cols` columns.
    fn cost_hint(&self, lhs: &dyn GemmOperand, n_cols: usize) -> CostHint {
        CostHint {
            compute_macs: lhs.nnz() as u64 * n_cols as u64,
            overhead_macs: 0,
        }
    }
}

/// Validates the `C += A · B` shape contract shared by every backend.
pub(crate) fn check_shapes(
    op: &'static str,
    lhs: &dyn GemmOperand,
    b: &Matrix,
    c: &Matrix,
) -> Result<()> {
    let (m, k) = lhs.shape();
    if k != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: (m, k),
            rhs: b.shape(),
        });
    }
    if c.rows() != m || c.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: (m, b.cols()),
            rhs: c.shape(),
        });
    }
    Ok(())
}

/// Format-agnostic row kernel used by backends as the fallback for non-native operands:
/// per stored entry, `c_row += value * b[col]`.
// lint: hot-path, warm-path, allow(indexing): the debug_assert pins c_rows to
// exactly (r1 - r0) * n_cols elements, so every row slice below is in bounds
pub(crate) fn gemm_rows_generic(
    lhs: &dyn GemmOperand,
    b: &Matrix,
    r0: usize,
    r1: usize,
    c_rows: &mut [f32],
    n_cols: usize,
) {
    debug_assert_eq!(c_rows.len(), (r1 - r0) * n_cols);
    for i in r0..r1 {
        let c_row = &mut c_rows[(i - r0) * n_cols..(i - r0 + 1) * n_cols];
        lhs.for_each_in_row(i, &mut |col, value| {
            // Zero-annihilation contract: stored zeros (e.g. N:M padding lanes) must
            // not propagate NaN/Inf from B.
            if value == 0.0 {
                return;
            }
            let b_row = b.row(col);
            for (cv, bv) in c_row.iter_mut().zip(b_row) {
                *cv += value * bv;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm, CsrMatrix, MatrixGenerator, NmCompressed, NmPattern};

    fn operands(sparsity: f64) -> (Matrix, CsrMatrix, NmCompressed, Matrix) {
        let mut gen = MatrixGenerator::seeded(42);
        let a = gen.sparse_normal(33, 48, sparsity);
        let b = gen.normal(48, 17, 0.0, 1.0);
        let csr = CsrMatrix::from_dense(&a);
        let nm_view = NmPattern::new(2, 8).unwrap().view(&a);
        let nm = NmCompressed::from_dense_strict(&nm_view, NmPattern::new(2, 8).unwrap()).unwrap();
        (a, csr, nm, b)
    }

    fn all_backends() -> Vec<Box<dyn GemmBackend>> {
        vec![
            Box::new(DenseBackend::default()),
            Box::new(CsrBackend::default()),
            Box::new(NmBackend::default()),
        ]
    }

    #[test]
    fn every_backend_matches_reference_on_every_operand() {
        for sparsity in [0.0, 0.5, 0.9] {
            let (a, csr, nm, b) = operands(sparsity);
            let reference = gemm(&a, &b).unwrap();
            let nm_reference = gemm(&nm.to_dense(), &b).unwrap();
            for backend in all_backends() {
                let mut c = Matrix::zeros(a.rows(), b.cols());
                backend.gemm_into(&a, &b, &mut c).unwrap();
                assert!(
                    c.approx_eq(&reference, 1e-4),
                    "{} on dense operand (sparsity {sparsity})",
                    backend.name()
                );
                let mut c = Matrix::zeros(a.rows(), b.cols());
                backend.gemm_into(&csr, &b, &mut c).unwrap();
                assert!(
                    c.approx_eq(&reference, 1e-4),
                    "{} on csr operand (sparsity {sparsity})",
                    backend.name()
                );
                let mut c = Matrix::zeros(a.rows(), b.cols());
                backend.gemm_into(&nm, &b, &mut c).unwrap();
                assert!(
                    c.approx_eq(&nm_reference, 1e-4),
                    "{} on nm operand (sparsity {sparsity})",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn backends_accumulate_rather_than_overwrite() {
        let (a, _, _, b) = operands(0.5);
        for backend in all_backends() {
            let mut c = Matrix::filled(a.rows(), b.cols(), 1.0);
            backend.gemm_into(&a, &b, &mut c).unwrap();
            let mut expected = gemm(&a, &b).unwrap();
            expected.map_inplace(|x| x + 1.0);
            assert!(c.approx_eq(&expected, 1e-4), "{}", backend.name());
        }
    }

    #[test]
    fn shape_mismatches_are_rejected_by_every_backend() {
        let (a, _, _, _) = operands(0.5);
        let bad_b = Matrix::zeros(a.cols() + 1, 4);
        let good_b = Matrix::zeros(a.cols(), 4);
        for backend in all_backends() {
            let mut c = Matrix::zeros(a.rows(), 4);
            assert!(
                backend.gemm_into(&a, &bad_b, &mut c).is_err(),
                "{}",
                backend.name()
            );
            let mut bad_c = Matrix::zeros(a.rows() + 2, 4);
            assert!(
                backend.gemm_into(&a, &good_b, &mut bad_c).is_err(),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn row_range_kernels_cover_partial_ranges() {
        let (a, csr, _, b) = operands(0.7);
        let reference = gemm(&a, &b).unwrap();
        for backend in all_backends() {
            let n = b.cols();
            let mut c = Matrix::zeros(a.rows(), n);
            // Execute in three uneven row blocks.
            for (r0, r1) in [(0usize, 5usize), (5, 20), (20, a.rows())] {
                let slab = c.rows_slice_mut(r0, r1);
                backend.gemm_rows_into(&csr, &b, r0, r1, slab, n);
            }
            assert!(c.approx_eq(&reference, 1e-4), "{}", backend.name());
        }
    }

    #[test]
    fn multi_rhs_matches_one_at_a_time_bit_for_bit() {
        let (a, csr, nm, _) = operands(0.6);
        let mut gen = MatrixGenerator::seeded(77);
        let panels: Vec<Matrix> = [5usize, 1, 9, 3]
            .iter()
            .map(|&w| gen.normal(a.cols(), w, 0.0, 1.0))
            .collect();
        let panel_refs: Vec<&Matrix> = panels.iter().collect();
        for backend in all_backends() {
            for operand in [&a as &dyn GemmOperand, &csr, &nm] {
                let mut batched: Vec<Matrix> = panels
                    .iter()
                    .map(|p| Matrix::filled(a.rows(), p.cols(), 0.5))
                    .collect();
                backend
                    .gemm_multi_into(operand, &panel_refs, &mut batched)
                    .unwrap();
                for (p, got) in panels.iter().zip(&batched) {
                    let mut single = Matrix::filled(a.rows(), p.cols(), 0.5);
                    backend.gemm_into(operand, p, &mut single).unwrap();
                    // Packing only widens the RHS; per-column accumulation order is
                    // unchanged, so the results agree exactly.
                    assert_eq!(&single, got, "{} multi-rhs drift", backend.name());
                }
            }
        }
    }

    #[test]
    fn multi_rhs_rejects_inconsistent_batches() {
        let (a, _, _, _) = operands(0.5);
        let good = Matrix::zeros(a.cols(), 4);
        let bad = Matrix::zeros(a.cols() + 1, 4);
        let backend = DenseBackend::default();
        let mut outs = vec![Matrix::zeros(a.rows(), 4); 2];
        assert!(backend
            .gemm_multi_into(&a, &[&good, &bad], &mut outs)
            .is_err());
        let mut short = vec![Matrix::zeros(a.rows(), 4)];
        assert!(backend
            .gemm_multi_into(&a, &[&good, &good], &mut short)
            .is_err());
        assert!(backend.gemm_multi_into(&a, &[], &mut []).is_ok());
    }

    #[test]
    fn cost_hints_scale_with_nnz() {
        let (a, csr, _, b) = operands(0.9);
        let backend = CsrBackend::default();
        let hint = backend.cost_hint(&csr, b.cols());
        assert_eq!(hint.compute_macs, csr.nnz() as u64 * b.cols() as u64);
        let dense_hint = DenseBackend::default().cost_hint(&a, b.cols());
        assert!(dense_hint.total() >= hint.compute_macs);
    }

    #[test]
    fn empty_operands_are_handled() {
        let a = Matrix::zeros(0, 8);
        let b = Matrix::zeros(8, 3);
        for backend in all_backends() {
            let mut c = Matrix::zeros(0, 3);
            backend.gemm_into(&a, &b, &mut c).unwrap();
            assert_eq!(c.shape(), (0, 3));
        }
    }
}
