//! Reference GEMM kernels over dense matrices.
//!
//! These kernels are the numerical ground truth for the TASD reproduction: the
//! structured-sparse kernels in [`crate::nm_compressed`] and [`crate::csr`] are validated
//! against them, and the approximated TASD-series GEMM in the `tasd` crate reports its
//! error relative to these results.
//!
//! They are deliberately the *simple* kernels — an i-k-j scalar loop with zero skipping.
//! The production kernels (cache-blocked dense and format-native sparse) live in
//! [`crate::backend`] and are validated against these.

use crate::{Matrix, Result, TensorError};

/// Computes `C = A * B` with the scalar reference kernel (i-k-j loop order, exact zeros on
/// the `A` side skipped).
///
/// This kernel is unblocked on purpose: it is the ground truth the cache-blocked
/// [`crate::backend::DenseBackend`] and the other [`crate::backend`] kernels are validated
/// against. Production call sites should dispatch through a
/// [`GemmBackend`](crate::backend::GemmBackend) instead of calling this directly.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.rows()`.
///
/// # Example
///
/// ```
/// use tasd_tensor::{gemm, Matrix};
///
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(gemm(&a, &b).unwrap(), a);
/// ```
pub fn gemm(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm_into(a, b, &mut c)?;
    Ok(c)
}

/// Computes `C += A * B` with the scalar reference kernel, accumulating into an existing
/// output matrix.
///
/// Accumulation is the primitive a TASD series execution needs: each structured term
/// contributes `A_i * B` into the same accumulator, mirroring how the hardware keeps the C
/// tile stationary across decomposed terms.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the operand shapes are inconsistent with the
/// accumulator.
pub fn gemm_into(a: &Matrix, b: &Matrix, c: &mut Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "gemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if c.rows() != a.rows() || c.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "gemm accumulator",
            lhs: (a.rows(), b.cols()),
            rhs: c.shape(),
        });
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    // i-k-j loop order keeps the B row and C row contiguous in the inner loop.
    for i in 0..m {
        let a_row = a.row(i);
        let c_row = c.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate().take(k) {
            if a_ip == 0.0 {
                // Skipping exact zeros makes the reference kernel cheap on sparse inputs
                // without changing the result.
                continue;
            }
            let b_row = b.row(p);
            for j in 0..n {
                c_row[j] += a_ip * b_row[j];
            }
        }
    }
    Ok(())
}

/// Counts the number of effectual multiply-accumulate operations of `A * B`, i.e. MACs
/// whose `A` operand is non-zero.
///
/// This is the operand-gating compute model used by the MAC-reduction experiments
/// (paper Fig. 20): a structured-sparse accelerator skips a MAC when the (decomposed)
/// `A`-side operand is zero.
pub fn effectual_macs(a: &Matrix, b_cols: usize) -> u64 {
    a.count_nonzeros() as u64 * b_cols as u64
}

/// Counts the dense MAC total of a GEMM with the given dimensions (`M*N*K`).
pub fn dense_macs(m: usize, n: usize, k: usize) -> u64 {
    m as u64 * n as u64 * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::MatrixGenerator;

    fn naive_gemm(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]])
        );
    }

    #[test]
    fn matches_naive_on_random_inputs() {
        let mut gen = MatrixGenerator::seeded(7);
        for &(m, k, n) in &[(5, 8, 3), (16, 16, 16), (33, 17, 9), (1, 64, 1)] {
            let a = gen.normal(m, k, 0.0, 1.0);
            let b = gen.normal(k, n, 0.0, 1.0);
            let fast = gemm(&a, &b).unwrap();
            let slow = naive_gemm(&a, &b);
            assert!(fast.approx_eq(&slow, 1e-4), "mismatch at {m}x{k}x{n}");
        }
    }

    #[test]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(matches!(
            gemm(&a, &b).unwrap_err(),
            TensorError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn accumulator_shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        let mut c = Matrix::zeros(2, 3);
        assert!(gemm_into(&a, &b, &mut c).is_err());
    }

    #[test]
    fn gemm_into_accumulates() {
        let a = Matrix::identity(3);
        let b = Matrix::filled(3, 3, 2.0);
        let mut c = Matrix::filled(3, 3, 1.0);
        gemm_into(&a, &b, &mut c).unwrap();
        assert_eq!(c, Matrix::filled(3, 3, 3.0));
        gemm_into(&a, &b, &mut c).unwrap();
        assert_eq!(c, Matrix::filled(3, 3, 5.0));
    }

    #[test]
    fn zero_lhs_skip_preserves_result() {
        let mut gen = MatrixGenerator::seeded(11);
        let a = gen.sparse_uniform(12, 16, 0.7);
        let b = gen.normal(16, 10, 0.0, 1.0);
        let fast = gemm(&a, &b).unwrap();
        let slow = naive_gemm(&a, &b);
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn mac_counting() {
        assert_eq!(dense_macs(4, 5, 6), 120);
        let a = Matrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 0.0, 0.0]]);
        assert_eq!(effectual_macs(&a, 10), 20);
    }

    #[test]
    fn empty_product_dimensions() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        let c = gemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (0, 3));
    }
}
