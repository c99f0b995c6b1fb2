//! Cache-blocked dense GEMM backend over runtime-dispatched SIMD tiles.

use super::simd::{self, SimdLevel};
use super::{CostHint, GemmBackend, GemmOperand};
use crate::Matrix;

/// Cache-blocked dense kernel: register-blocked 4×8 SIMD FMA tiles under two levels of
/// cache blocking, with exact-zero skipping.
///
/// Three levels of structure, outermost first:
///
/// * **Cache blocking** — the loop nest tiles the reduction (`K`) and output-column (`N`)
///   dimensions so that one `block_k × block_n` panel of `B` stays cache-resident while
///   every output row of the current row block accumulates against it (with the default
///   `256 × 256` tile the panel is 256 KiB, sized for a typical L2).
/// * **Register blocking** — output rows are processed four at a time, so every `B`
///   element loaded from cache feeds four multiply-accumulate streams instead of one.
///   This cuts `B` traffic 4× — the dominant cost of a row-major GEMM, where the naive
///   kernel re-streams all of `B` once per output row.
/// * **SIMD inner tile** — the four-row body is a 4×8 microkernel
///   ([`simd::axpy4`]): each 8-lane load of `B` feeds four FMA streams. The
///   instruction tier (256-bit AVX/FMA vs. the hand-unrolled portable fallback) is
///   detected **once at construction** ([`SimdLevel::detect`], overridable with
///   [`with_simd`](DenseBackend::with_simd) or `TASD_SIMD=portable`) — no kernel call
///   ever re-runs feature detection.
///
/// ```text
/// for jb in N-blocks            // C and B column panel
///   for kb in K-blocks          // B row panel stays hot
///     for i in row block by 4   // 4 output rows share each B load
///       for p in kb (some a[i..i+4, p] != 0)
///         axpy4: c[i+q, jb..] += a[i+q, p] * b[p, jb..]  8 lanes/step  (q = 0..4)
/// ```
///
/// A reduction step is skipped when all four `A` operands are exact zeros, so very
/// sparse inputs stay cheap; within a live group, zero lanes are skipped per-lane —
/// the [`GemmBackend`] zero-annihilation contract, which keeps this kernel's non-finite
/// behavior identical to the scalar reference and the sparse kernels.
///
/// Compressed operands are densified one row block at a time into a scratch slab before
/// hitting the blocked kernel; the scratch fill is linear in the block size and is
/// reported as overhead in [`GemmBackend::cost_hint`]. That trade — decompress then
/// stream — is what makes this backend the right choice for *dense-ish* TASD terms,
/// while truly sparse terms belong on [`CsrBackend`](super::CsrBackend) /
/// [`NmBackend`](super::NmBackend); the crossover is measured in `tasd-bench`'s
/// `backends` bench (recorded in `BENCH_backends.json`) and written by hand into the
/// engine's constant `BackendTable::MEASURED`.
#[derive(Debug, Clone)]
pub struct DenseBackend {
    /// Reduction-dimension tile size.
    block_k: usize,
    /// Output-column tile size.
    block_n: usize,
    /// SIMD tier the inner tiles dispatch to, fixed at construction.
    simd: SimdLevel,
}

impl DenseBackend {
    /// Default reduction tile (`K` direction).
    pub const DEFAULT_BLOCK_K: usize = 256;
    /// Default output-column tile (`N` direction).
    pub const DEFAULT_BLOCK_N: usize = 256;

    /// A backend with explicit tile sizes (both must be positive).
    ///
    /// # Panics
    ///
    /// Panics if either block size is zero.
    pub fn with_block_sizes(block_k: usize, block_n: usize) -> Self {
        assert!(block_k > 0 && block_n > 0, "tile sizes must be positive");
        DenseBackend {
            block_k,
            block_n,
            simd: SimdLevel::detected(),
        }
    }

    /// Pins the SIMD tier (e.g. [`SimdLevel::Portable`] to force the fallback arm in
    /// tests); [`Default`] uses the tier detected once per process.
    #[must_use]
    pub fn with_simd(mut self, level: SimdLevel) -> Self {
        self.simd = level;
        self
    }

    /// The `(block_k, block_n)` tile sizes.
    pub fn block_sizes(&self) -> (usize, usize) {
        (self.block_k, self.block_n)
    }

    /// The SIMD tier the inner tiles run at.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// The blocked kernel over a contiguous row-major slab of `A` rows.
    // lint: hot-path, warm-path, allow(indexing): tile edges are clamped with .min(k)
    // and .min(n), and the row slabs are m_rows*k / m_rows*n elements by contract
    fn gemm_blocked(&self, a_rows: &[f32], k: usize, b: &Matrix, c_rows: &mut [f32], n: usize) {
        if k == 0 || n == 0 {
            return;
        }
        let m_rows = a_rows.len() / k;
        for jb in (0..n).step_by(self.block_n) {
            let j_end = (jb + self.block_n).min(n);
            for kb in (0..k).step_by(self.block_k) {
                let k_end = (kb + self.block_k).min(k);
                let mut i = 0;
                // Register-blocked body: 4 output rows share every B load through the
                // 4×8 SIMD tile.
                while i + 4 <= m_rows {
                    let (a0, rest) = a_rows[i * k..].split_at(k);
                    let (a1, rest) = rest.split_at(k);
                    let (a2, a3) = rest.split_at(k);
                    let (c0, rest) = c_rows[i * n..].split_at_mut(n);
                    let (c1, rest) = rest.split_at_mut(n);
                    let (c2, c3) = rest.split_at_mut(n);
                    let (c0, c1) = (&mut c0[jb..j_end], &mut c1[jb..j_end]);
                    let (c2, c3) = (&mut c2[jb..j_end], &mut c3[jb..j_end]);
                    for p in kb..k_end {
                        let vs = [a0[p], a1[p], a2[p], a3[p]];
                        if vs == [0.0, 0.0, 0.0, 0.0] {
                            continue;
                        }
                        let b_row = &b.row(p)[jb..j_end];
                        simd::axpy4(self.simd, vs, b_row, c0, c1, c2, c3);
                    }
                    i += 4;
                }
                // Remainder rows, one at a time with full zero skipping.
                while i < m_rows {
                    let a_row = &a_rows[i * k..(i + 1) * k];
                    let c_row = &mut c_rows[i * n + jb..i * n + j_end];
                    for (p, &a_ip) in a_row.iter().enumerate().take(k_end).skip(kb) {
                        if a_ip == 0.0 {
                            continue;
                        }
                        let b_row = &b.row(p)[jb..j_end];
                        simd::axpy(self.simd, a_ip, b_row, c_row);
                    }
                    i += 1;
                }
            }
        }
    }
}

impl Default for DenseBackend {
    fn default() -> Self {
        DenseBackend {
            block_k: Self::DEFAULT_BLOCK_K,
            block_n: Self::DEFAULT_BLOCK_N,
            simd: SimdLevel::detected(),
        }
    }
}

impl GemmBackend for DenseBackend {
    fn name(&self) -> &'static str {
        "dense"
    }

    // lint: hot-path, warm-path, allow(indexing): scratch is allocated at
    // (r1 - r0) * k right above its row slices, and operand columns are below k
    fn gemm_rows_into(
        &self,
        lhs: &dyn GemmOperand,
        b: &Matrix,
        r0: usize,
        r1: usize,
        c_rows: &mut [f32],
        n_cols: usize,
    ) {
        let (_, k) = lhs.shape();
        if let Some(dense) = lhs.as_dense() {
            self.gemm_blocked(dense.rows_slice(r0, r1), k, b, c_rows, n_cols);
            return;
        }
        // Densify the row block into scratch, then stream through the blocked kernel.
        // lint: allow(alloc): correctness fallback for non-native operands — the
        // engine's prepared paths pack operands dense before choosing this backend
        let mut scratch = vec![0.0f32; (r1 - r0) * k];
        for i in r0..r1 {
            let row = &mut scratch[(i - r0) * k..(i - r0 + 1) * k];
            lhs.for_each_in_row(i, &mut |col, value| row[col] = value);
        }
        self.gemm_blocked(&scratch, k, b, c_rows, n_cols);
    }

    fn cost_hint(&self, lhs: &dyn GemmOperand, n_cols: usize) -> CostHint {
        let (rows, k) = lhs.shape();
        // The blocked kernel touches every A element (the zero test) even though only
        // non-zeros multiply. Calibration from the SIMD bench sweep in
        // `BENCH_backends.json` (512³, AVX/FMA tier): 13.4M effectual MACs in 2.32 ms
        // at s90 and 67.1M in 8.83 ms at s50 fit ≈ 0.12 ns per SIMD MAC — about half
        // the scalar kernel's rate, so the scalar zero test now weighs roughly twice
        // what it did against the seed's scalar kernel: half a MAC per element, up
        // from the seed's quarter. (The fit's remaining nnz-independent ≈ 0.7 ms is
        // per-tile B/C traffic that scales with `n_cols`, which the planner already
        // accounts for in compute, not a per-element scan cost.)
        let scan = (rows as u64 * k as u64) / 2;
        // Scratch densification is one store per element — about the same cost per
        // element as the zero-test scan on the SIMD kernels (both are scalar, cache-
        // resident passes), plus the entry iteration to produce it.
        let densify = if lhs.as_dense().is_some() {
            0
        } else {
            rows as u64 * k as u64
        };
        CostHint {
            compute_macs: lhs.nnz() as u64 * n_cols as u64,
            overhead_macs: scan + densify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gemm, CsrMatrix, Matrix, MatrixGenerator};

    #[test]
    fn blocked_kernel_matches_reference_across_tile_boundaries() {
        let mut gen = MatrixGenerator::seeded(11);
        // Sizes straddling the default 256/256 tiles in both K and N: below, at, above.
        for (m, k, n) in [(3, 255, 255), (4, 256, 256), (5, 300, 257), (1, 1, 1)] {
            let a = gen.sparse_normal(m, k, 0.4);
            let b = gen.normal(k, n, 0.0, 1.0);
            let reference = gemm(&a, &b).unwrap();
            let mut c = Matrix::zeros(m, n);
            DenseBackend::default().gemm_into(&a, &b, &mut c).unwrap();
            assert!(c.approx_eq(&reference, 1e-3), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn portable_tier_is_bitwise_identical_to_the_scalar_reference() {
        let mut gen = MatrixGenerator::seeded(14);
        for (m, k, n) in [(6, 40, 33), (5, 17, 8), (9, 64, 31)] {
            let a = gen.sparse_normal(m, k, 0.5);
            let b = gen.normal(k, n, 0.0, 1.0);
            let reference = gemm(&a, &b).unwrap();
            let backend = DenseBackend::default().with_simd(SimdLevel::Portable);
            let mut c = Matrix::zeros(m, n);
            backend.gemm_into(&a, &b, &mut c).unwrap();
            // The portable tile performs exactly the scalar operations in the scalar
            // order, so this is equality, not tolerance.
            assert_eq!(c, reference, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn tiny_tiles_still_correct() {
        let mut gen = MatrixGenerator::seeded(12);
        let a = gen.normal(7, 19, 0.0, 1.0);
        let b = gen.normal(19, 11, 0.0, 1.0);
        let reference = gemm(&a, &b).unwrap();
        let backend = DenseBackend::with_block_sizes(3, 2);
        let mut c = Matrix::zeros(7, 11);
        backend.gemm_into(&a, &b, &mut c).unwrap();
        assert!(c.approx_eq(&reference, 1e-4));
    }

    #[test]
    fn densification_path_matches_native_path() {
        let mut gen = MatrixGenerator::seeded(13);
        let a = gen.sparse_normal(20, 40, 0.8);
        let b = gen.normal(40, 9, 0.0, 1.0);
        let csr = CsrMatrix::from_dense(&a);
        let backend = DenseBackend::default();
        let mut via_dense = Matrix::zeros(20, 9);
        let mut via_csr = Matrix::zeros(20, 9);
        backend.gemm_into(&a, &b, &mut via_dense).unwrap();
        backend.gemm_into(&csr, &b, &mut via_csr).unwrap();
        assert!(via_dense.approx_eq(&via_csr, 1e-4));
    }

    #[test]
    fn cost_hint_charges_densification_for_compressed_operands() {
        let a = Matrix::filled(8, 16, 1.0);
        let csr = CsrMatrix::from_dense(&a);
        let backend = DenseBackend::default();
        let native = backend.cost_hint(&a, 4);
        let foreign = backend.cost_hint(&csr, 4);
        assert_eq!(native.compute_macs, foreign.compute_macs);
        assert!(foreign.overhead_macs > native.overhead_macs);
    }
}
