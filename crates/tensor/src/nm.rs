//! Fine-grained N:M structured sparsity patterns and views.
//!
//! An N:M pattern constrains every block of M consecutive elements along a row to contain
//! at most N non-zeros (paper §2.1). M is at most [`NmPattern::MAX_M`] = 64, the width of
//! the lane mask selection works on.
//!
//! Every structured extraction in the workspace — the N:M *view*, compression
//! ([`crate::NmCompressed::from_dense`]) and each term of a TASD decomposition
//! ([`crate::NmCompressed::extract_series`]) — picks its lanes through one crate-private
//! function, `NmPattern::select`: in each block, the N nonzero values of largest
//! magnitude, ranked by the key `abs().to_bits()` with the earlier lane winning ties. For finite
//! values that key orders exactly as magnitude does. A NaN is nonzero and its key ranks
//! above `+inf`, so a non-finite value is always kept ahead of any finite one; an
//! extraction moves a kept value out of the block rather than subtracting it, so each
//! input value lands in at most one term.

use crate::{Matrix, Result, TensorError};
use std::fmt;

/// A fine-grained N:M structured sparsity pattern: at most `n` non-zeros in every block of
/// `m` consecutive elements of a row.
///
/// # Example
///
/// ```
/// use tasd_tensor::NmPattern;
///
/// let p = NmPattern::new(2, 4).unwrap();
/// assert_eq!(p.approximated_sparsity(), 0.5);
/// assert_eq!(p.to_string(), "2:4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NmPattern {
    n: usize,
    m: usize,
}

impl NmPattern {
    /// The largest block size a pattern may have: the selection rule (see [`crate::nm`])
    /// picks a block's lanes as a 64-bit mask. A kept value's lane is stored in one byte
    /// ([`crate::NmCompressed`], the snapshot format), which this cap also keeps in range;
    /// every pattern the paper evaluates has M ≤ 16.
    pub const MAX_M: usize = 64;

    /// Creates an N:M pattern.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidPattern`] unless `0 < n <= m <= MAX_M`.
    pub fn new(n: usize, m: usize) -> Result<Self> {
        if n == 0 || n > m || m > Self::MAX_M {
            return Err(TensorError::InvalidPattern { n, m });
        }
        Ok(NmPattern { n, m })
    }

    /// The maximum number of non-zeros per block (N).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The block size (M).
    pub fn m(&self) -> usize {
        self.m
    }

    /// Returns `true` if this pattern keeps every element (`n == m`), i.e. it is dense.
    pub fn is_dense(&self) -> bool {
        self.n == self.m
    }

    /// The sparsity degree this pattern *enforces*: `1 - n/m`.
    ///
    /// The paper calls this the "approximated sparsity" of a configuration (e.g. both 1:4
    /// and 2:8 have an approximated sparsity of 75 %).
    pub fn approximated_sparsity(&self) -> f64 {
        1.0 - self.density()
    }

    /// The density this pattern allows: `n/m`.
    pub fn density(&self) -> f64 {
        self.n as f64 / self.m as f64
    }

    /// Returns `true` if `matrix` already satisfies this pattern (every length-M block of
    /// every row contains at most N non-zeros). The trailing partial block of a row whose
    /// width is not a multiple of M is checked as-is.
    pub fn is_satisfied_by(&self, matrix: &Matrix) -> bool {
        for i in 0..matrix.rows() {
            let row = matrix.row(i);
            for block in row.chunks(self.m) {
                let nnz = block.iter().filter(|&&x| x != 0.0).count();
                if nnz > self.n {
                    return false;
                }
            }
        }
        true
    }

    /// The lanes of `block` this pattern keeps, as a bit mask (bit `i` is lane `i`),
    /// returned with the number of nonzero lanes it leaves: the N nonzero values of
    /// largest magnitude, or every nonzero value if there are at most N. Candidates are
    /// ranked by the key `abs().to_bits()`, and the earlier lane wins a tie, which makes
    /// every extraction deterministic. For finite values the key orders exactly as
    /// magnitude does; a NaN ranks above `+inf`. Only the first M lanes of `block` are
    /// considered.
    ///
    /// This is the one selection rule behind [`NmPattern::view`],
    /// [`crate::NmCompressed::from_dense`] and TASD decomposition.
    // lint: hot-path
    pub(crate) fn select(&self, block: &[f32]) -> (u64, usize) {
        let mut candidates = 0u64;
        for (lane, &x) in block.iter().take(self.m).enumerate() {
            candidates |= u64::from(x != 0.0) << lane;
        }
        let nonzeros = candidates.count_ones() as usize;
        if nonzeros <= self.n {
            return (candidates, 0);
        }
        // Repeated arg-max over the remaining candidates, scanned in lane order: a strict
        // `>` keeps the earliest of equal keys. Nonzero keys are positive, so each round
        // picks a lane.
        let mut kept = 0u64;
        for _ in 0..self.n {
            let mut best = 0u64;
            let mut best_key = 0u32;
            let mut rest = candidates;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest ^= bit;
                let key = block
                    .get(bit.trailing_zeros() as usize)
                    .map_or(0, |x| x.abs().to_bits());
                if key > best_key {
                    best_key = key;
                    best = bit;
                }
            }
            kept |= best;
            candidates ^= best;
        }
        (kept, nonzeros - self.n)
    }

    /// Produces the N:M view of `matrix`: in every length-M block of every row, the lanes
    /// the selection rule picks (see [`crate::nm`]) are kept and all others are set to
    /// zero. Rows whose
    /// width is not a multiple of M treat the trailing partial block as its own (shorter)
    /// block.
    ///
    /// This is lossy whenever a block has more than N non-zeros.
    pub fn view(&self, matrix: &Matrix) -> Matrix {
        let mut out = matrix.clone();
        self.view_inplace(&mut out);
        out
    }

    /// In-place variant of [`NmPattern::view`].
    pub fn view_inplace(&self, matrix: &mut Matrix) {
        for i in 0..matrix.rows() {
            for block in matrix.row_mut(i).chunks_mut(self.m) {
                let (kept, _) = self.select(block);
                // A block with fewer than N nonzeros also keeps its earliest zero lanes up
                // to N, untouched: that only decides which zeros keep their sign bit.
                let mut spare = self.n - kept.count_ones() as usize;
                for (lane, x) in block.iter_mut().enumerate() {
                    if kept >> lane & 1 == 1 {
                        continue;
                    }
                    if *x == 0.0 && spare > 0 {
                        spare -= 1;
                    } else {
                        *x = 0.0;
                    }
                }
            }
        }
    }

    /// Number of blocks per row for a matrix with `cols` columns (including a trailing
    /// partial block).
    pub fn blocks_per_row(&self, cols: usize) -> usize {
        cols.div_ceil(self.m)
    }

    /// Maximum number of non-zeros a matrix of the given shape can hold under this pattern.
    pub fn max_nonzeros(&self, rows: usize, cols: usize) -> usize {
        let full_blocks = cols / self.m;
        let tail = cols % self.m;
        rows * (full_blocks * self.n + tail.min(self.n))
    }
}

impl fmt::Display for NmPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.n, self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(NmPattern::new(2, 4).is_ok());
        assert!(NmPattern::new(4, 4).is_ok());
        assert!(NmPattern::new(0, 4).is_err());
        assert!(NmPattern::new(5, 4).is_err());
        assert!(NmPattern::new(1, 0).is_err());
    }

    #[test]
    fn display_and_density() {
        let p = NmPattern::new(2, 8).unwrap();
        assert_eq!(p.to_string(), "2:8");
        assert_eq!(p.density(), 0.25);
        assert_eq!(p.approximated_sparsity(), 0.75);
        assert!(NmPattern::new(8, 8).unwrap().is_dense());
        assert!(!p.is_dense());
    }

    #[test]
    fn paper_figure4_first_term() {
        // Matrix A from Figure 4: rows [1,3,0,0,2,4,4,1] and [2,0,0,0,0,3,1,4].
        let a = Matrix::from_rows(&[
            vec![1.0, 3.0, 0.0, 0.0, 2.0, 4.0, 4.0, 1.0],
            vec![2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 1.0, 4.0],
        ]);
        let p24 = NmPattern::new(2, 4).unwrap();
        let a1 = p24.view(&a);
        // Expected 2:4 view from the paper: [1,3,0,0 | 0,4,4,0] and [2,0,0,0 | 0,3,0,4].
        let expected = Matrix::from_rows(&[
            vec![1.0, 3.0, 0.0, 0.0, 0.0, 4.0, 4.0, 0.0],
            vec![2.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 4.0],
        ]);
        assert_eq!(a1, expected);
        // The extracted term covers 84% of the total magnitude (21 of 25).
        assert_eq!(a1.sum(), 21.0);
        assert_eq!(a.sum(), 25.0);
        // Residual has the remaining 3 non-zeros summing to 4.
        let r1 = a.try_sub(&a1).unwrap();
        assert_eq!(r1.count_nonzeros(), 3);
        assert_eq!(r1.sum(), 4.0);
    }

    #[test]
    fn view_is_idempotent_and_satisfies_pattern() {
        let a = Matrix::from_rows(&[vec![5.0, -1.0, 2.0, 3.0, 0.5, 0.0, 7.0, -2.0]]);
        let p = NmPattern::new(1, 4).unwrap();
        let v = p.view(&a);
        assert!(p.is_satisfied_by(&v));
        assert_eq!(p.view(&v), v);
        // Largest magnitude kept per block.
        assert_eq!(v.row(0), &[5.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn view_plus_residual_reconstructs() {
        let a = Matrix::from_fn(4, 8, |i, j| ((i * 8 + j) % 5) as f32 - 2.0);
        let p = NmPattern::new(2, 4).unwrap();
        let v = p.view(&a);
        let mut r = Matrix::zeros(4, 8);
        let terms = crate::NmCompressed::extract_series(&a, &[p], Some(&mut r));
        assert_eq!(terms[0].0.to_dense(), v);
        assert_eq!(terms[0].1, r.count_nonzeros());
        assert_eq!(v.try_add(&r).unwrap(), a);
        // View and residual have disjoint supports.
        for (x, y) in v.iter().zip(r.iter()) {
            assert!(*x == 0.0 || *y == 0.0);
        }
    }

    #[test]
    fn dense_pattern_view_is_identity() {
        let a = Matrix::from_fn(3, 8, |i, j| (i + j) as f32);
        let p = NmPattern::new(8, 8).unwrap();
        assert_eq!(p.view(&a), a);
        assert!(p.is_satisfied_by(&a));
    }

    #[test]
    fn partial_trailing_block() {
        // 6 columns with a 4-block pattern: second block has only 2 elements.
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]);
        let p = NmPattern::new(1, 4).unwrap();
        let v = p.view(&a);
        assert_eq!(v.row(0), &[0.0, 0.0, 0.0, 4.0, 0.0, 6.0]);
        assert_eq!(p.blocks_per_row(6), 2);
        assert_eq!(p.max_nonzeros(1, 6), 2);
    }

    #[test]
    fn is_satisfied_detects_violation() {
        let ok = Matrix::from_rows(&[vec![1.0, 0.0, 2.0, 0.0]]);
        let bad = Matrix::from_rows(&[vec![1.0, 1.0, 2.0, 0.0]]);
        let p = NmPattern::new(2, 4).unwrap();
        assert!(p.is_satisfied_by(&ok));
        assert!(!p.is_satisfied_by(&bad));
        let p1 = NmPattern::new(1, 4).unwrap();
        assert!(!p1.is_satisfied_by(&ok));
        assert!(!p1.is_satisfied_by(&bad));
    }

    #[test]
    fn max_nonzeros_counts() {
        let p = NmPattern::new(2, 8).unwrap();
        assert_eq!(p.max_nonzeros(4, 16), 4 * 4);
        assert_eq!(p.max_nonzeros(1, 8), 2);
        assert_eq!(p.max_nonzeros(1, 9), 3); // trailing block of 1 keeps min(1, 2)=1
    }

    #[test]
    fn select_tie_break_is_stable() {
        let p = NmPattern::new(2, 4).unwrap();
        // Three lanes tie on magnitude 2: the two earliest win, whatever their sign, and
        // two nonzero lanes are left.
        assert_eq!(p.select(&[2.0, -2.0, 2.0, 1.0]), (0b0011, 2));
        assert_eq!(p.select(&[1.0, 2.0, -2.0, 2.0]), (0b0110, 2));
        // At most N nonzeros: all of them, and no zero lane.
        assert_eq!(p.select(&[0.0, -0.0, 5.0, 0.0]), (0b0100, 0));
        // A trailing partial block.
        assert_eq!(p.select(&[3.0, -4.0, 1.0]), (0b0011, 1));
    }

    #[test]
    fn select_ranks_nan_above_infinity_and_subnormals_above_zero() {
        let p = NmPattern::new(1, 4).unwrap();
        assert_eq!(p.select(&[1.0, f32::NAN, 3.0, 2.0]), (0b0010, 3));
        assert_eq!(
            p.select(&[f32::NEG_INFINITY, f32::NAN, 3.0, 2.0]),
            (0b0010, 3)
        );
        assert_eq!(p.select(&[1.0, f32::INFINITY, f32::MAX, 2.0]), (0b0010, 3));
        let tiny = f32::from_bits(1);
        assert_eq!(p.select(&[0.0, -tiny, tiny, -0.0]), (0b0010, 1));
    }

    #[test]
    fn block_size_is_capped_at_max_m() {
        assert_eq!(NmPattern::MAX_M, 64);
        assert!(NmPattern::new(1, 64).is_ok());
        assert!(NmPattern::new(64, 64).is_ok());
        assert_eq!(
            NmPattern::new(1, 65),
            Err(TensorError::InvalidPattern { n: 1, m: 65 })
        );
        assert!(NmPattern::new(1, 300).is_err());
        // The widest block still selects through the 64-bit lane mask.
        let p = NmPattern::new(2, 64).unwrap();
        let mut block = [0.0f32; 64];
        block[63] = -7.0;
        block[0] = 1.0;
        block[40] = 7.0;
        assert_eq!(p.select(&block), (1 << 40 | 1 << 63, 1));
    }

    #[test]
    fn ordering_of_patterns_is_consistent() {
        let a = NmPattern::new(1, 4).unwrap();
        let b = NmPattern::new(2, 4).unwrap();
        assert!(a < b);
    }
}
