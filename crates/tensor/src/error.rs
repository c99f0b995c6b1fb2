//! Error types for the tensor substrate.

use std::fmt;

/// Errors produced by the tensor substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two operands have shapes that are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Shape of the left-hand operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right-hand operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A matrix could not be constructed because the element count does not match
    /// `rows * cols`.
    InvalidDimensions {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
        /// Number of elements supplied.
        len: usize,
    },
    /// An N:M pattern was requested with invalid parameters: `n == 0`, `n > m`, or `m`
    /// above [`crate::NmPattern::MAX_M`].
    InvalidPattern {
        /// Requested N.
        n: usize,
        /// Requested M.
        m: usize,
    },
    /// The matrix width is not divisible by the pattern block size M, so a structured view
    /// cannot be formed without padding.
    BlockMisaligned {
        /// Number of columns in the matrix.
        cols: usize,
        /// Block size M of the pattern.
        m: usize,
    },
    /// A compressed matrix failed a structural validity check.
    CorruptCompressed(String),
    /// A convolution lowering was requested with inconsistent geometry.
    InvalidConvGeometry(String),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::InvalidDimensions { rows, cols, len } => write!(
                f,
                "invalid dimensions: {rows}x{cols} requires {} elements but {len} were supplied",
                rows * cols
            ),
            TensorError::InvalidPattern { n, m } => {
                write!(
                    f,
                    "invalid N:M pattern {n}:{m} (require 0 < n <= m <= {})",
                    crate::NmPattern::MAX_M
                )
            }
            TensorError::BlockMisaligned { cols, m } => write!(
                f,
                "matrix width {cols} is not divisible by pattern block size {m}"
            ),
            TensorError::CorruptCompressed(msg) => write!(f, "corrupt compressed matrix: {msg}"),
            TensorError::InvalidConvGeometry(msg) => write!(f, "invalid conv geometry: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errs = [
            TensorError::ShapeMismatch {
                op: "gemm",
                lhs: (2, 3),
                rhs: (4, 5),
            },
            TensorError::InvalidDimensions {
                rows: 2,
                cols: 2,
                len: 3,
            },
            TensorError::InvalidPattern { n: 5, m: 4 },
            TensorError::BlockMisaligned { cols: 10, m: 4 },
            TensorError::CorruptCompressed("bad metadata".to_string()),
            TensorError::InvalidConvGeometry("kernel larger than input".to_string()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
