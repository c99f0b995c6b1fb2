//! # tasd-tensor
//!
//! Tensor substrate for the TASD (Tensor Approximation via Structured Decomposition)
//! reproduction. This crate provides everything below the decomposition algorithm itself:
//!
//! * [`Matrix`] — a dense, row-major `f32` matrix with the usual constructors and
//!   element-wise helpers.
//! * [`NmPattern`] — fine-grained N:M structured-sparsity patterns (at most N non-zeros in
//!   every M consecutive elements of a row), N:M *views* of dense matrices, and validity
//!   checks.
//! * [`NmCompressed`] — a compressed storage format for N:M structured sparse matrices
//!   (values + per-block metadata indices), mirroring what sparse tensor cores consume.
//! * [`CsrMatrix`] — compressed sparse row storage for unstructured sparse baselines.
//! * Reference GEMM kernels for dense, CSR and structured N:M operands ([`gemm`]).
//! * [`backend`] — the pluggable [`GemmBackend`] execution layer: cache-blocked dense,
//!   CSR, and native N:M kernels behind one trait, over any [`GemmOperand`]. All
//!   production matmul traffic dispatches through it.
//! * [`im2col`] lowering so convolution layers can be executed and counted as GEMMs.
//! * Norms, error metrics, random sparse-matrix generators, and sparsity statistics.
//!
//! # Example
//!
//! ```
//! use tasd_tensor::{Matrix, NmPattern};
//!
//! let a = Matrix::from_rows(&[vec![1.0, 3.0, 0.0, 0.0], vec![2.0, 4.0, 4.0, 1.0]]);
//! let pattern = NmPattern::new(2, 4).unwrap();
//! // The first row already satisfies 2:4; the second row drops its smallest element.
//! let view = pattern.view(&a);
//! assert!(pattern.is_satisfied_by(&view));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod csr;
pub mod error;
pub mod gemm;
pub mod hash;
pub mod im2col;
pub mod matrix;
pub mod nm;
pub mod nm_compressed;
pub mod norms;
pub mod random;
pub mod stats;

pub use backend::{
    CostHint, CsrBackend, DenseBackend, GemmBackend, GemmOperand, NmBackend, PackedKind,
    PackedOperand,
};
pub use csr::CsrMatrix;
pub use error::TensorError;
pub use gemm::{gemm, gemm_into};
pub use im2col::{im2col, Conv2dDims};
pub use matrix::Matrix;
pub use nm::NmPattern;
pub use nm_compressed::NmCompressed;
pub use norms::{
    dropped_magnitude_fraction, dropped_nonzero_fraction, frobenius_norm, max_abs_error,
    mean_squared_error, relative_frobenius_error,
};
pub use random::{magnitude_prune, MatrixGenerator};
pub use stats::{pseudo_density, sparsity_degree};

/// Result alias used across the tensor substrate.
pub type Result<T> = std::result::Result<T, TensorError>;
