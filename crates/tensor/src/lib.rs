//! # calloc-tensor
//!
//! Numeric substrate for the CALLOC indoor-localization reproduction.
//!
//! This crate provides the small set of dense linear-algebra, random-number
//! and statistics primitives that every other crate in the workspace builds
//! on. It is deliberately dependency-free (besides `serde` for
//! serialization) so that every experiment in the reproduction is
//! bit-for-bit deterministic for a fixed seed.
//!
//! The main types are:
//!
//! * [`Matrix`] — a dense, row-major `f64` matrix with the usual
//!   element-wise, broadcast and matrix-product operations.
//! * [`Rng`] — a seeded xoshiro256++ generator with uniform, normal
//!   (Box–Muller), permutation and subset-sampling helpers.
//! * [`linalg`] — Cholesky factorization and triangular solves used by the
//!   Gaussian-process baseline.
//! * [`kernel`] — batched pairwise squared-distance / RBF cross-kernel
//!   primitives behind the kernel-method baselines (GPC, soft-KNN, KNN);
//!   row-parallel and bit-identical to the scalar loops they replaced.
//! * [`stats`] — descriptive statistics (mean, std, percentiles) used by the
//!   evaluation harness.
//! * [`codec`] — the one binary codec (little-endian [`codec::Writer`] /
//!   bounds-checked [`codec::Reader`], FNV-1a) behind the result store,
//!   the model cache, the serve frames and every model's state bytes.
//! * [`par`] — the deterministic parallel compute runtime (`CALLOC_THREADS`
//!   knob, index-order-merge fork-join primitives) behind the parallel
//!   matrix kernels; results are bit-identical for every thread count.
//!
//! # Example
//!
//! ```
//! use calloc_tensor::{Matrix, Rng};
//!
//! let mut rng = Rng::new(42);
//! let a = Matrix::from_fn(2, 3, |_, _| rng.normal(0.0, 1.0));
//! let b = a.transpose();
//! let g = a.matmul(&b); // 2x2 Gram matrix
//! assert_eq!(g.rows(), 2);
//! assert_eq!(g.cols(), 2);
//! ```

#![deny(missing_docs)]

mod matrix;
mod rng;

pub mod codec;
pub mod kernel;
pub mod linalg;
pub mod par;
pub mod stats;

pub use matrix::Matrix;
pub use rng::Rng;

/// Crate-wide error type for shape and numeric failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Two operands had incompatible shapes. Carries a human-readable
    /// description of the mismatch.
    ShapeMismatch(String),
    /// A numeric routine (e.g. Cholesky) failed; the payload explains why.
    Numeric(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            TensorError::Numeric(msg) => write!(f, "numeric error: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
