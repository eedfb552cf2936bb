#![deny(missing_docs)]

//! Dense linear-algebra substrate for the CTA reproduction.
//!
//! Every other crate in the workspace (LSH clustering, the attention
//! algorithms, the accelerator simulator, the baseline hardware models)
//! computes with the row-major [`Matrix`] type defined here. The crate is
//! deliberately small and dependency-free apart from `rand` and
//! `cta-parallel`: it provides exactly the operations attention needs —
//! matrix products, transposes, row-wise softmax, norms — plus seeded
//! random initialisation and the scalar statistics helpers used by the
//! benchmark harness. The `par_matmul` family runs the same kernels over
//! row panels on a work-stealing pool with bitwise-identical results,
//! and the hot inner loops run cache-blocked SIMD kernels pinned bitwise
//! to the scalar reference that [`KernelPolicy::Scalar`] keeps reachable.
//!
//! # Example
//!
//! ```
//! use cta_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod kernels;
mod matrix;
mod nn;
mod ops;
mod par;
mod random;
mod softmax;
mod stats;

pub use kernels::KernelPolicy;
pub use matrix::Matrix;
pub use nn::{gelu, gelu_matrix, layer_norm_rows};
pub use random::{standard_normal_matrix, uniform_matrix, MatrixRng};
pub use softmax::{log_sum_exp, softmax_rows, softmax_rows_in_place};
pub use stats::{cosine_similarity, geometric_mean, mean, relative_error, Summary};
