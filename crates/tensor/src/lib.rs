//! Minimal dense-tensor and neural-network math substrate for the Shift-BNN reproduction.
//!
//! The paper's software baseline is PyTorch; this crate replaces it with a small, dependency-free
//! implementation of exactly the operations Bayes-by-Backprop BNN training needs:
//!
//! * [`Tensor`] — dense row-major `f32` tensors with elementwise ops and matmul;
//! * [`conv`] — conv2d forward, input gradient (the 180°-rotated-kernel backward convolution)
//!   and weight gradient;
//! * [`pool`] — max pooling with argmax routing;
//! * [`activation`] — ReLU, softplus (for the σ parameterization) and sigmoid;
//! * [`loss`] — softmax cross-entropy (the log-likelihood term of the ELBO) and MSE;
//! * [`quant`] — 8-/16-/32-bit precision emulation used for the paper's Table 1;
//! * [`init`] — deterministic weight initializers;
//! * [`transcendental`] — the σ refill's passes: bit-exact AVX2+FMA ports of the host libm's
//!   `expf`, `log1pf` and `log`.
//!
//! # Example
//!
//! ```
//! use bnn_tensor::conv::{conv2d_forward, ConvGeometry};
//! use bnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), bnn_tensor::TensorError> {
//! let geom = ConvGeometry { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 };
//! let input = Tensor::filled(&[1, 8, 8], 1.0);
//! let weights = Tensor::filled(&[1, 1, 3, 3], 0.1);
//! let bias = Tensor::zeros(&[1]);
//! let out = conv2d_forward(&geom, &input, &weights, &bias)?;
//! assert_eq!(out.shape(), &[1, 8, 8]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod conv;
pub mod init;
pub mod kernels;
pub mod loss;
pub mod pool;
pub mod profile;
pub mod quant;
pub mod scratch;
mod tensor;
pub mod transcendental;

pub use kernels::{KernelConfig, KernelTier};
pub use quant::Precision;
pub use scratch::Scratch;
pub use tensor::{Tensor, TensorError};
