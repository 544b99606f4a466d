//! A small work-stealing pool of scoped `std::thread` workers.
//!
//! The implementation lives in the bottom-of-the-stack [`bnn_pool`] crate so that the tensor
//! kernels (`bnn-tensor`, M-split parallel GEMM) can ride the same scheduler without a
//! dependency cycle through this crate. It began life inside the design-space sweep engine
//! ([`crate::sweep`]) and this module remains the historical path (`shift_bnn::pool`) that
//! the sweep engine, the figure views and the serving engine (`bnn-serve`, for its batched
//! Monte-Carlo inference jobs) use.

pub use bnn_pool::{default_workers, run_indexed, run_indexed_with};
