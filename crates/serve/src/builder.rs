//! Declarative engine construction: one [`EngineSpec`], the only way to build an
//! [`InferenceEngine`](crate::InferenceEngine) or a [`ServeReplica`](crate::ServeReplica).
//!
//! A spec names everything an engine needs up front — posterior source, serving backend,
//! batching policy, pool workers, kernel tier and the fused-sampling switch — and
//! [`InferenceEngine::build`](crate::InferenceEngine::build) /
//! [`ServeReplica::build`](crate::ServeReplica::build) consume it:
//!
//! ```
//! use bnn_serve::{BatchPolicy, EngineSpec, InferenceEngine, ModelSpec, ServeMode};
//!
//! let engine = InferenceEngine::build(
//!     EngineSpec::new(ModelSpec::mlp(7))
//!         .mode(ServeMode::MonteCarlo)
//!         .policy(BatchPolicy { max_batch: 4, max_wait_ticks: 16 })
//!         .workers(2),
//! );
//! assert_eq!(engine.workers(), 2);
//! ```
//!
//! The spec also settles the old by-ref-vs-by-value [`ModelSource`] inconsistency
//! (`InferenceEngine` consumed sources, `ServeReplica` borrowed them): a spec takes anything
//! `Into<ModelSource>` **by value** exactly once, and everything downstream borrows the spec.

use crate::batcher::BatchPolicy;
use crate::spec::{ModelSource, ServeMode};
use bnn_tensor::{KernelConfig, KernelTier};

/// A declarative description of a serving engine: the single construction surface consumed
/// by [`InferenceEngine::build`](crate::InferenceEngine::build) and
/// [`ServeReplica::build`](crate::ServeReplica::build).
///
/// Defaults: Monte-Carlo backend, unbatched policy, one worker, the process-default
/// [`KernelTier`], one GEMM worker, fused sampling **on** (the fused path is bit-identical to
/// per-sample execution, so enabling it changes speed, never bytes — pinned by
/// `tests/fused_identity.rs`).
#[derive(Debug, Clone)]
pub struct EngineSpec {
    pub(crate) source: ModelSource,
    pub(crate) mode: ServeMode,
    pub(crate) policy: BatchPolicy,
    pub(crate) workers: usize,
    pub(crate) kernel: KernelConfig,
    pub(crate) fused_sampling: bool,
}

impl EngineSpec {
    /// Starts a spec for any posterior source ([`crate::ModelSpec`],
    /// [`crate::CheckpointReplica`], or an explicit [`ModelSource`]).
    pub fn new(source: impl Into<ModelSource>) -> EngineSpec {
        EngineSpec {
            source: source.into(),
            mode: ServeMode::default(),
            policy: BatchPolicy::unbatched(),
            workers: 1,
            kernel: KernelConfig::default(),
            fused_sampling: true,
        }
    }

    /// Sets the serving backend (default [`ServeMode::MonteCarlo`]).
    pub fn mode(mut self, mode: ServeMode) -> EngineSpec {
        self.mode = mode;
        self
    }

    /// Sets the batching policy (default [`BatchPolicy::unbatched`]).
    pub fn policy(mut self, policy: BatchPolicy) -> EngineSpec {
        self.policy = policy;
        self
    }

    /// Sets the pool worker count responses are computed on (default 1; never affects
    /// response bytes).
    pub fn workers(mut self, workers: usize) -> EngineSpec {
        self.workers = workers;
        self
    }

    /// Forces a GEMM kernel tier for every replica (default: the process tier,
    /// [`KernelTier::default`]). Bit-exact tiers cannot change any response;
    /// [`KernelTier::FastMath`] can, and is never a default.
    pub fn kernel_tier(mut self, tier: KernelTier) -> EngineSpec {
        self.kernel.tier = tier;
        self
    }

    /// Sets the per-replica GEMM worker budget for the deterministic M-split parallel path
    /// (default 1 = serial; byte-identical at any count).
    pub fn gemm_workers(mut self, workers: usize) -> EngineSpec {
        self.kernel.gemm_workers = workers;
        self
    }

    /// Enables or disables fused sampling: all `S` sampled forward passes of a Monte-Carlo
    /// request batched into one stacked walk (default **on**; bit-identical either way,
    /// ignored by [`ServeMode::Moment`]).
    pub fn fused_sampling(mut self, fused: bool) -> EngineSpec {
        self.fused_sampling = fused;
        self
    }

    /// The posterior source replicas are built from.
    pub fn source_ref(&self) -> &ModelSource {
        &self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;

    #[test]
    fn defaults_mirror_the_historical_constructors() {
        let spec = EngineSpec::new(ModelSpec::mlp(3));
        assert_eq!(spec.mode, ServeMode::MonteCarlo);
        assert_eq!(spec.policy, BatchPolicy::unbatched());
        assert_eq!(spec.workers, 1);
        assert_eq!(spec.kernel, KernelConfig::default());
        assert!(spec.fused_sampling);
    }

    #[test]
    fn setters_are_chainable_and_land() {
        let spec = EngineSpec::new(ModelSpec::lenet(5))
            .mode(ServeMode::Moment)
            .policy(BatchPolicy { max_batch: 8, max_wait_ticks: 32 })
            .workers(4)
            .kernel_tier(KernelTier::Blocked)
            .gemm_workers(3)
            .fused_sampling(false);
        assert_eq!(spec.mode, ServeMode::Moment);
        assert_eq!(spec.policy, BatchPolicy { max_batch: 8, max_wait_ticks: 32 });
        assert_eq!(spec.workers, 4);
        assert_eq!(spec.kernel.tier, KernelTier::Blocked);
        assert_eq!(spec.kernel.gemm_workers, 3);
        assert!(!spec.fused_sampling);
    }
}
