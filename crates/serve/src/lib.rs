//! **bnn-serve** — a batched Monte-Carlo uncertainty-serving engine over frozen Shift-BNN
//! posteriors.
//!
//! Training is only half of the paper's story. The reason anyone trains a Bayesian network is
//! to *serve* calibrated uncertainty: every inference request runs `S` sampled forward passes
//! (`w = μ + ε∘σ` per pass) and aggregates them into a predictive mean, per-class variance
//! and predictive entropy. The ε-storage problem the paper solves for training reappears at
//! serving time in a different costume — a naive engine would materialize (or ship between
//! replicas) the per-request ε ensembles — and the same insight dissolves it: the ε stream is
//! a pure function of an LFSR seed, so a request carries only a 64-bit seed and **any** worker
//! replica regenerates the exact sampled ensemble locally. Nothing per-request is ever stored;
//! this is the serving-side mirror of the paper's Fig. 1 trick.
//!
//! The engine is built for determinism first:
//!
//! * [`batcher`] coalesces requests in a simulated **tick** domain (max-batch-size /
//!   max-wait-ticks policy). No wall clock is ever read on the result path, so batch
//!   composition — and therefore every latency statistic — is reproducible bit-for-bit.
//! * [`engine`] executes requests on the workspace's work-stealing pool
//!   ([`shift_bnn::pool`]), one frozen-posterior replica per worker
//!   ([`shift_bnn::pool::run_indexed_with`]); responses merge by request index, so a 1-worker
//!   engine and an N-worker engine produce **byte-identical** [`InferResponse`]s (enforced by
//!   `tests/serve_determinism.rs` and at runtime by the `serve_bench` binary).
//! * [`workload`] generates seeded synthetic open-loop request traces, the serving analogue
//!   of the training side's synthetic datasets — uniform, bursty, diurnal or adversarial
//!   arrival shapes over the same seeded inputs ([`ArrivalProcess`]).
//! * [`cluster`] scales the engine out: a deterministic tick-domain **cluster simulator** —
//!   router, N bounded-queue replica shards, admission control / load shedding,
//!   uncertainty-aware two-tier escalation and queue-depth-driven autoscaling — whose
//!   reports serialize byte-identically at any shard × worker count.
//! * [`faults`] injects deterministic failures into the cluster: a [`FaultPlan`] schedules
//!   shard crashes/recoveries, slow devices and corrupt checkpoints at exact ticks; the
//!   router reacts with tick-domain failover retries and a backlog-pressure degradation
//!   ladder (full `S` → reduced `S` → single-pass moment → shed), and every reaction is a
//!   typed, digest-pinned event.
//!
//! # Example
//!
//! ```
//! use bnn_serve::{BatchPolicy, EngineSpec, InferenceEngine, ModelSpec, WorkloadSpec};
//!
//! let spec = ModelSpec::mlp(2021);
//! let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 16 };
//! let engine = InferenceEngine::build(EngineSpec::new(spec.clone()).policy(policy).workers(2));
//! let trace = WorkloadSpec::uniform(12, 3, 4, 7).generate(&spec);
//! let report = engine.run(&trace);
//! assert_eq!(report.responses.len(), 12);
//! let p99 = report.latency_percentile(0.99);
//! assert!(p99 >= report.latency_percentile(0.50));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod batcher;
pub mod builder;
pub mod cluster;
pub mod engine;
pub mod faults;
pub mod request;
pub mod spec;
pub mod stats;
pub mod workload;

pub use batcher::{plan_batches, BatchPlan, BatchPolicy};
pub use builder::EngineSpec;
pub use cluster::{
    AutoscalePolicy, Cluster, ClusterConfig, ClusterPlan, ClusterRunReport, EscalationEvent,
    RequestOutcome, RoutingPolicy, ScaleEvent, ShardSwap, ShedEvent, ShedReason,
};
pub use engine::{InferenceEngine, ServeReplica, ServeRunReport, VersionSwap};
pub use faults::{
    CheckpointFaultEvent, DegradeEvent, DegradeLadder, DegradeLevel, FaultEvent, FaultPlan,
    FaultTrace, RetryEvent, RetryPolicy,
};
pub use request::{mix_seed, InferRequest, InferResponse};
pub use spec::{CheckpointReplica, ModelSource, ModelSpec, ServeMode};
pub use stats::latency_percentile;
pub use workload::{ArrivalProcess, WorkloadSpec};
