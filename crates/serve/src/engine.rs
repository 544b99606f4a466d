//! The inference engine: batched Monte-Carlo execution on the shared work-stealing pool.
//!
//! Two clocks run through an engine, deliberately kept apart:
//!
//! * the **tick clock** is simulated. Batch formation, device serialization and service cost
//!   all come from one [`crate::batcher`] schedule the engine fills from its trace, modelled
//!   after the Shift-BNN accelerator (a batch pays a fixed dispatch/weight-load overhead of 64
//!   ticks, then each request pays one tick per 1,024 ε drawn — the paper's 16 SPUs × 64 GRNG
//!   lanes). Every latency statistic lives here. Nothing on this path reads a wall clock, so
//!   reports are bit-reproducible;
//! * the **wall clock** exists only outside the engine: `serve_bench` times whole runs to
//!   measure real software throughput, and those numbers are explicitly excluded from the
//!   committed regression baselines.
//!
//! Execution itself fans the requests out over [`shift_bnn::pool::run_indexed_with`]: each
//! worker holds one frozen-posterior replica per model version it serves and answers whatever
//! requests it steals. The engine keeps its own version's replicas **warm across runs**, as
//! the accelerator keeps a posterior in its on-chip buffers and only re-seeds its GRNGs per
//! sample: a worker takes a replica the previous run left before building one
//! ([`ModelSource::build`] — seed-rebuilt or checkpoint-loaded), and hands it back after its
//! last job. A swap version's replica lives for its run only. A response depends only on the
//! request (input, `S`, seed) and the frozen posterior of the version that answered it —
//! never on the worker, the batch it rode in, the completion order, or whether the replica
//! was warm — so 1-worker and N-worker runs, batch-size-1 and coalesced runs, and first and
//! later runs produce byte-identical responses. `tests/serve_determinism.rs` pins those
//! equalities and `tests/hot_swap.rs` extends them across scheduled version swaps
//! ([`InferenceEngine::run_traced`]): versions change only at deterministic tick boundaries,
//! old versions drain, and no request is ever dropped.

use crate::batcher::{service_cost, BatchPolicy, BatchSchedule};
use crate::builder::EngineSpec;
use crate::request::{mix_seed, InferRequest, InferResponse};
use crate::spec::{ModelSource, ServeMode};
use bnn_obs::{Event, NullRecorder, Recorder};
use bnn_tensor::Tensor;
use bnn_train::moment::MomentNetwork;
use bnn_train::network::Predictive;
use bnn_train::{EpsilonSource, LfsrForward, Network};
use shift_bnn::pool;
use shift_bnn::sweep::json::Json;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Timing of one executed batch in the simulated tick domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchStat {
    /// Tick the batcher closed the batch at.
    pub close_tick: u64,
    /// Tick service began (the device serializes batches: `max(close, previous end)`).
    pub start_tick: u64,
    /// Tick the batch completed; every member request's response is ready here.
    pub end_tick: u64,
    /// Number of coalesced requests.
    pub size: usize,
    /// Index of the model version that answered this batch: 0 is the engine's initial
    /// source, `i ≥ 1` is the `i`-th scheduled [`VersionSwap`]. Always 0 without swaps.
    pub version: usize,
}

/// A scheduled hot-swap: from (simulated) tick `at_tick` onward, batches are answered by
/// `source` instead of whatever version was active before.
///
/// The swap is **deterministic in the tick domain**: a batch is answered by the newest
/// version whose `at_tick` is at or before the batch's *service start* tick. Batches that
/// started service earlier drain on the old version — no request is ever dropped or
/// re-answered — and every batch from the boundary onward answers with the new posterior.
/// Because batch timing is a pure function of (trace, policy), the boundary is too: the same
/// swap schedule splits the same trace at the same request on every machine and worker count.
#[derive(Debug, Clone)]
pub struct VersionSwap {
    /// First tick at which the new version may begin answering.
    pub at_tick: u64,
    /// The replacement posterior source.
    pub source: ModelSource,
}

/// The result of one engine run over a request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeRunReport {
    /// Name of the served model family.
    pub model: String,
    /// The batching policy the run used.
    pub policy: BatchPolicy,
    /// Worker threads the responses were computed on (does not affect any value in here).
    pub workers: usize,
    /// One response per request, in request order.
    pub responses: Vec<InferResponse>,
    /// Per-request latency in ticks (batch end − arrival), in request order.
    pub latencies: Vec<u64>,
    /// Per-batch timing, in execution order.
    pub batches: Vec<BatchStat>,
    /// Tick the last batch completed at (0 for an empty trace).
    pub makespan_ticks: u64,
}

impl ServeRunReport {
    /// Nearest-rank latency percentile in ticks (`q` in `0.0..=1.0`); see
    /// [`crate::stats::latency_percentile`] for the rank contract (`q = 0.0` → minimum).
    ///
    /// # Panics
    ///
    /// Panics on an empty report or `q` outside `0.0..=1.0`.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        assert!(!self.latencies.is_empty(), "no requests were served");
        crate::stats::latency_percentile(&self.latencies, q)
    }

    /// Requests completed per thousand simulated ticks.
    pub fn throughput_per_kilotick(&self) -> f64 {
        if self.makespan_ticks == 0 {
            return 0.0;
        }
        self.responses.len() as f64 * 1000.0 / self.makespan_ticks as f64
    }

    /// Mean coalesced batch size.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.responses.len() as f64 / self.batches.len() as f64
    }

    /// The canonical response bytes: what the determinism contract compares across worker
    /// counts and batch policies.
    pub fn responses_json(&self) -> String {
        Json::array_of(self.responses.iter()).to_compact()
    }

    /// FNV-1a digest of [`responses_json`](Self::responses_json), as 16 hex characters — the
    /// compact fingerprint the committed serve baseline pins the numerical outputs with.
    pub fn responses_digest(&self) -> String {
        shift_bnn::sweep::json::fnv1a_hex(self.responses_json().bytes())
    }

    /// Serializes the full run report. Every field is tick-domain or response data — a pure
    /// function of (trace, model spec, policy) — so two runs of the same inputs serialize
    /// byte-identically whatever the worker count. An empty run serializes the latency
    /// percentiles as `null`.
    pub fn to_json(&self) -> Json {
        let percentile = |q| {
            if self.latencies.is_empty() {
                Json::Null
            } else {
                Json::UInt(self.latency_percentile(q))
            }
        };
        Json::obj([
            ("model", Json::Str(self.model.clone())),
            (
                "policy",
                Json::obj([
                    ("label", Json::Str(self.policy.label())),
                    ("max_batch", Json::UInt(self.policy.max_batch as u64)),
                    ("max_wait_ticks", Json::UInt(self.policy.max_wait_ticks)),
                ]),
            ),
            ("requests", Json::UInt(self.responses.len() as u64)),
            ("batches", Json::UInt(self.batches.len() as u64)),
            ("mean_batch_size", Json::Float(self.mean_batch_size())),
            ("makespan_ticks", Json::UInt(self.makespan_ticks)),
            ("throughput_per_kilotick", Json::Float(self.throughput_per_kilotick())),
            (
                "latency_ticks",
                Json::obj([
                    ("p50", percentile(0.50)),
                    ("p95", percentile(0.95)),
                    ("p99", percentile(0.99)),
                ]),
            ),
            ("responses", Json::array_of(self.responses.iter())),
        ])
    }
}

/// A batched inference engine over one frozen posterior (with optional scheduled hot-swaps
/// to newer posterior versions — see [`InferenceEngine::run_traced`]), serving under either
/// backend of the [`ServeMode`] axis: `S`-sample Monte-Carlo or single-pass analytic moment
/// propagation.
///
/// The engine keeps up to `workers` replicas of its own posterior warm between runs; building
/// it builds none.
pub struct InferenceEngine {
    spec: EngineSpec,
    /// ε values one Monte-Carlo sample draws, counted once from the spec's source.
    epsilon_per_sample: usize,
    /// Version-0 replicas the previous runs' workers handed back, without their ε sources.
    warm: Mutex<Vec<WarmReplica>>,
}

impl std::fmt::Debug for InferenceEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InferenceEngine")
            .field("spec", &self.spec)
            .field("epsilon_per_sample", &self.epsilon_per_sample)
            .field("warm_replicas", &self.warm_replicas().len())
            .finish()
    }
}

impl InferenceEngine {
    /// Builds an engine from a declarative [`EngineSpec`], the one construction surface.
    ///
    /// # Panics
    ///
    /// Panics when the spec's `workers` is zero or its policy's `max_batch` is zero.
    pub fn build(spec: EngineSpec) -> InferenceEngine {
        assert!(spec.workers >= 1, "an engine needs at least one worker");
        assert!(spec.policy.max_batch >= 1, "max_batch must be at least 1");
        // The source's ε-per-sample count drives the tick cost model (as the weight count in
        // moment mode — both backends stream the same weight volume).
        let epsilon_per_sample = spec.source.epsilon_count();
        InferenceEngine { spec, epsilon_per_sample, warm: Mutex::new(Vec::new()) }
    }

    /// The served model's source (version 0; swaps are per-run, not engine state).
    pub fn source(&self) -> &ModelSource {
        &self.spec.source
    }

    /// The engine's serving backend.
    pub fn mode(&self) -> ServeMode {
        self.spec.mode
    }

    /// The engine's batching policy.
    pub fn policy(&self) -> BatchPolicy {
        self.spec.policy
    }

    /// The engine's worker count.
    pub fn workers(&self) -> usize {
        self.spec.workers
    }

    /// ε values one Monte-Carlo sample draws (one per Bayesian weight).
    pub fn epsilon_per_sample(&self) -> usize {
        self.epsilon_per_sample
    }

    /// Simulated service cost of one request on the engine's initial source: one setup tick
    /// plus the GRNG-bound ε generation time of its `S` sampled forward passes (Monte-Carlo),
    /// or the two weight-wide moment passes (analytic).
    pub fn service_cost_ticks(&self, samples: usize) -> u64 {
        service_cost(self.spec.mode, self.epsilon_per_sample, samples)
    }

    /// Serves a request trace: batches it, times the batches on the simulated device, and
    /// executes every request on the pool (one posterior replica per worker, warm from an
    /// earlier run where one is left). A request with `samples == 0` is answered by one
    /// analytic moment pass, priced at moment cost, in either mode.
    ///
    /// # Panics
    ///
    /// Panics when the trace is not sorted by arrival tick or a request's input shape does
    /// not match the model.
    pub fn run(&self, requests: &[InferRequest]) -> ServeRunReport {
        self.run_traced(requests, &[], &mut NullRecorder)
    }

    /// [`InferenceEngine::run`] with scheduled **hot-swaps** and structured tracing.
    ///
    /// A batch is answered by the newest version whose `at_tick` is at or before the batch's
    /// service start; earlier batches drain on the prior version. No request is dropped at a
    /// swap, and the boundary is a deterministic function of (trace, policy, swap schedule),
    /// never of worker count or wall clock. Every worker holds a private replica of each
    /// version it actually serves: the engine's own version comes warm from an earlier run
    /// where one is left and is built lazily otherwise, and goes back to the engine after
    /// the worker's last job; a swap version's replica is built lazily, at most once per
    /// worker, and dropped with the run.
    ///
    /// Each batch's close, dispatch and completion are recorded as tick-stamped [`Event`]s
    /// keyed by the member requests' ids, plus one [`Event::BatchSeal`] per batch for
    /// occupancy metrics. The recorder never influences the run, so responses, latencies and
    /// batch stats are byte-identical to an untraced run.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`InferenceEngine::run`], or when `swaps` is not
    /// sorted by `at_tick`.
    pub fn run_traced<R: Recorder>(
        &self,
        requests: &[InferRequest],
        swaps: &[VersionSwap],
        rec: &mut R,
    ) -> ServeRunReport {
        let spec = &self.spec;
        let mut schedule =
            BatchSchedule::new(spec.policy, spec.mode, self.epsilon_per_sample, swaps, &[]);
        let mut previous_arrival = 0;
        for (i, request) in requests.iter().enumerate() {
            assert!(
                request.arrival_tick >= previous_arrival,
                "request trace must be sorted by arrival_tick (index {i})"
            );
            previous_arrival = request.arrival_tick;
            schedule.admit(request.samples, request.arrival_tick);
        }
        schedule.finish();
        self.execute(requests, &Admission::in_order(requests), swaps, schedule, 0, rec)
    }

    /// Answers a filled schedule: `admissions[j]` is its `j`-th admission, naming a request
    /// of `trace` with the tick it was admitted at and the sample count it was priced at,
    /// and `swaps` are the versions the schedule was built with. Batch events are stamped
    /// with `shard` and recorded on the calling thread, never on pool workers, so recorded
    /// streams are identical at any worker count.
    pub(crate) fn execute<R: Recorder>(
        &self,
        trace: &[InferRequest],
        admissions: &[Admission],
        swaps: &[VersionSwap],
        schedule: BatchSchedule,
        shard: usize,
        rec: &mut R,
    ) -> ServeRunReport {
        debug_assert_eq!(
            admissions.len(),
            schedule.batches().iter().map(|b| b.size).sum::<usize>(),
            "the schedule holds exactly the requests being answered"
        );
        let mut latencies = vec![0u64; admissions.len()];
        let mut version_of = vec![0usize; admissions.len()];
        for (batch, members) in schedule.batch_members() {
            if R::ENABLED {
                rec.record(Event::BatchSeal {
                    shard,
                    close_tick: batch.close_tick,
                    members: batch.size,
                    version: batch.version,
                });
            }
            for j in members {
                latencies[j] = batch.end_tick - admissions[j].tick;
                version_of[j] = batch.version;
                if R::ENABLED {
                    let request = trace[admissions[j].index].id;
                    rec.record(Event::BatchClose { request, shard, tick: batch.close_tick });
                    rec.record(Event::Dispatch { request, shard, tick: batch.start_tick });
                    rec.record(Event::ComputeDone { request, shard, tick: batch.end_tick });
                }
            }
        }

        // Execution: requests fan out over the pool; each worker holds one replica per
        // version it serves (version 0 warm if the engine kept one, any other built once,
        // lazily) and results merge by request index (completion order cannot leak into the
        // report). Materializing the owned per-request responses necessarily allocates their
        // vectors; the zero-allocation contract covers the compute path (`answer_into`).
        // Version table: index 0 is the engine's own source, i ≥ 1 the (i−1)-th swap.
        let sources: Vec<&ModelSource> =
            std::iter::once(&self.spec.source).chain(swaps.iter().map(|s| &s.source)).collect();
        let sources = &sources;
        let version_of = &version_of;
        let responses = pool::run_indexed_with(
            admissions.len(),
            self.spec.workers,
            |_worker| WorkerReplicas::new(self, sources.len()),
            |worker, j| {
                let version = version_of[j];
                let replica = worker.replicas[version]
                    .get_or_insert_with(|| ServeReplica::of(sources[version], &self.spec));
                let mut response = InferResponse {
                    id: 0,
                    samples: 0,
                    mean: Vec::new(),
                    variance: Vec::new(),
                    entropy: 0.0,
                };
                let admission = admissions[j];
                replica.answer(&trace[admission.index], admission.samples, &mut response);
                response
            },
        );

        ServeRunReport {
            model: self.spec.source.name(),
            policy: self.spec.policy,
            workers: self.spec.workers,
            responses,
            latencies,
            makespan_ticks: schedule.makespan(),
            batches: schedule.into_batches(),
        }
    }

    /// The warm replica cache. Its critical sections only push and pop, so a poisoned lock
    /// still holds whole replicas.
    fn warm_replicas(&self) -> MutexGuard<'_, Vec<WarmReplica>> {
        self.warm.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What an engine keeps of a version-0 replica between runs: the backend and the predictive
/// buffer, both `Send`. The ε sources are built again for each run, since an
/// [`EpsilonSource`] need not be `Send`; every request reseeds them anyway.
type WarmReplica = (ReplicaBackend, Predictive);

/// One pool worker's replicas for one run, by version. Built on the worker's thread, it takes
/// a warm version-0 replica from the engine if one is left; dropped after the worker's last
/// job, it hands the version-0 replica back, keeping at most `workers` warm.
struct WorkerReplicas<'e> {
    engine: &'e InferenceEngine,
    replicas: Vec<Option<ServeReplica>>,
}

impl<'e> WorkerReplicas<'e> {
    fn new(engine: &'e InferenceEngine, versions: usize) -> WorkerReplicas<'e> {
        let mut replicas: Vec<Option<ServeReplica>> = (0..versions).map(|_| None).collect();
        replicas[0] = engine.warm_replicas().pop().map(|(backend, predictive)| ServeReplica {
            backend,
            predictive,
            sources: Vec::new(),
            fused_sampling: engine.spec.fused_sampling,
        });
        WorkerReplicas { engine, replicas }
    }
}

impl Drop for WorkerReplicas<'_> {
    fn drop(&mut self) {
        // A job that panicked may have left its replica half-written: keep none of them.
        if std::thread::panicking() {
            return;
        }
        if let Some(replica) = self.replicas[0].take() {
            let mut warm = self.engine.warm_replicas();
            if warm.len() < self.engine.spec.workers {
                warm.push((replica.backend, replica.predictive));
            }
        }
    }
}

/// One request a schedule admitted: its index in the trace, and the tick and sample count
/// it was admitted at (a cluster may admit a request later, or at fewer samples, than it
/// arrived with).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Admission {
    pub(crate) index: usize,
    pub(crate) tick: u64,
    pub(crate) samples: usize,
}

impl Admission {
    /// Every request of `trace`, admitted as it arrived.
    fn in_order(trace: &[InferRequest]) -> Vec<Admission> {
        let admit = |(index, r): (usize, &InferRequest)| Admission {
            index,
            tick: r.arrival_tick,
            samples: r.samples,
        };
        trace.iter().enumerate().map(admit).collect()
    }
}

/// One worker's serving backend state, per [`ServeMode`]: a sampled-forward network replica
/// (answering with the [`ServeReplica`]'s ε sources), or a compiled analytic moment network
/// (which needs none).
enum ReplicaBackend {
    /// `S` sampled forward passes per request.
    MonteCarlo {
        network: Network,
        /// The analytic twin of `network`, compiled lazily the first time a
        /// graceful-degradation request (`samples == 0`) reaches this replica. Deterministic
        /// in the posterior, so laziness cannot leak into response bytes.
        moment: Option<MomentNetwork>,
    },
    /// One analytic `(mean, variance)` pass per request; no ε, no RNG.
    Moment { network: MomentNetwork },
}

/// One worker's serving state: a frozen-posterior backend replica, the reusable predictive
/// buffer that lets the steady-state request path run without heap allocation, and the ε
/// sources.
pub struct ServeReplica {
    backend: ReplicaBackend,
    predictive: Predictive,
    /// One forward-only source per Monte-Carlo sample, grown to the largest `S` seen and
    /// *reseeded* for every request instead of rebuilt, mirroring how the accelerator's GRNGs
    /// are re-loaded rather than re-fabricated.
    sources: Vec<Box<dyn EpsilonSource>>,
    /// Whether Monte-Carlo requests run fused ([`Network::predictive_fused_into`]) — a pure
    /// speed switch, bit-identical either way (ignored by the moment backend).
    fused_sampling: bool,
}

impl std::fmt::Debug for ServeReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("ServeReplica");
        match &self.backend {
            ReplicaBackend::MonteCarlo { network, moment } => s
                .field("mode", &"mc")
                .field("network", network)
                .field("sources", &self.sources.len())
                .field("moment_compiled", &moment.is_some()),
            ReplicaBackend::Moment { network } => {
                s.field("mode", &"moment").field("network", network)
            }
        }
        .finish()
    }
}

impl ServeReplica {
    /// Builds a replica from a declarative [`EngineSpec`], the one construction surface; the
    /// spec's policy/worker fields are engine-level and ignored here.
    pub fn build(spec: &EngineSpec) -> ServeReplica {
        ServeReplica::of(&spec.source, spec)
    }

    /// A replica of `source` under `spec`'s backend, kernel configuration and fused-sampling
    /// switch: how [`ServeReplica::build`] and the engine's per-version replicas are built.
    /// Deterministic in `(source, mode)` alone — the kernel (bit-exact tiers) and fused
    /// sampling change speed, never bytes.
    pub(crate) fn of(source: &ModelSource, spec: &EngineSpec) -> ServeReplica {
        let backend = match spec.mode {
            ServeMode::MonteCarlo => {
                let mut network = source.build();
                network.set_kernel(spec.kernel);
                ReplicaBackend::MonteCarlo { network, moment: None }
            }
            ServeMode::Moment => ReplicaBackend::Moment { network: source.build_moment() },
        };
        ServeReplica {
            backend,
            predictive: Predictive {
                mean: Tensor::zeros(&[0]),
                variance: Tensor::zeros(&[0]),
                entropy: 0.0,
                samples: 0,
            },
            sources: Vec::new(),
            fused_sampling: spec.fused_sampling,
        }
    }

    /// The replica's serving backend.
    pub fn mode(&self) -> ServeMode {
        match &self.backend {
            ReplicaBackend::MonteCarlo { .. } => ServeMode::MonteCarlo,
            ReplicaBackend::Moment { .. } => ServeMode::Moment,
        }
    }

    /// Computes one response into `response`, reusing its buffers. Monte-Carlo: `S` forward
    /// passes with seed-regenerated ε, aggregated into mean / variance / entropy. Moment:
    /// one analytic pass — the request's `samples` and ε seed are ignored and the response
    /// reports `samples = 0` to mark itself analytic. A Monte-Carlo replica given a
    /// `samples == 0` request — the graceful-degradation sentinel set by the cluster's
    /// [`DegradeLadder`](crate::faults::DegradeLadder) — answers analytically too, from a
    /// moment network compiled lazily (once per replica) off the same frozen posterior.
    /// Pure in (replica parameters, request) — bit-identical on every worker, whatever was
    /// served before. After the replica has warmed up (largest `S` seen, buffer shapes,
    /// moment compilation if exercised), this performs zero heap allocations per request
    /// (asserted by `crates/bench`'s allocation test).
    ///
    /// # Panics
    ///
    /// Panics if the request's input shape mismatches the model.
    pub fn answer_into(&mut self, request: &InferRequest, response: &mut InferResponse) {
        self.answer(request, request.samples, response);
    }

    /// [`ServeReplica::answer_into`] at `samples` Monte-Carlo samples instead of the
    /// request's own count: how a schedule answers the sample count it admitted a request
    /// at.
    pub(crate) fn answer(
        &mut self,
        request: &InferRequest,
        samples: usize,
        response: &mut InferResponse,
    ) {
        match &mut self.backend {
            ReplicaBackend::MonteCarlo { network, moment } => {
                if samples == 0 {
                    let moment = moment.get_or_insert_with(|| {
                        MomentNetwork::from_network(network)
                            .expect("a servable posterior always compiles to a moment network")
                    });
                    moment
                        .predictive_into(&request.input, &mut self.predictive)
                        .expect("request input shape matches the served model");
                    finish_response(&self.predictive, request, response);
                    return;
                }
                while self.sources.len() < samples {
                    self.sources.push(Box::new(
                        LfsrForward::new(0)
                            .expect("Shift-BNN default GRNG construction cannot fail"),
                    ));
                }
                let sources = &mut self.sources[..samples];
                for (s, source) in sources.iter_mut().enumerate() {
                    source.reseed(mix_seed(request.seed, s as u64));
                }
                if self.fused_sampling {
                    network
                        .predictive_fused_into(&request.input, sources, &mut self.predictive)
                        .expect("request input shape matches the served model");
                } else {
                    network
                        .predictive_into(&request.input, sources, &mut self.predictive)
                        .expect("request input shape matches the served model");
                }
            }
            ReplicaBackend::Moment { network } => {
                network
                    .predictive_into(&request.input, &mut self.predictive)
                    .expect("request input shape matches the served model");
            }
        }
        finish_response(&self.predictive, request, response);
    }

    /// [`ServeReplica::answer_into`] bracketed by the hot-path profiling counters: returns
    /// what answering this request cost in per-tier GEMM calls/MACs, emitted ε values and
    /// scratch high-water `f32` slots. The counters are thread-local, so the profile is
    /// exact when the replica runs on the calling thread (the deterministic replay mode the
    /// obs benchmark commits) and the response is bit-identical to an unprofiled answer.
    pub fn answer_profiled(
        &mut self,
        request: &InferRequest,
        response: &mut InferResponse,
    ) -> bnn_obs::ProfileSnapshot {
        let before = profile_snapshot();
        bnn_tensor::profile::reset_scratch_high_water();
        self.answer_into(request, response);
        profile_snapshot().delta_since(&before)
    }
}

/// A point-in-time copy of this thread's hot-path counters in the obs presentation type.
fn profile_snapshot() -> bnn_obs::ProfileSnapshot {
    bnn_obs::ProfileSnapshot {
        gemm_calls: bnn_tensor::profile::gemm_calls(),
        gemm_macs: bnn_tensor::profile::gemm_macs(),
        epsilon_values: bnn_lfsr::profile::epsilon_values(),
        scratch_high_water: bnn_tensor::profile::scratch_high_water(),
    }
}

/// Copies a computed predictive into the response's reused buffers.
fn finish_response(predictive: &Predictive, request: &InferRequest, response: &mut InferResponse) {
    response.id = request.id;
    response.samples = predictive.samples;
    response.mean.clear();
    response.mean.extend_from_slice(predictive.mean.data());
    response.variance.clear();
    response.variance.extend_from_slice(predictive.variance.data());
    response.entropy = predictive.entropy;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{request_service_cost, Slowdown};
    use crate::spec::ModelSpec;
    use crate::workload::WorkloadSpec;

    fn small_trace(spec: &ModelSpec) -> Vec<InferRequest> {
        WorkloadSpec::uniform(10, 2, 3, 99).generate(spec)
    }

    fn engine(spec: &ModelSpec, policy: BatchPolicy, workers: usize) -> InferenceEngine {
        InferenceEngine::build(EngineSpec::new(spec.clone()).policy(policy).workers(workers))
    }

    #[test]
    fn run_produces_one_response_per_request_in_order() {
        let spec = ModelSpec::mlp(5);
        let trace = small_trace(&spec);
        let report = engine(&spec, BatchPolicy::unbatched(), 1).run(&trace);
        assert_eq!(report.responses.len(), trace.len());
        for (request, response) in trace.iter().zip(&report.responses) {
            assert_eq!(request.id, response.id);
            assert_eq!(request.samples, response.samples);
            let total: f32 = response.mean.iter().sum();
            assert!((total - 1.0).abs() < 1e-5, "mean must be a distribution");
        }
    }

    #[test]
    fn tick_model_amortizes_batch_overhead() {
        let spec = ModelSpec::mlp(5);
        let trace = small_trace(&spec);
        let a = engine(&spec, BatchPolicy::unbatched(), 1).run(&trace);
        let b = engine(&spec, BatchPolicy { max_batch: 10, max_wait_ticks: 64 }, 1).run(&trace);
        // Same total work, fewer overhead payments: the coalesced makespan must be smaller.
        assert!(b.makespan_ticks < a.makespan_ticks);
        assert!(b.throughput_per_kilotick() > a.throughput_per_kilotick());
        assert!(b.mean_batch_size() > a.mean_batch_size());
    }

    #[test]
    fn batch_timing_respects_device_serialization() {
        let spec = ModelSpec::mlp(5);
        let policy = BatchPolicy { max_batch: 2, max_wait_ticks: 4 };
        let report = engine(&spec, policy, 1).run(&small_trace(&spec));
        for pair in report.batches.windows(2) {
            assert!(pair[1].start_tick >= pair[0].end_tick, "batches overlap on the device");
            assert!(pair[1].start_tick >= pair[1].close_tick, "service before close");
        }
        assert_eq!(report.makespan_ticks, report.batches.last().unwrap().end_tick);
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let spec = ModelSpec::mlp(5);
        let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 8 };
        let report = engine(&spec, policy, 2).run(&small_trace(&spec));
        let (p50, p95, p99) = (
            report.latency_percentile(0.50),
            report.latency_percentile(0.95),
            report.latency_percentile(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p50 > 0, "every latency includes at least the service time");
    }

    #[test]
    fn service_cost_scales_with_samples() {
        let engine = engine(&ModelSpec::lenet(5), BatchPolicy::unbatched(), 1);
        assert!(engine.epsilon_per_sample() > 0);
        let one = engine.service_cost_ticks(1);
        let many = engine.service_cost_ticks(64);
        assert!(many > one);
    }

    #[test]
    fn responses_digest_tracks_response_content() {
        let spec = ModelSpec::mlp(5);
        let engine = engine(&spec, BatchPolicy::unbatched(), 1);
        let trace_a = small_trace(&spec);
        let a = engine.run(&trace_a);
        assert_eq!(a.responses_digest().len(), 16);
        assert_eq!(a.responses_digest(), engine.run(&trace_a).responses_digest());
        let mut trace_b = trace_a.clone();
        trace_b[0].seed ^= 1;
        assert_ne!(a.responses_digest(), engine.run(&trace_b).responses_digest());
    }

    #[test]
    fn slowdown_windows_stretch_timing_but_not_bytes() {
        let spec = ModelSpec::mlp(5);
        let policy = BatchPolicy { max_batch: 2, max_wait_ticks: 4 };
        let engine = engine(&spec, policy, 1);
        let trace = small_trace(&spec);
        let healthy = engine.run(&trace);
        let window = Slowdown { from_tick: 0, until_tick: u64::MAX, multiplier: 3 };
        let epsilon = engine.epsilon_per_sample();
        let mut schedule = BatchSchedule::new(policy, engine.mode(), epsilon, &[], &[window]);
        for request in &trace {
            schedule.admit(request.samples, request.arrival_tick);
        }
        schedule.finish();
        let admissions = Admission::in_order(&trace);
        let slow = engine.execute(&trace, &admissions, &[], schedule, 0, &mut NullRecorder);
        assert!(slow.makespan_ticks > healthy.makespan_ticks);
        for (batch, healthy_batch) in slow.batches.iter().zip(&healthy.batches) {
            assert_eq!(
                batch.end_tick - batch.start_tick,
                3 * (healthy_batch.end_tick - healthy_batch.start_tick),
                "every batch starts inside the window, so service stretches exactly 3x"
            );
        }
        assert_eq!(slow.responses_digest(), healthy.responses_digest(), "late, not different");
    }

    #[test]
    fn zero_sample_requests_answer_analytically_in_a_monte_carlo_replica() {
        let spec = ModelSpec::mlp(5);
        let source = ModelSource::Spec(spec.clone());
        let mut mc = ServeReplica::build(&EngineSpec::new(source.clone()));
        let mut moment = ServeReplica::build(&EngineSpec::new(source).mode(ServeMode::Moment));
        let mut request = small_trace(&spec).remove(0);
        request.samples = 0;
        let mut degraded = InferResponse {
            id: 0,
            samples: 9,
            mean: Vec::new(),
            variance: Vec::new(),
            entropy: 0.0,
        };
        let mut analytic = degraded.clone();
        mc.answer_into(&request, &mut degraded);
        moment.answer_into(&request, &mut analytic);
        assert_eq!(degraded, analytic, "the sentinel routes to the same analytic pass");
        assert_eq!(degraded.samples, 0, "the answer is marked analytic");
        // Degraded pricing matches the moment backend's two weight-wide passes.
        assert_eq!(
            request_service_cost(ServeMode::MonteCarlo, 5088, 0),
            service_cost(ServeMode::Moment, 5088, 0),
        );
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let report = engine(&ModelSpec::mlp(5), BatchPolicy::unbatched(), 2).run(&[]);
        assert!(report.responses.is_empty());
        assert_eq!(report.makespan_ticks, 0);
        assert_eq!(report.throughput_per_kilotick(), 0.0);
        assert_eq!(report.mean_batch_size(), 0.0);
        // Serialization must not trip the percentile assert on an empty run.
        let json = report.to_json().to_compact();
        assert!(json.contains("\"p50\":null"));
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<InferenceEngine>();
    }

    #[test]
    #[should_panic(expected = "sorted by arrival_tick")]
    fn unsorted_trace_is_rejected() {
        let spec = ModelSpec::mlp(5);
        let mut trace = small_trace(&spec);
        trace.swap(0, 1);
        engine(&spec, BatchPolicy::unbatched(), 1).run(&trace);
    }
}
