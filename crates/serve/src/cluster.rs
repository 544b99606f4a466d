//! **bnn-cluster** — a deterministic tick-domain cluster simulator above the single-engine
//! serving path: a router fanning [`InferRequest`]s across N replica shards, each an
//! [`InferenceEngine`] with its own pool and a bounded per-shard queue.
//!
//! This is the "millions of users" layer: it adds the three mechanisms a single engine does
//! not have —
//!
//! * **admission control and load shedding**: every shard bounds its *backlog* (requests
//!   admitted but not yet completed) at [`ClusterConfig::queue_cap`]; a request routed to a
//!   full shard is shed at its arrival tick. An optional relative deadline
//!   ([`ClusterConfig::deadline_ticks`]) sheds requests whose estimated completion already
//!   misses it at admission time, so nothing hopeless occupies queue space;
//! * **routing policies** ([`RoutingPolicy`]): deterministic round-robin, deterministic
//!   least-loaded (min backlog, lowest index on ties), and the uncertainty-aware **two-tier**
//!   policy — a cheap low-`S` first pass on the low tier whose predictive entropy above a
//!   threshold *escalates* the request to a reserved high-`S` shard. Escalation is the
//!   serving-side payoff of the paper's ε regeneration: re-sampling the same request at
//!   higher `S` needs only its 64-bit seed, nothing stored;
//! * **queue-depth-driven autoscaling** ([`AutoscalePolicy`]): at deterministic epoch ticks,
//!   shards activate when the mean backlog crosses a high watermark and drain (stop receiving,
//!   finish their queue) when it falls below a low one.
//!
//! # The determinism argument
//!
//! Everything above runs in the simulated tick domain: arrival ticks come from the trace, and
//! each shard's batching, device serialization and pricing come from one [`crate::batcher`]
//! schedule per shard — the same schedule a bare [`InferenceEngine`] fills from its trace.
//! Routing, shedding, escalation and scaling decisions are pure functions of (trace, config,
//! swap schedule, fault plan); responses are pure functions of (request, posterior, `S`). No
//! wall clock is read anywhere on the result path, so an N-shard × M-worker cluster run
//! serializes **byte-identically** on every machine, at every worker count — and each shard's
//! slice of the run equals a standalone single-shard run over the sub-trace the router handed
//! it (`tests/cluster_determinism.rs` pins both).
//!
//! Internally a run has two phases. Phase A (the *plan*) walks arrivals in trace order
//! through the per-shard schedules and makes every decision; it never touches a network, so
//! it scales to million-request traces ([`Cluster::plan_with_faults`] exposes it directly).
//! Phase B answers each shard's schedule exactly as phase A left it, on the shard's engine
//! pool. It re-times nothing, so the report's timing and its answers come from one clock.

use crate::batcher::{BatchPolicy, BatchSchedule};
use crate::builder::EngineSpec;
use crate::engine::{Admission, InferenceEngine, ServeRunReport, VersionSwap};
use crate::faults::{DegradeEvent, DegradeLevel, FaultPlan, FaultTimeline, FaultTrace, RetryEvent};
use crate::request::{InferRequest, InferResponse};
use crate::spec::{ModelSource, ServeMode};
use bnn_obs::{export, Event, NullRecorder, Recorder};
use shift_bnn::sweep::json::{fnv1a_hex, Json, ToJson};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// How the router picks a shard for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RoutingPolicy {
    /// Cycle through the active shards in arrival order — the baseline that ignores load.
    RoundRobin,
    /// Route to the active shard with the smallest backlog (admitted-but-incomplete
    /// requests); ties break to the lowest shard index. Deterministic because backlog is a
    /// pure tick-domain function of prior decisions.
    LeastLoaded,
    /// Uncertainty-aware two-tier serving: the low tier (all shards but the last) answers a
    /// cheap `low_samples`-sample first pass, routed least-loaded; any answer whose
    /// predictive entropy exceeds `entropy_threshold` is *escalated* — re-submitted, at its
    /// low-pass completion tick, to the reserved high-`S` shard (the last one) for a
    /// `high_samples`-sample answer. Escalations pass the same admission control; one that
    /// is shed keeps its low-tier answer.
    TwoTier {
        /// Monte-Carlo samples of the cheap first pass (≥ 1).
        low_samples: usize,
        /// Monte-Carlo samples of the escalated pass (≥ 1).
        high_samples: usize,
        /// Predictive-entropy escalation threshold in nats.
        entropy_threshold: f64,
    },
}

impl RoutingPolicy {
    /// A short machine-readable label: `"round_robin"`, `"least_loaded"` or `"two_tier"`.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round_robin",
            RoutingPolicy::LeastLoaded => "least_loaded",
            RoutingPolicy::TwoTier { .. } => "two_tier",
        }
    }
}

/// Queue-depth-driven autoscaling, evaluated at deterministic epoch ticks
/// (`interval_ticks`, `2 × interval_ticks`, …): when the summed backlog of the active shards
/// exceeds `high_watermark` per active shard, the next inactive shard activates; when it
/// falls below `low_watermark` per active shard, the highest-numbered active shard *drains* —
/// it stops receiving new requests but completes everything already admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalePolicy {
    /// Ticks between scaling decisions (≥ 1).
    pub interval_ticks: u64,
    /// Mean backlog per active shard above which a shard activates.
    pub high_watermark: usize,
    /// Mean backlog per active shard below which a shard drains (must be < high).
    pub low_watermark: usize,
    /// Active shards never drop below this (≥ 1).
    pub min_active: usize,
}

/// Configuration of a cluster: N replica shards of one posterior source, a shared batching
/// policy and queue bound, a routing policy and optional autoscaling.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The frozen posterior every shard replicates (hot-swaps can replace it per shard).
    pub source: ModelSource,
    /// The serving backend every shard runs ([`ServeMode::MonteCarlo`] by default). A
    /// [`ServeMode::Moment`] cluster prices batches by two weight-wide passes instead of
    /// `S·ε` GRNG draws and consumes no ε budget at all.
    pub mode: ServeMode,
    /// Total replica shards. Under [`RoutingPolicy::TwoTier`] the *last* shard is reserved
    /// as the high-`S` escalation tier and the rest form the low tier.
    pub shards: usize,
    /// Pool workers each shard's engine executes on (affects wall clock only, never bytes).
    pub workers_per_shard: usize,
    /// The per-shard dynamic-batching policy.
    pub batch: BatchPolicy,
    /// Per-shard backlog bound: a request routed to a shard holding this many
    /// admitted-but-incomplete requests is shed.
    pub queue_cap: usize,
    /// Optional relative deadline: a request whose estimated completion (service start on an
    /// idle-or-busy device plus batch overhead and its own ε volume) exceeds
    /// `arrival + deadline_ticks` is shed at admission rather than queued hopelessly.
    pub deadline_ticks: Option<u64>,
    /// How the router picks shards.
    pub routing: RoutingPolicy,
    /// Optional queue-depth-driven autoscaling over the routable shards.
    pub autoscale: Option<AutoscalePolicy>,
}

impl ClusterConfig {
    /// Mirrors an [`EngineSpec`] into a cluster configuration: every shard replicates the
    /// spec's posterior source and runs the spec's backend, batching policy and worker count.
    /// Cluster-only knobs start at their neutral values — no deadline, round-robin routing,
    /// no autoscaling — and remain plain public fields for struct-update customization.
    ///
    /// ```
    /// use bnn_serve::{ClusterConfig, EngineSpec, ModelSpec, RoutingPolicy};
    ///
    /// let spec = EngineSpec::new(ModelSpec::mlp(7)).workers(2);
    /// let config = ClusterConfig {
    ///     routing: RoutingPolicy::LeastLoaded,
    ///     ..ClusterConfig::from_engine_spec(&spec, 3, 64)
    /// };
    /// assert_eq!(config.shards, 3);
    /// assert_eq!(config.workers_per_shard, 2);
    /// ```
    pub fn from_engine_spec(spec: &EngineSpec, shards: usize, queue_cap: usize) -> ClusterConfig {
        ClusterConfig {
            source: spec.source.clone(),
            mode: spec.mode,
            shards,
            workers_per_shard: spec.workers,
            batch: spec.policy,
            queue_cap,
            deadline_ticks: None,
            routing: RoutingPolicy::RoundRobin,
            autoscale: None,
        }
    }
}

/// A scheduled hot-swap on one shard of the cluster (the cluster form of [`VersionSwap`]).
#[derive(Debug, Clone)]
pub struct ShardSwap {
    /// Which shard swaps.
    pub shard: usize,
    /// The swap itself (tick + replacement source).
    pub swap: VersionSwap,
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The routed shard's backlog was at `queue_cap`.
    QueueFull,
    /// The admission-time completion estimate already missed the request's deadline.
    Deadline,
    /// The request was evicted by a [`crate::faults::FaultEvent::ShardDown`] crash (possibly
    /// more than once) and its [`crate::faults::RetryPolicy`] budget ran out. The event's
    /// shard is the one whose crash spent the final attempt.
    RetryBudgetExhausted,
    /// Every routable shard was down when the request (or its final retry) submitted. The
    /// event's shard is recorded as `0` by convention — there was no shard to cite.
    ShardUnavailable,
    /// The degradation ladder's top rung ([`crate::faults::DegradeLevel::Shed`]) was active
    /// at submission: cluster-wide backlog pressure left no capacity at any quality level.
    Overload,
}

impl ShedReason {
    /// A short machine-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::Deadline => "deadline",
            ShedReason::RetryBudgetExhausted => "retry_budget_exhausted",
            ShedReason::ShardUnavailable => "shard_unavailable",
            ShedReason::Overload => "overload",
        }
    }
}

/// One load-shedding decision: which request, the exact tick, where and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedEvent {
    /// The shed request's id.
    pub request: u64,
    /// The tick the decision was made at (the request's arrival tick).
    pub tick: u64,
    /// The shard the router had chosen.
    pub shard: usize,
    /// Why it was shed.
    pub reason: ShedReason,
}

impl ShedEvent {
    /// The event in the observability vocabulary — what the recorder stream carries and the
    /// report's serialization goes through.
    pub fn to_event(&self) -> Event {
        Event::Shed {
            request: self.request,
            tick: self.tick,
            shard: self.shard,
            reason: self.reason.label(),
        }
    }
}

/// One escalation decision of the two-tier policy: which request, the exact tick (its
/// low-pass completion), and whether the high shard admitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationEvent {
    /// The escalated request's id.
    pub request: u64,
    /// The tick the low-tier answer (and its entropy) became available.
    pub tick: u64,
    /// Whether the high shard admitted the escalation (a shed escalation keeps the
    /// low-tier answer).
    pub admitted: bool,
}

impl EscalationEvent {
    /// The event in the observability vocabulary.
    pub fn to_event(&self) -> Event {
        Event::Escalation { request: self.request, tick: self.tick, admitted: self.admitted }
    }
}

/// One autoscaling decision: the epoch tick and the resulting active-shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// The deterministic epoch tick the decision fired at.
    pub tick: u64,
    /// Active shards after the decision.
    pub active: usize,
}

impl ScaleEvent {
    /// The event in the observability vocabulary.
    pub fn to_event(&self) -> Event {
        Event::Scale { tick: self.tick, active: self.active }
    }
}

/// What happened to one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Shed at admission — never answered.
    Shed {
        /// The tick the decision was made at.
        tick: u64,
        /// The shard the router had chosen.
        shard: usize,
        /// Why it was shed.
        reason: ShedReason,
    },
    /// Answered (possibly after an escalation to the high tier).
    Answered {
        /// The shard whose answer the response carries (the high shard for upgrades).
        shard: usize,
        /// The tick the carried answer completed at.
        end_tick: u64,
        /// Whether the two-tier policy escalated this request.
        escalated: bool,
        /// Whether the escalation was admitted and the high-`S` answer is the one carried.
        upgraded: bool,
    },
}

pub use crate::stats::latency_percentile;

// ---------------------------------------------------------------------------------------------
// Phase A output: the plan
// ---------------------------------------------------------------------------------------------

/// The routing/admission/timing plan of a cluster run — everything except the answers.
///
/// Produced by [`Cluster::plan_with_faults`] without materializing a single network replica,
/// so it scales to arbitrarily long traces; [`Cluster::run_traced`] executes the same plan and
/// fills in real responses.
#[derive(Debug, Clone)]
pub struct ClusterPlan {
    /// Per submitted request, in trace order.
    pub outcomes: Vec<RequestOutcome>,
    /// Every shed decision, in decision order.
    pub sheds: Vec<ShedEvent>,
    /// Every autoscaling decision, in epoch order.
    pub scale_events: Vec<ScaleEvent>,
    /// Answered-request latencies (completion − arrival), in trace order of the answered.
    pub latencies: Vec<u64>,
    /// Tick the last batch on any shard completes at (0 for an empty plan).
    pub makespan_ticks: u64,
    /// Batches planned per shard.
    pub batches_per_shard: Vec<usize>,
    /// Everything the fault plan caused: retries, ladder transitions, checkpoint fallbacks
    /// and per-request serving levels (empty under [`FaultPlan::none`]).
    pub faults: FaultTrace,
}

impl ClusterPlan {
    /// Nearest-rank latency percentile over the answered requests.
    ///
    /// # Panics
    ///
    /// Panics when nothing was answered.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        latency_percentile(&self.latencies, q)
    }

    /// Shed requests over submitted requests (0 for an empty trace).
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.sheds.len() as f64 / self.outcomes.len() as f64
    }

    /// Answered requests over submitted requests (1 for an empty trace).
    pub fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        (self.outcomes.len() - self.sheds.len()) as f64 / self.outcomes.len() as f64
    }
}

/// Phase-A working state shared by `plan_with_faults` and `run_traced`.
struct Routing {
    /// One schedule per shard; its `j`-th request is `routed[shard][j]`.
    schedules: Vec<BatchSchedule>,
    /// Admitted global request indices per shard, in admission order (non-decreasing ticks).
    routed: Vec<Vec<usize>>,
    /// Effective per-request sample count (two-tier low passes and the degradation ladder
    /// override the request's own; `0` is the analytic-moment sentinel).
    effective_samples: Vec<usize>,
    /// The tick each request was (finally) admitted at — its arrival tick unless a crash
    /// evicted it into the retry path, in which case the last retry's submission tick.
    admitted_ticks: Vec<u64>,
    outcomes: Vec<Option<RequestOutcome>>,
    sheds: Vec<ShedEvent>,
    scale_events: Vec<ScaleEvent>,
    retries: Vec<RetryEvent>,
    degrades: Vec<DegradeEvent>,
    levels: Vec<DegradeLevel>,
}

// ---------------------------------------------------------------------------------------------
// The cluster
// ---------------------------------------------------------------------------------------------

/// A deterministic tick-domain cluster: router + N bounded-queue replica shards.
#[derive(Debug, Clone)]
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster after validating the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a zero shard/worker/queue/batch bound, a two-tier cluster with fewer than
    /// two shards or zero sample counts, or an autoscale policy with inverted watermarks, a
    /// zero interval, or `min_active` outside `1..=routable shards`.
    pub fn new(config: ClusterConfig) -> Cluster {
        assert!(config.shards >= 1, "a cluster needs at least one shard");
        assert!(config.workers_per_shard >= 1, "each shard needs at least one worker");
        assert!(config.queue_cap >= 1, "queue_cap must be at least 1");
        assert!(config.batch.max_batch >= 1, "max_batch must be at least 1");
        if let RoutingPolicy::TwoTier { low_samples, high_samples, .. } = config.routing {
            assert!(config.shards >= 2, "two-tier routing reserves the last shard as high tier");
            assert!(low_samples >= 1 && high_samples >= 1, "sample counts must be at least 1");
            assert!(
                config.mode == ServeMode::MonteCarlo,
                "two-tier routing escalates by sample count, which the analytic moment \
                 backend has no use for — serve a moment cluster with a single tier"
            );
        }
        if let Some(scale) = config.autoscale {
            assert!(scale.interval_ticks >= 1, "autoscale interval must be at least 1 tick");
            assert!(scale.low_watermark < scale.high_watermark, "watermarks must be ordered");
            let routable = Cluster::routable(&config);
            assert!(
                scale.min_active >= 1 && scale.min_active <= routable,
                "min_active must be in 1..={routable}"
            );
        }
        Cluster { config }
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Shards the router may target (all of them, minus the reserved high tier).
    fn routable(config: &ClusterConfig) -> usize {
        match config.routing {
            RoutingPolicy::TwoTier { .. } => config.shards - 1,
            _ => config.shards,
        }
    }

    /// Groups a swap schedule by shard (each shard's schedule validates its own order).
    fn swaps_by_shard(&self, swaps: &[ShardSwap]) -> Vec<Vec<VersionSwap>> {
        let mut grouped: Vec<Vec<VersionSwap>> = vec![Vec::new(); self.config.shards];
        for swap in swaps {
            assert!(swap.shard < self.config.shards, "swap targets shard {}", swap.shard);
            grouped[swap.shard].push(swap.swap.clone());
        }
        grouped
    }

    /// Phase A: a merged tick-ordered event loop over arrivals, failover retries, fault
    /// transitions and autoscale epochs, making every scaling, routing, degradation and
    /// admission decision against the per-shard schedules.
    ///
    /// Event ordering, the whole determinism argument in four rules:
    ///
    /// 1. *submissions* (fresh arrivals merged with the retry heap) are processed in
    ///    non-decreasing tick order; a retry tying with an arrival goes first (it is the
    ///    older request), retries tying with each other go in schedule order;
    /// 2. *control events* at or before the next submission's tick fire before it, in tick
    ///    order — fault transitions before autoscale epochs on ties;
    /// 3. after the last submission, remaining fault transitions still fire (a trailing
    ///    crash can evict an open batch, whose retries then re-enter rule 1), but no further
    ///    autoscale epochs do — matching the fault-free router, which never scales after the
    ///    last arrival;
    /// 4. nothing reads anything but (trace, config, swaps, fault plan) — no clock, no
    ///    iteration order of any unordered container.
    ///
    /// Under [`FaultPlan::none`] the loop degenerates to exactly the pre-fault router:
    /// arrivals in trace order, epochs before each, no retries, every level `Normal`.
    ///
    /// The recorder observes every decision the loop makes — admissions (with the queue
    /// depth the admission control compared), sheds, retries, ladder transitions, scale
    /// epochs — at the exact ticks the typed event lists carry. It is written to, never
    /// read, so routing is byte-identical with any recorder.
    fn route<R: Recorder>(
        &self,
        trace: &[InferRequest],
        swaps: &[Vec<VersionSwap>],
        faults: &FaultPlan,
        timeline: &FaultTimeline,
        rec: &mut R,
    ) -> Routing {
        let routable = Cluster::routable(&self.config);
        let base_epsilon = self.config.source.epsilon_count();
        let mut schedules: Vec<BatchSchedule> = (0..self.config.shards)
            .map(|s| {
                BatchSchedule::new(
                    self.config.batch,
                    self.config.mode,
                    base_epsilon,
                    &swaps[s],
                    &timeline.slowdowns[s],
                )
            })
            .collect();
        let mut routed: Vec<Vec<usize>> = vec![Vec::new(); self.config.shards];
        let mut outcomes: Vec<Option<RequestOutcome>> = vec![None; trace.len()];
        let mut sheds = Vec::new();
        let mut scale_events = Vec::new();
        let mut effective_samples = vec![0usize; trace.len()];
        let mut admitted_ticks = vec![0u64; trace.len()];
        let mut levels = vec![DegradeLevel::Normal; trace.len()];
        let mut retries: Vec<RetryEvent> = Vec::new();
        let mut degrades: Vec<DegradeEvent> = Vec::new();

        let mut active = match self.config.autoscale {
            Some(scale) => scale.min_active,
            None => routable,
        };
        let mut next_epoch = self.config.autoscale.map(|s| s.interval_ticks);
        let mut rr_cursor = 0usize;
        let mut previous_arrival = 0u64;

        // Liveness per routable shard, flipped by the fault timeline's transitions.
        let mut up = vec![true; routable];
        let mut tr_idx = 0usize;
        // Retry heap: Reverse<(retry tick, schedule sequence, trace index)> pops the
        // earliest retry, in schedule order on ties.
        let mut retry_heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut retry_seq = 0u64;
        let mut attempts = vec![0u32; trace.len()];
        let mut current_level = DegradeLevel::Normal;
        let mut arrival_idx = 0usize;

        loop {
            // Rule 1: the next submission is the earliest of the retry heap and the arrival
            // cursor; the retry wins ties.
            let next_retry = retry_heap.peek().map(|&Reverse(key)| key);
            let next_arrival = (arrival_idx < trace.len()).then(|| trace[arrival_idx].arrival_tick);
            let next_sub_tick = match (next_retry, next_arrival) {
                (Some((rt, _, _)), Some(at)) => Some(rt.min(at)),
                (Some((rt, _, _)), None) => Some(rt),
                (None, Some(at)) => Some(at),
                (None, None) => None,
            };

            // Rules 2 and 3: fire one due control event and re-evaluate (a transition can
            // schedule a retry earlier than the submission we were advancing toward).
            let next_tr = timeline.transitions.get(tr_idx).copied();
            let tr_due = next_tr.is_some_and(|(tt, _, _)| next_sub_tick.is_none_or(|st| tt <= st));
            let ep_due = match (next_epoch, next_sub_tick) {
                (Some(e), Some(st)) => e <= st,
                _ => false,
            };
            if tr_due && (!ep_due || next_tr.is_some_and(|(tt, _, _)| tt <= next_epoch.unwrap())) {
                let (tick, shard, down) = next_tr.expect("tr_due implies a transition");
                tr_idx += 1;
                if !down {
                    up[shard] = true;
                } else if up[shard] {
                    up[shard] = false;
                    // Fail-stop at the dispatch boundary: committed batches complete, the
                    // open batch's members fail over. They are the latest admissions of this
                    // shard, so un-routing them is a truncation.
                    let evicted = schedules[shard].evict_open(tick);
                    if evicted > 0 {
                        let keep = routed[shard].len() - evicted;
                        for i in routed[shard].split_off(keep) {
                            attempts[i] += 1;
                            let attempt = attempts[i];
                            if attempt <= faults.retry.max_retries {
                                let retry_tick = tick + faults.retry.backoff_ticks(attempt);
                                retry_heap.push(Reverse((retry_tick, retry_seq, i)));
                                retry_seq += 1;
                                let event = RetryEvent {
                                    request: trace[i].id,
                                    failed_tick: tick,
                                    retry_tick,
                                    shard: Some(shard),
                                    attempt,
                                };
                                if R::ENABLED {
                                    rec.record(event.to_event());
                                }
                                retries.push(event);
                            } else {
                                let reason = ShedReason::RetryBudgetExhausted;
                                let event = ShedEvent { request: trace[i].id, tick, shard, reason };
                                if R::ENABLED {
                                    rec.record(event.to_event());
                                }
                                sheds.push(event);
                                outcomes[i] = Some(RequestOutcome::Shed { tick, shard, reason });
                            }
                        }
                    }
                }
                continue;
            }
            if ep_due {
                let scale = self.config.autoscale.expect("ep_due implies autoscaling");
                let epoch = next_epoch.expect("ep_due implies an epoch");
                let backlog: usize = schedules[..active].iter_mut().map(|s| s.backlog(epoch)).sum();
                if backlog > scale.high_watermark * active && active < routable {
                    active += 1;
                    if R::ENABLED {
                        rec.record(Event::Scale { tick: epoch, active });
                    }
                    scale_events.push(ScaleEvent { tick: epoch, active });
                } else if backlog < scale.low_watermark * active && active > scale.min_active {
                    active -= 1;
                    if R::ENABLED {
                        rec.record(Event::Scale { tick: epoch, active });
                    }
                    scale_events.push(ScaleEvent { tick: epoch, active });
                }
                next_epoch = Some(epoch + scale.interval_ticks);
                continue;
            }

            // No controls due: process the submission itself (or finish).
            if next_sub_tick.is_none() {
                break;
            }
            let (t, i) = match (next_retry, next_arrival) {
                (Some((rt, _, ri)), at) if at.is_none_or(|at| rt <= at) => {
                    retry_heap.pop();
                    (rt, ri)
                }
                _ => {
                    let i = arrival_idx;
                    arrival_idx += 1;
                    let t = trace[i].arrival_tick;
                    assert!(
                        t >= previous_arrival,
                        "request trace must be sorted by arrival_tick (index {i})"
                    );
                    previous_arrival = t;
                    (t, i)
                }
            };
            let request = &trace[i];

            // Failover's last resort: with every routable-and-active shard down, the
            // submission re-enters the retry path, and sheds `ShardUnavailable` (shard 0 by
            // convention — there is no shard to cite) once its budget is spent.
            let live = (0..active).filter(|&s| up[s]).count();
            if live == 0 {
                attempts[i] += 1;
                let attempt = attempts[i];
                if attempt <= faults.retry.max_retries {
                    let retry_tick = t + faults.retry.backoff_ticks(attempt);
                    retry_heap.push(Reverse((retry_tick, retry_seq, i)));
                    retry_seq += 1;
                    let event = RetryEvent {
                        request: request.id,
                        failed_tick: t,
                        retry_tick,
                        shard: None,
                        attempt,
                    };
                    if R::ENABLED {
                        rec.record(event.to_event());
                    }
                    retries.push(event);
                } else {
                    let reason = ShedReason::ShardUnavailable;
                    let event = ShedEvent { request: request.id, tick: t, shard: 0, reason };
                    if R::ENABLED {
                        rec.record(event.to_event());
                    }
                    sheds.push(event);
                    outcomes[i] = Some(RequestOutcome::Shed { tick: t, shard: 0, reason });
                }
                continue;
            }

            // The degradation ladder reads cluster-wide pressure over the live shards at
            // every submission; a level change is a tick-stamped event.
            let level = match faults.ladder {
                Some(ladder) => {
                    let pressure: usize =
                        (0..active).filter(|&s| up[s]).map(|s| schedules[s].backlog(t)).sum();
                    let level = ladder.level_for(pressure, live);
                    if level != current_level {
                        let event = DegradeEvent {
                            tick: t,
                            from: current_level,
                            to: level,
                            backlog: pressure,
                        };
                        if R::ENABLED {
                            rec.record(event.to_event());
                        }
                        degrades.push(event);
                        current_level = level;
                    }
                    level
                }
                None => DegradeLevel::Normal,
            };
            levels[i] = level;

            let samples = match self.config.routing {
                RoutingPolicy::TwoTier { low_samples, .. } => low_samples,
                _ => match level {
                    DegradeLevel::Normal | DegradeLevel::Shed => request.samples,
                    DegradeLevel::ReducedSamples => request
                        .samples
                        .min(faults.ladder.expect("level implies ladder").reduced_samples),
                    // 0 is the analytic sentinel: priced and answered as one moment pass.
                    DegradeLevel::Moment => 0,
                },
            };
            let shard = match self.config.routing {
                RoutingPolicy::RoundRobin => {
                    let position = rr_cursor % live;
                    rr_cursor += 1;
                    (0..active)
                        .filter(|&s| up[s])
                        .nth(position)
                        .expect("position is within the live count")
                }
                RoutingPolicy::LeastLoaded | RoutingPolicy::TwoTier { .. } => (0..active)
                    .filter(|&s| up[s])
                    .min_by_key(|&s| (schedules[s].backlog(t), s))
                    .expect("at least one live shard"),
            };

            if level == DegradeLevel::Shed {
                let reason = ShedReason::Overload;
                let event = ShedEvent { request: request.id, tick: t, shard, reason };
                if R::ENABLED {
                    rec.record(event.to_event());
                }
                sheds.push(event);
                outcomes[i] = Some(RequestOutcome::Shed { tick: t, shard, reason });
                continue;
            }
            // The backlog at the admission decision doubles as the recorded queue depth.
            let depth = schedules[shard].backlog(t);
            if depth >= self.config.queue_cap {
                let reason = ShedReason::QueueFull;
                let event = ShedEvent { request: request.id, tick: t, shard, reason };
                if R::ENABLED {
                    rec.record(event.to_event());
                }
                sheds.push(event);
                outcomes[i] = Some(RequestOutcome::Shed { tick: t, shard, reason });
                continue;
            }
            if let Some(deadline) = self.config.deadline_ticks {
                if schedules[shard].estimate_end(t, samples) > t + deadline {
                    let reason = ShedReason::Deadline;
                    let event = ShedEvent { request: request.id, tick: t, shard, reason };
                    if R::ENABLED {
                        rec.record(event.to_event());
                    }
                    sheds.push(event);
                    outcomes[i] = Some(RequestOutcome::Shed { tick: t, shard, reason });
                    continue;
                }
            }
            if R::ENABLED {
                rec.record(Event::Admit {
                    request: request.id,
                    tick: t,
                    shard,
                    queue_depth: depth,
                });
            }
            schedules[shard].admit(samples, t);
            routed[shard].push(i);
            effective_samples[i] = samples;
            admitted_ticks[i] = t;
        }
        for schedule in &mut schedules {
            schedule.finish();
        }
        Routing {
            schedules,
            routed,
            effective_samples,
            admitted_ticks,
            outcomes,
            sheds,
            scale_events,
            retries,
            degrades,
            levels,
        }
    }

    /// Plans a run without computing any responses: routing, admission, shedding, scaling,
    /// complete tick timing under the per-shard hot-swap schedule, and the [`FaultPlan`]'s
    /// crashes, recoveries, slow windows and checkpoint corruptions at their exact ticks, with
    /// failover retries and the degradation ladder reacting. The plan's `faults` trace records
    /// every one of them. Nothing per-request is built but bookkeeping, so traces can be
    /// arbitrarily long; pass `&[]` and [`FaultPlan::none`] for a healthy, swap-free plan.
    ///
    /// # Panics
    ///
    /// Panics when the trace is not sorted by arrival tick; under [`RoutingPolicy::TwoTier`]
    /// (escalation decisions need real predictive entropy, so only
    /// [`Cluster::run_traced`] serves it); when a swap targets a shard out of range or a
    /// per-shard swap schedule is not sorted by `at_tick`; or when the fault plan fails
    /// validation (events unsorted, a shard out of range, an empty slow window or a zero
    /// multiplier, ladder watermarks not strictly increasing, or a ladder on a
    /// non-Monte-Carlo cluster).
    pub fn plan_with_faults(
        &self,
        trace: &[InferRequest],
        swaps: &[ShardSwap],
        faults: &FaultPlan,
    ) -> ClusterPlan {
        assert!(
            !matches!(self.config.routing, RoutingPolicy::TwoTier { .. }),
            "two-tier escalation needs real entropies; use Cluster::run_traced"
        );
        let timeline = FaultTimeline::build(
            faults,
            Cluster::routable(&self.config),
            self.config.shards,
            self.config.mode,
        );
        let mut grouped = self.swaps_by_shard(swaps);
        let checkpoint_faults = timeline.cancel_corrupted_swaps(&mut grouped);
        let routing = self.route(trace, &grouped, faults, &timeline, &mut NullRecorder);
        let mut outcomes = routing.outcomes;
        for (shard, schedule) in routing.schedules.iter().enumerate() {
            for (batch, members) in schedule.batch_members() {
                for &i in &routing.routed[shard][members] {
                    outcomes[i] = Some(RequestOutcome::Answered {
                        shard,
                        end_tick: batch.end_tick,
                        escalated: false,
                        upgraded: false,
                    });
                }
            }
        }
        let outcomes: Vec<RequestOutcome> =
            outcomes.into_iter().map(|o| o.expect("every request has an outcome")).collect();
        // Latency is measured from the ORIGINAL arrival: a retried request's failover delay
        // is real waiting its caller experienced, so it lands in the tail percentiles.
        let latencies: Vec<u64> = outcomes
            .iter()
            .zip(trace)
            .filter_map(|(outcome, request)| match outcome {
                RequestOutcome::Answered { end_tick, .. } => Some(end_tick - request.arrival_tick),
                RequestOutcome::Shed { .. } => None,
            })
            .collect();
        ClusterPlan {
            outcomes,
            sheds: routing.sheds,
            scale_events: routing.scale_events,
            latencies,
            makespan_ticks: routing
                .schedules
                .iter()
                .map(BatchSchedule::makespan)
                .max()
                .unwrap_or(0),
            batches_per_shard: routing.schedules.iter().map(|s| s.batches().len()).collect(),
            faults: FaultTrace {
                retries: routing.retries,
                degrades: routing.degrades,
                checkpoint_faults,
                levels: routing.levels,
            },
        }
    }

    /// Serves a trace through the cluster: plan (phase A, as [`Cluster::plan_with_faults`]
    /// under the same swaps and faults), then answer every finally-admitted request on its
    /// shard's engine pool (phase B), escalating high-entropy two-tier answers to the high
    /// shard. Phase B answers the batches each shard's schedule holds, as planned. A request
    /// with `samples == 0` — sent so, or moved to the analytic backend by the degradation
    /// ladder — is priced at moment cost and answered by one moment pass.
    ///
    /// Every routing decision, batch transition, fault reaction and final answer is recorded
    /// as a tick-stamped [`Event`], keyed by request id. The recorder is written to and never
    /// read, so the returned report — responses, outcomes, timing, digests — is
    /// byte-identical to the untraced run's (pass [`NullRecorder`]) at any worker or shard
    /// count. Recorded streams attribute 100% of every answered request's end-to-end latency
    /// to named stages via [`bnn_obs::assemble_traces`].
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`Cluster::plan_with_faults`] other than two-tier
    /// routing, when a non-empty fault plan is combined with [`RoutingPolicy::TwoTier`]
    /// (escalation across crashing shards is not modelled), or when a request's input shape
    /// mismatches the source.
    pub fn run_traced<R: Recorder>(
        &self,
        trace: &[InferRequest],
        swaps: &[ShardSwap],
        faults: &FaultPlan,
        rec: &mut R,
    ) -> ClusterRunReport {
        if matches!(self.config.routing, RoutingPolicy::TwoTier { .. }) {
            assert!(
                faults.is_empty(),
                "fault injection does not support two-tier routing: escalation across \
                 crashing shards is not modelled"
            );
        }
        let timeline = FaultTimeline::build(
            faults,
            Cluster::routable(&self.config),
            self.config.shards,
            self.config.mode,
        );
        let mut grouped = self.swaps_by_shard(swaps);
        let checkpoint_faults = timeline.cancel_corrupted_swaps(&mut grouped);
        if R::ENABLED {
            for fault in &checkpoint_faults {
                rec.record(fault.to_event());
            }
        }
        let routing = self.route(trace, &grouped, faults, &timeline, rec);

        // Phase B: each routable shard's engine answers the shard's schedule as planned. A
        // request is answered at the tick and sample count the schedule admitted it at (a
        // retried request's failover history lives in phase A).
        let engine = InferenceEngine::build(
            EngineSpec::new(self.config.source.clone())
                .mode(self.config.mode)
                .policy(self.config.batch)
                .workers(self.config.workers_per_shard),
        );
        let mut schedules = routing.schedules.into_iter();
        let mut shard_reports: Vec<ServeRunReport> = Vec::with_capacity(self.config.shards);
        let routable = Cluster::routable(&self.config);
        for (shard, schedule) in schedules.by_ref().take(routable).enumerate() {
            let admissions: Vec<Admission> = routing.routed[shard]
                .iter()
                .map(|&index| Admission {
                    index,
                    tick: routing.admitted_ticks[index],
                    samples: routing.effective_samples[index],
                })
                .collect();
            let report = engine.execute(trace, &admissions, &grouped[shard], schedule, shard, rec);
            shard_reports.push(report);
        }
        let mut outcomes = routing.outcomes;
        let mut responses: Vec<Option<InferResponse>> = vec![None; trace.len()];
        let mut end_ticks = vec![0u64; trace.len()];
        for (shard, members) in routing.routed.iter().enumerate() {
            for (j, &i) in members.iter().enumerate() {
                let end = routing.admitted_ticks[i] + shard_reports[shard].latencies[j];
                end_ticks[i] = end;
                responses[i] = Some(shard_reports[shard].responses[j].clone());
                outcomes[i] = Some(RequestOutcome::Answered {
                    shard,
                    end_tick: end,
                    escalated: false,
                    upgraded: false,
                });
            }
        }

        // Two-tier escalation: low-pass answers whose entropy crosses the threshold re-enter
        // at the high shard, arriving at their low-pass completion tick.
        let mut escalations: Vec<EscalationEvent> = Vec::new();
        if let RoutingPolicy::TwoTier { high_samples, entropy_threshold, .. } = self.config.routing
        {
            let high = self.config.shards - 1;
            let mut candidates: Vec<(u64, usize)> = routing
                .routed
                .iter()
                .take(high)
                .flatten()
                .filter_map(|&i| {
                    let response = responses[i].as_ref().expect("admitted requests answered");
                    (f64::from(response.entropy) > entropy_threshold).then_some((end_ticks[i], i))
                })
                .collect();
            candidates.sort_unstable();

            // The router never targets the high shard, so its phase-A schedule is still
            // empty; escalations fill it in completion-tick order.
            let mut high_schedule = schedules.next().expect("two-tier reserves a high shard");
            // Escalations name trace indices; ids are caller-chosen and never used as
            // positions.
            let mut high_admissions: Vec<Admission> = Vec::new();
            let mut kept_low: Vec<usize> = Vec::new();
            for &(tick, i) in &candidates {
                let full = high_schedule.backlog(tick) >= self.config.queue_cap;
                let late = self.config.deadline_ticks.is_some_and(|deadline| {
                    high_schedule.estimate_end(tick, high_samples) > tick + deadline
                });
                let admit = !full && !late;
                let event = EscalationEvent { request: trace[i].id, tick, admitted: admit };
                if R::ENABLED {
                    rec.record(event.to_event());
                }
                escalations.push(event);
                if admit {
                    high_schedule.admit(high_samples, tick);
                    high_admissions.push(Admission { index: i, tick, samples: high_samples });
                } else {
                    kept_low.push(i);
                }
            }
            high_schedule.finish();
            let high_report =
                engine.execute(trace, &high_admissions, &grouped[high], high_schedule, high, rec);

            for (k, &Admission { index: i, tick, .. }) in high_admissions.iter().enumerate() {
                let end = tick + high_report.latencies[k];
                end_ticks[i] = end;
                responses[i] = Some(high_report.responses[k].clone());
                outcomes[i] = Some(RequestOutcome::Answered {
                    shard: high,
                    end_tick: end,
                    escalated: true,
                    upgraded: true,
                });
            }
            for &i in &kept_low {
                if let Some(RequestOutcome::Answered { escalated, .. }) = &mut outcomes[i] {
                    *escalated = true;
                }
            }
            shard_reports.push(high_report);
        }

        let outcomes: Vec<RequestOutcome> =
            outcomes.into_iter().map(|o| o.expect("every request has an outcome")).collect();
        if R::ENABLED {
            // Terminal leaves for the answered side (sheds already recorded theirs at the
            // decision): the carried answer's completion tick, post-escalation-upgrade.
            for (outcome, request) in outcomes.iter().zip(trace) {
                if let RequestOutcome::Answered { end_tick, .. } = outcome {
                    rec.record(Event::Answer { request: request.id, tick: *end_tick });
                }
            }
        }
        let latencies: Vec<u64> = outcomes
            .iter()
            .zip(trace)
            .filter_map(|(outcome, request)| match outcome {
                RequestOutcome::Answered { end_tick, .. } => Some(end_tick - request.arrival_tick),
                RequestOutcome::Shed { .. } => None,
            })
            .collect();
        let makespan_ticks = shard_reports.iter().map(|r| r.makespan_ticks).max().unwrap_or(0);

        ClusterRunReport {
            routing: self.config.routing.label().to_string(),
            shards: self.config.shards,
            queue_cap: self.config.queue_cap,
            workers_per_shard: self.config.workers_per_shard,
            outcomes,
            responses,
            latencies,
            sheds: routing.sheds,
            escalations,
            scale_events: routing.scale_events,
            shard_reports,
            makespan_ticks,
            faults: FaultTrace {
                retries: routing.retries,
                degrades: routing.degrades,
                checkpoint_faults,
                levels: routing.levels,
            },
        }
    }
}

// ---------------------------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------------------------

/// The result of one cluster run: per-request outcomes and answers, every shed / escalation /
/// scaling decision with its exact tick, and the per-shard engine reports.
///
/// Every field except `workers_per_shard` is a pure function of (trace, config, swap
/// schedule); `to_json` omits the worker count, so two runs of the same inputs serialize
/// byte-identically at any worker count.
#[derive(Debug, Clone)]
pub struct ClusterRunReport {
    /// The routing policy's label.
    pub routing: String,
    /// Shard count (for two-tier runs the last is the high tier).
    pub shards: usize,
    /// The per-shard backlog bound the run enforced.
    pub queue_cap: usize,
    /// Pool workers per shard (wall-clock only; never affects any other field).
    pub workers_per_shard: usize,
    /// Per submitted request, in trace order.
    pub outcomes: Vec<RequestOutcome>,
    /// Per submitted request, in trace order: the carried answer, `None` when shed.
    pub responses: Vec<Option<InferResponse>>,
    /// Answered-request latencies (carried answer's completion − arrival), in trace order
    /// of the answered requests.
    pub latencies: Vec<u64>,
    /// Every shed decision, in decision order.
    pub sheds: Vec<ShedEvent>,
    /// Every two-tier escalation decision, in decision order.
    pub escalations: Vec<EscalationEvent>,
    /// Every autoscaling decision, in epoch order.
    pub scale_events: Vec<ScaleEvent>,
    /// One engine report per shard (the high shard's holds the escalation sub-trace).
    pub shard_reports: Vec<ServeRunReport>,
    /// Tick the last batch on any shard completed at (0 for an empty run).
    pub makespan_ticks: u64,
    /// Everything the fault plan caused: retries, ladder transitions, checkpoint fallbacks
    /// and per-request serving levels (empty under [`FaultPlan::none`]).
    pub faults: FaultTrace,
}

impl ClusterRunReport {
    /// Submitted request count.
    pub fn submitted(&self) -> usize {
        self.outcomes.len()
    }

    /// Answered request count (`submitted − shed`).
    pub fn answered(&self) -> usize {
        self.outcomes.len() - self.sheds.len()
    }

    /// Shed requests over submitted requests (0 for an empty trace).
    pub fn shed_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.sheds.len() as f64 / self.outcomes.len() as f64
    }

    /// Answered requests over submitted requests (1 for an empty trace) — the headline
    /// robustness metric the chaos grid gates: under a fault plan it measures how much of
    /// the offered load survived crashes and overload via failover and degradation.
    pub fn availability(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 1.0;
        }
        self.answered() as f64 / self.submitted() as f64
    }

    /// Counts of answered requests per degradation level `(normal, reduced_samples,
    /// moment)` — the ladder's occupancy. All-normal without a ladder.
    pub fn degrade_occupancy(&self) -> (usize, usize, usize) {
        self.faults
            .occupancy(self.outcomes.iter().map(|o| matches!(o, RequestOutcome::Answered { .. })))
    }

    /// Escalated requests over submitted requests (0 outside two-tier routing).
    pub fn escalation_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.escalations.len() as f64 / self.outcomes.len() as f64
    }

    /// Nearest-rank latency percentile over the answered requests.
    ///
    /// # Panics
    ///
    /// Panics when nothing was answered.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        latency_percentile(&self.latencies, q)
    }

    /// The canonical response bytes (shed requests serialize as `null`) — what the cluster
    /// determinism contract compares across shard and worker counts.
    pub fn responses_json(&self) -> String {
        let items: Vec<Json> = self
            .responses
            .iter()
            .map(|r| r.as_ref().map_or(Json::Null, |resp| resp.to_json()))
            .collect();
        Json::Array(items).to_compact()
    }

    /// FNV-1a digest of [`responses_json`](Self::responses_json), 16 hex characters.
    pub fn responses_digest(&self) -> String {
        fnv1a_hex(self.responses_json().bytes())
    }

    /// The decision events in the observability vocabulary, family by family in report
    /// order — the one stream both serializations below go through.
    fn decision_events(&self) -> Vec<Event> {
        self.sheds
            .iter()
            .map(ShedEvent::to_event)
            .chain(self.escalations.iter().map(EscalationEvent::to_event))
            .chain(self.scale_events.iter().map(ScaleEvent::to_event))
            .collect()
    }

    /// The canonical decision bytes: every shed, escalation and scaling event with its exact
    /// tick, serialized through the observability exporter ([`export::decision_events_json`]
    /// — the single emission code path). The committed cluster baseline pins this digest.
    pub fn events_json(&self) -> String {
        export::decision_events_json(&self.decision_events()).to_compact()
    }

    /// FNV-1a digest of [`events_json`](Self::events_json), 16 hex characters.
    pub fn events_digest(&self) -> String {
        fnv1a_hex(self.events_json().bytes())
    }

    /// The canonical fault-event bytes: every failover retry, ladder transition and
    /// checkpoint fallback with its exact tick. Deliberately separate from
    /// [`events_json`](Self::events_json), whose digest pre-dates fault injection and stays
    /// byte-identical under [`FaultPlan::none`].
    pub fn fault_events_json(&self) -> String {
        self.faults.to_json().to_compact()
    }

    /// FNV-1a digest of [`fault_events_json`](Self::fault_events_json), 16 hex characters —
    /// what the committed chaos baseline pins.
    pub fn fault_events_digest(&self) -> String {
        fnv1a_hex(self.fault_events_json().bytes())
    }

    /// Serializes the full report. Worker count is deliberately omitted: every serialized
    /// field is a pure function of (trace, config, swap schedule), so 1-worker and N-worker
    /// runs — and re-runs on any machine — produce identical bytes.
    pub fn to_json(&self) -> Json {
        let percentile = |q| {
            if self.latencies.is_empty() {
                Json::Null
            } else {
                Json::UInt(self.latency_percentile(q))
            }
        };
        Json::obj([
            ("routing", Json::Str(self.routing.clone())),
            ("shards", Json::UInt(self.shards as u64)),
            ("queue_cap", Json::UInt(self.queue_cap as u64)),
            ("submitted", Json::UInt(self.submitted() as u64)),
            ("answered", Json::UInt(self.answered() as u64)),
            ("shed", Json::UInt(self.sheds.len() as u64)),
            ("shed_rate", Json::Float(self.shed_rate())),
            ("escalated", Json::UInt(self.escalations.len() as u64)),
            ("escalation_rate", Json::Float(self.escalation_rate())),
            ("makespan_ticks", Json::UInt(self.makespan_ticks)),
            (
                "latency_ticks",
                Json::obj([
                    ("p50", percentile(0.50)),
                    ("p95", percentile(0.95)),
                    ("p99", percentile(0.99)),
                    ("p999", percentile(0.999)),
                ]),
            ),
            ("availability", Json::Float(self.availability())),
            (
                "degrade_occupancy",
                Json::obj([
                    ("normal", Json::UInt(self.degrade_occupancy().0 as u64)),
                    ("reduced_samples", Json::UInt(self.degrade_occupancy().1 as u64)),
                    ("moment", Json::UInt(self.degrade_occupancy().2 as u64)),
                ]),
            ),
            (
                "sheds",
                Json::Array(
                    self.sheds.iter().map(|e| export::event_payload(&e.to_event())).collect(),
                ),
            ),
            (
                "escalations",
                Json::Array(
                    self.escalations.iter().map(|e| export::event_payload(&e.to_event())).collect(),
                ),
            ),
            (
                "scale_events",
                Json::Array(
                    self.scale_events
                        .iter()
                        .map(|e| export::event_payload(&e.to_event()))
                        .collect(),
                ),
            ),
            ("faults", self.faults.to_json()),
            (
                "shard_batches",
                Json::Array(
                    self.shard_reports.iter().map(|r| Json::UInt(r.batches.len() as u64)).collect(),
                ),
            ),
            (
                "responses",
                Json::Array(
                    self.responses
                        .iter()
                        .map(|r| r.as_ref().map_or(Json::Null, |resp| resp.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ModelSpec;
    use crate::workload::{ArrivalProcess, WorkloadSpec};

    fn spec() -> ModelSpec {
        ModelSpec::mlp(2021)
    }

    fn config(shards: usize, routing: RoutingPolicy) -> ClusterConfig {
        ClusterConfig {
            source: ModelSource::Spec(spec()),
            mode: ServeMode::MonteCarlo,
            shards,
            workers_per_shard: 1,
            batch: BatchPolicy { max_batch: 4, max_wait_ticks: 8 },
            queue_cap: 8,
            deadline_ticks: None,
            routing,
            autoscale: None,
        }
    }

    fn trace(requests: usize, interarrival: u64) -> Vec<InferRequest> {
        WorkloadSpec::uniform(requests, interarrival, 2, 33).generate(&spec())
    }

    /// An untraced run with the given swaps and faults.
    fn serve(
        cluster: &Cluster,
        trace: &[InferRequest],
        swaps: &[ShardSwap],
        faults: &FaultPlan,
    ) -> ClusterRunReport {
        cluster.run_traced(trace, swaps, faults, &mut NullRecorder)
    }

    /// An untraced healthy, swap-free run.
    fn run(cluster: &Cluster, trace: &[InferRequest]) -> ClusterRunReport {
        serve(cluster, trace, &[], &FaultPlan::none())
    }

    #[test]
    fn every_request_has_exactly_one_outcome() {
        let cluster = Cluster::new(config(3, RoutingPolicy::LeastLoaded));
        let trace = trace(48, 1);
        let report = run(&cluster, &trace);
        assert_eq!(report.outcomes.len(), 48);
        assert_eq!(report.answered() + report.sheds.len(), report.submitted());
        for (i, outcome) in report.outcomes.iter().enumerate() {
            match outcome {
                RequestOutcome::Answered { end_tick, .. } => {
                    assert!(responses_present(&report, i));
                    assert!(*end_tick >= trace[i].arrival_tick);
                }
                RequestOutcome::Shed { .. } => assert!(!responses_present(&report, i)),
            }
        }
    }

    fn responses_present(report: &ClusterRunReport, i: usize) -> bool {
        report.responses[i].is_some()
    }

    #[test]
    fn round_robin_spreads_and_least_loaded_balances() {
        let trace = trace(32, 2);
        for routing in [RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded] {
            let report = run(&Cluster::new(config(4, routing)), &trace);
            let served: Vec<usize> =
                report.shard_reports.iter().map(|r| r.responses.len()).collect();
            assert!(served.iter().all(|&n| n > 0), "{}: idle shard {served:?}", routing.label());
        }
    }

    #[test]
    fn queue_cap_sheds_under_adversarial_spikes() {
        let spikes = WorkloadSpec::uniform(64, 1, 2, 33)
            .with_arrival(ArrivalProcess::Adversarial { spike: 32 })
            .generate(&spec());
        let mut cfg = config(2, RoutingPolicy::LeastLoaded);
        cfg.queue_cap = 4;
        let report = run(&Cluster::new(cfg), &spikes);
        assert!(!report.sheds.is_empty(), "a 32-request spike must overflow cap-4 queues");
        assert!(report.shed_rate() > 0.0);
        for event in &report.sheds {
            assert_eq!(event.reason, ShedReason::QueueFull);
            assert_eq!(event.tick, spikes[event.request as usize].arrival_tick);
        }
    }

    #[test]
    fn deadline_admission_sheds_hopeless_requests() {
        let mut cfg = config(1, RoutingPolicy::LeastLoaded);
        cfg.deadline_ticks = Some(70); // one batch overhead (64) + a couple of service ticks
        cfg.queue_cap = 1000;
        let dense = trace(32, 1);
        let report = run(&Cluster::new(cfg), &dense);
        assert!(
            report.sheds.iter().any(|s| s.reason == ShedReason::Deadline),
            "a deadline barely above the batch overhead must shed queued requests"
        );
        // Every answered request a deadline shed would have displaced still completed.
        assert_eq!(report.answered() + report.sheds.len(), 32);
    }

    #[test]
    fn two_tier_escalates_high_entropy_answers() {
        let cfg = ClusterConfig {
            routing: RoutingPolicy::TwoTier {
                low_samples: 1,
                high_samples: 8,
                entropy_threshold: 0.0, // escalate everything: entropy is always positive
            },
            ..config(3, RoutingPolicy::LeastLoaded)
        };
        let trace = trace(24, 4);
        let report = run(&Cluster::new(cfg), &trace);
        assert_eq!(report.escalations.len(), report.answered());
        for outcome in &report.outcomes {
            if let RequestOutcome::Answered { escalated, upgraded, shard, .. } = outcome {
                assert!(escalated);
                if *upgraded {
                    assert_eq!(*shard, 2, "upgraded answers come from the high shard");
                }
            }
        }
        let upgraded = report
            .outcomes
            .iter()
            .filter(|o| matches!(o, RequestOutcome::Answered { upgraded: true, .. }))
            .count();
        assert!(upgraded > 0, "some escalations must be admitted");
        for (outcome, request) in report.outcomes.iter().zip(&trace) {
            if let RequestOutcome::Answered { upgraded: true, .. } = outcome {
                let response = report.responses[request.id as usize].as_ref().unwrap();
                assert_eq!(response.samples, 8, "upgraded answers carry the high-S ensemble");
            }
        }
    }

    #[test]
    fn two_tier_with_infinite_threshold_never_escalates() {
        let cfg = ClusterConfig {
            routing: RoutingPolicy::TwoTier {
                low_samples: 2,
                high_samples: 8,
                entropy_threshold: f64::INFINITY,
            },
            ..config(2, RoutingPolicy::LeastLoaded)
        };
        let report = run(&Cluster::new(cfg), &trace(16, 4));
        assert!(report.escalations.is_empty());
        assert_eq!(report.escalation_rate(), 0.0);
        assert!(report.shard_reports[1].responses.is_empty(), "high shard stays idle");
    }

    #[test]
    fn autoscaling_activates_and_drains_at_epoch_ticks() {
        let scale = AutoscalePolicy {
            interval_ticks: 32,
            high_watermark: 3,
            low_watermark: 1,
            min_active: 1,
        };
        let mut cfg = config(4, RoutingPolicy::LeastLoaded);
        cfg.autoscale = Some(scale);
        cfg.queue_cap = 64;
        // A burst early (forces scale-up), then a long quiet tail (forces drain).
        let mut trace = trace(48, 1);
        for request in trace.iter_mut().skip(40) {
            request.arrival_tick += 4000;
        }
        let report = run(&Cluster::new(cfg), &trace);
        assert!(!report.scale_events.is_empty(), "the burst must trigger scaling");
        for event in &report.scale_events {
            assert_eq!(event.tick % 32, 0, "scale decisions land on epoch ticks only");
            assert!(event.active >= 1 && event.active <= 4);
        }
        let peak = report.scale_events.iter().map(|e| e.active).max().unwrap();
        let last = report.scale_events.last().unwrap().active;
        assert!(peak > 1, "the burst must activate extra shards");
        assert!(last < peak, "the quiet tail must drain them");
    }

    #[test]
    fn two_tier_handles_caller_chosen_request_ids() {
        // Ids are caller-chosen opaque labels, not trace positions: a run whose ids are far
        // outside 0..n must behave exactly like the same trace with index ids.
        let cfg = || ClusterConfig {
            routing: RoutingPolicy::TwoTier {
                low_samples: 1,
                high_samples: 8,
                entropy_threshold: 0.0,
            },
            ..config(3, RoutingPolicy::LeastLoaded)
        };
        let indexed = trace(24, 4);
        let mut relabeled = indexed.clone();
        for request in relabeled.iter_mut() {
            request.id = 10_000 + request.id * 7;
        }
        let baseline = run(&Cluster::new(cfg()), &indexed);
        let report = run(&Cluster::new(cfg()), &relabeled);
        assert_eq!(report.outcomes, baseline.outcomes);
        assert_eq!(report.latencies, baseline.latencies);
        // Answers match payload-for-payload; only the echoed caller id may differ.
        assert_eq!(report.responses.len(), baseline.responses.len());
        for (response, twin) in report.responses.iter().zip(&baseline.responses) {
            match (response, twin) {
                (Some(r), Some(t)) => {
                    assert_eq!(r.id, 10_000 + t.id * 7);
                    assert_eq!((&r.mean, &r.variance), (&t.mean, &t.variance));
                    assert_eq!((r.samples, r.entropy), (t.samples, t.entropy));
                }
                (None, None) => {}
                _ => panic!("relabeling changed a shed decision"),
            }
        }
        for (event, twin) in report.escalations.iter().zip(&baseline.escalations) {
            assert_eq!(event.request, 10_000 + twin.request * 7);
            assert_eq!((event.tick, event.admitted), (twin.tick, twin.admitted));
        }
    }

    #[test]
    fn plan_with_swaps_matches_swapped_run_timing() {
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(32, 2);
        let swaps = vec![ShardSwap {
            shard: 1,
            swap: VersionSwap { at_tick: 80, source: ModelSource::Spec(ModelSpec::mlp(77)) },
        }];
        let plan = cluster.plan_with_faults(&trace, &swaps, &FaultPlan::none());
        let report = serve(&cluster, &trace, &swaps, &FaultPlan::none());
        assert_eq!(plan.outcomes, report.outcomes);
        assert_eq!(plan.sheds, report.sheds);
        assert_eq!(plan.latencies, report.latencies);
        assert_eq!(plan.makespan_ticks, report.makespan_ticks);
        // The swap engaged: the swapped shard served batches on both sides of the boundary.
        let versions: Vec<usize> =
            report.shard_reports[1].batches.iter().map(|b| b.version).collect();
        assert!(versions.contains(&0) && versions.contains(&1), "swap never engaged: {versions:?}");
    }

    #[test]
    fn plan_matches_run_timing_without_computing_responses() {
        let cluster = Cluster::new(config(3, RoutingPolicy::RoundRobin));
        let trace = trace(40, 2);
        let plan = cluster.plan_with_faults(&trace, &[], &FaultPlan::none());
        let report = run(&cluster, &trace);
        assert_eq!(plan.outcomes, report.outcomes);
        assert_eq!(plan.sheds, report.sheds);
        assert_eq!(plan.latencies, report.latencies);
        assert_eq!(plan.makespan_ticks, report.makespan_ticks);
        assert_eq!(
            plan.batches_per_shard,
            report.shard_reports.iter().map(|r| r.batches.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fault_plan_none_is_byte_identical_to_a_plain_run() {
        use crate::faults::{FaultEvent, RetryPolicy};
        // A crash long after the trace drains, under a non-default retry policy, fires
        // through the whole fault path and still must not change a byte.
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(24, 2);
        let plain = run(&cluster, &trace);
        let late_crash =
            FaultPlan::new(vec![FaultEvent::ShardDown { tick: 1 << 40, shard: 1 }]).with_retry(
                RetryPolicy { base_backoff_ticks: 1, max_backoff_ticks: 2, max_retries: 9 },
            );
        let faulted = serve(&cluster, &trace, &[], &late_crash);
        assert_eq!(plain.to_json().to_compact(), faulted.to_json().to_compact());
        assert_eq!(plain.events_digest(), faulted.events_digest());
        assert!(faulted.faults.retries.is_empty());
        assert!((faulted.availability() - (1.0 - faulted.shed_rate())).abs() < 1e-12);
    }

    #[test]
    fn crash_fails_over_the_open_batch_and_conserves_every_request() {
        use crate::faults::FaultEvent;
        // Dense arrivals on 2 shards; shard 0 crashes mid-trace and recovers later. The
        // open batch at the crash tick fails over; everything still ends answered or shed.
        let mut cfg = config(2, RoutingPolicy::LeastLoaded);
        cfg.queue_cap = 64;
        let cluster = Cluster::new(cfg);
        let trace = trace(32, 3);
        let faults = FaultPlan::new(vec![
            FaultEvent::ShardDown { tick: 20, shard: 0 },
            FaultEvent::ShardUp { tick: 400, shard: 0 },
        ]);
        let plan = cluster.plan_with_faults(&trace, &[], &faults);
        let report = serve(&cluster, &trace, &[], &faults);
        assert_eq!(report.answered() + report.sheds.len(), report.submitted());
        assert_eq!(plan.outcomes, report.outcomes);
        assert_eq!(plan.latencies, report.latencies);
        assert_eq!(plan.makespan_ticks, report.makespan_ticks);
        assert_eq!(plan.faults, report.faults);
        assert!(!report.faults.retries.is_empty(), "the crash must evict an open batch");
        for retry in &report.faults.retries {
            assert_eq!(retry.failed_tick, 20);
            assert_eq!(retry.shard, Some(0));
            assert_eq!(
                retry.retry_tick,
                20 + faults.retry.backoff_ticks(retry.attempt),
                "backoff is exact in the tick domain"
            );
        }
        // A retried request that was answered completed at or after its retry tick.
        for retry in &report.faults.retries {
            let i = trace.iter().position(|r| r.id == retry.request).unwrap();
            if let RequestOutcome::Answered { end_tick, .. } = report.outcomes[i] {
                assert!(end_tick >= retry.retry_tick, "no answer before the failover retry");
            }
        }
        assert!(report.availability() == 1.0, "with capacity to spare, nothing is lost");
    }

    #[test]
    fn exhausted_retry_budget_sheds_with_typed_reasons() {
        use crate::faults::{FaultEvent, RetryPolicy};
        // Both shards stay down across the whole trace with a zero retry budget: every
        // submission finds no live shard and sheds ShardUnavailable at its arrival tick.
        let cluster = Cluster::new(config(2, RoutingPolicy::RoundRobin));
        let trace = trace(8, 4);
        let faults = FaultPlan::new(vec![
            FaultEvent::ShardDown { tick: 0, shard: 0 },
            FaultEvent::ShardDown { tick: 0, shard: 1 },
        ])
        .with_retry(RetryPolicy {
            base_backoff_ticks: 16,
            max_backoff_ticks: 64,
            max_retries: 0,
        });
        let report = serve(&cluster, &trace, &[], &faults);
        assert_eq!(report.answered(), 0);
        assert_eq!(report.sheds.len(), 8);
        for (shed, request) in report.sheds.iter().zip(&trace) {
            assert_eq!(shed.reason, ShedReason::ShardUnavailable);
            assert_eq!(shed.tick, request.arrival_tick);
            assert_eq!(shed.shard, 0, "no shard to cite: 0 by convention");
        }
        assert_eq!(report.availability(), 0.0);
    }

    #[test]
    fn slow_shard_stretches_its_batches_and_diverts_load() {
        use crate::faults::FaultEvent;
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(40, 24);
        let faults = FaultPlan::new(vec![FaultEvent::SlowShard {
            shard: 1,
            from_tick: 0,
            until_tick: u64::MAX,
            multiplier: 6,
        }]);
        let healthy = run(&cluster, &trace);
        let report = serve(&cluster, &trace, &[], &faults);
        assert!(report.makespan_ticks > healthy.makespan_ticks);
        for batch in &report.shard_reports[1].batches {
            assert_eq!((batch.end_tick - batch.start_tick) % 6, 0, "shard 1 runs 6x slow");
        }
        // Least-loaded routing sees the stretched backlog and diverts work to shard 0: the
        // slow shard answers less, and the overflow sheds cite the healthy shard's queue.
        assert!(
            report.shard_reports[1].responses.len() < healthy.shard_reports[1].responses.len(),
            "the slow shard must absorb less load"
        );
        assert!(!report.sheds.is_empty());
        assert!(
            report.sheds.iter().all(|s| s.shard == 0 && s.reason == ShedReason::QueueFull),
            "diverted overflow lands on the healthy shard's bounded queue"
        );
        assert_eq!(report.answered() + report.sheds.len(), report.submitted());
    }

    #[test]
    fn degradation_ladder_trades_samples_for_availability() {
        use crate::faults::{DegradeLadder, DegradeLevel};
        // One slow-ish shard, bursty oversubscription: without the ladder the queue cap
        // sheds; with it, requests degrade to fewer samples / the analytic backend first.
        let mut cfg = config(1, RoutingPolicy::LeastLoaded);
        cfg.queue_cap = 12;
        let cluster = Cluster::new(cfg);
        let dense = trace(40, 1);
        let ladder = DegradeLadder {
            reduced_samples: 1,
            reduce_watermark: 2,
            moment_watermark: 5,
            shed_watermark: 64,
        };
        let without = serve(&cluster, &dense, &[], &FaultPlan::none());
        let with = serve(&cluster, &dense, &[], &FaultPlan::none().with_ladder(ladder));
        assert!(!with.faults.degrades.is_empty(), "pressure must move the ladder");
        let (normal, reduced, moment) = with.degrade_occupancy();
        assert!(reduced + moment > 0, "some requests must serve degraded");
        assert_eq!(normal + reduced + moment, with.answered());
        assert!(
            with.availability() >= without.availability(),
            "degrading quality must not lose more requests than full-quality serving"
        );
        // Analytic answers are marked: samples == 0.
        for (i, level) in with.faults.levels.iter().enumerate() {
            if *level == DegradeLevel::Moment {
                if let Some(response) = &with.responses[i] {
                    assert_eq!(response.samples, 0, "moment-degraded answers are analytic");
                }
            }
        }
        // Transitions reconstruct the per-request levels: both serialize deterministically.
        assert_eq!(with.fault_events_digest(), {
            let again = serve(&cluster, &dense, &[], &FaultPlan::none().with_ladder(ladder));
            again.fault_events_digest()
        });
    }

    #[test]
    fn overload_ladder_rung_sheds_with_typed_reason() {
        use crate::faults::DegradeLadder;
        let mut cfg = config(1, RoutingPolicy::LeastLoaded);
        cfg.queue_cap = 1000;
        let cluster = Cluster::new(cfg);
        let dense = trace(48, 1);
        let ladder = DegradeLadder {
            reduced_samples: 1,
            reduce_watermark: 1,
            moment_watermark: 2,
            shed_watermark: 3,
        };
        let report = serve(&cluster, &dense, &[], &FaultPlan::none().with_ladder(ladder));
        assert!(
            report.sheds.iter().any(|s| s.reason == ShedReason::Overload),
            "a shed watermark this low must trip the top rung"
        );
        assert_eq!(report.answered() + report.sheds.len(), report.submitted());
    }

    #[test]
    fn corrupt_checkpoint_cancels_the_swap_and_keeps_the_prior_version() {
        use crate::faults::FaultEvent;
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(32, 2);
        let swaps = vec![ShardSwap {
            shard: 1,
            swap: VersionSwap { at_tick: 80, source: ModelSource::Spec(ModelSpec::mlp(77)) },
        }];
        let faults = FaultPlan::new(vec![FaultEvent::CorruptCheckpoint { tick: 80, shard: 1 }]);
        let swapped = serve(&cluster, &trace, &swaps, &FaultPlan::none());
        let report = serve(&cluster, &trace, &swaps, &faults);
        assert_eq!(
            report.faults.checkpoint_faults,
            vec![crate::faults::CheckpointFaultEvent { tick: 80, shard: 1, cancelled_swaps: 1 }]
        );
        assert!(
            report.shard_reports[1].batches.iter().all(|b| b.version == 0),
            "the corrupt version must never activate"
        );
        assert_ne!(
            swapped.responses_digest(),
            report.responses_digest(),
            "the cancelled swap visibly changes post-boundary answers"
        );
        // And the same run without the corruption matches a swap-free run byte for byte.
        let unswapped = run(&cluster, &trace);
        assert_eq!(unswapped.responses_digest(), report.responses_digest());
    }

    #[test]
    fn faulted_reports_are_worker_invariant() {
        use crate::faults::{DegradeLadder, FaultEvent};
        let trace = trace(32, 2);
        let faults = FaultPlan::new(vec![
            FaultEvent::ShardDown { tick: 30, shard: 0 },
            FaultEvent::SlowShard { shard: 1, from_tick: 50, until_tick: 500, multiplier: 3 },
            FaultEvent::ShardUp { tick: 600, shard: 0 },
        ])
        .with_ladder(DegradeLadder {
            reduced_samples: 1,
            reduce_watermark: 3,
            moment_watermark: 6,
            shed_watermark: 12,
        });
        let mut reports = Vec::new();
        for workers in [1, 4] {
            let mut cfg = config(2, RoutingPolicy::LeastLoaded);
            cfg.workers_per_shard = workers;
            reports.push(serve(&Cluster::new(cfg), &trace, &[], &faults));
        }
        assert_eq!(reports[0].to_json().to_compact(), reports[1].to_json().to_compact());
        assert_eq!(reports[0].fault_events_digest(), reports[1].fault_events_digest());
        assert_eq!(reports[0].responses_digest(), reports[1].responses_digest());
    }

    #[test]
    fn empty_trace_yields_an_empty_report() {
        let report = run(&Cluster::new(config(2, RoutingPolicy::LeastLoaded)), &[]);
        assert_eq!(report.submitted(), 0);
        assert_eq!(report.makespan_ticks, 0);
        assert_eq!(report.shed_rate(), 0.0);
        let json = report.to_json().to_compact();
        assert!(json.contains("\"p999\":null"));
    }

    #[test]
    fn reports_serialize_deterministically() {
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        let trace = trace(12, 2);
        let a = run(&cluster, &trace);
        let b = run(&cluster, &trace);
        assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
        assert_eq!(a.responses_digest(), b.responses_digest());
        assert_eq!(a.events_digest(), b.events_digest());
    }

    #[test]
    #[should_panic(expected = "sorted by arrival_tick")]
    fn unsorted_trace_is_rejected() {
        let mut trace = trace(8, 3);
        trace.swap(2, 5);
        let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
        cluster.plan_with_faults(&trace, &[], &FaultPlan::none());
    }
}
