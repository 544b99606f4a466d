//! The dynamic batcher and the simulated device it feeds, in one tick domain.
//!
//! Production batchers trade latency for throughput with two knobs — close a batch when it is
//! *full* or when its oldest request has *waited long enough*. Both knobs here operate on
//! simulated **ticks** carried by the requests themselves; the batcher never reads a wall
//! clock, so the same trace always coalesces into the same batches, on any machine, at any
//! worker count. That determinism is what lets the serving tests compare batch-size-1 against
//! coalesced execution and 1 worker against N workers byte-for-byte.
//!
//! [`plan_batches`] states the coalescing rule over a whole trace. The crate-private
//! `BatchSchedule` is the one place that applies it and times the result: it closes batches,
//! serializes them on the device and prices them with the tick cost model below. The engine
//! fills one from its trace; the cluster router fills one per shard, one admission at a time,
//! and the cluster then answers exactly the batches its schedules hold.
//!
//! The cost model is the Shift-BNN accelerator in miniature: a batch pays a fixed dispatch and
//! weight-load overhead of 64 ticks, then each request pays one tick per 1,024 ε drawn (16
//! SPUs × 64 GRNG lanes).

use crate::engine::{BatchStat, VersionSwap};
use crate::request::InferRequest;
use crate::spec::ServeMode;
use std::collections::VecDeque;
use std::ops::Range;

/// The two-knob coalescing policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// A batch closes the moment it holds this many requests.
    pub max_batch: usize,
    /// A batch closes `max_wait_ticks` after its first request arrived, full or not.
    pub max_wait_ticks: u64,
}

impl BatchPolicy {
    /// The degenerate policy that never coalesces: every request is its own batch, closed on
    /// arrival. The baseline the batched-vs-unbatched speedup is measured against.
    pub fn unbatched() -> BatchPolicy {
        BatchPolicy { max_batch: 1, max_wait_ticks: 0 }
    }

    /// A short machine-readable label, e.g. `"b8w32"`.
    pub fn label(&self) -> String {
        format!("b{}w{}", self.max_batch, self.max_wait_ticks)
    }
}

/// One planned batch: which requests it coalesced and the tick it closed at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPlan {
    /// Tick at which the batch closed (became eligible to execute).
    pub close_tick: u64,
    /// Indices into the planned request slice, in arrival order.
    pub requests: Vec<usize>,
}

/// Coalesces an arrival-ordered request trace into batches under `policy`.
///
/// Semantics, in arrival order:
///
/// * a batch *opens* when its first request arrives, setting its deadline to
///   `arrival + max_wait_ticks`;
/// * a request arriving at or before the open batch's deadline joins it; one arriving after
///   the deadline closes the open batch at the deadline and opens a new one;
/// * a batch also closes — immediately, at the joining request's arrival tick — when it
///   reaches `max_batch` requests;
/// * the trailing batch closes at its deadline (the engine has no "end of input" oracle a
///   real open-loop arrival process wouldn't have).
///
/// # Panics
///
/// Panics when `policy.max_batch` is zero or the trace is not sorted by `arrival_tick`.
pub fn plan_batches(requests: &[InferRequest], policy: BatchPolicy) -> Vec<BatchPlan> {
    assert!(policy.max_batch >= 1, "max_batch must be at least 1");
    let mut plans: Vec<BatchPlan> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut deadline: u64 = 0;
    let mut previous_arrival: u64 = 0;
    for (i, request) in requests.iter().enumerate() {
        assert!(
            request.arrival_tick >= previous_arrival,
            "request trace must be sorted by arrival_tick (index {i})"
        );
        previous_arrival = request.arrival_tick;
        if !open.is_empty() && request.arrival_tick > deadline {
            plans.push(BatchPlan { close_tick: deadline, requests: std::mem::take(&mut open) });
        }
        if open.is_empty() {
            deadline = request.arrival_tick + policy.max_wait_ticks;
        }
        open.push(i);
        if open.len() == policy.max_batch {
            plans.push(BatchPlan {
                close_tick: request.arrival_tick,
                requests: std::mem::take(&mut open),
            });
        }
    }
    if !open.is_empty() {
        plans.push(BatchPlan { close_tick: deadline, requests: open });
    }
    plans
}

/// Ticks a batch pays once, regardless of size: dispatch plus streaming the `(μ, σ)` weights
/// into the SPU array. Amortizing this over coalesced requests is what batching buys.
pub(crate) const BATCH_OVERHEAD_TICKS: u64 = 64;

/// ε values generated per tick: 16 Sample Processing Units × 64 GRNG lanes each.
pub(crate) const EPSILON_LANES: u64 = 1024;

/// Simulated per-request service cost:
///
/// * **Monte-Carlo** — one setup tick plus the GRNG-bound ε generation time of `samples`
///   forward passes drawing `epsilon_per_sample` values each;
/// * **Moment** — one setup tick plus **two** weight-wide streaming passes (mean + variance
///   GEMM traffic over the same `epsilon_per_sample` weights), independent of the request's
///   `samples` and with no GRNG serialization at all. A moment shard therefore consumes no
///   ε budget.
pub(crate) fn service_cost(mode: ServeMode, epsilon_per_sample: usize, samples: usize) -> u64 {
    match mode {
        ServeMode::MonteCarlo => {
            1 + (samples as u64 * epsilon_per_sample as u64).div_ceil(EPSILON_LANES)
        }
        ServeMode::Moment => 1 + (2 * epsilon_per_sample as u64).div_ceil(EPSILON_LANES),
    }
}

/// [`service_cost`] with the graceful-degradation sentinel: in a Monte-Carlo engine,
/// `samples == 0` marks a request answered by the single-pass analytic backend (see
/// [`ServeReplica::answer_into`](crate::ServeReplica::answer_into)), so it is priced at
/// moment cost. Every other `(mode, samples)` pair prices as [`service_cost`].
pub(crate) fn request_service_cost(
    mode: ServeMode,
    epsilon_per_sample: usize,
    samples: usize,
) -> u64 {
    if mode == ServeMode::MonteCarlo && samples == 0 {
        service_cost(ServeMode::Moment, epsilon_per_sample, 0)
    } else {
        service_cost(mode, epsilon_per_sample, samples)
    }
}

/// A fault-injected slow window on the simulated device: a batch whose service *starts*
/// inside `[from_tick, until_tick)` takes `multiplier ×` its normal service time. The
/// multiplier is sampled once, at the start tick — a batch starting just before the window
/// ends runs slow end to end, mirroring how a thermal-throttled device finishes the work it
/// started. Windows come from [`crate::faults::FaultEvent::SlowShard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slowdown {
    /// First tick of the slow window (inclusive).
    pub(crate) from_tick: u64,
    /// End of the slow window (exclusive).
    pub(crate) until_tick: u64,
    /// Service-time multiplier (≥ 1).
    pub(crate) multiplier: u64,
}

/// The service-time multiplier in effect for a batch starting at `start_tick`: the maximum
/// over every slow window containing it, `1` outside all windows (overlapping faults don't
/// stack multiplicatively — the worst one dominates, keeping grid scenarios composable).
pub(crate) fn slow_multiplier(slowdowns: &[Slowdown], start_tick: u64) -> u64 {
    slowdowns
        .iter()
        .filter(|s| s.from_tick <= start_tick && start_tick < s.until_tick)
        .map(|s| s.multiplier)
        .max()
        .unwrap_or(1)
}

/// One device's batch schedule, filled one admission at a time in non-decreasing tick order.
///
/// It applies the [`plan_batches`] rule incrementally — a batch closes when it is full, or at
/// its deadline once time passes it — and times every closed batch on the device: service
/// starts at `max(close, device free)`, the version is the newest swap active at that start
/// tick, and the batch takes its slow-window multiplier × (overhead + its members' costs).
/// Batches hold consecutive runs of the admission order, so request `i` of a filled schedule
/// is the `i`-th admission that was not evicted.
///
/// Incremental rather than a function of a whole trace, because the cluster router reads a
/// shard's backlog between admissions.
pub(crate) struct BatchSchedule {
    policy: BatchPolicy,
    mode: ServeMode,
    /// ε per sample of version 0, then of each scheduled swap, in order.
    epsilon_counts: Vec<usize>,
    /// Swap activation ticks (parallel to `epsilon_counts[1..]`).
    swap_ticks: Vec<u64>,
    slowdowns: Vec<Slowdown>,
    /// Sample counts the open batch's members are priced at, in admission order.
    open: Vec<usize>,
    open_deadline: u64,
    device_free: u64,
    batches: Vec<BatchStat>,
    /// Closed-but-incomplete batches as (end_tick, size), popped as queried time passes.
    in_flight: VecDeque<(u64, usize)>,
    in_flight_requests: usize,
}

impl BatchSchedule {
    /// An empty schedule for a device serving `base_epsilon`-per-sample version 0, then each
    /// of `swaps` from its `at_tick`, slowed inside `slowdowns`.
    ///
    /// # Panics
    ///
    /// Panics when `swaps` is not sorted by `at_tick`.
    pub(crate) fn new(
        policy: BatchPolicy,
        mode: ServeMode,
        base_epsilon: usize,
        swaps: &[VersionSwap],
        slowdowns: &[Slowdown],
    ) -> BatchSchedule {
        for pair in swaps.windows(2) {
            assert!(pair[0].at_tick <= pair[1].at_tick, "swap schedule must be sorted by at_tick");
        }
        let mut epsilon_counts = vec![base_epsilon];
        epsilon_counts.extend(swaps.iter().map(|s| s.source.epsilon_count()));
        BatchSchedule {
            policy,
            mode,
            epsilon_counts,
            swap_ticks: swaps.iter().map(|s| s.at_tick).collect(),
            slowdowns: slowdowns.to_vec(),
            open: Vec::new(),
            open_deadline: 0,
            device_free: 0,
            batches: Vec::new(),
            in_flight: VecDeque::new(),
            in_flight_requests: 0,
        }
    }

    /// The version active at `start` and the tick a batch of requests priced at `samples`
    /// that starts then completes at.
    fn price(&self, start: u64, samples: &[usize]) -> (usize, u64) {
        let version = self.swap_ticks.iter().take_while(|&&at| at <= start).count();
        let epsilon = self.epsilon_counts[version];
        let service = BATCH_OVERHEAD_TICKS
            + samples.iter().map(|&s| request_service_cost(self.mode, epsilon, s)).sum::<u64>();
        (version, start + slow_multiplier(&self.slowdowns, start) * service)
    }

    /// Closes the open batch at `close_tick` and serializes it on the device.
    fn close_open(&mut self, close_tick: u64) {
        let start_tick = close_tick.max(self.device_free);
        let (version, end_tick) = self.price(start_tick, &self.open);
        let size = self.open.len();
        self.open.clear();
        self.device_free = end_tick;
        self.in_flight.push_back((end_tick, size));
        self.in_flight_requests += size;
        self.batches.push(BatchStat { close_tick, start_tick, end_tick, size, version });
    }

    /// Advances simulated time to `t`: a batch whose wait deadline has passed closes at that
    /// deadline, exactly when `plan_batches` would close it on the next arrival.
    fn advance_to(&mut self, t: u64) {
        if !self.open.is_empty() && t > self.open_deadline {
            self.close_open(self.open_deadline);
        }
    }

    /// Backlog at tick `t`: requests admitted but not yet completed (waiting in the open
    /// batch, queued behind the device, or in service).
    pub(crate) fn backlog(&mut self, t: u64) -> usize {
        self.advance_to(t);
        while let Some(&(end, size)) = self.in_flight.front() {
            if end > t {
                break;
            }
            self.in_flight_requests -= size;
            self.in_flight.pop_front();
        }
        self.open.len() + self.in_flight_requests
    }

    /// Admission-time completion estimate for a request priced at `samples` arriving at `t`:
    /// the device drains its current queue, then one fresh batch holding only this request
    /// runs. Ignores co-members the open batch would contribute, so it is a lower bound used
    /// only to shed requests that *cannot* make their deadline.
    pub(crate) fn estimate_end(&self, t: u64, samples: usize) -> u64 {
        self.price(t.max(self.device_free), &[samples]).1
    }

    /// Admits the next request at `t`, priced at `samples` (`0` is the analytic sentinel of
    /// [`request_service_cost`]): an empty batch opens with a fresh wait deadline, and a
    /// batch that fills closes at once.
    pub(crate) fn admit(&mut self, samples: usize, t: u64) {
        self.advance_to(t);
        if self.open.is_empty() {
            self.open_deadline = t + self.policy.max_wait_ticks;
        }
        self.open.push(samples);
        if self.open.len() == self.policy.max_batch {
            self.close_open(t);
        }
    }

    /// Evicts the open (not yet dispatched) batch at crash tick `t`, returning how many
    /// requests it held — the latest admissions. A batch whose deadline already passed closed
    /// before the crash and completes normally.
    pub(crate) fn evict_open(&mut self, t: u64) -> usize {
        self.advance_to(t);
        let evicted = self.open.len();
        self.open.clear();
        evicted
    }

    /// Closes the trailing batch at its deadline (the open-loop "no end-of-input oracle" rule
    /// `plan_batches` ends with).
    pub(crate) fn finish(&mut self) {
        if !self.open.is_empty() {
            self.close_open(self.open_deadline);
        }
    }

    /// The closed batches, in execution order.
    pub(crate) fn batches(&self) -> &[BatchStat] {
        &self.batches
    }

    /// Each closed batch with the admission-order range of requests it holds.
    pub(crate) fn batch_members(&self) -> impl Iterator<Item = (&BatchStat, Range<usize>)> {
        self.batches.iter().scan(0, |next, batch| {
            let members = *next..*next + batch.size;
            *next = members.end;
            Some((batch, members))
        })
    }

    /// Tick the last closed batch completes at (0 before any batch closed).
    pub(crate) fn makespan(&self) -> u64 {
        self.device_free
    }

    /// The closed batches, consuming the schedule.
    pub(crate) fn into_batches(self) -> Vec<BatchStat> {
        self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_tensor::Tensor;

    fn trace(arrivals: &[u64]) -> Vec<InferRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival_tick)| InferRequest {
                id: i as u64,
                arrival_tick,
                input: Tensor::filled(&[2], 0.0),
                samples: 1,
                seed: i as u64,
            })
            .collect()
    }

    fn shape(plans: &[BatchPlan]) -> Vec<(u64, Vec<usize>)> {
        plans.iter().map(|p| (p.close_tick, p.requests.clone())).collect()
    }

    #[test]
    fn unbatched_policy_closes_every_request_on_arrival() {
        let plans = plan_batches(&trace(&[0, 3, 9]), BatchPolicy::unbatched());
        assert_eq!(shape(&plans), vec![(0, vec![0]), (3, vec![1]), (9, vec![2])]);
    }

    #[test]
    fn size_trigger_closes_at_the_filling_requests_arrival() {
        let policy = BatchPolicy { max_batch: 2, max_wait_ticks: 100 };
        let plans = plan_batches(&trace(&[0, 4, 5, 7]), policy);
        assert_eq!(shape(&plans), vec![(4, vec![0, 1]), (7, vec![2, 3])]);
    }

    #[test]
    fn wait_trigger_closes_at_the_deadline() {
        let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 5 };
        // Request at t=6 is past the first batch's deadline (0 + 5); request at t=5 is not.
        let plans = plan_batches(&trace(&[0, 5, 6]), policy);
        assert_eq!(shape(&plans), vec![(5, vec![0, 1]), (11, vec![2])]);
    }

    #[test]
    fn arrival_exactly_at_the_deadline_still_joins() {
        let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 10 };
        let plans = plan_batches(&trace(&[2, 12]), policy);
        assert_eq!(shape(&plans), vec![(12, vec![0, 1])]);
    }

    #[test]
    fn trailing_batch_closes_at_its_deadline() {
        let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 7 };
        let plans = plan_batches(&trace(&[40]), policy);
        assert_eq!(shape(&plans), vec![(47, vec![0])]);
    }

    #[test]
    fn every_request_lands_in_exactly_one_batch() {
        let arrivals: Vec<u64> = (0..37).map(|i| i * 3).collect();
        for policy in [
            BatchPolicy::unbatched(),
            BatchPolicy { max_batch: 4, max_wait_ticks: 2 },
            BatchPolicy { max_batch: 5, max_wait_ticks: 50 },
        ] {
            let plans = plan_batches(&trace(&arrivals), policy);
            let mut seen: Vec<usize> = plans.iter().flat_map(|p| p.requests.clone()).collect();
            let in_order = seen.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen, (0..37).collect::<Vec<_>>(), "{}", policy.label());
            assert_eq!(in_order, (0..37).collect::<Vec<_>>(), "batches preserve arrival order");
            for plan in &plans {
                assert!(plan.requests.len() <= policy.max_batch);
            }
        }
    }

    #[test]
    fn empty_trace_plans_no_batches() {
        assert!(plan_batches(&[], BatchPolicy::unbatched()).is_empty());
    }

    #[test]
    #[should_panic(expected = "sorted by arrival_tick")]
    fn unsorted_trace_is_rejected() {
        plan_batches(&trace(&[5, 3]), BatchPolicy::unbatched());
    }

    #[test]
    fn slow_multiplier_takes_the_max_overlapping_window() {
        let windows = [
            Slowdown { from_tick: 10, until_tick: 20, multiplier: 2 },
            Slowdown { from_tick: 15, until_tick: 30, multiplier: 5 },
        ];
        assert_eq!(slow_multiplier(&windows, 9), 1, "before every window");
        assert_eq!(slow_multiplier(&windows, 10), 2, "from_tick is inclusive");
        assert_eq!(slow_multiplier(&windows, 17), 5, "overlap takes the max");
        assert_eq!(slow_multiplier(&windows, 20), 5, "until_tick is exclusive");
        assert_eq!(slow_multiplier(&windows, 30), 1, "after every window");
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(BatchPolicy::unbatched().label(), "b1w0");
        assert_eq!(BatchPolicy { max_batch: 16, max_wait_ticks: 64 }.label(), "b16w64");
    }
}
