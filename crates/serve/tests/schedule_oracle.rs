//! Every executed batch against an oracle computed in this file from the tick model's
//! definition, never from the library's own schedule.
//!
//! For each shard the oracle rebuilds, from the report alone, the sub-trace the shard
//! admitted: the shard report's responses give the admission order and each request's sample
//! count, and a request's admission tick is its last failover retry tick (its arrival tick
//! without retries, its escalation tick on the two-tier high shard). Then:
//!
//! * batch membership and close ticks come from [`plan_batches`] over that sub-trace;
//! * a batch starts at `max(close, previous end)`, and its version counts the shard's swaps
//!   (less those a corrupt checkpoint cancelled) with `at_tick ≤ start`;
//! * it ends at `start + m·(64 + Σ cost)`, where `m` is the largest slow-window multiplier
//!   covering `start` (1 outside every window) and a request costs `1 + ⌈S·ε/1024⌉`, or
//!   `1 + ⌈2ε/1024⌉` in moment mode or at `S = 0`.
//!
//! The cases draw random batch policies (unbatched included), all four arrival processes,
//! round-robin, least-loaded and two-tier routing, per-shard swaps, and random fault plans
//! with crashes that evict open batches, slow windows, checkpoint corruption and the
//! degradation ladder; a second property drives the bare engine with swaps and analytic
//! (`S = 0`) requests.

use bnn_obs::NullRecorder;
use bnn_serve::{
    plan_batches, ArrivalProcess, BatchPolicy, Cluster, ClusterConfig, DegradeLadder, EngineSpec,
    FaultEvent, FaultPlan, InferRequest, InferenceEngine, ModelSource, ModelSpec, RetryPolicy,
    RoutingPolicy, ServeMode, ServeRunReport, ShardSwap, VersionSwap, WorkloadSpec,
};
use proptest::prelude::*;
use std::collections::HashMap;

const WEIGHT_SEED: u64 = 2021;

/// Draws any number of small parameters from one proptest input (the vendored proptest caps
/// how many named inputs a property takes): a SplitMix64 stream seeded by it.
struct Knobs(u64);

impl Knobs {
    fn draw(&mut self, range: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % range
    }
}

fn arrival_process(selector: u8) -> ArrivalProcess {
    match selector % 4 {
        0 => ArrivalProcess::Uniform,
        1 => ArrivalProcess::Bursty { mean_burst: 5 },
        2 => ArrivalProcess::Diurnal { cycle: 64 },
        _ => ArrivalProcess::Adversarial { spike: 12 },
    }
}

fn random_policy(knobs: &mut Knobs) -> BatchPolicy {
    if knobs.draw(4) == 0 {
        BatchPolicy::unbatched()
    } else {
        BatchPolicy { max_batch: 1 + knobs.draw(6) as usize, max_wait_ticks: knobs.draw(24) }
    }
}

/// Up to two swaps to a distinct posterior of the same architecture, sorted by tick.
fn random_swaps(knobs: &mut Knobs, seed: u64) -> Vec<VersionSwap> {
    let mut ticks: Vec<u64> = (0..knobs.draw(3)).map(|_| knobs.draw(400)).collect();
    ticks.sort_unstable();
    ticks
        .into_iter()
        .enumerate()
        .map(|(k, at_tick)| VersionSwap {
            at_tick,
            source: ModelSource::Spec(ModelSpec::mlp(seed + k as u64)),
        })
        .collect()
}

/// The simulated device of one shard, as the oracle sees it.
struct Device {
    policy: BatchPolicy,
    mode: ServeMode,
    epsilon: u64,
    swap_ticks: Vec<u64>,
    /// `(from_tick, until_tick, multiplier)` slow windows.
    slow: Vec<(u64, u64, u64)>,
}

impl Device {
    fn cost(&self, samples: usize) -> u64 {
        if self.mode == ServeMode::Moment || samples == 0 {
            1 + (2 * self.epsilon).div_ceil(1024)
        } else {
            1 + (samples as u64 * self.epsilon).div_ceil(1024)
        }
    }

    /// Checks `report`'s batches, latencies and makespan against the oracle over `admitted`,
    /// the sub-trace at admission ticks and priced sample counts.
    fn check(&self, report: &ServeRunReport, admitted: &[InferRequest]) -> TestCaseResult {
        let plans = plan_batches(admitted, self.policy);
        prop_assert_eq!(plans.len(), report.batches.len(), "batch count");
        let mut previous_end = 0u64;
        for (plan, batch) in plans.iter().zip(&report.batches) {
            let start = plan.close_tick.max(previous_end);
            let version = self.swap_ticks.iter().filter(|&&at| at <= start).count();
            let multiplier = self
                .slow
                .iter()
                .filter(|&&(from, until, _)| from <= start && start < until)
                .map(|&(_, _, m)| m)
                .max()
                .unwrap_or(1);
            let cost: u64 = plan.requests.iter().map(|&i| self.cost(admitted[i].samples)).sum();
            let end = start + multiplier * (64 + cost);
            prop_assert_eq!(
                (batch.close_tick, batch.start_tick, batch.end_tick),
                (plan.close_tick, start, end),
                "batch {:?} against the oracle's close/start/end",
                batch
            );
            prop_assert_eq!(batch.size, plan.requests.len());
            prop_assert_eq!(batch.version, version, "batch {:?}", batch);
            for &i in &plan.requests {
                prop_assert_eq!(report.latencies[i], end - admitted[i].arrival_tick);
            }
            previous_end = end;
        }
        prop_assert_eq!(report.makespan_ticks, previous_end);
        Ok(())
    }
}

/// The sub-trace behind `report`: its responses in order, each request at `admitted_at(id)`
/// with the sample count its answer carries.
fn admitted_sub_trace(
    trace: &[InferRequest],
    report: &ServeRunReport,
    admitted_at: impl Fn(u64) -> u64,
) -> Vec<InferRequest> {
    report
        .responses
        .iter()
        .map(|response| {
            let mut request = trace[response.id as usize].clone();
            request.arrival_tick = admitted_at(response.id);
            request.samples = response.samples;
            request
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every batch every shard of an executed cluster run answers is the oracle's batch.
    #[test]
    fn cluster_batches_match_the_oracle(
        requests in 1usize..36,
        interarrival in 1u64..6,
        shards in 1usize..4,
        queue_cap in 1usize..8,
        selector in 0u8..4,
        window in 1u64..400,
        knobs in 0u64..u64::MAX,
    ) {
        let mut knobs = Knobs(knobs);
        let policy = random_policy(&mut knobs);
        let two_tier = shards >= 2 && knobs.draw(4) == 0;
        let routing = if two_tier {
            RoutingPolicy::TwoTier {
                low_samples: 1,
                high_samples: 1 + knobs.draw(4) as usize,
                entropy_threshold: [0.0, 0.5, 1.0][knobs.draw(3) as usize],
            }
        } else if knobs.draw(2) == 0 {
            RoutingPolicy::RoundRobin
        } else {
            RoutingPolicy::LeastLoaded
        };
        let mode = if !two_tier && knobs.draw(4) == 0 {
            ServeMode::Moment
        } else {
            ServeMode::MonteCarlo
        };
        let routable = if two_tier { shards - 1 } else { shards };
        let samples = 1 + knobs.draw(3) as usize;
        let spec = ModelSpec::mlp(WEIGHT_SEED);
        let trace = WorkloadSpec::uniform(requests, interarrival, samples, 4242)
            .with_arrival(arrival_process(selector))
            .generate(&spec);

        let per_shard: Vec<Vec<VersionSwap>> =
            (0..shards).map(|s| random_swaps(&mut knobs, 100 * (s as u64 + 1))).collect();
        let swaps: Vec<ShardSwap> = per_shard
            .iter()
            .enumerate()
            .flat_map(|(shard, list)| list.iter().map(move |swap| ShardSwap { shard, swap: swap.clone() }))
            .collect();

        let faults = if two_tier {
            FaultPlan::none()
        } else {
            // Crash just after an arrival, while that request's batch is likely still open.
            let down_tick = trace[knobs.draw(requests as u64) as usize].arrival_tick + knobs.draw(4);
            let crash_shard = knobs.draw(routable as u64) as usize;
            let slow_shard = knobs.draw(routable as u64) as usize;
            let multiplier = 1 + knobs.draw(3);
            let base_backoff = 1 + knobs.draw(60);
            let mut events = vec![
                FaultEvent::ShardDown { tick: down_tick, shard: crash_shard },
                FaultEvent::SlowShard {
                    shard: slow_shard,
                    from_tick: down_tick,
                    until_tick: down_tick + window,
                    multiplier,
                },
                FaultEvent::ShardUp { tick: down_tick + window, shard: crash_shard },
            ];
            if let Some(first) = per_shard[0].first().filter(|_| knobs.draw(3) == 0) {
                events.push(FaultEvent::CorruptCheckpoint { tick: first.at_tick, shard: 0 });
            }
            events.sort_by_key(FaultEvent::tick);
            let plan = FaultPlan::new(events).with_retry(RetryPolicy {
                base_backoff_ticks: base_backoff,
                max_backoff_ticks: base_backoff * 4,
                max_retries: knobs.draw(3) as u32,
            });
            if mode == ServeMode::MonteCarlo && knobs.draw(2) == 0 {
                let reduce = 1 + knobs.draw(3) as usize;
                let moment = reduce + 1 + knobs.draw(3) as usize;
                plan.with_ladder(DegradeLadder {
                    reduced_samples: 1,
                    reduce_watermark: reduce,
                    moment_watermark: moment,
                    shed_watermark: moment + 1 + knobs.draw(3) as usize,
                })
            } else {
                plan
            }
        };

        let cluster = Cluster::new(ClusterConfig {
            source: ModelSource::Spec(spec.clone()),
            mode,
            shards,
            workers_per_shard: 1,
            batch: policy,
            queue_cap,
            deadline_ticks: None,
            routing,
            autoscale: None,
        });
        let report = cluster.run_traced(&trace, &swaps, &faults, &mut NullRecorder);
        prop_assert_eq!(report.shard_reports.len(), shards);

        let mut last_retry: HashMap<u64, u64> = HashMap::new();
        for retry in &report.faults.retries {
            last_retry.insert(retry.request, retry.retry_tick);
        }
        let escalated: HashMap<u64, u64> = report
            .escalations
            .iter()
            .filter(|e| e.admitted)
            .map(|e| (e.request, e.tick))
            .collect();
        for (shard, shard_report) in report.shard_reports.iter().enumerate() {
            let admitted = if shard == routable {
                admitted_sub_trace(&trace, shard_report, |id| escalated[&id])
            } else {
                admitted_sub_trace(&trace, shard_report, |id| {
                    last_retry.get(&id).copied().unwrap_or(trace[id as usize].arrival_tick)
                })
            };
            let cancelled: Vec<u64> = faults
                .events
                .iter()
                .filter_map(|event| match *event {
                    FaultEvent::CorruptCheckpoint { tick, shard: s } if s == shard => Some(tick),
                    _ => None,
                })
                .collect();
            let slow = faults
                .events
                .iter()
                .filter_map(|event| match *event {
                    FaultEvent::SlowShard { shard: s, from_tick, until_tick, multiplier }
                        if s == shard => Some((from_tick, until_tick, multiplier)),
                    _ => None,
                })
                .collect();
            let device = Device {
                policy,
                mode,
                epsilon: spec.epsilon_count() as u64,
                swap_ticks: per_shard[shard]
                    .iter()
                    .map(|swap| swap.at_tick)
                    .filter(|at| !cancelled.contains(at))
                    .collect(),
                slow,
            };
            device.check(shard_report, &admitted)?;
        }
    }

    /// A bare engine's batches under swaps, in either mode, with some requests at the
    /// analytic `S = 0` sentinel, are the oracle's batches over its own trace.
    #[test]
    fn engine_batches_match_the_oracle(
        requests in 1usize..40,
        interarrival in 1u64..6,
        selector in 0u8..4,
        knobs in 0u64..u64::MAX,
    ) {
        let mut knobs = Knobs(knobs);
        let policy = random_policy(&mut knobs);
        let mode = if knobs.draw(4) == 0 { ServeMode::Moment } else { ServeMode::MonteCarlo };
        let spec = ModelSpec::mlp(WEIGHT_SEED);
        let mut trace = WorkloadSpec::uniform(requests, interarrival, 1 + knobs.draw(3) as usize, 99)
            .with_arrival(arrival_process(selector))
            .generate(&spec);
        if knobs.draw(2) == 0 {
            for request in trace.iter_mut().step_by(3) {
                request.samples = 0;
            }
        }
        let swaps = random_swaps(&mut knobs, 7);
        let engine = InferenceEngine::build(
            EngineSpec::new(spec.clone())
                .mode(mode)
                .policy(policy)
                .workers(1 + knobs.draw(2) as usize),
        );
        let report = engine.run_traced(&trace, &swaps, &mut NullRecorder);
        let admitted = admitted_sub_trace(&trace, &report, |id| trace[id as usize].arrival_tick);
        let device = Device {
            policy,
            mode,
            epsilon: spec.epsilon_count() as u64,
            swap_ticks: swaps.iter().map(|swap| swap.at_tick).collect(),
            slow: Vec::new(),
        };
        device.check(&report, &admitted)?;
    }
}
