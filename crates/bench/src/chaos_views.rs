//! The `chaos_bench` fault grid and its deterministic summary.
//!
//! Same division of labor as [`crate::cluster_views`]: the binary drives the grid and
//! measures wall clocks; this module owns what the grid *is* and which scalars are
//! deterministic enough to commit (`BENCH_chaos_summary.json`) and regression-check.
//! Every recorded number is tick-domain — availability, retry counts, degradation-mode
//! occupancy, p50–p999 tails, response/event/fault digests — so the committed summary
//! reproduces bit-for-bit on any machine at any worker count.
//!
//! The grid crosses five **fault scenarios** with the four arrival processes on a 4-shard
//! Monte-Carlo cluster serving S = 16 samples per request:
//!
//! * `baseline` — the degradation ladder armed but no faults: the control every other
//!   scenario is read against;
//! * `single_crash` — shard 0 down from 1/8 into the trace until 7/8 through it, ladder
//!   armed: the headline scenario for the availability gate (the three survivors absorb
//!   the load by stepping down the ladder);
//! * `single_crash_no_ladder` — identical crash window, ladder disarmed: quantifies what
//!   graceful degradation buys (the acceptance gate demands ≥ 99% availability with the
//!   ladder vs < 95% without, under uniform arrivals);
//! * `slow_shard` — shard 1 runs 4× slow across the middle half of the trace: failover
//!   never fires, but least-loaded routing and the ladder must still hold the tail;
//! * `crash_storm` — staggered crashes on two shards, a slow window on a third, a
//!   hot-swap on shard 2 cancelled by checkpoint corruption, and a surviving hot-swap on
//!   shard 3 — the everything-at-once arm pinned tick-for-tick by the chaos golden test.

use bnn_obs::NullRecorder;
use bnn_serve::{
    ArrivalProcess, BatchPolicy, Cluster, ClusterConfig, ClusterRunReport, DegradeLadder,
    FaultEvent, FaultPlan, InferRequest, ModelSource, ModelSpec, RetryPolicy, RoutingPolicy,
    ServeMode, ShardSwap, VersionSwap, WorkloadSpec,
};
use shift_bnn::sweep::json::Json;

/// Weight seed of the frozen posterior every chaos benchmark replicates.
pub const CHAOS_WEIGHT_SEED: u64 = 2021;

/// Weight seed of the hot-swap target posterior in the `crash_storm` scenario.
pub const CHAOS_SWAP_SEED: u64 = 4042;

/// Workload seed of the synthetic chaos traces.
pub const CHAOS_WORKLOAD_SEED: u64 = 13;

/// Ticks between arrivals before the arrival process shapes them. Chosen so the healthy
/// 4-shard cluster absorbs uniform traffic at full S = 16 quality with backlog to spare,
/// while a crashed shard pushes the survivors' backlog through the ladder watermarks.
pub const CHAOS_INTERARRIVAL_TICKS: u64 = 26;

/// Monte-Carlo samples each request asks for at full quality.
pub const CHAOS_SAMPLES: usize = 16;

/// Shards of every chaos cluster.
pub const CHAOS_SHARDS: usize = 4;

/// Per-shard backlog bound.
pub const CHAOS_QUEUE_CAP: usize = 12;

/// The degradation ladder armed in every scenario except `single_crash_no_ladder`:
/// backlog ≥ 2 per live shard steps S = 16 → 4, ≥ 7 steps to the single-pass moment
/// backend, ≥ 10 (just under the cap of 12) sheds outright.
pub fn chaos_ladder() -> DegradeLadder {
    DegradeLadder {
        reduced_samples: 4,
        reduce_watermark: 2,
        moment_watermark: 7,
        shed_watermark: 10,
    }
}

/// The failover retry policy of every scenario: first retry 64 ticks after a crash
/// evicts a request, doubling to a 512-tick cap, at most 3 attempts per request.
pub fn chaos_retry() -> RetryPolicy {
    RetryPolicy { base_backoff_ticks: 64, max_backoff_ticks: 512, max_retries: 3 }
}

/// One fault scenario: a named `FaultPlan` plus any hot-swap schedule it interacts with.
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Stable scenario name (a summary-record key).
    pub name: &'static str,
    /// The fault schedule.
    pub faults: FaultPlan,
    /// Hot swaps the scenario schedules (only `crash_storm` uses this).
    pub swaps: Vec<ShardSwap>,
}

/// Requests per grid config: the full trace length, or the CI-reduced one.
pub fn chaos_request_count(reduced: bool) -> usize {
    if reduced {
        250
    } else {
        1000
    }
}

/// The nominal trace span in ticks (last uniform arrival), from which every scenario's
/// event ticks are derived so the fault windows cover the same trace *fractions* in full
/// and reduced runs.
pub fn chaos_span_ticks(reduced: bool) -> u64 {
    chaos_request_count(reduced) as u64 * CHAOS_INTERARRIVAL_TICKS
}

/// Enumerates the five scenarios, in committed order.
pub fn chaos_scenarios(reduced: bool) -> Vec<ChaosScenario> {
    let span = chaos_span_ticks(reduced);
    let crash_window = vec![
        FaultEvent::ShardDown { tick: span / 8, shard: 0 },
        FaultEvent::ShardUp { tick: span * 7 / 8, shard: 0 },
    ];
    let storm_swap = |shard: usize, seed: u64| ShardSwap {
        shard,
        swap: VersionSwap { at_tick: span / 2, source: ModelSource::Spec(ModelSpec::mlp(seed)) },
    };
    vec![
        ChaosScenario {
            name: "baseline",
            faults: FaultPlan::none().with_ladder(chaos_ladder()).with_retry(chaos_retry()),
            swaps: Vec::new(),
        },
        ChaosScenario {
            name: "single_crash",
            faults: FaultPlan::new(crash_window.clone())
                .with_ladder(chaos_ladder())
                .with_retry(chaos_retry()),
            swaps: Vec::new(),
        },
        ChaosScenario {
            name: "single_crash_no_ladder",
            faults: FaultPlan::new(crash_window).with_retry(chaos_retry()),
            swaps: Vec::new(),
        },
        ChaosScenario {
            name: "slow_shard",
            faults: FaultPlan::new(vec![FaultEvent::SlowShard {
                shard: 1,
                from_tick: span / 4,
                until_tick: span * 3 / 4,
                multiplier: 4,
            }])
            .with_ladder(chaos_ladder())
            .with_retry(chaos_retry()),
            swaps: Vec::new(),
        },
        ChaosScenario {
            name: "crash_storm",
            faults: FaultPlan::new(vec![
                FaultEvent::ShardDown { tick: span / 8, shard: 0 },
                FaultEvent::SlowShard {
                    shard: 1,
                    from_tick: span / 4,
                    until_tick: span * 3 / 4,
                    multiplier: 3,
                },
                FaultEvent::ShardDown { tick: span * 3 / 8, shard: 2 },
                FaultEvent::CorruptCheckpoint { tick: span / 2, shard: 2 },
                FaultEvent::ShardUp { tick: span * 5 / 8, shard: 0 },
                FaultEvent::ShardUp { tick: span * 6 / 8, shard: 2 },
            ])
            .with_ladder(chaos_ladder())
            .with_retry(chaos_retry()),
            // Shard 2's swap is cancelled by the corruption event above; shard 3's lands.
            swaps: vec![storm_swap(2, CHAOS_SWAP_SEED), storm_swap(3, CHAOS_SWAP_SEED)],
        },
    ]
}

/// The arrival processes the grid sweeps (same shapes as the cluster benchmark).
pub fn chaos_arrivals() -> [ArrivalProcess; 4] {
    [
        ArrivalProcess::Uniform,
        ArrivalProcess::Bursty { mean_burst: 6 },
        ArrivalProcess::Diurnal { cycle: 512 },
        ArrivalProcess::Adversarial { spike: 150 },
    ]
}

/// One point of the chaos grid: (scenario × arrival process).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The fault scenario.
    pub scenario: ChaosScenario,
    /// The arrival shape of the trace.
    pub arrival: ArrivalProcess,
}

/// Enumerates the grid, scenario-major — the order the summary's records are committed in.
pub fn chaos_configs(reduced: bool) -> Vec<ChaosConfig> {
    let mut configs = Vec::new();
    for scenario in chaos_scenarios(reduced) {
        for arrival in chaos_arrivals() {
            configs.push(ChaosConfig { scenario: scenario.clone(), arrival });
        }
    }
    configs
}

/// The shared cluster shape of every chaos run.
pub fn chaos_cluster_config(workers: usize) -> ClusterConfig {
    ClusterConfig {
        source: ModelSource::Spec(ModelSpec::mlp(CHAOS_WEIGHT_SEED)),
        mode: ServeMode::MonteCarlo,
        shards: CHAOS_SHARDS,
        workers_per_shard: workers,
        batch: BatchPolicy { max_batch: 8, max_wait_ticks: 16 },
        queue_cap: CHAOS_QUEUE_CAP,
        deadline_ticks: None,
        routing: RoutingPolicy::LeastLoaded,
        autoscale: None,
    }
}

fn chaos_trace(arrival: ArrivalProcess, requests: usize) -> Vec<InferRequest> {
    let spec = ModelSpec::mlp(CHAOS_WEIGHT_SEED);
    WorkloadSpec::uniform(requests, CHAOS_INTERARRIVAL_TICKS, CHAOS_SAMPLES, CHAOS_WORKLOAD_SEED)
        .with_arrival(arrival)
        .generate(&spec)
}

/// Runs every grid config with `workers` pool threads per shard and returns
/// `(config, report)` pairs in grid order. Every value a report serializes is
/// worker-invariant, so any `workers` reproduces the committed summary.
pub fn run_chaos_grid(reduced: bool, workers: usize) -> Vec<(ChaosConfig, ClusterRunReport)> {
    let requests = chaos_request_count(reduced);
    chaos_configs(reduced)
        .into_iter()
        .map(|config| {
            let trace = chaos_trace(config.arrival, requests);
            let cluster = Cluster::new(chaos_cluster_config(workers));
            let scenario = &config.scenario;
            let report =
                cluster.run_traced(&trace, &scenario.swaps, &scenario.faults, &mut NullRecorder);
            (config, report)
        })
        .collect()
}

/// The measured availability of one `(scenario, arrival)` grid point, for the gates.
pub fn grid_availability(
    grid: &[(ChaosConfig, ClusterRunReport)],
    scenario: &str,
    arrival: &str,
) -> f64 {
    grid.iter()
        .find(|(config, _)| config.scenario.name == scenario && config.arrival.label() == arrival)
        .map(|(_, report)| report.availability())
        .unwrap_or_else(|| panic!("no grid point {scenario} x {arrival}"))
}

fn percentile_fields(report: &ClusterRunReport) -> Json {
    let field = |q| {
        if report.latencies.is_empty() {
            Json::Null
        } else {
            Json::UInt(report.latency_percentile(q))
        }
    };
    Json::obj([
        ("p50", field(0.50)),
        ("p95", field(0.95)),
        ("p99", field(0.99)),
        ("p999", field(0.999)),
    ])
}

/// Builds the deterministic summary document from a grid run — the committed
/// `BENCH_chaos_summary.json` regression baseline.
pub fn chaos_summary_json(grid: &[(ChaosConfig, ClusterRunReport)], reduced: bool) -> Json {
    let records: Vec<Json> = grid
        .iter()
        .map(|(config, report)| {
            let (normal, reduced_s, moment) = report.degrade_occupancy();
            Json::obj([
                ("scenario", Json::Str(config.scenario.name.into())),
                ("arrival", Json::Str(config.arrival.label())),
                ("submitted", Json::UInt(report.submitted() as u64)),
                ("answered", Json::UInt(report.answered() as u64)),
                ("shed", Json::UInt(report.sheds.len() as u64)),
                ("availability", Json::Float(report.availability())),
                ("retries", Json::UInt(report.faults.retries.len() as u64)),
                ("degrade_transitions", Json::UInt(report.faults.degrades.len() as u64)),
                (
                    "degrade_occupancy",
                    Json::obj([
                        ("normal", Json::UInt(normal as u64)),
                        ("reduced_samples", Json::UInt(reduced_s as u64)),
                        ("moment", Json::UInt(moment as u64)),
                    ]),
                ),
                ("checkpoint_faults", Json::UInt(report.faults.checkpoint_faults.len() as u64)),
                ("makespan_ticks", Json::UInt(report.makespan_ticks)),
                ("latency_ticks", percentile_fields(report)),
                ("responses_digest", Json::Str(report.responses_digest())),
                ("events_digest", Json::Str(report.events_digest())),
                ("fault_events_digest", Json::Str(report.fault_events_digest())),
            ])
        })
        .collect();
    let ladder = chaos_ladder();
    let retry = chaos_retry();
    Json::obj([
        ("schema", Json::Str("shift-bnn-chaos-summary/v1".into())),
        ("reduced", Json::Bool(reduced)),
        (
            "cluster",
            Json::obj([
                ("shards", Json::UInt(CHAOS_SHARDS as u64)),
                ("queue_cap", Json::UInt(CHAOS_QUEUE_CAP as u64)),
                ("max_batch", Json::UInt(8)),
                ("max_wait_ticks", Json::UInt(16)),
                ("weight_seed", Json::UInt(CHAOS_WEIGHT_SEED)),
            ]),
        ),
        (
            "workload",
            Json::obj([
                ("requests", Json::UInt(chaos_request_count(reduced) as u64)),
                ("interarrival_ticks", Json::UInt(CHAOS_INTERARRIVAL_TICKS)),
                ("samples", Json::UInt(CHAOS_SAMPLES as u64)),
                ("seed", Json::UInt(CHAOS_WORKLOAD_SEED)),
            ]),
        ),
        (
            "ladder",
            Json::obj([
                ("reduced_samples", Json::UInt(ladder.reduced_samples as u64)),
                ("reduce_watermark", Json::UInt(ladder.reduce_watermark as u64)),
                ("moment_watermark", Json::UInt(ladder.moment_watermark as u64)),
                ("shed_watermark", Json::UInt(ladder.shed_watermark as u64)),
            ]),
        ),
        (
            "retry",
            Json::obj([
                ("base_backoff_ticks", Json::UInt(retry.base_backoff_ticks)),
                ("max_backoff_ticks", Json::UInt(retry.max_backoff_ticks)),
                ("max_retries", Json::UInt(retry.max_retries as u64)),
            ]),
        ),
        ("records", Json::Array(records)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_scenario_major() {
        let configs = chaos_configs(true);
        assert_eq!(configs.len(), 5 * 4);
        assert_eq!(configs[0].scenario.name, "baseline");
        assert_eq!(configs[4].scenario.name, "single_crash");
        assert_eq!(configs[8].scenario.name, "single_crash_no_ladder");
        assert_eq!(configs[12].scenario.name, "slow_shard");
        assert_eq!(configs[16].scenario.name, "crash_storm");
        assert_eq!(configs[0].arrival.label(), "uniform");
    }

    #[test]
    fn every_scenario_validates_and_conserves_requests() {
        for (config, report) in run_chaos_grid(true, 1) {
            assert_eq!(
                report.answered() + report.sheds.len(),
                report.submitted(),
                "{} x {}: conservation",
                config.scenario.name,
                config.arrival.label()
            );
        }
    }

    #[test]
    fn reduced_grid_summary_is_worker_invariant() {
        let a = chaos_summary_json(&run_chaos_grid(true, 1), true);
        let b = chaos_summary_json(&run_chaos_grid(true, 3), true);
        assert_eq!(a.to_pretty(), b.to_pretty());
    }

    #[test]
    fn the_ladder_buys_availability_under_a_crash() {
        let grid = run_chaos_grid(true, 2);
        let with = grid_availability(&grid, "single_crash", "uniform");
        let without = grid_availability(&grid, "single_crash_no_ladder", "uniform");
        assert!(with >= 0.99, "ladder availability {with} under the single crash");
        assert!(without < 0.95, "no-ladder availability {without} under the single crash");
    }

    #[test]
    fn the_storm_cancels_exactly_one_swap() {
        let grid = run_chaos_grid(true, 1);
        let (_, report) = grid
            .iter()
            .find(|(c, _)| c.scenario.name == "crash_storm" && c.arrival.label() == "uniform")
            .unwrap();
        assert_eq!(report.faults.checkpoint_faults.len(), 1);
        assert_eq!(report.faults.checkpoint_faults[0].cancelled_swaps, 1);
        assert_eq!(report.faults.checkpoint_faults[0].shard, 2);
        // Shard 2 never leaves version 0; shard 3's swap lands.
        assert!(report.shard_reports[2].batches.iter().all(|b| b.version == 0));
        assert!(report.shard_reports[3].batches.iter().any(|b| b.version == 1));
    }
}
