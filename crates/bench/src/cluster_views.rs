//! The `cluster_bench` configuration grid and its deterministic summary.
//!
//! Same division of labor as [`crate::serve_views`]: the binary drives the grid and measures
//! wall clocks; this module owns what the grid *is* and which scalars are deterministic
//! enough to commit (`BENCH_cluster_summary.json`) and regression-check. Everything recorded
//! here is tick-domain — tail latencies (p50/p95/p99/p999), shed and escalation rates,
//! event digests — so the committed summary reproduces bit-for-bit on any machine at any
//! worker count.
//!
//! Two arms:
//!
//! * the **executed grid** — routing policy × arrival process on a 4-shard B-MLP cluster,
//!   every request answered by real engines (responses digested into the summary);
//! * the **stress arm** — 250 000-request traces driven through
//!   [`Cluster::plan_with_faults`] (phase A only, no inference), where p999 becomes a
//!   meaningful tail statistic and autoscaling has room to both activate and drain.

use bnn_obs::NullRecorder;
use bnn_serve::{
    ArrivalProcess, AutoscalePolicy, BatchPolicy, Cluster, ClusterConfig, ClusterPlan,
    ClusterRunReport, FaultPlan, InferRequest, ModelSource, ModelSpec, RoutingPolicy, ServeMode,
    WorkloadSpec,
};
use shift_bnn::sweep::json::Json;

/// Weight seed of the frozen posterior every cluster benchmark replicates.
pub const CLUSTER_WEIGHT_SEED: u64 = 2021;

/// Workload seed of the synthetic cluster traces.
pub const CLUSTER_WORKLOAD_SEED: u64 = 11;

/// Ticks between arrivals (before the arrival process shapes them): chosen so a 4-shard
/// cluster runs just under saturation at uniform arrivals (round-robin hands each shard one
/// request per 96 ticks against an ~85-tick singleton service time) — steady traffic is
/// served nearly in full while spikes and demand waves overflow the queues and shed.
pub const CLUSTER_INTERARRIVAL_TICKS: u64 = 24;

/// Monte-Carlo samples each executed-grid request asks for (the two-tier policy overrides
/// this with its own low/high counts).
pub const CLUSTER_SAMPLES: usize = 4;

/// Shards of every benchmark cluster (two-tier: 3 low + 1 high).
pub const CLUSTER_SHARDS: usize = 4;

/// Per-shard backlog bound of every benchmark cluster.
pub const CLUSTER_QUEUE_CAP: usize = 32;

/// The routing policies the grid sweeps. The two-tier threshold sits in the upper third of
/// the low-pass (S = 1) predictive-entropy distribution — the proxy posterior's predictions
/// cluster near ln(4) ≈ 1.386 nats — so escalation is a real filter, not a pass-through.
pub fn cluster_policies() -> [RoutingPolicy; 3] {
    [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::TwoTier { low_samples: 1, high_samples: 8, entropy_threshold: 1.35 },
    ]
}

/// The arrival processes the grid sweeps.
pub fn cluster_arrivals() -> [ArrivalProcess; 4] {
    [
        ArrivalProcess::Uniform,
        ArrivalProcess::Bursty { mean_burst: 6 },
        ArrivalProcess::Diurnal { cycle: 512 },
        // 150 simultaneous arrivals exceed the cluster's whole queue capacity (4 × 32), so
        // every spike forces queue-full sheds no matter how the router spreads it.
        ArrivalProcess::Adversarial { spike: 150 },
    ]
}

/// One point of the executed grid: (routing policy × arrival process).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterBenchConfig {
    /// How the router picks shards.
    pub routing: RoutingPolicy,
    /// The arrival shape of the trace.
    pub arrival: ArrivalProcess,
}

/// Enumerates the executed grid, policy-major — the order the summary's records are
/// committed in.
pub fn cluster_configs() -> Vec<ClusterBenchConfig> {
    let mut configs = Vec::new();
    for routing in cluster_policies() {
        for arrival in cluster_arrivals() {
            configs.push(ClusterBenchConfig { routing, arrival });
        }
    }
    configs
}

/// Requests per executed-grid config: the full trace length, or the CI-reduced one.
pub fn cluster_request_count(reduced: bool) -> usize {
    if reduced {
        250
    } else {
        1000
    }
}

/// Requests of each stress-arm trace.
pub fn stress_request_count(reduced: bool) -> usize {
    if reduced {
        50_000
    } else {
        250_000
    }
}

/// The shared cluster shape of every benchmark run.
pub fn bench_cluster_config(routing: RoutingPolicy, workers: usize) -> ClusterConfig {
    ClusterConfig {
        source: ModelSource::Spec(ModelSpec::mlp(CLUSTER_WEIGHT_SEED)),
        mode: ServeMode::MonteCarlo,
        shards: CLUSTER_SHARDS,
        workers_per_shard: workers,
        batch: BatchPolicy { max_batch: 8, max_wait_ticks: 16 },
        queue_cap: CLUSTER_QUEUE_CAP,
        deadline_ticks: None,
        routing,
        autoscale: None,
    }
}

fn grid_trace(arrival: ArrivalProcess, requests: usize) -> Vec<InferRequest> {
    let spec = ModelSpec::mlp(CLUSTER_WEIGHT_SEED);
    WorkloadSpec::uniform(
        requests,
        CLUSTER_INTERARRIVAL_TICKS,
        CLUSTER_SAMPLES,
        CLUSTER_WORKLOAD_SEED,
    )
    .with_arrival(arrival)
    .generate(&spec)
}

/// Runs every executed-grid config with `workers` pool threads per shard and returns
/// `(config, report)` pairs in grid order. Every value a report serializes is
/// worker-invariant, so any `workers` reproduces the committed summary.
pub fn run_cluster_grid(
    reduced: bool,
    workers: usize,
) -> Vec<(ClusterBenchConfig, ClusterRunReport)> {
    let requests = cluster_request_count(reduced);
    cluster_configs()
        .into_iter()
        .map(|config| {
            let trace = grid_trace(config.arrival, requests);
            let cluster = Cluster::new(bench_cluster_config(config.routing, workers));
            let report = cluster.run_traced(&trace, &[], &FaultPlan::none(), &mut NullRecorder);
            (config, report)
        })
        .collect()
}

/// One point of the stress arm: a plan-only policy × arrival pair with autoscaling enabled.
/// Two-tier is excluded — escalation needs real entropies, which phase A never computes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressConfig {
    /// How the router picks shards.
    pub routing: RoutingPolicy,
    /// The arrival shape of the trace.
    pub arrival: ArrivalProcess,
}

/// The stress-arm configurations, in committed order.
pub fn stress_configs() -> Vec<StressConfig> {
    let mut configs = Vec::new();
    for routing in [RoutingPolicy::RoundRobin, RoutingPolicy::LeastLoaded] {
        for arrival in
            [ArrivalProcess::Bursty { mean_burst: 6 }, ArrivalProcess::Diurnal { cycle: 512 }]
        {
            configs.push(StressConfig { routing, arrival });
        }
    }
    configs
}

/// Plans the stress arm: hundreds of thousands of requests per point, phase A only. Inputs
/// use a 1-element shape — the plan prices batches from ε volume and sample counts, so the
/// tensor payload never matters and trace generation stays cheap.
pub fn run_cluster_stress(reduced: bool) -> Vec<(StressConfig, ClusterPlan)> {
    let requests = stress_request_count(reduced);
    // Drain only when a shard's share of the backlog is essentially idle — a low watermark
    // of 2 ping-pongs between 1 and 2 active shards on bursty traffic.
    let autoscale = AutoscalePolicy {
        interval_ticks: 1024,
        high_watermark: 16,
        low_watermark: 1,
        min_active: 1,
    };
    stress_configs()
        .into_iter()
        .map(|config| {
            let trace = WorkloadSpec::uniform(
                requests,
                CLUSTER_INTERARRIVAL_TICKS,
                CLUSTER_SAMPLES,
                CLUSTER_WORKLOAD_SEED,
            )
            .with_arrival(config.arrival)
            .generate_for_shape(&[1]);
            let mut cluster_config = bench_cluster_config(config.routing, 1);
            cluster_config.autoscale = Some(autoscale);
            let plan =
                Cluster::new(cluster_config).plan_with_faults(&trace, &[], &FaultPlan::none());
            (config, plan)
        })
        .collect()
}

fn percentile_fields(latencies: &[u64], percentile: impl Fn(f64) -> u64) -> Json {
    let field = |q| if latencies.is_empty() { Json::Null } else { Json::UInt(percentile(q)) };
    Json::obj([
        ("p50", field(0.50)),
        ("p95", field(0.95)),
        ("p99", field(0.99)),
        ("p999", field(0.999)),
    ])
}

/// Builds the deterministic summary document from a grid + stress run — the committed
/// `BENCH_cluster_summary.json` regression baseline.
pub fn cluster_summary_json(
    grid: &[(ClusterBenchConfig, ClusterRunReport)],
    stress: &[(StressConfig, ClusterPlan)],
    reduced: bool,
) -> Json {
    let records: Vec<Json> = grid
        .iter()
        .map(|(config, report)| {
            Json::obj([
                ("routing", Json::Str(config.routing.label().into())),
                ("arrival", Json::Str(config.arrival.label())),
                ("submitted", Json::UInt(report.submitted() as u64)),
                ("answered", Json::UInt(report.answered() as u64)),
                ("shed", Json::UInt(report.sheds.len() as u64)),
                ("shed_rate", Json::Float(report.shed_rate())),
                ("escalated", Json::UInt(report.escalations.len() as u64)),
                ("escalation_rate", Json::Float(report.escalation_rate())),
                ("makespan_ticks", Json::UInt(report.makespan_ticks)),
                (
                    "latency_ticks",
                    percentile_fields(&report.latencies, |q| report.latency_percentile(q)),
                ),
                ("responses_digest", Json::Str(report.responses_digest())),
                ("events_digest", Json::Str(report.events_digest())),
            ])
        })
        .collect();
    let stress_records: Vec<Json> = stress
        .iter()
        .map(|(config, plan)| {
            let peak_active = plan.scale_events.iter().map(|e| e.active).max().unwrap_or(1);
            Json::obj([
                ("routing", Json::Str(config.routing.label().into())),
                ("arrival", Json::Str(config.arrival.label())),
                ("submitted", Json::UInt(plan.outcomes.len() as u64)),
                ("shed", Json::UInt(plan.sheds.len() as u64)),
                ("shed_rate", Json::Float(plan.shed_rate())),
                ("makespan_ticks", Json::UInt(plan.makespan_ticks)),
                (
                    "latency_ticks",
                    percentile_fields(&plan.latencies, |q| plan.latency_percentile(q)),
                ),
                ("scale_events", Json::UInt(plan.scale_events.len() as u64)),
                ("peak_active_shards", Json::UInt(peak_active as u64)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("shift-bnn-cluster-summary/v1".into())),
        ("reduced", Json::Bool(reduced)),
        (
            "cluster",
            Json::obj([
                ("shards", Json::UInt(CLUSTER_SHARDS as u64)),
                ("queue_cap", Json::UInt(CLUSTER_QUEUE_CAP as u64)),
                ("max_batch", Json::UInt(8)),
                ("max_wait_ticks", Json::UInt(16)),
                ("weight_seed", Json::UInt(CLUSTER_WEIGHT_SEED)),
            ]),
        ),
        (
            "workload",
            Json::obj([
                ("requests", Json::UInt(cluster_request_count(reduced) as u64)),
                ("stress_requests", Json::UInt(stress_request_count(reduced) as u64)),
                ("interarrival_ticks", Json::UInt(CLUSTER_INTERARRIVAL_TICKS)),
                ("samples", Json::UInt(CLUSTER_SAMPLES as u64)),
                ("seed", Json::UInt(CLUSTER_WORKLOAD_SEED)),
            ]),
        ),
        ("records", Json::Array(records)),
        ("stress", Json::Array(stress_records)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_policy_major() {
        let configs = cluster_configs();
        assert_eq!(configs.len(), 3 * 4);
        assert_eq!(configs[0].routing.label(), "round_robin");
        assert_eq!(configs[4].routing.label(), "least_loaded");
        assert_eq!(configs[8].routing.label(), "two_tier");
        assert_eq!(configs[0].arrival.label(), "uniform");
    }

    #[test]
    fn reduced_grid_summary_is_worker_invariant() {
        let stress: Vec<(StressConfig, ClusterPlan)> = Vec::new();
        let a = cluster_summary_json(&run_cluster_grid(true, 1), &stress, true);
        let b = cluster_summary_json(&run_cluster_grid(true, 3), &stress, true);
        assert_eq!(a.to_pretty(), b.to_pretty());
    }

    #[test]
    fn adversarial_spikes_shed_while_uniform_mostly_answers() {
        let grid = run_cluster_grid(true, 2);
        for (config, report) in &grid {
            if matches!(config.arrival, ArrivalProcess::Adversarial { .. }) {
                assert!(
                    report.shed_rate() > 0.0,
                    "{}: 150-request spikes must overflow the 4 x cap-32 queues",
                    config.routing.label()
                );
            }
            assert!(report.answered() > 0, "{}: nothing answered", config.routing.label());
        }
        let two_tier = grid.iter().filter(|(c, _)| c.routing.label() == "two_tier");
        for (config, report) in two_tier {
            assert!(
                !report.escalations.is_empty(),
                "two-tier over {} must escalate something",
                config.arrival.label()
            );
        }
    }

    #[test]
    fn stress_plans_scale_and_report_tails() {
        // A miniature stress arm (not the reduced count — this is a unit test) still
        // exercises autoscaling and the percentile fields.
        let autoscale = AutoscalePolicy {
            interval_ticks: 1024,
            high_watermark: 16,
            low_watermark: 2,
            min_active: 1,
        };
        let trace = WorkloadSpec::uniform(
            4000,
            CLUSTER_INTERARRIVAL_TICKS,
            CLUSTER_SAMPLES,
            CLUSTER_WORKLOAD_SEED,
        )
        .with_arrival(ArrivalProcess::Bursty { mean_burst: 6 })
        .generate_for_shape(&[1]);
        let mut config = bench_cluster_config(RoutingPolicy::LeastLoaded, 1);
        config.autoscale = Some(autoscale);
        let plan = Cluster::new(config).plan_with_faults(&trace, &[], &FaultPlan::none());
        assert_eq!(plan.outcomes.len(), 4000);
        assert!(plan.latency_percentile(0.999) >= plan.latency_percentile(0.50));
    }
}
