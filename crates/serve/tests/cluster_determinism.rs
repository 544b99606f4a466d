//! Cluster-level determinism: the report of an N-shard × M-worker cluster run is a pure
//! function of (trace, config, swap schedule) — never of the parallelism it ran with.
//!
//! Three contracts, each pinned exactly:
//!
//! 1. **Worker invariance** — 1 worker per shard and N workers per shard serialize
//!    byte-identical reports, for every routing policy and arrival shape.
//! 2. **Shard-split equivalence** — each shard of an N-shard run behaves exactly like a
//!    standalone single-shard cluster (and like a bare [`InferenceEngine`]) driven with the
//!    sub-trace the router handed it: sharding relocates requests, it never changes answers
//!    or per-shard timing.
//! 3. **Golden events** — the exact tick of every shed and every escalation of a fixed
//!    adversarial scenario is hardcoded below; any change to routing, admission or batching
//!    arithmetic trips it.

use bnn_obs::NullRecorder;
use bnn_serve::{
    ArrivalProcess, BatchPolicy, Cluster, ClusterConfig, ClusterRunReport, EngineSpec, FaultPlan,
    InferRequest, InferenceEngine, ModelSource, ModelSpec, RequestOutcome, RoutingPolicy,
    ServeMode, WorkloadSpec,
};

const WEIGHT_SEED: u64 = 2021;

fn spec() -> ModelSpec {
    ModelSpec::mlp(WEIGHT_SEED)
}

fn config(shards: usize, routing: RoutingPolicy) -> ClusterConfig {
    ClusterConfig {
        source: ModelSource::Spec(spec()),
        mode: ServeMode::MonteCarlo,
        shards,
        workers_per_shard: 1,
        batch: BatchPolicy { max_batch: 4, max_wait_ticks: 6 },
        queue_cap: 3,
        deadline_ticks: None,
        routing,
        autoscale: None,
    }
}

/// An untraced healthy, swap-free run.
fn run(cluster: &Cluster, trace: &[InferRequest]) -> ClusterRunReport {
    cluster.run_traced(trace, &[], &FaultPlan::none(), &mut NullRecorder)
}

/// A bare engine serving the cluster's posterior under its batch policy.
fn bare_engine(cfg: &ClusterConfig, workers: usize) -> InferenceEngine {
    InferenceEngine::build(EngineSpec::new(cfg.source.clone()).policy(cfg.batch).workers(workers))
}

fn bursty_trace(requests: usize) -> Vec<InferRequest> {
    WorkloadSpec::uniform(requests, 2, 2, 909)
        .with_arrival(ArrivalProcess::Bursty { mean_burst: 6 })
        .generate(&spec())
}

// ---------------------------------------------------------------------------------------------
// 1. Worker invariance
// ---------------------------------------------------------------------------------------------

#[test]
fn reports_are_byte_identical_across_worker_counts() {
    let trace = bursty_trace(36);
    let policies = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::LeastLoaded,
        RoutingPolicy::TwoTier { low_samples: 1, high_samples: 6, entropy_threshold: 1.0 },
    ];
    for routing in policies {
        let mut single = config(3, routing);
        single.workers_per_shard = 1;
        let mut pooled = config(3, routing);
        pooled.workers_per_shard = 4;
        let a = run(&Cluster::new(single), &trace);
        let b = run(&Cluster::new(pooled), &trace);
        assert_eq!(
            a.to_json().to_pretty(),
            b.to_json().to_pretty(),
            "{}: worker count leaked into the serialized report",
            routing.label()
        );
        assert_eq!(a.responses_digest(), b.responses_digest());
        assert_eq!(a.events_digest(), b.events_digest());
    }
}

#[test]
fn repeated_runs_are_byte_identical() {
    let trace = bursty_trace(24);
    let cluster = Cluster::new(config(2, RoutingPolicy::LeastLoaded));
    let a = run(&cluster, &trace);
    let b = run(&cluster, &trace);
    assert_eq!(a.to_json().to_pretty(), b.to_json().to_pretty());
}

// ---------------------------------------------------------------------------------------------
// 2. Shard-split equivalence
// ---------------------------------------------------------------------------------------------

/// The sub-trace the router admitted to `shard`, in arrival order.
fn admitted_sub_trace(
    trace: &[InferRequest],
    outcomes: &[RequestOutcome],
    shard: usize,
) -> Vec<InferRequest> {
    trace
        .iter()
        .zip(outcomes)
        .filter_map(|(request, outcome)| match outcome {
            RequestOutcome::Answered { shard: s, .. } if *s == shard => Some(request.clone()),
            _ => None,
        })
        .collect()
}

#[test]
fn each_shard_equals_a_standalone_engine_on_its_sub_trace() {
    let cfg = config(3, RoutingPolicy::LeastLoaded);
    let trace = bursty_trace(42);
    let report = run(&Cluster::new(cfg.clone()), &trace);
    assert!(report.answered() > 0);

    for shard in 0..cfg.shards {
        let sub_trace = admitted_sub_trace(&trace, &report.outcomes, shard);
        // A bare engine over the routed sub-trace reproduces the shard's slice of the
        // cluster report exactly — answers, latencies, batch timing, everything.
        let solo = bare_engine(&cfg, 2).run(&sub_trace);
        assert_eq!(
            solo.to_json().to_pretty(),
            report.shard_reports[shard].to_json().to_pretty(),
            "shard {shard} diverged from a standalone engine on its own sub-trace"
        );
    }
}

#[test]
fn each_shard_equals_a_standalone_single_shard_cluster() {
    let cfg = config(4, RoutingPolicy::RoundRobin);
    let trace = bursty_trace(40);
    let report = run(&Cluster::new(cfg.clone()), &trace);

    for shard in 0..cfg.shards {
        let sub_trace = admitted_sub_trace(&trace, &report.outcomes, shard);
        // The sub-trace holds only what the shard admitted, so a standalone single-shard
        // cluster over it sheds nothing and reproduces the same answers and ticks.
        let mut solo_cfg = cfg.clone();
        solo_cfg.shards = 1;
        let solo = run(&Cluster::new(solo_cfg), &sub_trace);
        assert!(solo.sheds.is_empty(), "shard {shard}: replaying admitted requests cannot shed");
        assert_eq!(
            solo.shard_reports[0].to_json().to_pretty(),
            report.shard_reports[shard].to_json().to_pretty(),
            "shard {shard} diverged from a standalone single-shard cluster"
        );
    }
}

#[test]
fn single_shard_cluster_equals_the_bare_engine() {
    let cfg = ClusterConfig { queue_cap: 1_000, ..config(1, RoutingPolicy::LeastLoaded) };
    let trace = bursty_trace(30);
    let report = run(&Cluster::new(cfg.clone()), &trace);
    assert!(report.sheds.is_empty(), "an unbounded single shard admits everything");
    let solo = bare_engine(&cfg, 3).run(&trace);
    assert_eq!(solo.to_json().to_pretty(), report.shard_reports[0].to_json().to_pretty());
    assert_eq!(solo.latencies, report.latencies);
    assert_eq!(solo.makespan_ticks, report.makespan_ticks);
}

// ---------------------------------------------------------------------------------------------
// 3. Golden events: every shed and escalation pinned to its exact tick
// ---------------------------------------------------------------------------------------------

/// The fixed adversarial scenario the golden values below were captured from: two 20-request
/// spikes into a 3-shard two-tier cluster (2 low shards + 1 high shard) with cap-3 queues.
fn golden_scenario() -> (Vec<InferRequest>, Cluster) {
    let trace = WorkloadSpec::uniform(40, 5, 2, 909)
        .with_arrival(ArrivalProcess::Adversarial { spike: 20 })
        .generate(&spec());
    let routing =
        RoutingPolicy::TwoTier { low_samples: 1, high_samples: 6, entropy_threshold: 1.0 };
    (trace, Cluster::new(config(3, routing)))
}

/// `request@tick>shard:reason`, space-separated, in decision order. Each spike of 20 lands on
/// one tick; with cap-3 queues the two low shards admit 3 requests each and shed the other 14
/// at the spike tick itself.
const GOLDEN_SHEDS: &str = "6@0>0:queue_full 7@0>0:queue_full 8@0>0:queue_full \
     9@0>0:queue_full 10@0>0:queue_full 11@0>0:queue_full 12@0>0:queue_full 13@0>0:queue_full \
     14@0>0:queue_full 15@0>0:queue_full 16@0>0:queue_full 17@0>0:queue_full 18@0>0:queue_full \
     19@0>0:queue_full 26@100>0:queue_full 27@100>0:queue_full 28@100>0:queue_full \
     29@100>0:queue_full 30@100>0:queue_full 31@100>0:queue_full 32@100>0:queue_full \
     33@100>0:queue_full 34@100>0:queue_full 35@100>0:queue_full 36@100>0:queue_full \
     37@100>0:queue_full 38@100>0:queue_full 39@100>0:queue_full";

/// `request@tick:admitted`, space-separated, in decision order. Every low-pass answer of each
/// spike completes on one tick (both low shards' batches end together), every answer crosses
/// the 1-nat threshold, and the cap-3 high shard admits the first 3 — the second wave arrives
/// at tick 188 while the first wave's high batch still runs (ends at 248), so it is shed and
/// falls back to its low-tier answers.
const GOLDEN_ESCALATIONS: &str = "0@88:true 1@88:true 2@88:true 3@88:false 4@88:false \
     5@88:false 20@188:false 21@188:false 22@188:false 23@188:false 24@188:false 25@188:false";

const GOLDEN_EVENTS_DIGEST: &str = "49373f27cdfa2eb3";
const GOLDEN_RESPONSES_DIGEST: &str = "e6cffdb989d73aba";

#[test]
fn golden_sheds_and_escalations_land_on_pinned_ticks() {
    let (trace, cluster) = golden_scenario();
    let report = run(&cluster, &trace);

    let sheds = report
        .sheds
        .iter()
        .map(|s| format!("{}@{}>{}:{}", s.request, s.tick, s.shard, s.reason.label()))
        .collect::<Vec<_>>()
        .join(" ");
    let escalations = report
        .escalations
        .iter()
        .map(|e| format!("{}@{}:{}", e.request, e.tick, e.admitted))
        .collect::<Vec<_>>()
        .join(" ");

    assert!(!report.sheds.is_empty(), "the spikes must shed");
    assert!(!report.escalations.is_empty(), "the threshold must escalate");
    assert_eq!(sheds, GOLDEN_SHEDS, "shed schedule drifted");
    assert_eq!(escalations, GOLDEN_ESCALATIONS, "escalation schedule drifted");
    assert_eq!(report.events_digest(), GOLDEN_EVENTS_DIGEST);
    assert_eq!(report.responses_digest(), GOLDEN_RESPONSES_DIGEST);
}

#[test]
fn golden_scenario_is_worker_and_rerun_invariant() {
    let (trace, cluster) = golden_scenario();
    let first = run(&cluster, &trace);
    let mut pooled_cfg = cluster.config().clone();
    pooled_cfg.workers_per_shard = 3;
    let second = run(&Cluster::new(pooled_cfg), &trace);
    assert_eq!(first.events_digest(), second.events_digest());
    assert_eq!(first.responses_digest(), second.responses_digest());
}
