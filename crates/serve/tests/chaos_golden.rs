//! Golden chaos scenario: the exact tick of every failover retry, every degradation-ladder
//! transition, the checkpoint-corruption cancellation, and the post-recovery drain of one
//! fixed adversarial fault schedule is hardcoded below — any change to the fault loop's
//! event ordering, the backoff arithmetic, the ladder thresholds, or the eviction boundary
//! trips it (the chaos analogue of `cluster_determinism`'s shed/escalation golden).
//!
//! The scenario packs every fault type into one run: a crash that evicts an open batch
//! (spawning retries), a slow window on the surviving shard (driving the ladder through
//! reduced-samples into moment mode), a corrupt checkpoint that cancels one of two
//! scheduled hot-swaps, and a recovery that drains the backlog back to normal.

use bnn_obs::NullRecorder;
use bnn_serve::{
    ArrivalProcess, BatchPolicy, Cluster, ClusterConfig, DegradeLadder, FaultEvent, FaultPlan,
    InferRequest, ModelSource, ModelSpec, RetryPolicy, RoutingPolicy, ServeMode, ShardSwap,
    VersionSwap, WorkloadSpec,
};

const WEIGHT_SEED: u64 = 2021;
const SWAP_SEED: u64 = 3031;

fn spec() -> ModelSpec {
    ModelSpec::mlp(WEIGHT_SEED)
}

/// The fixed chaos scenario the golden values below were captured from: 96 bursty requests
/// into a 2-shard least-loaded cluster; shard 0 crashes at tick 100 (evicting its open
/// batch into backoff retries) and recovers at tick 300; shard 1 runs 3× slow from tick
/// 200 to 900 (pushing cluster pressure through the ladder); a corrupt checkpoint at tick
/// 500 cancels shard 1's scheduled hot-swap while shard 0's swap at the same tick lands
/// after its recovery.
fn chaos_scenario() -> (Vec<InferRequest>, Cluster, Vec<ShardSwap>, FaultPlan) {
    let trace = WorkloadSpec::uniform(96, 6, 4, 909)
        .with_arrival(ArrivalProcess::Bursty { mean_burst: 6 })
        .generate(&spec());
    let cluster = Cluster::new(ClusterConfig {
        source: ModelSource::Spec(spec()),
        mode: ServeMode::MonteCarlo,
        shards: 2,
        workers_per_shard: 1,
        batch: BatchPolicy { max_batch: 4, max_wait_ticks: 8 },
        queue_cap: 10,
        deadline_ticks: None,
        routing: RoutingPolicy::LeastLoaded,
        autoscale: None,
    });
    let swaps = vec![
        ShardSwap {
            shard: 0,
            swap: VersionSwap {
                at_tick: 500,
                source: ModelSource::Spec(ModelSpec::mlp(SWAP_SEED)),
            },
        },
        ShardSwap {
            shard: 1,
            swap: VersionSwap {
                at_tick: 500,
                source: ModelSource::Spec(ModelSpec::mlp(SWAP_SEED)),
            },
        },
    ];
    let faults = FaultPlan::new(vec![
        FaultEvent::ShardDown { tick: 100, shard: 0 },
        FaultEvent::SlowShard { shard: 1, from_tick: 200, until_tick: 900, multiplier: 3 },
        FaultEvent::ShardUp { tick: 300, shard: 0 },
        FaultEvent::CorruptCheckpoint { tick: 500, shard: 1 },
    ])
    .with_retry(RetryPolicy { base_backoff_ticks: 32, max_backoff_ticks: 128, max_retries: 2 })
    .with_ladder(DegradeLadder {
        reduced_samples: 1,
        reduce_watermark: 2,
        moment_watermark: 5,
        shed_watermark: 9,
    });
    (trace, cluster, swaps, faults)
}

/// `request@failed>retry:attempt(shard)`, space-separated, in schedule order. The crash at
/// tick 100 evicts request 16 from shard 0's open batch; it re-enters the router 32 ticks
/// later (first backoff step) on its first retry attempt.
const GOLDEN_RETRIES: &str = "16@100>132:1(0)";

/// `tick:from>to@backlog`, space-separated, in transition order. The opening burst already
/// trips the reduce watermark at tick 0; the crash (one live shard halves the thresholds)
/// and the 3x slow window push the ladder to moment and shed; the recovery at tick 300
/// doubles the live capacity and the ladder steps back up, oscillating with the bursts
/// until the backlog drains (the ladder is a pure per-submission threshold, no hysteresis).
const GOLDEN_DEGRADES: &str = "0:normal>reduced_samples@4 41:reduced_samples>moment@10 \
     97:moment>shed@18 132:shed>moment@6 149:moment>shed@9 263:shed>moment@5 \
     263:moment>shed@9 314:shed>reduced_samples@9 314:reduced_samples>moment@10 \
     341:moment>shed@18 459:shed>moment@13 459:moment>shed@18 553:shed>moment@14";

/// `tick>shard:cancelled`, space-separated: the corrupt checkpoint on shard 1 cancels its
/// one scheduled swap; shard 0's identical swap is untouched.
const GOLDEN_CHECKPOINT_FAULTS: &str = "500>1:1";

const GOLDEN_FAULT_EVENTS_DIGEST: &str = "55559b4910bd057a";
const GOLDEN_EVENTS_DIGEST: &str = "b0c776c988b37a41";
const GOLDEN_RESPONSES_DIGEST: &str = "43ba850c32cd9446";

#[test]
fn golden_chaos_events_land_on_pinned_ticks() {
    let (trace, cluster, swaps, faults) = chaos_scenario();
    let report = cluster.run_traced(&trace, &swaps, &faults, &mut NullRecorder);

    let retries = report
        .faults
        .retries
        .iter()
        .map(|r| {
            let shard = r.shard.map(|s| s.to_string()).unwrap_or_else(|| "none".to_string());
            format!("{}@{}>{}:{}({})", r.request, r.failed_tick, r.retry_tick, r.attempt, shard)
        })
        .collect::<Vec<_>>()
        .join(" ");
    let degrades = report
        .faults
        .degrades
        .iter()
        .map(|d| format!("{}:{}>{}@{}", d.tick, d.from.label(), d.to.label(), d.backlog))
        .collect::<Vec<_>>()
        .join(" ");
    let checkpoint_faults = report
        .faults
        .checkpoint_faults
        .iter()
        .map(|c| format!("{}>{}:{}", c.tick, c.shard, c.cancelled_swaps))
        .collect::<Vec<_>>()
        .join(" ");

    assert!(!report.faults.retries.is_empty(), "the crash must evict an open batch");
    assert!(!report.faults.degrades.is_empty(), "the slow window must move the ladder");
    assert_eq!(retries, GOLDEN_RETRIES, "retry schedule drifted");
    assert_eq!(degrades, GOLDEN_DEGRADES, "degradation schedule drifted");
    assert_eq!(checkpoint_faults, GOLDEN_CHECKPOINT_FAULTS, "corruption schedule drifted");
    assert_eq!(report.fault_events_digest(), GOLDEN_FAULT_EVENTS_DIGEST);
    assert_eq!(report.events_digest(), GOLDEN_EVENTS_DIGEST);
    assert_eq!(report.responses_digest(), GOLDEN_RESPONSES_DIGEST);

    // The cancelled swap never activates on shard 1; shard 0's swap (scheduled during its
    // downtime) lands once it recovers and serves again.
    assert!(report.shard_reports[1].batches.iter().all(|b| b.version == 0));
    assert!(report.shard_reports[0].batches.iter().any(|b| b.version == 1));
    // Conservation holds even here.
    assert_eq!(report.answered() + report.sheds.len(), report.submitted());
}

#[test]
fn golden_chaos_plan_matches_the_run_batch_for_batch() {
    let (trace, cluster, swaps, faults) = chaos_scenario();
    let plan = cluster.plan_with_faults(&trace, &swaps, &faults);
    let report = cluster.run_traced(&trace, &swaps, &faults, &mut NullRecorder);
    assert_eq!(plan.outcomes, report.outcomes);
    assert_eq!(plan.latencies, report.latencies);
    assert_eq!(plan.makespan_ticks, report.makespan_ticks);
    assert_eq!(plan.faults, report.faults);
    for (shard, (&planned, engine)) in
        plan.batches_per_shard.iter().zip(&report.shard_reports).enumerate()
    {
        assert_eq!(
            planned,
            engine.batches.len(),
            "shard {shard}: phase A and phase B must agree on batch count"
        );
    }
}

#[test]
fn golden_chaos_scenario_is_worker_and_rerun_invariant() {
    let (trace, cluster, swaps, faults) = chaos_scenario();
    let first = cluster.run_traced(&trace, &swaps, &faults, &mut NullRecorder);
    let mut pooled_cfg = cluster.config().clone();
    pooled_cfg.workers_per_shard = 3;
    let second = Cluster::new(pooled_cfg).run_traced(&trace, &swaps, &faults, &mut NullRecorder);
    assert_eq!(first.to_json().to_compact(), second.to_json().to_compact());
    assert_eq!(first.fault_events_digest(), second.fault_events_digest());
    assert_eq!(first.responses_digest(), second.responses_digest());
}
