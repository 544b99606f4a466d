//! End-to-end integration tests spanning the whole workspace: LFSR → GRNG → BNN training →
//! workload → accelerator simulation → checkpoint store → cluster serving, exercised through
//! the public APIs only.

use bnn_models::workload::ModelVolume;
use bnn_models::ModelKind;
use bnn_obs::NullRecorder;
use bnn_serve::{
    BatchPolicy, Cluster, ClusterConfig, EngineSpec, FaultEvent, FaultPlan, InferenceEngine,
    RequestOutcome, RetryPolicy, RoutingPolicy, ServeMode, ShardSwap, VersionSwap, WorkloadSpec,
};
use bnn_store::{Checkpoint, ModelRegistry};
use bnn_train::data::SyntheticDataset;
use bnn_train::network::Network;
use bnn_train::trainer::{EpsilonStrategy, Trainer, TrainerConfig};
use bnn_train::variational::BayesConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shift_bnn::compare::DesignComparison;
use shift_bnn::designs::DesignKind;
use shift_bnn::evaluate::{evaluate, evaluate_gpu};
use shift_bnn::scalability::{sweep_samples, FIG13_SAMPLE_COUNTS};

/// The paper's headline claim chain, end to end: training with LFSR retrieval is bit-exact, and
/// the accelerator built around it eliminates all ε traffic, which translates into energy,
/// latency, efficiency and footprint wins on every model.
#[test]
fn headline_claims_hold_end_to_end() {
    // Algorithmic side: bit-exact training on a small B-LeNet-style network.
    let dataset = SyntheticDataset::generate(&[1, 8, 8], 3, 6, 0.2, 5);
    let mut trainers: Vec<Trainer> = [EpsilonStrategy::StoreReplay, EpsilonStrategy::LfsrRetrieve]
        .into_iter()
        .map(|strategy| {
            let mut rng = StdRng::seed_from_u64(17);
            let network = Network::bayes_lenet(&[1, 8, 8], 3, BayesConfig::default(), &mut rng);
            Trainer::new(
                network,
                TrainerConfig { samples: 2, learning_rate: 0.05, strategy, seed: 23 },
            )
            .unwrap()
        })
        .collect();
    for _ in 0..3 {
        let a = trainers[0].train_epoch(&dataset).unwrap();
        let b = trainers[1].train_epoch(&dataset).unwrap();
        assert_eq!(a, b);
    }
    assert_eq!(trainers[1].stored_epsilons(), 0);

    // Architectural side: every model wins on every headline metric at S = 16.
    for kind in ModelKind::all() {
        let model = kind.bnn();
        let cmp = DesignComparison::run(&model, 16, &DesignKind::all());
        let rc = cmp.of(DesignKind::RcAcc);
        let shift = cmp.of(DesignKind::ShiftBnn);
        assert_eq!(shift.report.dram_traffic.epsilon, 0, "{}", kind.paper_name());
        assert!(rc.report.dram_traffic.epsilon > 0);
        assert!(shift.energy_mj() < rc.energy_mj());
        assert!(shift.latency_s() <= rc.latency_s());
        assert!(shift.gops_per_watt() > rc.gops_per_watt());
        assert!(shift.footprint_bytes() < rc.footprint_bytes());
    }
}

/// The simulator's ε traffic is consistent with the workload accounting: the baseline moves
/// 3 × S × weights ε values (store + two fetches) and the Shift designs move none.
#[test]
fn epsilon_traffic_matches_workload_accounting() {
    for kind in [ModelKind::Mlp, ModelKind::LeNet, ModelKind::Vgg16] {
        let model = kind.bnn();
        let samples = 16;
        let volume = ModelVolume::for_model(&model, samples);
        let baseline = evaluate(DesignKind::RcAcc, &model, samples);
        assert_eq!(
            baseline.report.dram_traffic.epsilon,
            3 * volume.total_epsilon_values(),
            "{}",
            kind.paper_name()
        );
        let shift = evaluate(DesignKind::ShiftBnn, &model, samples);
        assert_eq!(shift.report.dram_traffic.epsilon, 0);
    }
}

/// Scalability: the benefit grows with the sample count, and at every point Shift-BNN is at
/// least as efficient as MNShift-Acc (Fig. 13's two claims).
#[test]
fn scalability_trends_match_figure_13() {
    let points = sweep_samples(&ModelKind::LeNet.bnn(), &FIG13_SAMPLE_COUNTS);
    assert!(
        points.first().unwrap().shift_energy_reduction
            < points.last().unwrap().shift_energy_reduction
    );
    for p in &points {
        assert!(p.shift_efficiency >= p.mnshift_efficiency);
    }
}

/// The GPU comparison point behaves like the paper describes: it can beat the baseline
/// accelerator on the large models, but Shift-BNN still beats it on energy efficiency.
#[test]
fn gpu_comparison_matches_figure_12_shape() {
    for kind in ModelKind::all() {
        let model = kind.bnn();
        let (gpu, gpu_report) = evaluate_gpu(&model, 16);
        let shift = evaluate(DesignKind::ShiftBnn, &model, 16);
        let gpu_eff = gpu_report.gops_per_watt(gpu.sustained_power_w);
        assert!(
            shift.gops_per_watt() > gpu_eff,
            "{}: Shift-BNN {} vs GPU {}",
            kind.paper_name(),
            shift.gops_per_watt(),
            gpu_eff
        );
    }
}

/// The serving lifecycle at cluster scale: train a posterior, publish two versions to the
/// [`ModelRegistry`], serve the registry-loaded v1 through the sharded cluster router, and
/// hot-swap one shard to v2 mid-trace. The swapped shard must behave exactly like a
/// standalone engine hot-swapped by [`InferenceEngine::run_traced`] over the sub-trace the
/// router admitted to it — same answers before the swap boundary, same answers after, same
/// batch versioning.
#[test]
fn cluster_serves_registry_versions_across_a_hot_swap() {
    const INPUT: [usize; 3] = [1, 8, 8];

    // Train v1, publish, keep training, publish v2.
    let dataset = SyntheticDataset::generate(&INPUT, 3, 4, 0.2, 31);
    let mut rng = StdRng::seed_from_u64(67);
    let network = Network::bayes_lenet(&INPUT, 3, BayesConfig::default(), &mut rng);
    let mut trainer = Trainer::new(
        network,
        TrainerConfig { samples: 2, learning_rate: 0.05, ..TrainerConfig::default() },
    )
    .unwrap();
    trainer.train_epoch(&dataset).unwrap();
    let root = std::path::Path::new("target/tmp/end_to_end-cluster-registry");
    let _ = std::fs::remove_dir_all(root);
    let registry = ModelRegistry::open(root).unwrap();
    let v1 = registry.publish("blenet", &Checkpoint::from_trainer(&trainer)).unwrap();
    trainer.train_epoch(&dataset).unwrap();
    let v2 = registry.publish("blenet", &Checkpoint::from_trainer(&trainer)).unwrap();
    assert!(v2 > v1);

    // Serve v1 on a 2-shard cluster; shard 1 hot-swaps to v2 mid-trace.
    let (_, v1_source) = registry.serve_source("blenet", Some(v1), INPUT.to_vec()).unwrap();
    let (_, v2_source) = registry.serve_source("blenet", Some(v2), INPUT.to_vec()).unwrap();
    let trace = WorkloadSpec::uniform(18, 4, 3, 77).generate_for_shape(&INPUT);
    let batch = BatchPolicy { max_batch: 3, max_wait_ticks: 6 };
    let swap_tick = 90;
    let cluster = Cluster::new(ClusterConfig {
        source: v1_source.clone(),
        mode: ServeMode::MonteCarlo,
        shards: 2,
        workers_per_shard: 2,
        batch,
        queue_cap: 64, // roomy: this test is about versioning, not shedding
        deadline_ticks: None,
        routing: RoutingPolicy::LeastLoaded,
        autoscale: None,
    });
    let swaps = [ShardSwap {
        shard: 1,
        swap: VersionSwap { at_tick: swap_tick, source: v2_source.clone() },
    }];
    let report = cluster.run_traced(&trace, &swaps, &FaultPlan::none(), &mut NullRecorder);
    assert!(report.sheds.is_empty(), "nothing sheds under a cap of 64");

    // The un-swapped shard serves v1 throughout; the swapped one crosses the boundary.
    assert!(report.shard_reports[0].batches.iter().all(|b| b.version == 0));
    let versions: Vec<usize> = report.shard_reports[1].batches.iter().map(|b| b.version).collect();
    assert!(versions.contains(&0) && versions.contains(&1), "swap must land mid-trace");
    for batch_stat in &report.shard_reports[1].batches {
        let expected = usize::from(batch_stat.start_tick >= swap_tick);
        assert_eq!(batch_stat.version, expected, "version flips exactly at the swap boundary");
    }

    // The swapped shard answers exactly like a standalone engine over its routed sub-trace,
    // before and after the boundary alike.
    let sub_trace: Vec<_> = trace
        .iter()
        .zip(&report.outcomes)
        .filter_map(|(request, outcome)| match outcome {
            RequestOutcome::Answered { shard: 1, .. } => Some(request.clone()),
            _ => None,
        })
        .collect();
    assert!(!sub_trace.is_empty());
    let engine = InferenceEngine::build(EngineSpec::new(v1_source).policy(batch));
    let swaps = [VersionSwap { at_tick: swap_tick, source: v2_source }];
    let solo = engine.run_traced(&sub_trace, &swaps, &mut NullRecorder);
    assert_eq!(
        solo.to_json().to_pretty(),
        report.shard_reports[1].to_json().to_pretty(),
        "cluster shard 1 diverged from a standalone hot-swapped engine"
    );
}

/// The robustness chain end to end: train → publish v1 and v2, corrupt v2's bytes on disk,
/// and the registry's fallback serves v1 instead of failing; a 2-shard cluster built on
/// that fallback then rides out a mid-trace crash/recovery cycle with zero lost answers —
/// every evicted request is retried onto the surviving shard and answered.
#[test]
fn corrupt_checkpoint_falls_back_and_the_cluster_rides_out_a_crash() {
    const INPUT: [usize; 3] = [1, 8, 8];

    // Train v1, publish, keep training, publish v2 — then corrupt v2 at rest (bit-flip in
    // the middle of the payload, past the header so the checksum is what catches it).
    let dataset = SyntheticDataset::generate(&INPUT, 3, 4, 0.2, 31);
    let mut rng = StdRng::seed_from_u64(67);
    let network = Network::bayes_lenet(&INPUT, 3, BayesConfig::default(), &mut rng);
    let mut trainer = Trainer::new(
        network,
        TrainerConfig { samples: 2, learning_rate: 0.05, ..TrainerConfig::default() },
    )
    .unwrap();
    trainer.train_epoch(&dataset).unwrap();
    let root = std::path::Path::new("target/tmp/end_to_end-chaos-registry");
    let _ = std::fs::remove_dir_all(root);
    let registry = ModelRegistry::open(root).unwrap();
    let v1_checkpoint = Checkpoint::from_trainer(&trainer);
    let v1 = registry.publish("blenet", &v1_checkpoint).unwrap();
    trainer.train_epoch(&dataset).unwrap();
    let v2 = registry.publish("blenet", &Checkpoint::from_trainer(&trainer)).unwrap();
    let v2_path = registry.checkpoint_path("blenet", v2).unwrap();
    let mut bytes = std::fs::read(&v2_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(&v2_path, bytes).unwrap();

    // The registry skips the corrupt newest version and lands on v1 — and the un-pinned
    // serving path inherits exactly that fallback.
    let (version, loaded, skipped) = registry.load_latest_valid("blenet").unwrap();
    assert_eq!(version, v1);
    assert_eq!(skipped, vec![v2]);
    assert_eq!(loaded.digest(), v1_checkpoint.digest());
    let (served, source) = registry.serve_source("blenet", None, INPUT.to_vec()).unwrap();
    assert_eq!(served, v1, "serving must fall back to the last valid version");

    // Serve through a 2-shard cluster that loses shard 0 mid-trace and recovers it later.
    // The roomy queue and generous retry budget make downtime the only threat: the gate is
    // zero lost answers.
    let trace = WorkloadSpec::uniform(18, 4, 3, 77).generate_for_shape(&INPUT);
    let cluster = Cluster::new(ClusterConfig {
        source,
        mode: ServeMode::MonteCarlo,
        shards: 2,
        workers_per_shard: 2,
        batch: BatchPolicy { max_batch: 3, max_wait_ticks: 6 },
        queue_cap: 64,
        deadline_ticks: None,
        routing: RoutingPolicy::LeastLoaded,
        autoscale: None,
    });
    let faults = FaultPlan::new(vec![
        FaultEvent::ShardDown { tick: 20, shard: 0 },
        FaultEvent::ShardUp { tick: 48, shard: 0 },
    ])
    .with_retry(RetryPolicy { base_backoff_ticks: 8, max_backoff_ticks: 64, max_retries: 4 });
    let report = cluster.run_traced(&trace, &[], &faults, &mut NullRecorder);
    assert!(report.sheds.is_empty(), "a crash with retries and a roomy queue loses nothing");
    assert_eq!(report.answered(), report.submitted());
    assert!((report.availability() - 1.0).abs() < 1e-12);
    assert!(
        !report.faults.retries.is_empty(),
        "the crash at tick 20 must evict an open batch into failover"
    );
    for event in &report.faults.retries {
        assert_eq!(event.shard, Some(0), "only the crashed shard evicts");
    }
}

/// Full-model coverage: the four designs produce internally consistent reports (per-layer
/// latencies sum to the total, traffic fractions sum to one) for every paper model.
#[test]
fn reports_are_internally_consistent_for_all_models_and_designs() {
    for kind in ModelKind::all() {
        let model = kind.bnn();
        for design in DesignKind::all() {
            let evaluation = evaluate(design, &model, 8);
            let report = &evaluation.report;
            let layer_sum: u64 = report.layers.iter().map(|l| l.latency_cycles()).sum();
            assert_eq!(layer_sum, report.latency_cycles);
            let (w, e, f) = report.dram_traffic.fractions();
            assert!((w + e + f - 1.0).abs() < 1e-9);
            assert_eq!(report.layers.len(), model.layer_count());
            assert!(report.total_macs > 0);
        }
    }
}
