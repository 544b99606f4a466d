//! The `serve_bench` configuration grid and its deterministic summary.
//!
//! Mirrors the relationship between `sweep_all` and `sweep::summary`: the binary drives the
//! grid and measures wall clocks; this module owns what the grid *is* and which scalars are
//! deterministic enough to commit (`BENCH_serve_summary.json`) and regression-check — the
//! tick-domain latency statistics, batching speedups, and a digest of every response byte.
//! Wall-clock throughput never enters the summary.

use bnn_models::ModelKind;
use bnn_serve::{
    BatchPolicy, EngineSpec, InferenceEngine, ModelSpec, ServeRunReport, WorkloadSpec,
};
use shift_bnn::sweep::json::Json;

/// Weight seed of the frozen posteriors every serve benchmark builds.
pub const SERVE_WEIGHT_SEED: u64 = 2021;

/// Workload seed of the synthetic open-loop traces.
pub const SERVE_WORKLOAD_SEED: u64 = 7;

/// Ticks between arrivals: dense enough that coalescing policies actually coalesce.
pub const SERVE_INTERARRIVAL_TICKS: u64 = 2;

/// The model families the serve grid exercises (the two with distinct proxy architectures).
pub const SERVE_MODELS: [ModelKind; 2] = [ModelKind::Mlp, ModelKind::LeNet];

/// The Monte-Carlo sample counts the serve grid sweeps.
pub const SERVE_SAMPLES: [usize; 3] = [1, 4, 16];

/// The batching policies the serve grid sweeps; index 0 is the unbatched baseline that the
/// batched-vs-unbatched speedups are normalized against.
pub fn serve_policies() -> [BatchPolicy; 3] {
    [
        BatchPolicy::unbatched(),
        BatchPolicy { max_batch: 4, max_wait_ticks: 16 },
        BatchPolicy { max_batch: 16, max_wait_ticks: 64 },
    ]
}

/// One point of the serve grid: (model × S × batch policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// The served model family.
    pub kind: ModelKind,
    /// Monte-Carlo sample count every request asks for.
    pub samples: usize,
    /// The engine's batching policy.
    pub policy: BatchPolicy,
}

impl ServeConfig {
    /// The frozen-posterior spec this config serves.
    pub fn spec(&self) -> ModelSpec {
        ModelSpec::for_kind(self.kind, SERVE_WEIGHT_SEED)
    }

    /// The open-loop trace this config is driven with.
    pub fn workload(&self, requests: usize) -> WorkloadSpec {
        WorkloadSpec::uniform(requests, SERVE_INTERARRIVAL_TICKS, self.samples, SERVE_WORKLOAD_SEED)
    }
}

/// Enumerates the full serve grid, model-major then samples then policy — the order the
/// summary's records are committed in.
pub fn serve_configs() -> Vec<ServeConfig> {
    let mut configs = Vec::new();
    for &kind in &SERVE_MODELS {
        for &samples in &SERVE_SAMPLES {
            for policy in serve_policies() {
                configs.push(ServeConfig { kind, samples, policy });
            }
        }
    }
    configs
}

/// Requests per config: the full grid's trace length, or the CI-reduced one.
pub fn serve_request_count(reduced: bool) -> usize {
    if reduced {
        24
    } else {
        96
    }
}

/// Runs every grid config on `workers` pool threads and returns `(config, report)` pairs in
/// grid order. Every value a report carries except the recorded worker count is
/// worker-invariant, so any `workers` reproduces the committed summary.
pub fn run_serve_grid(reduced: bool, workers: usize) -> Vec<(ServeConfig, ServeRunReport)> {
    let requests = serve_request_count(reduced);
    serve_configs()
        .into_iter()
        .map(|config| {
            let spec = config.spec();
            let trace = config.workload(requests).generate(&spec);
            let engine = InferenceEngine::build(
                EngineSpec::new(spec).policy(config.policy).workers(workers),
            );
            let report = engine.run(&trace);
            (config, report)
        })
        .collect()
}

/// The simulated batched-vs-unbatched speedup of each grid point: its unbatched sibling's
/// makespan over its own (1.0 for the unbatched baseline itself).
pub fn speedup_vs_unbatched(results: &[(ServeConfig, ServeRunReport)], index: usize) -> f64 {
    let (config, report) = &results[index];
    let baseline = results
        .iter()
        .find(|(c, _)| {
            c.kind == config.kind && c.samples == config.samples && c.policy.max_batch == 1
        })
        .expect("every (model, S) slice contains the unbatched baseline");
    baseline.1.makespan_ticks as f64 / report.makespan_ticks as f64
}

/// Builds the deterministic summary document from a grid run — the committed
/// `BENCH_serve_summary.json` regression baseline.
pub fn serve_summary_json(results: &[(ServeConfig, ServeRunReport)], reduced: bool) -> Json {
    let records: Vec<Json> = results
        .iter()
        .enumerate()
        .map(|(i, (config, report))| {
            Json::obj([
                ("model", Json::Str(report.model.clone())),
                ("samples", Json::UInt(config.samples as u64)),
                ("policy", Json::Str(config.policy.label())),
                ("batches", Json::UInt(report.batches.len() as u64)),
                ("mean_batch_size", Json::Float(report.mean_batch_size())),
                ("makespan_ticks", Json::UInt(report.makespan_ticks)),
                ("p50_ticks", Json::UInt(report.latency_percentile(0.50))),
                ("p95_ticks", Json::UInt(report.latency_percentile(0.95))),
                ("p99_ticks", Json::UInt(report.latency_percentile(0.99))),
                ("throughput_per_kilotick", Json::Float(report.throughput_per_kilotick())),
                ("speedup_vs_unbatched_sim", Json::Float(speedup_vs_unbatched(results, i))),
                ("responses_digest", Json::Str(report.responses_digest())),
            ])
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("shift-bnn-serve-summary/v1".into())),
        ("reduced", Json::Bool(reduced)),
        (
            "workload",
            Json::obj([
                ("requests", Json::UInt(serve_request_count(reduced) as u64)),
                ("interarrival_ticks", Json::UInt(SERVE_INTERARRIVAL_TICKS)),
                ("seed", Json::UInt(SERVE_WORKLOAD_SEED)),
                ("weight_seed", Json::UInt(SERVE_WEIGHT_SEED)),
            ]),
        ),
        ("records", Json::Array(records)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_model_major() {
        let configs = serve_configs();
        assert_eq!(configs.len(), 2 * 3 * 3);
        assert_eq!(configs[0].kind, ModelKind::Mlp);
        assert_eq!(configs[0].policy.max_batch, 1, "unbatched baseline leads each slice");
        assert_eq!(configs[9].kind, ModelKind::LeNet);
    }

    #[test]
    fn reduced_grid_summary_is_worker_invariant() {
        let a = serve_summary_json(&run_serve_grid(true, 1), true);
        let b = serve_summary_json(&run_serve_grid(true, 3), true);
        assert_eq!(a.to_pretty(), b.to_pretty());
    }

    #[test]
    fn batched_policies_beat_the_unbatched_baseline_in_sim() {
        let results = run_serve_grid(true, 2);
        for (i, (config, _)) in results.iter().enumerate() {
            let speedup = speedup_vs_unbatched(&results, i);
            if config.policy.max_batch == 1 {
                assert_eq!(speedup, 1.0);
            } else {
                assert!(
                    speedup > 1.0,
                    "{} S={} {}: no simulated batching speedup ({speedup})",
                    config.kind.paper_name(),
                    config.samples,
                    config.policy.label()
                );
            }
        }
    }
}
