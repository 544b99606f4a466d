//! `cluster_bench`: drives the deterministic cluster simulator across (routing policy ×
//! arrival process) with real per-shard engines, re-runs the grid at a different per-shard
//! worker count and asserts the two passes are **byte-identical**, then plans the
//! large-trace stress arm (phase A only, autoscaling enabled) where p999 is a meaningful
//! tail statistic. Emits:
//!
//! * `BENCH_cluster.json` — the full record, including machine-dependent wall clocks (a CI
//!   artifact, not committed);
//! * `BENCH_cluster_summary.json` — the deterministic tick-domain scalars (p50/p95/p99/p999,
//!   shed rate, escalation rate, event + response digests per grid point; the committed
//!   regression baseline, checked by `bench_regression` and the golden suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin cluster_bench -- [--reduced]
//! [--out PATH] [--summary PATH]`

use std::time::Instant;

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::cluster_views::{
    cluster_request_count, cluster_summary_json, run_cluster_grid, run_cluster_stress,
    stress_request_count,
};
use shift_bnn_bench::harness::{two_passes, Outputs};
use shift_bnn_bench::{num, percent, print_table};

fn main() {
    let outputs = Outputs::grid("cluster", std::env::args().skip(1));
    println!(
        "cluster grid: 12 configs (3 routing policies x 4 arrival processes), {} requests \
         each on 4 shards; stress arm: 4 plan-only configs, {} requests each",
        cluster_request_count(outputs.reduced),
        stress_request_count(outputs.reduced),
    );

    let passes = two_passes(
        |workers| run_cluster_grid(outputs.reduced, workers),
        |grid| {
            grid.iter()
                .map(|(config, report)| {
                    let label = format!("{} x {}", config.routing.label(), config.arrival.label());
                    (label, report.to_json().to_compact())
                })
                .collect()
        },
    );
    let grid = &passes.results;

    // Stress arm: phase-A planning only, so its cost is routing arithmetic, not inference.
    let stress_start = Instant::now();
    let stress = run_cluster_stress(outputs.reduced);
    println!("stress plan: {} ms", num(stress_start.elapsed().as_nanos() as f64 / 1e6, 1));

    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|(config, report)| {
            vec![
                config.routing.label().to_string(),
                config.arrival.label().to_string(),
                report.answered().to_string(),
                percent(report.shed_rate()),
                percent(report.escalation_rate()),
                report.latency_percentile(0.50).to_string(),
                report.latency_percentile(0.95).to_string(),
                report.latency_percentile(0.99).to_string(),
                report.latency_percentile(0.999).to_string(),
            ]
        })
        .collect();
    print_table(
        "Cluster serving (simulated ticks; 4 shards, cap-32 queues)",
        &["routing", "arrival", "answered", "shed", "escal", "p50", "p95", "p99", "p999"],
        &rows,
    );

    let stress_rows: Vec<Vec<String>> = stress
        .iter()
        .map(|(config, plan)| {
            vec![
                config.routing.label().to_string(),
                config.arrival.label().to_string(),
                plan.outcomes.len().to_string(),
                percent(plan.shed_rate()),
                plan.latency_percentile(0.99).to_string(),
                plan.latency_percentile(0.999).to_string(),
                plan.scale_events.len().to_string(),
                plan.scale_events.iter().map(|e| e.active).max().unwrap_or(1).to_string(),
            ]
        })
        .collect();
    print_table(
        "Stress arm (plan-only, autoscaling 1..4 shards)",
        &["routing", "arrival", "requests", "shed", "p99", "p999", "scalings", "peak"],
        &stress_rows,
    );

    let summary = cluster_summary_json(grid, &stress, outputs.reduced);
    let runs = Json::Array(grid.iter().map(|(_, report)| report.to_json()).collect());
    outputs.write_grid(&passes, [("summary", summary.clone()), ("runs", runs)], &summary);
}
