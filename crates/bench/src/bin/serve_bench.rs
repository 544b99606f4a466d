//! `serve_bench`: drives the batched Monte-Carlo inference engine with a seeded synthetic
//! open-loop workload across (model × S × batch policy), each config once on a single worker
//! and once on the work-stealing pool, asserts the two runs' responses are **byte-identical**,
//! and emits:
//!
//! * `BENCH_serve.json` — the full record, including machine-dependent wall clocks (a CI
//!   artifact, not committed);
//! * `BENCH_serve_summary.json` — the deterministic tick-domain scalars plus a response
//!   digest (the committed regression baseline, checked by `bench_regression` and the golden
//!   suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin serve_bench -- [--reduced]
//! [--out PATH] [--summary PATH]`

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::harness::{two_passes, Outputs};
use shift_bnn_bench::serve_views::{
    run_serve_grid, serve_configs, serve_request_count, serve_summary_json, speedup_vs_unbatched,
};
use shift_bnn_bench::{num, print_table, ratio};

fn main() {
    let outputs = Outputs::grid("serve", std::env::args().skip(1));
    println!(
        "serve grid: {} configs (2 models x 3 sample counts x 3 policies), {} requests each",
        serve_configs().len(),
        serve_request_count(outputs.reduced),
    );

    let passes = two_passes(
        |workers| run_serve_grid(outputs.reduced, workers),
        |grid| {
            grid.iter()
                .map(|(config, report)| {
                    let label = format!(
                        "{} S={} {}",
                        config.kind.paper_name(),
                        config.samples,
                        config.policy.label()
                    );
                    (label, report.responses_json())
                })
                .collect()
        },
    );
    let results = &passes.results;

    let rows: Vec<Vec<String>> = results
        .iter()
        .enumerate()
        .map(|(i, (config, report))| {
            vec![
                report.model.clone(),
                config.samples.to_string(),
                config.policy.label(),
                report.batches.len().to_string(),
                num(report.mean_batch_size(), 2),
                report.latency_percentile(0.50).to_string(),
                report.latency_percentile(0.95).to_string(),
                report.latency_percentile(0.99).to_string(),
                num(report.throughput_per_kilotick(), 2),
                ratio(speedup_vs_unbatched(results, i)),
            ]
        })
        .collect();
    print_table(
        "Batched Monte-Carlo serving (simulated ticks; speedup vs unbatched policy)",
        &[
            "model",
            "S",
            "policy",
            "batches",
            "avg size",
            "p50",
            "p95",
            "p99",
            "req/ktick",
            "speedup",
        ],
        &rows,
    );

    let summary = serve_summary_json(results, outputs.reduced);
    let runs = Json::Array(results.iter().map(|(_, report)| report.to_json()).collect());
    outputs.write_grid(&passes, [("summary", summary.clone()), ("runs", runs)], &summary);
}
