//! `moment_bench`: serves the same dense open-loop trace under S = 16 Monte-Carlo and under
//! the single-pass analytic moment backend for every zoo family, each config once on a
//! single worker and once on the work-stealing pool, asserts the two runs' responses are
//! **byte-identical**, and emits:
//!
//! * `BENCH_moment.json` — the full record, including machine-dependent wall clocks (a CI
//!   artifact, not committed);
//! * `BENCH_moment_summary.json` — the deterministic tick-domain scalars, response digests,
//!   per-family moment-vs-MC speedups and accuracy deviations (the committed regression
//!   baseline, checked by `bench_regression` and the golden suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin moment_bench -- [--reduced]
//! [--out PATH] [--summary PATH]`

use bnn_serve::ServeMode;
use shift_bnn::sweep::json::Json;
use shift_bnn_bench::harness::{two_passes, Outputs};
use shift_bnn_bench::moment_views::{
    entropy_deviation_vs_mc, mean_deviation_vs_mc, moment_configs, moment_request_count,
    moment_summary_json, run_moment_grid, speedup_vs_mc16,
};
use shift_bnn_bench::{num, print_table, ratio};

fn main() {
    let outputs = Outputs::grid("moment", std::env::args().skip(1));
    println!(
        "moment grid: {} configs (5 models x {{mc16, moment}}), {} requests each",
        moment_configs().len(),
        moment_request_count(outputs.reduced),
    );

    let passes = two_passes(
        |workers| run_moment_grid(outputs.reduced, workers),
        |grid| {
            grid.iter()
                .map(|(config, report)| {
                    let label = format!("{} {}", config.kind.paper_name(), config.mode.label());
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
            let (mean_dev, entropy_dev) = match config.mode {
                ServeMode::MonteCarlo => ("-".to_string(), "-".to_string()),
                ServeMode::Moment => {
                    let (_, mc) = &results[i - 1];
                    (
                        num(mean_deviation_vs_mc(mc, report), 4),
                        num(entropy_deviation_vs_mc(mc, report), 4),
                    )
                }
            };
            vec![
                report.model.clone(),
                config.mode.label().to_string(),
                report.batches.len().to_string(),
                report.makespan_ticks.to_string(),
                report.latency_percentile(0.50).to_string(),
                report.latency_percentile(0.99).to_string(),
                num(report.throughput_per_kilotick(), 2),
                ratio(speedup_vs_mc16(results, i)),
                mean_dev,
                entropy_dev,
            ]
        })
        .collect();
    print_table(
        "Analytic moment serving vs S=16 Monte-Carlo (simulated ticks; accuracy vs MC trace)",
        &[
            "model",
            "mode",
            "batches",
            "makespan",
            "p50",
            "p99",
            "req/ktick",
            "speedup",
            "mean dev",
            "entropy dev",
        ],
        &rows,
    );

    let summary = moment_summary_json(results, outputs.reduced);
    let runs = Json::Array(results.iter().map(|(_, report)| report.to_json()).collect());
    outputs.write_grid(&passes, [("summary", summary.clone()), ("runs", runs)], &summary);
}
