//! `chaos_bench`: drives the deterministic fault-injection grid — five fault scenarios
//! (healthy baseline, single crash with and without the degradation ladder, a slow shard,
//! and an everything-at-once crash storm) × the four arrival processes — on a 4-shard
//! Monte-Carlo cluster, re-runs the grid at a different per-shard worker count and asserts
//! the two passes are **byte-identical**, then checks the availability gates: ≥ 99% on the
//! single crash with the ladder armed, < 95% with it disarmed. Emits:
//!
//! * `BENCH_chaos.json` — the full record, including machine-dependent wall clocks and a
//!   `speedups.ladder_availability` ratio for the nightly `bench_regression` gate (a CI
//!   artifact, not committed);
//! * `BENCH_chaos_summary.json` — the deterministic tick-domain scalars (availability,
//!   retry counts, degradation-mode occupancy, p50–p999 tails, response/event/fault
//!   digests per grid point; the committed regression baseline, checked by
//!   `bench_regression` and the golden suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin chaos_bench -- [--reduced]
//! [--out PATH] [--summary PATH]`

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::chaos_views::{
    chaos_request_count, chaos_summary_json, grid_availability, run_chaos_grid,
};
use shift_bnn_bench::harness::{two_passes, Outputs};
use shift_bnn_bench::{num, percent, print_table};

fn main() {
    let outputs = Outputs::grid("chaos", std::env::args().skip(1));
    println!(
        "chaos grid: 20 configs (5 fault scenarios x 4 arrival processes), {} requests each \
         on 4 shards",
        chaos_request_count(outputs.reduced),
    );

    let passes = two_passes(
        |workers| run_chaos_grid(outputs.reduced, workers),
        |grid| {
            grid.iter()
                .map(|(config, report)| {
                    let label = format!("{} x {}", config.scenario.name, config.arrival.label());
                    (label, report.to_json().to_compact())
                })
                .collect()
        },
    );
    let grid = &passes.results;

    // The acceptance gates: the degradation ladder is what keeps a crashed cluster
    // answering. These hold in both full and reduced runs (the fault windows scale with
    // the trace), so CI enforces them on every invocation, not just nightly.
    let with_ladder = grid_availability(grid, "single_crash", "uniform");
    let without_ladder = grid_availability(grid, "single_crash_no_ladder", "uniform");
    assert!(
        with_ladder >= 0.99,
        "single-crash availability with the ladder must stay >= 99%, got {with_ladder}"
    );
    assert!(
        without_ladder < 0.95,
        "single-crash availability without the ladder should fall under 95%, got {without_ladder}"
    );
    let ladder_availability = with_ladder / without_ladder;

    let rows: Vec<Vec<String>> = grid
        .iter()
        .map(|(config, report)| {
            let (_, reduced_s, moment) = report.degrade_occupancy();
            vec![
                config.scenario.name.to_string(),
                config.arrival.label(),
                percent(report.availability()),
                report.faults.retries.len().to_string(),
                reduced_s.to_string(),
                moment.to_string(),
                report.latency_percentile(0.50).to_string(),
                report.latency_percentile(0.99).to_string(),
                report.latency_percentile(0.999).to_string(),
            ]
        })
        .collect();
    print_table(
        "Chaos grid (simulated ticks; 4 shards, cap-12 queues, S=16 Monte-Carlo)",
        &["scenario", "arrival", "avail", "retries", "S=4", "moment", "p50", "p99", "p999"],
        &rows,
    );
    println!(
        "\nsingle-crash availability: {} with the ladder vs {} without ({}x)",
        percent(with_ladder),
        percent(without_ladder),
        num(ladder_availability, 2),
    );

    let summary = chaos_summary_json(grid, outputs.reduced);
    let speedups = Json::obj([("ladder_availability", Json::Float(ladder_availability))]);
    let runs = Json::Array(grid.iter().map(|(_, report)| report.to_json()).collect());
    outputs.write_grid(
        &passes,
        [("speedups", speedups), ("summary", summary.clone()), ("runs", runs)],
        &summary,
    );
}
