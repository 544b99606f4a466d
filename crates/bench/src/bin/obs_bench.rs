//! `obs_bench`: drives the traced-replay observability grid — the everything-at-once
//! `crash_storm` fault scenario × the four arrival processes, plus a fault-free two-tier
//! escalation run — on a 4-shard Monte-Carlo cluster. Every grid point runs **twice**,
//! untraced and through a `TraceRecorder`, and the run asserts the tracing contract:
//! responses/events/faults byte-identical either way, recorder-derived serialization equal
//! to the report's own, and exactly 100% of every answered request's end-to-end tick
//! latency attributed to the five named stages. The grid then re-runs at a different
//! per-shard worker count and the summaries must be byte-identical. Emits:
//!
//! * `BENCH_obs.json` — the full record including machine-dependent wall clocks (a CI
//!   artifact, not committed);
//! * `BENCH_obs_summary.json` — the deterministic tick-domain scalars (event counts,
//!   stream/metrics/prometheus digests, the p50/p99 stage-attribution table, per-tier GEMM
//!   and ε profile counters; the committed regression baseline, checked by
//!   `bench_regression` and the golden suite).
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin obs_bench -- [--reduced]
//! [--out PATH] [--summary PATH]`

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::harness::{two_passes, Outputs};
use shift_bnn_bench::obs_views::{obs_summary_json, run_obs_grid};
use shift_bnn_bench::print_table;

fn main() {
    let outputs = Outputs::grid("obs", std::env::args().skip(1));
    println!(
        "obs grid: 5 configs (crash_storm x 4 arrival processes + two_tier), each run traced \
         AND untraced on 4 shards"
    );

    // Every record already asserts traced-vs-untraced byte identity and exact stage
    // coverage internally. The recorder lives on the orchestration thread, so the recorded
    // stream — and with it every digest in the summary — must not move with worker count.
    let passes = two_passes(
        |workers| {
            let grid = run_obs_grid(outputs.reduced, workers);
            let summary = obs_summary_json(&grid, outputs.reduced);
            (grid, summary)
        },
        |(_, summary)| vec![("obs summary".to_string(), summary.to_compact())],
    );
    let (grid, summary) = &passes.results;

    let table = |record: &Json, stage: &str, field: &str| -> String {
        record
            .get("stage_attribution")
            .and_then(|t| t.get(stage))
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .expect("summary records carry the attribution table")
            .to_string()
    };
    let records = match summary.get("records") {
        Some(Json::Array(records)) => records,
        _ => unreachable!("summary has a records array"),
    };
    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|record| {
            let s = |key: &str| record.get(key).unwrap().to_compact().trim_matches('"').to_string();
            vec![
                s("scenario"),
                s("arrival"),
                s("answered"),
                s("events_recorded"),
                table(record, "queue", "p99"),
                table(record, "batch_wait", "p99"),
                table(record, "compute", "p99"),
                table(record, "retry_backoff", "p99"),
                table(record, "escalation", "p99"),
                table(record, "end_to_end", "p50"),
                table(record, "end_to_end", "p99"),
            ]
        })
        .collect();
    print_table(
        "Stage attribution (p99 ticks per stage; 100% of answered latency tiled)",
        &[
            "scenario", "arrival", "answered", "events", "queue", "batch", "compute", "retry",
            "escal", "e2e p50", "e2e p99",
        ],
        &rows,
    );

    let runs = Json::Array(grid.iter().map(|run| run.report.to_json()).collect());
    outputs.write_grid(&passes, [("summary", summary.clone()), ("runs", runs)], summary);
}
