//! `sweep_all`: executes the full paper design-space grid — designs × models × sample counts ×
//! precisions — through the sweep engine, once on a single worker and once on the full
//! work-stealing pool, verifies the two reports serialize byte-identically, and emits two
//! files:
//!
//! * `BENCH_sweep.json` — the full record (every point's latency / energy / traffic plus both
//!   wall clocks). ~14k lines; uploaded as a CI artifact, **not** committed;
//! * `BENCH_sweep_summary.json` — the compact deterministic reference-slice summary
//!   ([`shift_bnn::sweep::summary`]), which *is* committed and regression-checked by
//!   `bench_regression` and the golden suite. Because the summary only reads the shared
//!   S = 16 / 16-bit slice, a `--reduced` run (whose summary defaults to
//!   `BENCH_sweep_summary_reduced.json`) reproduces the committed bytes exactly.
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin sweep_all -- [--reduced]
//! [--out PATH] [--summary PATH]`

use std::time::Instant;

use bnn_arch::EnergyModel;
use shift_bnn::sweep::summary::SweepSummary;
use shift_bnn::sweep::{run_sweep, SweepGrid};
use shift_bnn_bench::harness::{two_passes, Outputs};

fn main() {
    let outputs = Outputs::grid("sweep", std::env::args().skip(1));
    let grid = if outputs.reduced { SweepGrid::reduced() } else { SweepGrid::paper_full() };
    println!(
        "sweep grid: {} designs x {} models x {} sample counts x {} precisions = {} points",
        grid.designs.len(),
        grid.models.len(),
        grid.sample_counts.len(),
        grid.precisions.len(),
        grid.len()
    );

    // Calibrate the repetition count so each timed pass runs for ~0.5 s, within 1..=200 grid
    // runs — a single grid run is only milliseconds of analytic simulation, too short to time
    // a speedup honestly. Each pass runs the grid `reps` times and keeps the last report.
    let energy = EnergyModel::default();
    let calibration = Instant::now();
    let _ = run_sweep(&grid, 1, &energy);
    let single_pass_ns = calibration.elapsed().as_nanos().max(1);
    let reps = (500_000_000u128.div_ceil(single_pass_ns)).clamp(1, 200);
    println!(
        "calibration: one 1-worker pass = {:.1} ms; timing {reps} passes per configuration",
        single_pass_ns as f64 / 1e6
    );

    let passes = two_passes(
        |workers| {
            let mut report = run_sweep(&grid, workers, &energy);
            for _ in 1..reps {
                report = run_sweep(&grid, workers, &energy);
            }
            report
        },
        |report| vec![("sweep report".to_string(), report.to_json_string())],
    );
    let report = &passes.results;
    let summary = SweepSummary::from_report(report);
    println!(
        "{} grid points, {} reference-slice records",
        report.records.len(),
        summary.records.len()
    );
    outputs.write_grid(&passes, [("runs", report.to_json())], &summary.to_json());
}
