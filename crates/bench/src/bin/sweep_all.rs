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
//!   S = 16 / 16-bit slice, a `--reduced` CI run reproduces the committed bytes exactly.
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin sweep_all -- [--reduced]
//! [--workers N] [--out PATH] [--summary PATH]`

use std::time::Instant;

use bnn_arch::EnergyModel;
use shift_bnn::pool;
use shift_bnn::sweep::json::Json;
use shift_bnn::sweep::summary::SweepSummary;
use shift_bnn::sweep::{run_sweep, SweepGrid, SweepReport};
use shift_bnn_bench::{num, print_table};

struct Args {
    reduced: bool,
    workers: usize,
    out: String,
    summary: String,
}

fn parse_args() -> Args {
    // Even on a single-CPU machine the parallel configuration runs at least two workers, so
    // the byte-identity check always exercises the multi-threaded scheduler (the speedup is
    // then bounded by the hardware, and recorded as such).
    let mut args = Args {
        reduced: false,
        workers: pool::default_workers().max(2),
        out: "BENCH_sweep.json".to_string(),
        summary: "BENCH_sweep_summary.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reduced" => args.reduced = true,
            "--workers" => {
                let v = it.next().expect("--workers needs a value");
                args.workers = v.parse().expect("--workers must be a positive integer");
                assert!(args.workers >= 1, "--workers must be >= 1");
            }
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--summary" => args.summary = it.next().expect("--summary needs a path"),
            other => {
                panic!(
                    "unknown argument {other} (expected --reduced, --workers N, --out PATH, --summary PATH)"
                )
            }
        }
    }
    args
}

/// Runs `reps` sweeps of `grid` on `workers` threads, returning the total wall time in
/// nanoseconds and the last report.
fn timed_sweeps(grid: &SweepGrid, workers: usize, reps: u32) -> (u128, SweepReport) {
    let energy = EnergyModel::default();
    let start = Instant::now();
    let mut report = run_sweep(grid, workers, &energy);
    for _ in 1..reps {
        report = run_sweep(grid, workers, &energy);
    }
    (start.elapsed().as_nanos(), report)
}

fn main() {
    let args = parse_args();
    let grid = if args.reduced { SweepGrid::reduced() } else { SweepGrid::paper_full() };
    println!(
        "sweep grid: {} designs x {} models x {} sample counts x {} precisions = {} points",
        grid.designs.len(),
        grid.models.len(),
        grid.sample_counts.len(),
        grid.precisions.len(),
        grid.len()
    );

    // Calibrate the repetition count so each measured configuration runs for ~0.5 s or more —
    // a single grid pass is only milliseconds of analytic simulation, too short to time a
    // speedup honestly.
    let calibration = Instant::now();
    let _ = run_sweep(&grid, 1, &EnergyModel::default());
    let single_pass_ns = calibration.elapsed().as_nanos().max(1);
    let reps = (500_000_000u128.div_ceil(single_pass_ns)).clamp(1, 200) as u32;
    println!(
        "calibration: one 1-worker pass = {:.1} ms; timing {reps} passes per configuration",
        single_pass_ns as f64 / 1e6
    );

    let (serial_ns, serial_report) = timed_sweeps(&grid, 1, reps);
    let (parallel_ns, parallel_report) = timed_sweeps(&grid, args.workers, reps);

    let serial_json = serial_report.to_json_string();
    let parallel_json = parallel_report.to_json_string();
    assert_eq!(
        serial_json, parallel_json,
        "1-worker and {}-worker sweeps must serialize byte-identically",
        args.workers
    );

    let speedup = serial_ns as f64 / parallel_ns as f64;
    print_table(
        "Design-space sweep timing (same grid, same JSON, different worker counts)",
        &["workers", "passes", "total (ms)", "per pass (ms)", "speedup"],
        &[
            vec![
                "1".to_string(),
                reps.to_string(),
                num(serial_ns as f64 / 1e6, 1),
                num(serial_ns as f64 / 1e6 / reps as f64, 2),
                "1.00x".to_string(),
            ],
            vec![
                args.workers.to_string(),
                reps.to_string(),
                num(parallel_ns as f64 / 1e6, 1),
                num(parallel_ns as f64 / 1e6 / reps as f64, 2),
                format!("{speedup:.2}x"),
            ],
        ],
    );
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if args.workers > 1 && speedup <= 1.0 {
        if cpus == 1 {
            println!(
                "note: this machine exposes a single CPU; worker threads cannot run concurrently, so no speedup is expected here"
            );
        } else {
            println!("warning: no parallel speedup measured (loaded machine or tiny grid?)");
        }
    }

    let bench = Json::obj([
        ("schema", Json::Str("shift-bnn-bench-sweep/v1".into())),
        ("reduced_grid", Json::Bool(args.reduced)),
        (
            "timing",
            Json::obj([
                ("passes", Json::UInt(reps as u64)),
                (
                    "available_parallelism",
                    Json::UInt(
                        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64
                    ),
                ),
                ("workers_serial", Json::UInt(1)),
                ("workers_parallel", Json::UInt(args.workers as u64)),
                ("serial_total_ns", Json::UInt(serial_ns as u64)),
                ("parallel_total_ns", Json::UInt(parallel_ns as u64)),
                ("speedup", Json::Float(speedup)),
                ("json_byte_identical", Json::Bool(true)),
            ]),
        ),
        ("sweep", serial_report.to_json()),
    ]);
    std::fs::write(&args.out, bench.to_pretty() + "\n").expect("write BENCH_sweep.json");
    let summary = SweepSummary::from_report(&serial_report);
    std::fs::write(&args.summary, summary.to_json_string())
        .expect("write BENCH_sweep_summary.json");
    println!(
        "wrote {} ({} grid points) and {} ({} reference-slice records)",
        args.out,
        serial_report.records.len(),
        args.summary,
        summary.records.len()
    );
}
