//! `bench_regression`: the CI drift gate. Compares a freshly produced benchmark summary
//! against the committed baseline and fails (exit 1) when any headline scalar drifts beyond
//! tolerance — so a simulator, model or engine change can no longer shift the recorded
//! numbers without the diff saying so.
//!
//! Both inputs are JSON documents produced by this repo's own deterministic serializer: a
//! committed `BENCH_<name>_summary.json` and the fresh summary the same binary just wrote
//! (`sweep_all`, `serve_bench`, `moment_bench`, `cluster_bench`, `chaos_bench`,
//! `obs_bench`, `hot_bench` or `store_bench`). Structure must match exactly; numeric leaves
//! may differ by a relative tolerance of 1e-9 — the summaries are deterministic, so this is
//! "identical up to float printing".
//!
//! A second, independent gate holds machine-measured ratios to floors: `--speedups FILE`
//! points at a full report whose `speedups` object names them (`BENCH_hot.json`'s
//! `simd_gemm`, `conv_kernels` or `eps_retrieve`, `BENCH_chaos.json`'s
//! `ladder_availability`), and each repeatable `--min-speedup name:floor` fails the run when
//! that named ratio falls below its floor. Drift comparison and speedup gating can run
//! together or alone.
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin bench_regression -- \
//!   [--baseline BENCH_sweep_summary.json --fresh out/BENCH_sweep_summary.json] \
//!   [--speedups out/BENCH_hot.json] \
//!   [--min-speedup simd_gemm:1.3] [--min-speedup eps_retrieve:3.0]`

use shift_bnn::sweep::json::Json;
use shift_bnn_bench::harness::Flags;
use shift_bnn_bench::regression::compare;

/// The relative tolerance on numeric leaves.
const TOLERANCE: f64 = 1e-9;

/// Each committed baseline and the binary that writes it at the repo root.
const BASELINES: [(&str, &str); 8] = [
    ("BENCH_sweep_summary.json", "sweep_all"),
    ("BENCH_serve_summary.json", "serve_bench"),
    ("BENCH_moment_summary.json", "moment_bench"),
    ("BENCH_cluster_summary.json", "cluster_bench"),
    ("BENCH_chaos_summary.json", "chaos_bench"),
    ("BENCH_obs_summary.json", "obs_bench"),
    ("BENCH_hot_summary.json", "hot_bench"),
    ("BENCH_store_summary.json", "store_bench"),
];

/// Reads the named ratio from the report's top-level `speedups` object.
fn named_speedup(report: &Json, path: &str, name: &str) -> f64 {
    let Json::Object(root) = report else { panic!("{path}: expected a JSON object") };
    let speedups = root
        .iter()
        .find(|(k, _)| k == "speedups")
        .unwrap_or_else(|| panic!("{path}: no `speedups` object"));
    let Json::Object(pairs) = &speedups.1 else { panic!("{path}: `speedups` must be an object") };
    match pairs.iter().find(|(k, _)| k == name) {
        Some((_, Json::Float(v))) => *v,
        Some((_, Json::UInt(v))) => *v as f64,
        Some(_) => panic!("{path}: speedups.{name} is not numeric"),
        None => panic!("{path}: no speedups.{name} (available: {:?})", {
            pairs.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>()
        }),
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
}

fn main() {
    let mut baseline: Option<String> = None;
    let mut fresh: Option<String> = None;
    let mut speedups: Option<String> = None;
    let mut min_speedups: Vec<(String, f64)> = Vec::new();
    Flags::from_env(
        "[--baseline PATH --fresh PATH] [--speedups PATH] [--min-speedup name:floor]...",
    )
    .read(|flag, flags| {
        match flag {
            "--baseline" => baseline = Some(flags.value(flag)),
            "--fresh" => fresh = Some(flags.value(flag)),
            "--speedups" => speedups = Some(flags.value(flag)),
            "--min-speedup" => {
                let v: String = flags.value(flag);
                let (name, floor) = v
                    .split_once(':')
                    .expect("--min-speedup must be name:floor, e.g. simd_gemm:1.3");
                let floor: f64 = floor.parse().expect("--min-speedup floor must be a float");
                assert!(floor > 0.0, "--min-speedup floor must be positive");
                min_speedups.push((name.to_string(), floor));
            }
            _ => return false,
        }
        true
    });
    assert_eq!(
        baseline.is_some(),
        fresh.is_some(),
        "--baseline and --fresh must be given together"
    );
    assert!(
        min_speedups.is_empty() || speedups.is_some(),
        "--min-speedup needs --speedups FILE to read the measured ratios from"
    );
    assert!(
        baseline.is_some() || speedups.is_some(),
        "nothing to do: give --baseline/--fresh, --speedups gates, or both"
    );

    if let (Some(baseline_path), Some(fresh_path)) = (&baseline, &fresh) {
        let mismatches = compare(&load(baseline_path), &load(fresh_path), TOLERANCE);
        if mismatches.is_empty() {
            println!(
                "bench_regression: {fresh_path} matches {baseline_path} within tolerance \
                 {TOLERANCE:e}"
            );
        } else {
            eprintln!(
                "bench_regression: {fresh_path} drifted from {baseline_path} ({} mismatch(es), \
                 tolerance {TOLERANCE:e}):",
                mismatches.len(),
            );
            for mismatch in &mismatches {
                eprintln!("  {mismatch}");
            }
            eprintln!(
                "\nIf the drift is intentional, regenerate the committed baseline at the repo \
                 root with `cargo run --release -p shift-bnn-bench --bin <binary>` and commit \
                 the updated summary:"
            );
            for (file, binary) in BASELINES {
                eprintln!("  {file:<28} {binary}");
            }
            std::process::exit(1);
        }
    }

    if let Some(path) = &speedups {
        let report = load(path);
        let mut failed = false;
        for (name, floor) in &min_speedups {
            let measured = named_speedup(&report, path, name);
            if measured >= *floor {
                println!(
                    "bench_regression: speedup {name} = {measured:.2}x meets floor {floor:.2}x"
                );
            } else {
                eprintln!(
                    "bench_regression: speedup {name} = {measured:.2}x below floor {floor:.2}x"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
