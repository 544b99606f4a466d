//! `store_bench`: the end-to-end gauge of the checkpoint store and model registry.
//!
//! Per model family (B-MLP and B-LeNet proxies), in one run:
//!
//! 1. trains a v1 posterior, resume-trains a v2 from v1's checkpoint (exercising the
//!    bit-exact resume path), and round-trips both through the binary format;
//! 2. measures save/load throughput: encode, fully-validated decode, atomic registry
//!    publish, registry load (wall clock — artifact only, never committed);
//! 3. serves the registry-loaded v1 against the in-memory posterior (asserting byte-identical
//!    responses at 1 and N workers) and hot-swaps to v2 mid-trace, measuring the swap's
//!    activation latency in **ticks** (deterministic — committed).
//!
//! Outputs: a human table on stdout, the full timing report (machine-dependent, a CI
//! artifact) to `BENCH_store.json`, and the deterministic summary (sizes, digests, versions,
//! tick boundaries) to `BENCH_store_summary.json` — the committed baseline drift-gated by
//! `bench_regression` on every PR and nightly. `--out` and `--summary` move either file.
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin store_bench -- \
//!   [--reps N] [--registry PATH] [--out PATH] [--summary PATH]`

use shift_bnn_bench::harness::{Flags, Outputs};
use shift_bnn_bench::store_views::{full_json, run_store_bench, summary_json};
use shift_bnn_bench::{num, print_table};

fn main() {
    let mut reps = 20;
    let mut registry = "target/tmp/store_bench-registry".to_string();
    let mut outputs = Outputs::new("store");
    Flags::from_env("[--reps N] [--registry PATH] [--out PATH] [--summary PATH]").read(
        |flag, flags| {
            match flag {
                "--reps" => reps = flags.value(flag),
                "--registry" => registry = flags.value(flag),
                _ => return outputs.take(flag, flags),
            }
            true
        },
    );
    let results = run_store_bench(std::path::Path::new(&registry), reps);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{}", r.v1_bytes),
                num(r.encode_mb_per_s(), 1),
                num(r.decode_mb_per_s(), 1),
                format!("{:.1}", r.publish_ns / 1e3),
                format!("{:.1}", r.load_ns / 1e3),
                format!("{}", r.swap_latency_ticks()),
                r.v1_digest.clone(),
            ]
        })
        .collect();
    print_table(
        "Checkpoint store: save/load throughput and hot-swap latency (digests pinned)",
        &[
            "model",
            "bytes",
            "enc MB/s",
            "dec MB/s",
            "publish µs",
            "load µs",
            "swap ticks",
            "digest",
        ],
        &rows,
    );
    println!(
        "\nhot-swap: requested at tick {}, activated at the first batch starting at or after \
         it; every disk-loaded replica asserted byte-identical to its in-memory posterior",
        shift_bnn_bench::store_views::STORE_SWAP_TICK
    );

    outputs.write(&full_json(&results), &summary_json(&results));
}
