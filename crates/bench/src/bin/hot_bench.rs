//! `hot_bench`: the end-to-end gauge of the numeric hot-path rewrite.
//!
//! Measures, in one run:
//!
//! 1. the packed im2col+GEMM convolution kernels against the retained reference loop nests
//!    (per geometry × direction, asserting bit-identical outputs as it goes), and every
//!    GEMM tier over the gated `simd_gemm` shapes and over the B-LeNet proxy's six conv
//!    shapes, whose column tails give the ungated `simd_gemm_tails` ratio, and the linear
//!    kernel against its per-row dot loop at 64×144 and 48×64, the ungated `linear_matvec`
//!    ratio, and the B-LeNet proxy's im2col packs and pools per pass (ungated
//!    `conv_data_passes` times);
//! 2. word-parallel ε generation and retrieval against the bit-serial LFSR walks — the
//!    `eps_generate` and `eps_retrieve` ratios gated by `bench_regression`;
//! 3. a traced engine run's recorder writes against the untraced run (responses asserted
//!    byte-identical traced and untraced) — the `obs_overhead` ratio gated by
//!    `bench_regression`;
//! 4. fused against per-sample training steps on the B-LeNet proxy at `S = 8` (losses
//!    asserted bit-identical) — the ungated `fused_training` ratio — and a linear layer's
//!    one-pass training kernels against the stored-sample composition they replaced, at
//!    64×144 and 48×64 over 8 samples (scores and gradients asserted bit-identical) — the
//!    ungated `training_passes` ratio;
//! 5. the σ refill's dispatched σ and ln passes against the libm passes that define their
//!    values, at the B-MLP and B-LeNet proxies' 4,736 and 10,434 weights (e, σ and ln σ
//!    asserted bit-identical) — the ungated `sigma_refill` ratio;
//! 6. the steady-state allocation counts of a full training iteration, a served request and
//!    a *traced* served request (serving plus recorder writes), measured **at the
//!    allocator** via the binary's counting `#[global_allocator]` — all must be zero after
//!    warmup, and the run fails otherwise.
//!
//! Outputs: a human table on stdout, the full timing report to `--out` (machine-dependent,
//! a CI artifact), and the deterministic summary (digests + allocation counts, no timings)
//! to `--summary` — the file committed as `BENCH_hot_summary.json` and drift-gated by
//! `bench_regression` on every PR and nightly.
//!
//! Usage: `cargo run --release -p shift-bnn-bench --bin hot_bench -- \
//!   [--reps N] [--out BENCH_hot.json] [--summary BENCH_hot_summary.json] [--min-speedup X]`

use bnn_tensor::KernelTier;
use shift_bnn_bench::alloc::CountingAlloc;
use shift_bnn_bench::hot::{
    full_json, geometric_mean, run_data_pass_benches, run_epsilon_bench, run_fused_serve_bench,
    run_fused_training_bench, run_kernel_benches, run_linear_benches, run_obs_overhead_bench,
    run_sigma_refill_benches, run_tail_benches, run_tier_benches, run_training_pass_benches,
    summary_json, DataPassBench, EpsilonBench, KernelBench, LinearBench, RefillBench, ServeProbe,
    TierBench, TracedServeProbe, TrainingPassBench, TrainingProbe,
};
use shift_bnn_bench::print_table;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

struct Args {
    reps: usize,
    out: Option<String>,
    summary: Option<String>,
    min_speedup: f64,
}

fn parse_args() -> Args {
    let mut args = Args { reps: 60, out: None, summary: None, min_speedup: 0.0 };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                args.reps = it
                    .next()
                    .expect("--reps needs a count")
                    .parse()
                    .expect("--reps must be an integer")
            }
            "--out" => args.out = Some(it.next().expect("--out needs a path")),
            "--summary" => args.summary = Some(it.next().expect("--summary needs a path")),
            "--min-speedup" => {
                args.min_speedup = it
                    .next()
                    .expect("--min-speedup needs a value")
                    .parse()
                    .expect("--min-speedup must be a float")
            }
            other => panic!(
                "unknown argument {other} (expected --reps N, --out PATH, --summary PATH, \
                 --min-speedup X)"
            ),
        }
    }
    args
}

/// Measures total steady-state allocations across `measured` iterations of `work` after
/// `warmup` warmup calls — the raw count, so even a single allocation anywhere in the
/// window fails the zero-allocation gate (no per-iteration averaging to round it away).
fn steady_allocs(warmup: usize, measured: usize, mut work: impl FnMut()) -> u64 {
    for _ in 0..warmup {
        work();
    }
    let before = ALLOC.allocations();
    for _ in 0..measured {
        work();
    }
    ALLOC.allocations() - before
}

/// Prints one row per GEMM shape: each tier's best-of time and the SIMD-over-blocked ratio.
fn print_tiers(title: &str, tiers: &[TierBench]) {
    let rows: Vec<Vec<String>> = tiers
        .iter()
        .map(|t| {
            let mut row = vec![t.name.to_string()];
            row.extend(KernelTier::ALL.iter().map(|&tier| format!("{:.1}", t.ns(tier) / 1e3)));
            row.push(format!("{:.2}x", t.simd_speedup()));
            row
        })
        .collect();
    let header = ["shape", "reference µs", "blocked µs", "simd µs", "fastmath µs", "simd/blocked"];
    print_table(title, &header, &rows);
}

fn main() {
    let args = parse_args();

    let kernels = run_kernel_benches(args.reps);
    let tiers = run_tier_benches(args.reps);
    let tails = run_tail_benches(args.reps);
    let linear = run_linear_benches(args.reps);
    let data_passes = run_data_pass_benches(args.reps);
    let fused = run_fused_serve_bench(args.reps, 16);
    let fused_training = run_fused_training_bench(args.reps, 8);
    let passes = run_training_pass_benches(args.reps, 8);
    let refills = run_sigma_refill_benches(args.reps);
    let obs = run_obs_overhead_bench(args.reps, 48);
    let epsilon = run_epsilon_bench(args.reps, 16 * 1024);

    // Allocation probes: warm two iterations (arena growth, Vec capacity), then measure.
    let mut training = TrainingProbe::new();
    let train_allocs = steady_allocs(2, 4, || training.run(1));
    let mut serving = ServeProbe::new();
    let serve_allocs = steady_allocs(2, 4, || serving.run(1));
    let mut traced = TracedServeProbe::new();
    let traced_allocs = steady_allocs(2, 4, || traced.run(4));

    let rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|k: &KernelBench| {
            vec![
                k.name.to_string(),
                k.op.to_string(),
                format!("{:.1}", k.reference_ns / 1e3),
                format!("{:.1}", k.packed_ns / 1e3),
                format!("{:.2}x", k.speedup()),
            ]
        })
        .collect();
    print_table(
        "Hot-path kernels: retained reference loops vs im2col+blocked GEMM (bit-identical)",
        &["geometry", "op", "reference µs", "packed µs", "speedup"],
        &rows,
    );

    let speedups: Vec<f64> = kernels.iter().map(KernelBench::speedup).collect();
    let geomean = geometric_mean(&speedups);
    println!("\ngeometric-mean conv kernel speedup: {geomean:.2}x");

    print_tiers(
        "GEMM kernel tiers (bit-exact tiers asserted identical; fastmath ULP-bounded)",
        &tiers,
    );
    let simd_gemm =
        geometric_mean(&tiers.iter().map(TierBench::simd_speedup).collect::<Vec<f64>>());
    println!("\ngeometric-mean SIMD-over-blocked GEMM speedup: {simd_gemm:.2}x");
    print_tiers("B-LeNet proxy conv GEMMs: column tails past the 16-wide tile", &tails);
    let simd_gemm_tails =
        geometric_mean(&tails.iter().map(TierBench::simd_speedup).collect::<Vec<f64>>());
    println!("\ngeometric-mean SIMD-over-blocked tail GEMM speedup: {simd_gemm_tails:.2}x");
    let rows: Vec<Vec<String>> = linear
        .iter()
        .map(|l: &LinearBench| {
            vec![
                l.name.to_string(),
                format!("{:.2}", l.dot_loop_ns / 1e3),
                format!("{:.2}", l.kernel_ns / 1e3),
                format!("{:.2}x", l.speedup()),
            ]
        })
        .collect();
    print_table(
        "Linear matvec: per-row dot loop vs dispatched kernel (bit-identical)",
        &["shape", "dot loop µs", "kernel µs", "speedup"],
        &rows,
    );
    let rows: Vec<Vec<String>> = data_passes
        .iter()
        .map(|p: &DataPassBench| {
            vec![
                p.name.to_string(),
                p.floats.to_string(),
                format!("{:.2}", p.ns / 1e3),
                format!("{:.2}", p.ns / p.floats as f64),
            ]
        })
        .collect();
    print_table(
        "B-LeNet proxy conv data movement per pass: im2col packs and S = 16 pools",
        &["pass", "floats out", "µs", "ns/float"],
        &rows,
    );
    println!(
        "fused sampling (S = {}): per-sample {:.1} µs, fused {:.1} µs ({:.2}x), \
         response digest {}",
        fused.samples,
        fused.per_sample_ns / 1e3,
        fused.fused_ns / 1e3,
        fused.speedup(),
        fused.digest
    );

    println!(
        "fused training (S = {}): per-sample {:.1} µs, fused {:.1} µs per step ({:.2}x), \
         loss digest {}",
        fused_training.samples,
        fused_training.per_sample_ns / 1e3,
        fused_training.fused_ns / 1e3,
        fused_training.speedup(),
        fused_training.digest
    );

    let rows: Vec<Vec<String>> = passes
        .iter()
        .map(|p: &TrainingPassBench| {
            vec![
                p.name.to_string(),
                p.samples.to_string(),
                format!("{:.1}", p.composed_ns / 1e3),
                format!("{:.1}", p.one_pass_ns / 1e3),
                format!("{:.2}x", p.speedup()),
            ]
        })
        .collect();
    print_table(
        "Linear training passes: stored-sample composition vs one pass per weight (bit-identical)",
        &["shape", "samples", "composed µs", "one-pass µs", "speedup"],
        &rows,
    );

    let rows: Vec<Vec<String>> = refills
        .iter()
        .map(|r: &RefillBench| {
            vec![
                r.name.to_string(),
                r.weights.to_string(),
                format!("{:.1}", r.libm_ns / 1e3),
                format!("{:.1}", r.dispatched_ns / 1e3),
                format!("{:.2}x", r.speedup()),
            ]
        })
        .collect();
    print_table(
        "σ refill: libm passes vs dispatched σ and ln passes (bit-identical)",
        &["proxy", "weights", "libm µs", "dispatched µs", "speedup"],
        &rows,
    );

    let e: &EpsilonBench = &epsilon;
    println!(
        "ε generation ({} values): bit-serial {:.1} µs, word-parallel {:.1} µs ({:.2}x), \
         stream digest {}",
        e.count,
        e.serial_ns / 1e3,
        e.word_parallel_ns / 1e3,
        e.speedup(),
        e.digest
    );
    println!(
        "ε retrieval ({} values): bit-serial {:.1} µs, word-parallel {:.1} µs ({:.2}x)",
        e.count,
        e.retrieve_serial_ns / 1e3,
        e.retrieve_word_parallel_ns / 1e3,
        e.retrieve_speedup(),
    );
    println!(
        "traced serving ({} requests, {} events): serving {:.1} µs, recording {:.2} µs \
         (serving / (serving + recording) {:.4}, responses byte-identical)",
        obs.requests,
        obs.events,
        obs.serving_ns / 1e3,
        obs.tracing_ns / 1e3,
        obs.overhead(),
    );
    println!(
        "steady-state allocations: {train_allocs} per training iteration, \
         {serve_allocs} per served request, {traced_allocs} per traced request"
    );

    assert_eq!(train_allocs, 0, "steady-state training iteration must not allocate");
    assert_eq!(serve_allocs, 0, "steady-state served request must not allocate");
    assert_eq!(traced_allocs, 0, "steady-state traced request must not allocate");
    if args.min_speedup > 0.0 {
        assert!(
            geomean >= args.min_speedup,
            "geometric-mean speedup {geomean:.2}x below required {:.2}x",
            args.min_speedup
        );
    }

    if let Some(path) = &args.out {
        let doc = full_json(
            &kernels,
            &tiers,
            &tails,
            &linear,
            &data_passes,
            &fused,
            &fused_training,
            &passes,
            &refills,
            &obs,
            &epsilon,
            train_allocs,
            serve_allocs,
            traced_allocs,
        );
        std::fs::write(path, doc.to_pretty() + "\n").expect("write full report");
        println!("wrote {path}");
    }
    if let Some(path) = &args.summary {
        let doc = summary_json(&kernels, &epsilon, train_allocs, serve_allocs, traced_allocs);
        std::fs::write(path, doc.to_pretty() + "\n").expect("write summary");
        println!("wrote {path}");
    }
}
