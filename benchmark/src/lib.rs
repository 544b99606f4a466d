//! Wall-clock benchmark of the Shift-BNN reproduction: training, serving and cluster planning
//! measured end to end, plus per-layer spans recorded around the library's public calls.
//! `README.md` in this directory explains how to run it and why each workload and metric is
//! there.
//!
//! * [`workloads`] — the five workloads and the closed-loop runner;
//! * [`timed`] — the span-recording layer and ε-source adaptors;
//! * [`trace`] — the in-memory span recorder and self-time arithmetic;
//! * [`metrics`] — the metric tables `BENCHMARK.json` mirrors and the result line;
//! * [`report`] — multi-run summaries, parent-vs-change verdicts and the machine fingerprint;
//! * [`stats`] — percentiles, medians and quartiles.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod report;
pub mod stats;
pub mod timed;
pub mod trace;
pub mod workloads;

use workloads::{Outcome, RunConfig, Workload};

/// The measured time of one run when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Runs `workload` at `--smoke` size with tracing on and checks its span tree: children nest
/// inside their parents and self times tile every operation to within 2%.
///
/// # Errors
///
/// Names the failed output check or the malformed span.
pub fn smoke(workload: Workload, seed: u64) -> Result<Outcome, String> {
    let config = RunConfig { seed, seconds: 0.02, traced: true, smoke: true };
    let outcome = workloads::run(workload, &config);
    if !outcome.correct() {
        return Err(format!(
            "{}: {} of {} operations failed their check; {:?}",
            workload.name(),
            outcome.failed,
            outcome.attempted,
            outcome.errors
        ));
    }
    trace::check_tree(&outcome.recording.spans, 0.02)
        .map_err(|e| format!("{}: {e}", workload.name()))?;
    Ok(outcome)
}
