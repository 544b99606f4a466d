//! The benchmark's metric tables and the result line every run prints.
//!
//! `BENCHMARK.json` at the repository root mirrors [`end_to_end`], [`per_layer`] and
//! [`crate::workloads::Workload::ALL`]; `tests/benchmark_json.rs` keeps the two in step.

use crate::timed::LAYER_SPANS;
use shift_bnn::sweep::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric a run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: Better, bound: Option<f64>) -> MetricDef {
    MetricDef { name: name.to_string(), unit, better, bound }
}

/// The end-to-end metrics (`--trace 0`). `throughput` is examples/s for training, answered
/// requests/s for serving and simulated requests planned/s for the cluster; latencies are
/// host time per operation. Every bound is 25%. On a shared 2-vCPU host, the quiet-host times
/// the runs report still drift with other tenants' load from run to run: ten runs spread
/// 6–22% on the time metrics. The peak RSS of serve-mc16 moves by half a MiB of 5.5 with heap
/// placement (see `README.md`). Set-up time shares the largest bound, so that work moved into
/// set-up still shows.
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        def("throughput", "1/s", Higher, Some(0.25)),
        def("latency_p50_ms", "ms", Lower, Some(0.25)),
        def("latency_p90_ms", "ms", Lower, Some(0.25)),
        def("setup_s", "s", Lower, Some(0.25)),
        def("peak_rss_mb", "MiB", Lower, Some(0.25)),
    ]
}

/// The per-layer metrics (`--trace 1`), in report order. A metric that does not apply to a
/// workload (a training span on a serving workload, say) reads 0 there.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut defs = vec![
        def("lfsr.generate_ms", "ms", Lower, None),
        def("lfsr.generate_ns_per_eps", "ns", Lower, None),
        def("lfsr.retrieve_ms", "ms", Lower, None),
        def("lfsr.retrieve_ns_per_eps", "ns", Lower, None),
        def("lfsr.retrieve_share", "ratio", Lower, None),
        def("lfsr.retrieve_over_replay_step", "ratio", Lower, None),
        def("lfsr.eps_generated", "count", Lower, None),
        def("lfsr.eps_retrieved", "count", Lower, None),
        def("lfsr.eps_stored_bytes", "B", Lower, None),
        def("tensor.gemm_calls", "count", Lower, None),
        def("tensor.gemm_macs", "count", Lower, None),
        def("tensor.scratch_high_water_kb", "KiB", Lower, None),
    ];
    for (forward, backward) in LAYER_SPANS {
        defs.push(def(&format!("{forward}_self_ms"), "ms", Lower, None));
        defs.push(def(&format!("{backward}_self_ms"), "ms", Lower, None));
    }
    defs.extend([
        def("bnn.fw_self_ms", "ms", Lower, None),
        def("bnn.bw_self_ms", "ms", Lower, None),
        def("bnn.update_ms", "ms", Lower, None),
        def("bnn.step_other_ms", "ms", Lower, None),
        def("bnn.moment_ms", "ms", Lower, None),
        def("serve.engine.run_overhead_ratio", "ratio", Lower, None),
        def("serve.engine.batches", "count", Lower, None),
        def("serve.engine.batch_fill", "ratio", Higher, None),
        def("serve.engine.sim_batch_wait_p50_ticks", "ticks", Lower, None),
        def("serve.engine.sim_queue_wait_p99_ticks", "ticks", Lower, None),
        def("serve.engine.sim_compute_ticks_mean", "ticks", Lower, None),
        def("serve.sim_latency_p50_ticks", "ticks", Lower, None),
        def("serve.sim_latency_p99_ticks", "ticks", Lower, None),
        def("serve.cluster.plan_ns_per_request", "ns", Lower, None),
        def("serve.cluster.retries", "count", Lower, None),
        def("serve.cluster.sheds", "count", Lower, None),
        def("serve.cluster.shed_share", "ratio", Lower, None),
        def("serve.cluster.degrade_transitions", "count", Lower, None),
        def("serve.cluster.batches", "count", Lower, None),
        def("serve.cluster.answered_per_attempt", "ratio", Higher, None),
        def("pool.speedup_2w", "ratio", Higher, None),
        def("bench.trace_overhead", "ratio", Lower, None),
    ]);
    defs
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
}

/// The line a run ends its standard output with: `correct`, `attempted`, `failed`, and every
/// metric of `defs` with its unit. Per-layer metrics a workload did not measure read 0.
///
/// # Errors
///
/// Names an end-to-end metric the run did not measure, or a non-finite value.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    measured: &[Metric],
    defs: &[MetricDef],
) -> Result<Json, String> {
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match measured.iter().find(|m| m.name == def.name) {
            Some(m) => m.value,
            None if def.bound.is_none() => 0.0,
            None => return Err(format!("end-to-end metric {} was not measured", def.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", def.name));
        }
        let entry =
            Json::obj([("value", Json::Float(value)), ("unit", Json::Str(def.unit.into()))]);
        metrics.push((def.name.clone(), entry));
    }
    Ok(Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        ("metrics", Json::Object(metrics)),
    ]))
}
