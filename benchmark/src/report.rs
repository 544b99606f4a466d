//! Summaries over saved result files: per-metric medians and quartiles across runs, and the
//! parent-vs-change verdicts of the choosing-metrics method (section 8 of its guide).

use crate::metrics::Better;
use crate::stats::{median, quartiles, relative_spread};
use shift_bnn::sweep::json::Json;
use std::process::Command;

/// Median and quartiles of one metric over several runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

/// Summarizes a non-empty set of runs.
pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary { median: median(values), q1, q3 }
}

/// How a change compares with its parent on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change won at least nine tenths of the pairs and its median moved by more than the
    /// parent's interquartile distance.
    Gain,
    /// The parent's spread exceeds the bound, but every change run beats every parent run.
    Better,
    /// The change's median is no worse than the parent's by more than the bound.
    WithinBound,
    /// The change's median is worse than the parent's by more than the bound.
    Regression,
    /// The parent's own spread exceeds the bound, so the bound cannot be checked.
    Unresolved,
}

impl Verdict {
    /// Printable label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Gain => "gain",
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Parent and change side by side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// The parent's runs.
    pub parent: Summary,
    /// The change's runs.
    pub change: Summary,
    /// Pairs (parent run `i`, change run `i`) the change won; ties count for neither side.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict against `bound`.
    pub verdict: Verdict,
}

/// Compares runs of a change with runs of its parent. Run `i` of each side forms a pair, so
/// the runs should alternate which side went first.
///
/// # Panics
///
/// Panics when either side has no runs.
pub fn compare(better: Better, bound: f64, parent: &[f64], change: &[f64]) -> Comparison {
    let beats = |a: f64, b: f64| match better {
        Better::Higher => a > b,
        Better::Lower => a < b,
    };
    let (p, c) = (summarize(parent), summarize(change));
    let pairs = parent.len().min(change.len());
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| beats(c, p)).count();
    let worse_by = match better {
        Better::Higher => (p.median - c.median) / p.median,
        Better::Lower => (c.median - p.median) / p.median,
    };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    let verdict = if 10 * wins >= 9 * pairs
        && beats(c.median, p.median)
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        Verdict::Gain
    } else if relative_spread(parent) > bound {
        if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::WithinBound
    };
    Comparison { parent: p, change: c, wins, pairs, verdict }
}

/// The value of `metric` for `workload` in a saved all-workload result file.
pub fn metric_value(file: &Json, workload: &str, metric: &str) -> Option<f64> {
    file.pointer(&format!("workloads/{workload}/metrics/{metric}/value"))?.as_f64()
}

/// The machine a result was measured on: CPU model, usable cores and compiler version.
pub fn fingerprint() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|info| {
        let line = info.lines().find(|l| l.starts_with("model name"))?;
        Some(line.split_once(':')?.1.trim().to_string())
    });
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let text = |s: Option<String>| Json::Str(s.unwrap_or_else(|| "unknown".into()));
    Json::obj([("cpu", text(cpu)), ("nproc", Json::UInt(nproc)), ("rustc", text(rustc))])
}
