//! The harness the benchmark binaries share, each job written once: reading flags
//! ([`Flags`]), naming and writing the two output files ([`Outputs`]), and running a grid on
//! one worker and then on N with a timed byte-identity check ([`two_passes`]).
//!
//! A binary keeps only what is its own: its grid, its table, and any gate or extra arm.
//! Nothing here computes a summary — the summaries come from the `*_views` functions, which
//! the golden suite re-derives — so the harness cannot move a committed byte.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Instant;

use shift_bnn::pool;
use shift_bnn::sweep::json::Json;

use crate::{num, ratio};

/// The flags the six grid binaries take.
const GRID_USAGE: &str = "[--reduced] [--out PATH] [--summary PATH]";

/// A binary's command-line flags, read one at a time.
pub struct Flags {
    args: std::vec::IntoIter<String>,
    usage: &'static str,
}

impl Flags {
    /// The flags in `args`; `usage` lists the flags the binary takes, for its panic messages.
    pub fn new(usage: &'static str, args: impl IntoIterator<Item = String>) -> Flags {
        Flags { args: args.into_iter().collect::<Vec<_>>().into_iter(), usage }
    }

    /// The flags this process was started with.
    pub fn from_env(usage: &'static str) -> Flags {
        Flags::new(usage, std::env::args().skip(1))
    }

    /// Hands every flag to `take`, which reads the flag's value with [`Flags::value`] and
    /// returns `false` for a flag the binary does not take.
    ///
    /// # Panics
    ///
    /// Panics with the usage on a flag `take` rejects.
    pub fn read(mut self, mut take: impl FnMut(&str, &mut Flags) -> bool) {
        while let Some(flag) = self.args.next() {
            if !take(&flag, &mut self) {
                panic!("unknown argument {flag} (usage: {})", self.usage);
            }
        }
    }

    /// Parses the value after `flag`.
    ///
    /// # Panics
    ///
    /// Panics when the value is missing or does not parse.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let raw = self
            .args
            .next()
            .unwrap_or_else(|| panic!("{flag} needs a value (usage: {})", self.usage));
        raw.parse().unwrap_or_else(|e| panic!("{flag} {raw}: {e}"))
    }
}

/// Where a binary writes its full report and its summary.
///
/// The full report goes to `BENCH_<name>.json` and the summary to `BENCH_<name>_summary.json`,
/// or to `BENCH_<name>_summary_reduced.json` on `--reduced` (a reduced summary differs from
/// the committed full baseline, so it never overwrites it). `--out` and `--summary` win.
pub struct Outputs {
    name: &'static str,
    /// `--reduced`: run the CI-sized grid.
    pub reduced: bool,
    out: Option<String>,
    summary: Option<String>,
}

impl Outputs {
    /// The default paths of the report named `name`, on the full grid.
    pub fn new(name: &'static str) -> Outputs {
        Outputs { name, reduced: false, out: None, summary: None }
    }

    /// A grid binary's outputs, read from `args`: `--reduced`, `--out PATH`, `--summary PATH`.
    pub fn grid(name: &'static str, args: impl IntoIterator<Item = String>) -> Outputs {
        let mut outputs = Outputs::new(name);
        Flags::new(GRID_USAGE, args).read(|flag, flags| {
            match flag {
                "--reduced" => outputs.reduced = true,
                _ => return outputs.take(flag, flags),
            }
            true
        });
        outputs
    }

    /// Takes `--out PATH` and `--summary PATH`; returns `false` for any other flag.
    pub fn take(&mut self, flag: &str, flags: &mut Flags) -> bool {
        match flag {
            "--out" => self.out = Some(flags.value(flag)),
            "--summary" => self.summary = Some(flags.value(flag)),
            _ => return false,
        }
        true
    }

    /// The full report's path.
    pub fn out(&self) -> String {
        self.out.clone().unwrap_or_else(|| format!("BENCH_{}.json", self.name))
    }

    /// The summary's path.
    pub fn summary(&self) -> String {
        let suffix = if self.reduced { "_reduced" } else { "" };
        self.summary.clone().unwrap_or_else(|| format!("BENCH_{}_summary{suffix}.json", self.name))
    }

    /// Writes `full` and `summary`, each pretty-printed with a trailing newline.
    pub fn write(&self, full: &Json, summary: &Json) {
        let (out, summary_path) = (self.out(), self.summary());
        for (path, doc) in [(&out, full), (&summary_path, summary)] {
            std::fs::write(path, doc.to_pretty() + "\n")
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        }
        println!("wrote {out} and {summary_path}");
    }

    /// Writes a grid binary's full report — `schema`, `reduced`, the passes' `timing`, then
    /// `rest` — and its summary.
    pub fn write_grid<T>(
        &self,
        passes: &Passes<T>,
        rest: impl IntoIterator<Item = (&'static str, Json)>,
        summary: &Json,
    ) {
        let head = [
            ("schema", Json::Str(format!("shift-bnn-bench-{}/v1", self.name))),
            ("reduced", Json::Bool(self.reduced)),
            ("timing", passes.timing()),
        ];
        self.write(&Json::obj(head.into_iter().chain(rest)), summary);
    }
}

/// The 1-worker pass's results and both passes' wall clocks.
pub struct Passes<T> {
    /// What the 1-worker pass returned.
    pub results: T,
    workers: usize,
    serial_ns: u128,
    parallel_ns: u128,
}

impl<T> Passes<T> {
    fn wall_speedup(&self) -> f64 {
        self.serial_ns as f64 / self.parallel_ns.max(1) as f64
    }

    fn timing(&self) -> Json {
        Json::obj([
            ("available_parallelism", Json::UInt(available_parallelism() as u64)),
            ("workers_serial", Json::UInt(1)),
            ("workers_parallel", Json::UInt(self.workers as u64)),
            ("serial_total_ns", Json::UInt(self.serial_ns as u64)),
            ("parallel_total_ns", Json::UInt(self.parallel_ns as u64)),
            ("wall_speedup", Json::Float(self.wall_speedup())),
            ("byte_identical", Json::Bool(true)),
        ])
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `grid` on one worker, then on N, timing each pass, and asserts that `identity` —
/// one `(label, bytes)` pair per grid point — reads the same bytes from both passes.
///
/// N is the pool's default worker count, at least two even on a single-CPU machine, so the
/// check always exercises the multi-threaded scheduler. Prints one wall-clock line (and a
/// note when a single CPU makes a speedup impossible) and returns the 1-worker results.
///
/// # Panics
///
/// Panics naming the first grid point whose bytes differ between the passes.
pub fn two_passes<T>(
    grid: impl Fn(usize) -> T,
    identity: impl Fn(&T) -> Vec<(String, String)>,
) -> Passes<T> {
    let workers = pool::default_workers().max(2);
    let start = Instant::now();
    let results = grid(1);
    let serial_ns = start.elapsed().as_nanos();
    let start = Instant::now();
    let parallel = grid(workers);
    let parallel_ns = start.elapsed().as_nanos();

    let (serial_bytes, parallel_bytes) = (identity(&results), identity(&parallel));
    assert_eq!(serial_bytes.len(), parallel_bytes.len(), "the passes ran different grids");
    for ((label, serial), (_, parallel)) in serial_bytes.iter().zip(&parallel_bytes) {
        assert!(serial == parallel, "{label}: 1-worker and {workers}-worker passes differ");
    }

    let passes = Passes { results, workers, serial_ns, parallel_ns };
    println!(
        "wall clock: 1 worker {} ms, {workers} workers {} ms ({}); byte-identical",
        num(serial_ns as f64 / 1e6, 1),
        num(parallel_ns as f64 / 1e6, 1),
        ratio(passes.wall_speedup())
    );
    if available_parallelism() == 1 && passes.wall_speedup() <= 1.0 {
        println!(
            "note: this machine exposes a single CPU; worker threads cannot run concurrently, \
             so no wall-clock speedup is expected here"
        );
    }
    passes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_paths_follow_the_report_name() {
        let full = Outputs::grid("serve", args(&[]));
        assert!(!full.reduced);
        assert_eq!(
            (full.out(), full.summary()),
            ("BENCH_serve.json".into(), "BENCH_serve_summary.json".into())
        );
        let reduced = Outputs::grid("serve", args(&["--reduced"]));
        assert!(reduced.reduced);
        assert_eq!(
            (reduced.out(), reduced.summary()),
            ("BENCH_serve.json".into(), "BENCH_serve_summary_reduced.json".into())
        );
    }

    #[test]
    fn explicit_paths_win() {
        let outputs =
            Outputs::grid("chaos", args(&["--summary", "s.json", "--reduced", "--out", "o.json"]));
        assert!(outputs.reduced);
        assert_eq!((outputs.out(), outputs.summary()), ("o.json".into(), "s.json".into()));
    }

    #[test]
    #[should_panic(expected = "unknown argument --workers (usage: [--reduced] [--out PATH]")]
    fn an_unknown_flag_panics_with_the_usage() {
        Outputs::grid("sweep", args(&["--reduced", "--workers", "4"]));
    }

    #[test]
    #[should_panic(expected = "--out needs a value")]
    fn a_missing_value_panics() {
        Outputs::grid("obs", args(&["--out"]));
    }

    #[test]
    #[should_panic(expected = "--reps many")]
    fn a_malformed_value_panics() {
        let mut reps = 0usize;
        Flags::new("[--reps N]", args(&["--reps", "many"])).read(|flag, flags| {
            reps = flags.value(flag);
            true
        });
    }

    #[test]
    #[should_panic(expected = "unknown argument --reduced (usage: [--out PATH] [--summary PATH])")]
    fn a_binary_rejects_a_grid_flag_it_does_not_take() {
        let mut outputs = Outputs::new("hot");
        Flags::new("[--out PATH] [--summary PATH]", args(&["--reduced"]))
            .read(|flag, flags| outputs.take(flag, flags));
    }

    #[test]
    #[should_panic(expected = "toy b: 1-worker and")]
    fn two_passes_names_the_grid_point_whose_bytes_differ() {
        two_passes(
            |workers| workers,
            |&workers| {
                vec![
                    ("toy a".to_string(), "same".to_string()),
                    ("toy b".to_string(), workers.to_string()),
                ]
            },
        );
    }

    #[test]
    fn two_passes_returns_the_one_worker_results() {
        let passes = two_passes(
            |workers| (workers, vec![1, 2, 3]),
            |(_, points)| points.iter().map(|p| (format!("toy {p}"), p.to_string())).collect(),
        );
        assert_eq!(passes.results, (1, vec![1, 2, 3]));
        assert!(passes.workers >= 2);
        let timing = passes.timing();
        assert_eq!(
            timing.get("workers_parallel").and_then(Json::as_u64),
            Some(passes.workers as u64)
        );
        assert_eq!(timing.get("byte_identical"), Some(&Json::Bool(true)));
    }
}
