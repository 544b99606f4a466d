//! Command line of the Shift-BNN wall-clock benchmark; see `README.md` next to `Cargo.toml`.

use bnn_serve::{EngineSpec, InferenceEngine, ModelSpec, ServeMode};
use shift_bnn::sweep::json::Json;
use shift_bnn_benchmark::metrics::{end_to_end, per_layer, result_json, MetricDef};
use shift_bnn_benchmark::report::{compare, fingerprint, metric_value, summarize};
use shift_bnn_benchmark::workloads::{self, RunConfig, Workload};
use shift_bnn_benchmark::{smoke, trace, RUN_SECONDS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage:
  shift-bnn-benchmark [--seed N] [--seconds S] [--trace 0|1 | --traced] [--runs N]
      every workload, each in its own process; writes out/<seed>.json (out/<seed>.traced.json)
  shift-bnn-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
      one workload in this process; the last stdout line is the JSON result
  shift-bnn-benchmark --smoke [--seed N]
      every workload at 1/20 size, traced, checking the span trees
  shift-bnn-benchmark compare --parent FILE... --change FILE...
      parent-vs-change verdicts over all-workload result files";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: u64,
    smoke: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        runs: 1,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => parsed.traced = true,
            "--runs" => {
                parsed.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if parsed.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--smoke" => parsed.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return run_compare(&args[1..]);
    }
    if std::env::var_os("SHIFT_BNN_KERNEL_TIER").is_some() {
        eprintln!(
            "refusing to run: SHIFT_BNN_KERNEL_TIER forces a GEMM tier, so the numbers would not \
             describe the default build"
        );
        return ExitCode::from(2);
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return run_smoke(args.seed);
    }
    match args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&args),
    }
}

/// `value` with six significant digits, however small (set-up times run to microseconds).
fn num(value: f64) -> String {
    let magnitude = if value == 0.0 { 0 } else { value.abs().log10().floor() as i32 };
    format!("{value:.*}", (5 - magnitude).clamp(0, 15) as usize)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write(path: &Path, json: &Json) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(path, json.to_pretty() + "\n")
}

fn defs(traced: bool) -> Vec<MetricDef> {
    if traced {
        per_layer()
    } else {
        end_to_end()
    }
}

fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let config =
        RunConfig { seed: args.seed, seconds: args.seconds, traced: args.traced, smoke: false };
    let outcome = workloads::run(workload, &config);
    eprintln!("{} seed {} output digest {}", workload.name(), args.seed, outcome.digest);
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    if args.traced {
        let path = out_dir().join(format!("{}-{}.spans.json", workload.name(), args.seed));
        if let Err(e) = write(&path, &trace::spans_json(&outcome.recording.spans)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let defs = defs(args.traced);
    for def in &defs {
        if let Some(value) = outcome.metric(&def.name) {
            println!("{:<18} {:<42} {:>16} {}", workload.name(), def.name, num(value), def.unit);
        }
    }
    let correct = outcome.correct();
    match result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics, &defs) {
        Ok(line) => {
            println!("{}", line.to_compact());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `workload` in a child process (so its peak RSS is its own) and returns its result
/// line; a child whose checks failed still reports, with `"correct": false`.
fn run_child(workload: Workload, seed: u64, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    Json::parse(last).map_err(|e| {
        format!("{} exited with {} and no result line ({e})", workload.name(), output.status)
    })
}

fn run_all(args: &Args) -> ExitCode {
    let defs = defs(args.traced);
    let mut ok = true;
    let mut files = Vec::new();
    let machine = fingerprint();
    for seed in args.seed..args.seed + args.runs {
        let mut results = Vec::new();
        for workload in Workload::ALL {
            let result = run_child(workload, seed, args).unwrap_or_else(|e| {
                eprintln!("{e}");
                ok = false;
                Json::Null
            });
            ok &= result.get("correct") == Some(&Json::Bool(true));
            println!("{} (seed {seed})", workload.name());
            for def in &defs {
                if let Some(value) = result.pointer(&format!("metrics/{}/value", def.name)) {
                    let value = num(value.as_f64().unwrap_or(f64::NAN));
                    println!("  {:<42} {value:>16} {}", def.name, def.unit);
                }
            }
            results.push((workload.name().to_string(), result));
        }
        let workloads = Json::Object(results);
        let mut fields = vec![
            ("seed", Json::UInt(seed)),
            ("seconds", Json::Float(args.seconds)),
            ("traced", Json::Bool(args.traced)),
            ("fingerprint", machine.clone()),
        ];
        if !args.traced {
            fields.push(("derived", derived(&workloads)));
        }
        fields.push(("workloads", workloads));
        let file = Json::obj(fields);
        let name = if args.traced { format!("{seed}.traced.json") } else { format!("{seed}.json") };
        let path = out_dir().join(name);
        if let Err(e) = write(&path, &file) {
            eprintln!("cannot write {}: {e}", path.display());
            ok = false;
        }
        files.push(file);
    }
    if args.runs > 1 {
        print_summary(&files, &defs);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Cross-workload ratios: the wall-clock speedup of moment serving over S = 16 Monte-Carlo
/// serving next to the speedup the tick cost model charges.
fn derived(workloads: &Json) -> Json {
    let p50 = |w: Workload| {
        workloads.pointer(&format!("{}/metrics/latency_p50_ms/value", w.name()))?.as_f64()
    };
    let wall = match (p50(Workload::ServeMc16), p50(Workload::ServeMoment)) {
        (Some(mc), Some(moment)) => Json::Float(mc / moment),
        _ => Json::Null,
    };
    let ticks = |mode| {
        InferenceEngine::build(EngineSpec::new(ModelSpec::lenet(1)).mode(mode))
            .service_cost_ticks(16)
    };
    let tick_ratio = ticks(ServeMode::MonteCarlo) as f64 / ticks(ServeMode::Moment) as f64;
    Json::obj([("moment_speedup_wall", wall), ("moment_speedup_ticks", Json::Float(tick_ratio))])
}

fn print_summary(files: &[Json], defs: &[MetricDef]) {
    println!("\n{} runs: median [q1, q3] (spread = (q3 - q1) / median)", files.len());
    for workload in Workload::ALL {
        for def in defs {
            let values: Vec<f64> =
                files.iter().filter_map(|f| metric_value(f, workload.name(), &def.name)).collect();
            if values.is_empty() || values.iter().all(|&v| v == 0.0) {
                continue;
            }
            let s = summarize(&values);
            println!(
                "{:<18} {:<42} {:>14} [{}, {}] spread {:.4} {}",
                workload.name(),
                def.name,
                num(s.median),
                num(s.q1),
                num(s.q3),
                (s.q3 - s.q1) / s.median.abs(),
                def.unit
            );
        }
    }
}

fn run_smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        match smoke(workload, seed) {
            Ok(outcome) => println!(
                "{:<18} ok: {} operations, {} spans",
                workload.name(),
                outcome.attempted,
                outcome.recording.spans.len()
            ),
            Err(e) => {
                println!("{e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(args: &[String]) -> ExitCode {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<Json>> = None;
    for arg in args {
        match arg.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            path => {
                let Some(files) = side.as_deref_mut() else {
                    eprintln!("{USAGE}");
                    return ExitCode::from(2);
                };
                let loaded = std::fs::read_to_string(path)
                    .map_err(|e| e.to_string())
                    .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()));
                match loaded {
                    Ok(json) => files.push(json),
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    if parent.is_empty() || change.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut regressed = false;
    println!("metric: parent median [q1, q3] -> change median [q1, q3], pairs won, verdict");
    for workload in Workload::ALL {
        for def in end_to_end() {
            let values = |files: &[Json]| -> Vec<f64> {
                files.iter().filter_map(|f| metric_value(f, workload.name(), &def.name)).collect()
            };
            let (p, c) = (values(&parent), values(&change));
            if p.is_empty() || c.is_empty() {
                println!("{:<18} {:<15} missing", workload.name(), def.name);
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let cmp = compare(def.better, bound, &p, &c);
            regressed |= cmp.verdict == shift_bnn_benchmark::report::Verdict::Regression;
            println!(
                "{:<18} {:<15} {} [{}, {}] -> {} [{}, {}] {}/{} {}",
                workload.name(),
                def.name,
                num(cmp.parent.median),
                num(cmp.parent.q1),
                num(cmp.parent.q3),
                num(cmp.change.median),
                num(cmp.change.q1),
                num(cmp.change.q3),
                cmp.wins,
                cmp.pairs,
                cmp.verdict.label()
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
