//! `BENCHMARK.json` at the repository root must describe exactly what this package runs and
//! reports: its workloads, metric tables, run length and command.

use shift_bnn::sweep::json::Json;
use shift_bnn_benchmark::metrics::{end_to_end, per_layer, MetricDef};
use shift_bnn_benchmark::workloads::Workload;
use shift_bnn_benchmark::RUN_SECONDS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses")
}

fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing"))
}

fn check_metrics(listed: &Json, defs: &[MetricDef]) {
    let listed = listed.as_array().expect("a metric list");
    assert_eq!(listed.len(), defs.len());
    for (entry, def) in listed.iter().zip(defs) {
        assert_eq!(str_field(entry, "name"), def.name);
        assert_eq!(str_field(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(str_field(entry, "better"), def.better.label(), "{}", def.name);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
        let keys = if def.bound.is_some() { 4 } else { 3 };
        assert_eq!(entry.as_object().unwrap().len(), keys, "{}", def.name);
    }
}

#[test]
fn benchmark_json_mirrors_the_package() {
    let json = benchmark_json();
    let keys: Vec<&str> = json.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"],
        "exactly the contract's keys"
    );
    assert_eq!(json.get("paths"), Some(&Json::Array(vec![Json::Str("benchmark".into())])));
    assert_eq!(json.get("run_seconds").and_then(Json::as_u64), Some(RUN_SECONDS));
    let command: Vec<&str> =
        json.get("command").unwrap().as_array().unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(command[0], "cargo");
    assert!(command.windows(2).any(|w| w == ["--manifest-path", "benchmark/Cargo.toml"]));

    let workloads = json.get("workloads").unwrap().as_array().unwrap();
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(str_field(entry, "name"), workload.name());
        assert_eq!(str_field(entry, "why"), workload.why());
    }
    check_metrics(json.get("end_to_end").unwrap(), &end_to_end());
    check_metrics(json.get("per_layer").unwrap(), &per_layer());
    let setup = end_to_end().into_iter().find(|d| d.name == "setup_s").unwrap();
    assert!(end_to_end().iter().all(|d| d.bound <= setup.bound), "set-up has the largest bound");
}
