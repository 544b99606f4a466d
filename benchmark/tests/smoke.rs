//! `--smoke`: every workload at 1/20 size, traced, with well-formed span trees — children
//! nest inside their parents and self times tile each operation to within 2%.

use shift_bnn_benchmark::smoke;
use shift_bnn_benchmark::workloads::Workload;

#[test]
fn every_workload_passes_its_checks_with_well_formed_spans() {
    for workload in Workload::ALL {
        let outcome = smoke(workload, 3).unwrap_or_else(|e| panic!("{e}"));
        assert!(outcome.attempted > 0, "{}", workload.name());
        assert!(!outcome.recording.spans.is_empty(), "{}", workload.name());
        let overhead = outcome.metric("bench.trace_overhead").expect("traced runs report it");
        assert!(overhead.is_finite() && overhead > 0.0, "{}: {overhead}", workload.name());
    }
}

#[test]
fn layer_spans_cover_the_networks_they_time() {
    let outcome = smoke(Workload::TrainLenetLfsr, 4).unwrap();
    let names: Vec<&str> = outcome.recording.spans.iter().map(|s| s.name).collect();
    for name in ["op", "bnn.L0.fw", "bnn.L9.bw", "lfsr.generate", "lfsr.retrieve", "bnn.update"] {
        assert!(names.contains(&name), "no {name} span");
    }
    let retrieve = outcome.metric("lfsr.retrieve_ms").unwrap();
    assert!(retrieve > 0.0, "LFSR retrieval is timed");
    let outcome = smoke(Workload::TrainMlpReplay, 4).unwrap();
    assert!(outcome.metric("lfsr.eps_stored_bytes").unwrap() > 0.0, "store-replay stores");
}
