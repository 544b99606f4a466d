//! Determinism contract of the analytic moment backend — `serve_determinism.rs`'s axes
//! replayed under `ServeMode::Moment`:
//!
//! 1. the same trace served by a 1-worker and an N-worker moment engine produces
//!    **byte-identical** `InferResponse`s;
//! 2. batch composition must not leak into moment responses (only into latency);
//! 3. repeated runs reproduce bit-for-bit;
//! 4. moment answers depend only on the request *input* — unlike Monte-Carlo, neither the
//!    ε seed nor the requested sample count can change an analytic response.

use bnn_serve::{BatchPolicy, EngineSpec, InferenceEngine, ModelSpec, ServeMode, WorkloadSpec};

fn trace(spec: &ModelSpec, requests: usize, samples: usize) -> Vec<bnn_serve::InferRequest> {
    WorkloadSpec::uniform(requests, 3, samples, 2021).generate(spec)
}

fn engine(
    spec: &ModelSpec,
    mode: ServeMode,
    policy: BatchPolicy,
    workers: usize,
) -> InferenceEngine {
    InferenceEngine::build(EngineSpec::new(spec.clone()).mode(mode).policy(policy).workers(workers))
}

fn moment_engine(spec: &ModelSpec, policy: BatchPolicy, workers: usize) -> InferenceEngine {
    engine(spec, ServeMode::Moment, policy, workers)
}

#[test]
fn one_worker_and_many_workers_answer_byte_identically() {
    for spec in [ModelSpec::mlp(7), ModelSpec::lenet(7)] {
        let requests = trace(&spec, 24, 4);
        let policy = BatchPolicy { max_batch: 6, max_wait_ticks: 12 };
        let baseline = moment_engine(&spec, policy, 1).run(&requests);
        for workers in [2, 3, 8] {
            let parallel = moment_engine(&spec, policy, workers).run(&requests);
            assert_eq!(
                baseline.responses_json(),
                parallel.responses_json(),
                "{}: moment responses diverged at {workers} workers",
                spec.name()
            );
            assert_eq!(baseline.latencies, parallel.latencies);
            assert_eq!(baseline.batches, parallel.batches);
            assert_eq!(baseline.makespan_ticks, parallel.makespan_ticks);
        }
    }
}

#[test]
fn unbatched_and_coalesced_batches_answer_byte_identically() {
    let spec = ModelSpec::mlp(19);
    let requests = trace(&spec, 32, 3);
    let unbatched = moment_engine(&spec, BatchPolicy::unbatched(), 2).run(&requests);
    for policy in [
        BatchPolicy { max_batch: 4, max_wait_ticks: 8 },
        BatchPolicy { max_batch: 32, max_wait_ticks: 256 },
    ] {
        let coalesced = moment_engine(&spec, policy, 2).run(&requests);
        assert_eq!(
            unbatched.responses_json(),
            coalesced.responses_json(),
            "batch composition leaked into moment responses under {}",
            policy.label()
        );
        assert!(coalesced.batches.len() < unbatched.batches.len());
        assert!(coalesced.makespan_ticks < unbatched.makespan_ticks);
    }
}

#[test]
fn repeated_runs_serialize_byte_identically() {
    let spec = ModelSpec::lenet(3);
    let requests = trace(&spec, 12, 2);
    let engine = moment_engine(&spec, BatchPolicy { max_batch: 5, max_wait_ticks: 20 }, 4);
    let first = engine.run(&requests).to_json().to_pretty();
    let second = engine.run(&requests).to_json().to_pretty();
    assert_eq!(first, second);
}

#[test]
fn moment_responses_ignore_seed_and_sample_count() {
    // The analytic pass draws no ε: reseeding a request or changing its requested S must not
    // move a single byte of its answer, and every response reports samples = 0.
    let spec = ModelSpec::mlp(5);
    let requests = trace(&spec, 8, 4);
    let engine = moment_engine(&spec, BatchPolicy { max_batch: 4, max_wait_ticks: 6 }, 2);
    let baseline = engine.run(&requests);
    assert!(baseline.responses.iter().all(|r| r.samples == 0), "analytic responses mark S = 0");

    let mut reseeded = requests.clone();
    for request in &mut reseeded {
        request.seed ^= 0xDEAD_BEEF;
    }
    assert_eq!(baseline.responses_json(), engine.run(&reseeded).responses_json());

    let mut resampled = requests.clone();
    for request in &mut resampled {
        request.samples = 1 + (request.id as usize % 16);
    }
    assert_eq!(baseline.responses_json(), engine.run(&resampled).responses_json());
}

#[test]
fn moment_batches_are_cheaper_than_monte_carlo() {
    // The tick cost model prices a moment request as two weight-wide passes, independent of
    // S: the same trace must finish strictly faster than S = 16 Monte-Carlo on both model
    // families, and a moment engine's per-request cost must not depend on S at all.
    for spec in [ModelSpec::mlp(11), ModelSpec::lenet(11)] {
        let requests = trace(&spec, 16, 16);
        let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 16 };
        let mc = engine(&spec, ServeMode::MonteCarlo, policy, 2).run(&requests);
        let moment = moment_engine(&spec, policy, 2).run(&requests);
        assert!(
            moment.makespan_ticks < mc.makespan_ticks,
            "{}: moment makespan {} ≥ MC makespan {}",
            spec.name(),
            moment.makespan_ticks,
            mc.makespan_ticks
        );
        let engine = moment_engine(&spec, policy, 1);
        assert_eq!(engine.service_cost_ticks(1), engine.service_cost_ticks(1024));
    }
}
