//! Determinism contract of the serving engine — the mirror of the sweep engine's
//! `sweep_determinism.rs`, with one more axis:
//!
//! 1. the same request trace served by a 1-worker engine and an N-worker engine produces
//!    **byte-identical** `InferResponse`s (work stealing must not leak into results);
//! 2. the same trace served unbatched (batch-size-1) and coalesced produces byte-identical
//!    responses (batch composition must not leak into results — only into latency);
//! 3. repeated runs reproduce bit-for-bit (no hidden global state), and an engine whose
//!    replicas are warm from earlier runs answers as a freshly built one does.
//!
//! Together these are what make the batcher's tick-domain latency numbers trustworthy: the
//! *answers* are invariant, so policies and worker counts can be compared on timing alone.

use bnn_obs::NullRecorder;
use bnn_serve::{
    BatchPolicy, EngineSpec, InferRequest, InferenceEngine, ModelSource, ModelSpec, ServeMode,
    VersionSwap, WorkloadSpec,
};

fn trace(spec: &ModelSpec, requests: usize, samples: usize) -> Vec<bnn_serve::InferRequest> {
    WorkloadSpec::uniform(requests, 3, samples, 2021).generate(spec)
}

fn engine(spec: &ModelSpec, policy: BatchPolicy, workers: usize) -> InferenceEngine {
    InferenceEngine::build(EngineSpec::new(spec.clone()).policy(policy).workers(workers))
}

#[test]
fn one_worker_and_many_workers_answer_byte_identically() {
    for spec in [ModelSpec::mlp(7), ModelSpec::lenet(7)] {
        let requests = trace(&spec, 24, 4);
        let policy = BatchPolicy { max_batch: 6, max_wait_ticks: 12 };
        let baseline = engine(&spec, policy, 1).run(&requests);
        for workers in [2, 3, 8] {
            let parallel = engine(&spec, policy, workers).run(&requests);
            assert_eq!(
                baseline.responses_json(),
                parallel.responses_json(),
                "{}: responses diverged at {workers} workers",
                spec.name()
            );
            // The whole report — timing included — is worker-invariant except the recorded
            // worker count itself.
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
    let unbatched = engine(&spec, BatchPolicy::unbatched(), 2).run(&requests);
    for policy in [
        BatchPolicy { max_batch: 4, max_wait_ticks: 8 },
        BatchPolicy { max_batch: 32, max_wait_ticks: 256 },
    ] {
        let coalesced = engine(&spec, policy, 2).run(&requests);
        assert_eq!(
            unbatched.responses_json(),
            coalesced.responses_json(),
            "batch composition leaked into responses under {}",
            policy.label()
        );
        // Batching is allowed to change *timing* — indeed it must amortize overhead.
        assert!(coalesced.batches.len() < unbatched.batches.len());
        assert!(coalesced.makespan_ticks < unbatched.makespan_ticks);
    }
}

#[test]
fn repeated_runs_serialize_byte_identically() {
    let spec = ModelSpec::lenet(3);
    let requests = trace(&spec, 12, 2);
    let engine = engine(&spec, BatchPolicy { max_batch: 5, max_wait_ticks: 20 }, 4);
    let first = engine.run(&requests).to_json().to_pretty();
    let second = engine.run(&requests).to_json().to_pretty();
    assert_eq!(first, second);
}

#[test]
fn responses_depend_on_request_seeds_not_positions() {
    // Moving a request to a different arrival slot (different batch) must not change its
    // answer; changing its ε seed must.
    let spec = ModelSpec::mlp(5);
    let mut requests = trace(&spec, 8, 4);
    let engine = engine(&spec, BatchPolicy { max_batch: 4, max_wait_ticks: 6 }, 2);
    let baseline = engine.run(&requests);

    let mut shifted = requests.clone();
    for request in &mut shifted {
        request.arrival_tick *= 2; // same order, different batch boundaries
    }
    let moved = engine.run(&shifted);
    assert_eq!(baseline.responses_json(), moved.responses_json());

    requests[0].seed ^= 1;
    let reseeded = engine.run(&requests);
    assert_ne!(
        baseline.responses[0], reseeded.responses[0],
        "a different ε seed must sample a different ensemble"
    );
    assert_eq!(baseline.responses[1..], reseeded.responses[1..]);
}

#[test]
fn a_warm_engine_answers_as_a_fresh_one_does() {
    let spec = ModelSpec::mlp(13);
    let seeded = |samples, seed| WorkloadSpec::uniform(16, 3, samples, seed).generate(&spec);
    let first = seeded(3, 1);
    // Every third request asks for the analytic answer, which a Monte-Carlo replica gives
    // from the moment twin it compiles on first use.
    let mut degraded = seeded(3, 3);
    for request in degraded.iter_mut().step_by(3) {
        request.samples = 0;
    }
    let swap = VersionSwap { at_tick: 100, source: ModelSource::Spec(ModelSpec::mlp(14)) };
    // The runs one engine serves in turn: two traces, the degraded trace, a larger and then a
    // smaller S, a swap to another posterior mid-trace, and the first trace again.
    let runs: [(Vec<InferRequest>, Vec<VersionSwap>); 7] = [
        (first.clone(), vec![]),
        (seeded(3, 2), vec![]),
        (degraded, vec![]),
        (seeded(6, 4), vec![]),
        (seeded(2, 5), vec![]),
        (first.clone(), vec![swap]),
        (first, vec![]),
    ];
    let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 8 };
    for mode in [ServeMode::MonteCarlo, ServeMode::Moment] {
        for workers in [1, 3] {
            let build = || {
                InferenceEngine::build(
                    EngineSpec::new(spec.clone()).mode(mode).policy(policy).workers(workers),
                )
            };
            let warm = build();
            for (k, (requests, swaps)) in runs.iter().enumerate() {
                let got = warm.run_traced(requests, swaps, &mut NullRecorder);
                let fresh = build().run_traced(requests, swaps, &mut NullRecorder);
                assert_eq!(
                    got.to_json().to_compact(),
                    fresh.to_json().to_compact(),
                    "{mode:?} at {workers} workers: run {k} differs from a fresh engine's"
                );
                if !swaps.is_empty() {
                    let versions: Vec<usize> = got.batches.iter().map(|b| b.version).collect();
                    assert!(versions.contains(&0) && versions.contains(&1), "{versions:?}");
                }
            }
        }
    }
}
