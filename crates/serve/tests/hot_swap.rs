//! Determinism contract of posterior **hot-swapping** ([`InferenceEngine::run_traced`]):
//!
//! 1. no request is dropped — the swapped run answers the whole trace;
//! 2. the swap boundary is deterministic in the tick domain: every batch that starts service
//!    before the swap tick answers with the old posterior, every batch from the boundary
//!    onward with the new one — so each response is byte-identical to the corresponding
//!    single-version run's response for its side of the boundary;
//! 3. a mid-stream swap changes answers **only** from the boundary onward;
//! 4. all of the above is invariant across worker counts.

use bnn_obs::NullRecorder;
use bnn_serve::{
    BatchPolicy, CheckpointReplica, EngineSpec, InferRequest, InferenceEngine, ModelSource,
    ModelSpec, ServeRunReport, VersionSwap, WorkloadSpec,
};

fn trace(spec: &ModelSpec, requests: usize) -> Vec<InferRequest> {
    WorkloadSpec::uniform(requests, 4, 3, 404).generate(spec)
}

fn build(source: impl Into<ModelSource>, policy: BatchPolicy, workers: usize) -> InferenceEngine {
    InferenceEngine::build(EngineSpec::new(source).policy(policy).workers(workers))
}

/// An untraced run under `swaps`.
fn run_with_swaps(
    engine: &InferenceEngine,
    requests: &[InferRequest],
    swaps: &[VersionSwap],
) -> ServeRunReport {
    engine.run_traced(requests, swaps, &mut NullRecorder)
}

/// Two distinct posteriors of the same architecture (different weight seeds).
fn two_versions() -> (ModelSpec, ModelSource) {
    let v1 = ModelSpec::mlp(21);
    let v2 = ModelSpec::mlp(22);
    (v1, ModelSource::Spec(v2))
}

#[test]
fn swap_splits_the_trace_at_a_deterministic_tick_boundary() {
    let (v1, v2) = two_versions();
    let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 8 };
    let requests = trace(&v1, 32);
    let engine = build(v1.clone(), policy, 2);
    let swap_tick = 60;
    let swapped = run_with_swaps(
        &engine,
        &requests,
        &[VersionSwap { at_tick: swap_tick, source: v2.clone() }],
    );

    // Every request is answered, in order.
    assert_eq!(swapped.responses.len(), requests.len());
    for (request, response) in requests.iter().zip(&swapped.responses) {
        assert_eq!(request.id, response.id);
    }

    // The version sequence over batches is a single step 0 → 1 at the first batch whose
    // service started at or after the swap tick.
    let versions: Vec<usize> = swapped.batches.iter().map(|b| b.version).collect();
    assert_eq!(versions.first(), Some(&0), "the run must start on the old version");
    assert_eq!(versions.last(), Some(&1), "the swap must land within this trace");
    let boundary = versions.iter().position(|&v| v == 1).unwrap();
    for (i, batch) in swapped.batches.iter().enumerate() {
        assert_eq!(batch.version, usize::from(i >= boundary), "versions must not interleave");
        if batch.version == 1 {
            assert!(batch.start_tick >= swap_tick, "new version answered before the swap tick");
        } else {
            assert!(batch.start_tick < swap_tick, "old version answered after the swap tick");
        }
    }

    // Per-request responses match the corresponding single-version run on each side.
    let old_only = engine.run(&requests);
    let new_only = build(v2, policy, 2).run(&requests);
    for (i, response) in swapped.responses.iter().enumerate() {
        let expected = if swapped.batches[batch_index_of(&swapped, i)].version == 0 {
            &old_only
        } else {
            &new_only
        };
        assert_eq!(
            response, &expected.responses[i],
            "request {i} diverged from its version's single-version answer"
        );
    }

    // And the swap changed *only* the post-boundary answers.
    let first_new_request = swapped
        .responses
        .iter()
        .enumerate()
        .position(|(i, _)| swapped.batches[batch_index_of(&swapped, i)].version == 1)
        .unwrap();
    assert_eq!(swapped.responses[..first_new_request], old_only.responses[..first_new_request]);
    assert_ne!(
        swapped.responses[first_new_request..],
        old_only.responses[first_new_request..],
        "distinct posteriors must answer differently after the boundary"
    );
}

/// Index of the batch that served request `i` (batches partition the request indices in
/// arrival order, so a running size count locates the member batch).
fn batch_index_of(report: &ServeRunReport, i: usize) -> usize {
    let mut running = 0usize;
    for (bi, batch) in report.batches.iter().enumerate() {
        if i < running + batch.size {
            return bi;
        }
        running += batch.size;
    }
    unreachable!("request {i} not covered by any batch")
}

#[test]
fn swapped_runs_are_worker_invariant() {
    let (v1, v2) = two_versions();
    let policy = BatchPolicy { max_batch: 3, max_wait_ticks: 10 };
    let requests = trace(&v1, 24);
    let swaps = vec![VersionSwap { at_tick: 50, source: v2 }];
    let baseline = run_with_swaps(&build(v1.clone(), policy, 1), &requests, &swaps);
    for workers in [2, 3, 8] {
        let parallel = run_with_swaps(&build(v1.clone(), policy, workers), &requests, &swaps);
        assert_eq!(
            baseline.responses_json(),
            parallel.responses_json(),
            "hot-swapped responses diverged at {workers} workers"
        );
        assert_eq!(baseline.batches, parallel.batches);
        assert_eq!(baseline.latencies, parallel.latencies);
    }
}

#[test]
fn swap_to_a_checkpoint_source_answers_with_the_loaded_posterior() {
    // The production shape of a hot-swap: v2 is a *checkpoint* (posterior snapshot), not a
    // seed proxy — and its answers must be byte-identical to the network it captured.
    let v1 = ModelSpec::mlp(31);
    let v2_spec = ModelSpec::mlp(32);
    let checkpoint = CheckpointReplica::new(
        "mlp@v2",
        v2_spec.build().snapshot(),
        v2_spec.input_shape().to_vec(),
    )
    .unwrap();
    let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 6 };
    let requests = trace(&v1, 20);
    let swapped = run_with_swaps(
        &build(v1, policy, 2),
        &requests,
        &[VersionSwap { at_tick: 40, source: ModelSource::Checkpoint(checkpoint) }],
    );
    let v2_only = build(v2_spec, policy, 2).run(&requests);
    for (i, batch_version) in
        (0..requests.len()).map(|i| (i, swapped.batches[batch_index_of(&swapped, i)].version))
    {
        if batch_version == 1 {
            assert_eq!(swapped.responses[i], v2_only.responses[i]);
        }
    }
    assert!(swapped.batches.iter().any(|b| b.version == 1), "swap landed");
}

#[test]
fn unsorted_swap_schedules_are_rejected() {
    let (v1, v2) = two_versions();
    let requests = trace(&v1, 4);
    let engine = build(v1.clone(), BatchPolicy::unbatched(), 1);
    let swaps = vec![
        VersionSwap { at_tick: 50, source: v2.clone() },
        VersionSwap { at_tick: 10, source: v2 },
    ];
    let result = std::panic::catch_unwind(|| run_with_swaps(&engine, &requests, &swaps));
    assert!(result.is_err(), "unsorted swap schedule must panic");
}

#[test]
fn runs_without_swaps_are_unchanged_by_the_swap_machinery() {
    let (v1, _) = two_versions();
    let policy = BatchPolicy { max_batch: 5, max_wait_ticks: 12 };
    let requests = trace(&v1, 16);
    let engine = build(v1, policy, 2);
    let plain = engine.run(&requests);
    let empty_swaps = run_with_swaps(&engine, &requests, &[]);
    assert_eq!(plain.responses_json(), empty_swaps.responses_json());
    assert_eq!(plain.batches, empty_swaps.batches);
    assert!(plain.batches.iter().all(|b| b.version == 0));
}
