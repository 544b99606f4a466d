//! Enforces the scratch-arena rewrite's core contract at the allocator: after warmup, a
//! steady-state training iteration and a steady-state served request perform **zero** heap
//! allocations (and zero deallocations — churn would mean buffers were dropped instead of
//! recycled).
//!
//! The whole test binary runs under a counting `#[global_allocator]`. The counter is
//! process-global, and the test harness's own threads (spawning the next test, collecting a
//! finished one) allocate whenever they like, so no lock inside this process can keep them
//! out of a measured window. Each test therefore re-runs itself in a fresh process of this
//! binary with one test thread, after [`harness_warmup`], and passes only if that run reports
//! the test `ok`.

use bnn_serve::{
    ArrivalProcess, BatchPolicy, EngineSpec, InferenceEngine, ModelSpec, ServeMode, ServeReplica,
    WorkloadSpec,
};
use shift_bnn_bench::alloc::CountingAlloc;
use shift_bnn_bench::hot::{MomentProbe, ServeProbe, TracedServeProbe, TrainingProbe};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::system();

/// Set in the child process, where the test body runs instead of being re-launched.
const ALONE: &str = "SHIFT_BNN_ALLOC_ZERO_ALONE";

/// Set once [`harness_warmup`] has run in this process.
static HARNESS_WARM: AtomicBool = AtomicBool::new(false);

/// Runs first in every child process (one test thread runs the tests in name order). The
/// harness's main thread sizes its own bookkeeping after it starts its first test, while that
/// test already runs, so a measured test must never be the first one a process starts.
#[test]
fn harness_warmup() {
    HARNESS_WARM.store(true, Ordering::Relaxed);
}

/// Runs `body` as the only measured test of a fresh process: the child re-runs this binary
/// filtered to exactly [`harness_warmup`] and `name` with `--test-threads=1`, and `body`
/// measures there.
fn alone(name: &str, body: fn()) {
    if std::env::var_os(ALONE).is_some() {
        assert!(HARNESS_WARM.load(Ordering::Relaxed), "harness_warmup must run before {name}");
        return body();
    }
    let exe = std::env::current_exe().expect("the test binary's own path");
    let out = Command::new(exe)
        .args(["harness_warmup", name, "--exact", "--test-threads=1"])
        .env(ALONE, "1")
        .output()
        .expect("re-running the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains(&format!("test {name} ... ok")),
        "{name} failed in its own process:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

fn measure(mut work: impl FnMut()) -> (u64, u64) {
    let (a0, d0) = (ALLOC.allocations(), ALLOC.deallocations());
    work();
    (ALLOC.allocations() - a0, ALLOC.deallocations() - d0)
}

#[test]
fn steady_state_training_iteration_allocates_nothing() {
    alone("steady_state_training_iteration_allocates_nothing", || {
        let mut probe = TrainingProbe::new();
        // Warmup: grows the scratch arenas, caches and Vec capacities.
        probe.run(2);
        let (allocs, deallocs) = measure(|| probe.run(3));
        assert_eq!(allocs, 0, "training iterations allocated in the steady state");
        assert_eq!(deallocs, 0, "training iterations freed buffers instead of recycling them");
    });
}

#[test]
fn steady_state_served_request_allocates_nothing() {
    alone("steady_state_served_request_allocates_nothing", || {
        let mut probe = ServeProbe::new();
        probe.run(2);
        let (allocs, deallocs) = measure(|| probe.run(5));
        assert_eq!(allocs, 0, "served requests allocated in the steady state");
        assert_eq!(deallocs, 0, "served requests freed buffers instead of recycling them");
        assert!(probe.last_entropy() >= 0.0);
    });
}

#[test]
fn steady_state_moment_request_allocates_nothing() {
    alone("steady_state_moment_request_allocates_nothing", || {
        let mut probe = MomentProbe::new();
        probe.run(2);
        let (allocs, deallocs) = measure(|| probe.run(5));
        assert_eq!(allocs, 0, "analytic requests allocated in the steady state");
        assert_eq!(deallocs, 0, "analytic requests freed buffers instead of recycling them");
        assert!(probe.last_entropy() >= 0.0);
    });
}

#[test]
fn steady_state_traced_request_allocates_nothing() {
    alone("steady_state_traced_request_allocates_nothing", || {
        // The enabled recorder's recording path: serving plus five `record()` calls per
        // request into warmed capacity must stay invisible to the allocator.
        let mut probe = TracedServeProbe::new();
        probe.run(5);
        let (allocs, deallocs) = measure(|| probe.run(5));
        assert_eq!(allocs, 0, "traced requests allocated in the steady state");
        assert_eq!(deallocs, 0, "traced requests freed buffers instead of recycling them");
        assert_eq!(probe.events_recorded(), 5 * TracedServeProbe::EVENTS_PER_REQUEST);
        assert!(probe.last_entropy() >= 0.0);
    });
}

#[test]
fn warm_engine_run_builds_no_replica() {
    alone("warm_engine_run_builds_no_replica", || {
        // One 8-request run of the B-LeNet proxy at S = 16, batched as the wall-clock
        // benchmark's serving workloads are.
        let model = ModelSpec::lenet(7);
        let trace = WorkloadSpec::uniform(8, 200, 16, 7)
            .with_arrival(ArrivalProcess::Bursty { mean_burst: 8 })
            .generate(&model);
        let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 64 };
        for mode in [ServeMode::MonteCarlo, ServeMode::Moment] {
            let spec = EngineSpec::new(model.clone()).mode(mode).policy(policy);
            let engine = InferenceEngine::build(spec.clone());
            let runs: Vec<u64> = (0..3)
                .map(|_| measure(|| drop(std::hint::black_box(engine.run(&trace)))).0)
                .collect();
            let (build, _) = measure(|| drop(std::hint::black_box(ServeReplica::build(&spec))));
            assert_eq!(runs[1], runs[2], "{mode:?}: warm runs allocated {runs:?}");
            assert!(
                runs[0] >= runs[1] + build,
                "{mode:?}: runs allocated {runs:?}, so the second did not skip a replica build \
                 ({build} allocations)"
            );
        }
    });
}

#[test]
fn the_counter_itself_counts() {
    alone("the_counter_itself_counts", || {
        // Sanity: the instrument is live (a plain Vec allocation registers).
        let (allocs, _) = measure(|| {
            let v: Vec<u64> = Vec::with_capacity(32);
            std::hint::black_box(&v);
        });
        assert!(allocs >= 1, "counting allocator is not installed");
    });
}
