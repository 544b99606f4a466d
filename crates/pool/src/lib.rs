//! A small work-stealing pool of scoped `std::thread` workers.
//!
//! The container this workspace builds in has no crates.io access (no `rayon`, no
//! `crossbeam`), so the workspace brings its own scheduler. It began life inside the
//! design-space sweep engine of `shift-bnn` (which keeps a `shift_bnn::pool` re-export) and
//! is now a bottom-of-the-stack crate because the tensor kernels (`bnn-tensor`, for M-split
//! parallel GEMM) and the serving engine (`bnn-serve`, for batched Monte-Carlo inference
//! jobs) share it. It is deliberately tiny:
//!
//! * jobs are the indices `0..jobs` of a known-size batch — exactly what a design-space grid
//!   enumeration, a coalesced inference workload, or a row-partitioned GEMM produces;
//! * every worker owns a deque seeded with a contiguous slice of the index space and pops work
//!   from its front; an idle worker *steals* the back half of the fullest victim's deque, so an
//!   unlucky worker stuck with the expensive B-VGG points sheds load to the ones that drew
//!   B-MLP;
//! * results are collected per worker as `(index, value)` pairs and merged by index, so the
//!   output order is the *grid* order regardless of which worker finished what when — the
//!   property both the sweep and serving determinism tests pin down;
//! * [`run_indexed_with`] additionally gives every worker a private state value built once per
//!   worker (an inference engine's model replica, for instance), so jobs that need an expensive
//!   mutable context don't rebuild it per job — and because results still merge by index, the
//!   state must never let one job's outcome depend on which worker ran it.
//!
//! Workers are `std::thread::scope` threads: they may borrow the job closure (and everything it
//! captures) from the caller's stack, and a panicking job propagates to the caller on join.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::VecDeque;
use std::sync::Mutex;

/// Runs `job(i)` for every `i in 0..jobs` on `workers` threads and returns the results in
/// index order.
///
/// `workers` is clamped to `1..=jobs` (a single worker runs the batch inline on the calling
/// thread). The output at position `i` is `job(i)` — completion order never leaks into the
/// result, which is what makes sweep reports byte-identical across worker counts.
///
/// # Panics
///
/// Propagates the first panic raised by any job.
pub fn run_indexed<T, F>(jobs: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(jobs, workers, |_| (), move |(), i| job(i))
}

/// Like [`run_indexed`], but every worker first builds a private state value with `init(w)`
/// (called on the worker's own thread) and each job receives `&mut` access to the state of
/// whichever worker runs it.
///
/// This is how the serving engine gives each worker its own replica of a frozen model
/// posterior: replicas are built once per worker, not once per request. Because work stealing
/// makes the job→worker assignment nondeterministic, `job(state, i)`'s *result* must be a pure
/// function of `i` — worker state may cache and scratch, but it must not change outcomes. The
/// determinism tests (sweep and serving) exist to catch violations.
///
/// The state type `S` needs neither `Send` nor `Sync`: each state is created, used and dropped
/// entirely on one worker thread.
///
/// # Panics
///
/// Propagates the first panic raised by `init` or any job.
pub fn run_indexed_with<S, T, I, F>(jobs: usize, workers: usize, init: I, job: F) -> Vec<T>
where
    T: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs);
    if workers == 1 {
        let mut state = init(0);
        return (0..jobs).map(|i| job(&mut state, i)).collect();
    }

    // Seed each worker's deque with a contiguous slice of the index space; stealing rebalances
    // from there. Striding (round-robin) would balance statically but destroy the locality of
    // neighbouring grid points, and stealing makes static balance unnecessary anyway.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = jobs * w / workers;
            let hi = jobs * (w + 1) / workers;
            Mutex::new((lo..hi).collect())
        })
        .collect();

    let mut results: Vec<Option<T>> = Vec::with_capacity(jobs);
    results.resize_with(jobs, || None);
    let slots = Mutex::new(&mut results);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let queues = &queues;
            let init = &init;
            let job = &job;
            let slots = &slots;
            scope.spawn(move || {
                let mut state = init(w);
                let mut local: Vec<(usize, T)> = Vec::new();
                while let Some(index) = next_job(queues, w) {
                    local.push((index, job(&mut state, index)));
                }
                let mut slots = slots.lock().unwrap();
                for (index, value) in local {
                    slots[index] = Some(value);
                }
            });
        }
    });

    results.into_iter().map(|v| v.expect("every job index produced a result")).collect()
}

/// Pops the next index for worker `w`: front of its own deque, else steal from a victim.
fn next_job(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    if let Some(index) = queues[w].lock().unwrap().pop_front() {
        return Some(index);
    }
    steal_into(queues, w)
}

/// Steals the back half of the fullest other deque into worker `w`'s deque and returns the
/// first stolen index, or `None` when every deque is empty (the batch is done).
fn steal_into(queues: &[Mutex<VecDeque<usize>>], w: usize) -> Option<usize> {
    loop {
        // Pick the victim with the most queued work. Lengths are read without holding more
        // than one lock at a time; a stale read just means another stealing round.
        let victim = (0..queues.len())
            .filter(|&v| v != w)
            .map(|v| (v, queues[v].lock().unwrap().len()))
            .max_by_key(|&(_, len)| len)
            .filter(|&(_, len)| len > 0);
        let (victim, _) = victim?;
        let stolen: Vec<usize> = {
            let mut q = queues[victim].lock().unwrap();
            let keep = q.len() / 2;
            q.split_off(keep).into()
        };
        // The victim may have drained between the length read and the lock; try again.
        if stolen.is_empty() {
            continue;
        }
        let mut own = queues[w].lock().unwrap();
        own.extend(stolen);
        return own.pop_front();
    }
}

/// The worker count the sweep engine uses by default: the machine's available parallelism,
/// capped at 8 (the paper grid has few hundred points; more threads only add contention).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_index_order() {
        for workers in [1, 2, 3, 8] {
            let out = run_indexed(23, workers, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "workers {workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let runs: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(100, 4, |i| runs[i].fetch_add(1, Ordering::SeqCst));
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn uneven_job_costs_still_complete_in_order() {
        // The first worker's contiguous slice is artificially expensive; stealing redistributes
        // it, and the merged output must still be in index order.
        let out = run_indexed(64, 4, |i| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn steal_takes_the_back_half_of_the_fullest_victim() {
        let queues: Vec<Mutex<VecDeque<usize>>> = vec![
            Mutex::new(VecDeque::new()),
            Mutex::new((0..4).collect()),
            Mutex::new((10..20).collect()),
        ];
        // Worker 0 is empty; the fullest victim is queue 2, whose back half (15..20) moves over.
        let got = steal_into(&queues, 0).unwrap();
        assert_eq!(got, 15);
        assert_eq!(
            queues[0].lock().unwrap().iter().copied().collect::<Vec<_>>(),
            vec![16, 17, 18, 19]
        );
        assert_eq!(queues[2].lock().unwrap().len(), 5);
        assert_eq!(queues[1].lock().unwrap().len(), 4, "the smaller victim is untouched");
    }

    #[test]
    fn steal_returns_none_when_all_queues_are_empty() {
        let queues: Vec<Mutex<VecDeque<usize>>> =
            vec![Mutex::new(VecDeque::new()), Mutex::new(VecDeque::new())];
        assert!(steal_into(&queues, 0).is_none());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        assert_eq!(run_indexed(3, 16, |i| i + 1), vec![1, 2, 3]);
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(5, 0, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_worker_runs_inline_without_spawning() {
        let main_thread = std::thread::current().id();
        let out = run_indexed(4, 1, |i| {
            assert_eq!(std::thread::current().id(), main_thread);
            i
        });
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn default_workers_is_at_least_one() {
        let w = default_workers();
        assert!((1..=8).contains(&w));
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_reused() {
        let inits = AtomicUsize::new(0);
        let workers = 4;
        let out = run_indexed_with(
            64,
            workers,
            |w| {
                inits.fetch_add(1, Ordering::SeqCst);
                (w, 0usize) // (worker id, jobs served by this state)
            },
            |state, i| {
                state.1 += 1;
                i * 2
            },
        );
        assert_eq!(out, (0..64).map(|i| i * 2).collect::<Vec<_>>());
        // One init per spawned worker — never one per job.
        let built = inits.load(Ordering::SeqCst);
        assert!(built <= workers, "built {built} states for {workers} workers");
        assert!(built >= 1);
    }

    #[test]
    fn single_worker_state_runs_inline() {
        let main_thread = std::thread::current().id();
        let out = run_indexed_with(
            5,
            1,
            |w| {
                assert_eq!(w, 0);
                assert_eq!(std::thread::current().id(), main_thread);
                Vec::<usize>::new()
            },
            |scratch, i| {
                scratch.push(i);
                scratch.len()
            },
        );
        // A single worker serves all jobs in order with one accumulating state.
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn stateful_results_are_deterministic_across_worker_counts() {
        let baseline = run_indexed_with(40, 1, |_| (), |(), i| i * i + 1);
        for workers in [2, 3, 8] {
            let got = run_indexed_with(40, workers, |_| (), |(), i| i * i + 1);
            assert_eq!(got, baseline, "workers {workers}");
        }
    }
}
