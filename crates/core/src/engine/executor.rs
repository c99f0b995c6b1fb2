//! The engine's shared work-queue executor: one pool, sized once, for every parallel job.
//!
//! The worker count is captured **once** at engine construction
//! ([`EngineBuilder::workers`](super::EngineBuilder::workers) or the available
//! parallelism at build time), the pool threads are spawned **once** (lazily, on the
//! first parallel job), and every parallel job in the engine — the row tiles of large
//! GEMMs and the band runs of named operands, from any number of concurrent callers —
//! drains through the **same** queue. N concurrent callers therefore share one pool
//! instead of each spawning threads per call: placement changes under load, results
//! never do (jobs are independent by construction — each writes its own disjoint output
//! slab).
//!
//! # Execution model
//!
//! [`Executor::run_all`] enqueues a set of borrowing jobs and blocks until every one has
//! finished. While blocked, the **calling thread helps**: it pops and runs queued jobs
//! (its own or anyone's) instead of sleeping. Two consequences:
//!
//! * **No deadlock by construction.** A job that itself calls `run_all` (nested
//!   parallelism) never waits on an idle queue while its sub-jobs starve — whoever waits,
//!   works. Inductively, every enqueued job is eventually run by a pool thread or a
//!   helping caller.
//! * **No oversubscription.** The pool holds `workers − 1` resident threads; the caller
//!   is the missing worker. A single tiled or banded GEMM thus computes on exactly
//!   `workers` threads, and concurrent batches *share* those threads instead of each
//!   spawning their own.
//!
//! Worker panics are caught **per job** and carried back to the submitting caller
//! indexed by job: [`Executor::run_all_isolated`] returns the per-job payloads so the
//! caller can fail exactly the work a panic belongs to (what the batch executor's
//! per-group containment builds on), while [`Executor::run_all`] re-raises the first
//! payload (`resume_unwind`) after the whole batch has settled — in both cases the
//! caller, never the pool, owns the failure: the pool survives.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use super::sync::{lock_or_panic, wait_or_panic};

/// One job handed to [`Executor::run_all`]: it may borrow from the caller's stack for
/// `'scope`.
pub(crate) type Job<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// A job as stored on the queue: lifetime-erased, completion-tracked (see the safety
/// note on [`Executor::run_all`]).
type QueuedJob = Job<'static>;

/// State shared between the pool threads and submitting callers.
#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    work_cv: Condvar,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

/// Completion latch for one `run_all` batch: counts outstanding jobs and carries every
/// job's panic payload — indexed by job — back to the submitting caller, so the caller
/// can attribute each panic to the exact job that raised it.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

struct LatchState {
    remaining: usize,
    panics: Vec<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new(jobs: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: jobs,
                panics: (0..jobs).map(|_| None).collect(),
            }),
            cv: Condvar::new(),
        }
    }

    // lint: hot-path, allow(indexing): index enumerates the same jobs vector the
    // panics vector was sized from in Latch::new
    fn complete(&self, index: usize, panic: Option<Box<dyn Any + Send>>) {
        let mut state = lock_or_panic(&self.state, "latch");
        state.remaining -= 1;
        state.panics[index] = panic;
        if state.remaining == 0 {
            self.cv.notify_all();
        }
    }

    // lint: hot-path
    fn is_done(&self) -> bool {
        lock_or_panic(&self.state, "latch").remaining == 0
    }

    /// Blocks until every job of the batch has completed, then returns the per-job
    /// panic payloads (`None` for jobs that finished cleanly).
    // lint: hot-path
    fn wait(&self) -> Vec<Option<Box<dyn Any + Send>>> {
        let mut state = lock_or_panic(&self.state, "latch");
        while state.remaining > 0 {
            state = wait_or_panic(&self.cv, state, "latch");
        }
        std::mem::take(&mut state.panics)
    }
}

/// The engine's shared worker pool: a fixed worker count captured at construction, a
/// single FIFO job queue, and lazily spawned resident threads (see the [module
/// docs](self)).
pub(crate) struct Executor {
    workers: usize,
    shared: Arc<Shared>,
    pool: Mutex<Pool>,
}

#[derive(Debug, Default)]
struct Pool {
    handles: Vec<JoinHandle<()>>,
    spawned: bool,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers)
            .field("pool_threads", &self.pool_threads())
            .finish()
    }
}

impl Executor {
    /// An executor with `workers` total execution slots (clamped to at least 1). Pool
    /// threads (`workers − 1`; callers are the last worker) are spawned lazily on the
    /// first parallel [`run_all`](Self::run_all), never per call.
    pub(crate) fn new(workers: usize) -> Self {
        Executor {
            workers: workers.max(1),
            shared: Arc::new(Shared::default()),
            pool: Mutex::new(Pool::default()),
        }
    }

    /// The worker count captured at construction. Every placement decision in the engine
    /// derives from this number — it never re-reads the environment.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Resident pool threads spawned so far: 0 before the first parallel job, and
    /// exactly `workers − 1` after it, **forever** — per-call spawning is the failure
    /// mode this executor exists to remove, and tests pin this counter to prove it.
    pub(crate) fn pool_threads(&self) -> usize {
        lock_or_panic(&self.pool, "executor pool").handles.len()
    }

    fn ensure_spawned(&self) {
        let mut pool = lock_or_panic(&self.pool, "executor pool");
        if pool.spawned {
            return;
        }
        pool.spawned = true;
        for i in 0..self.workers - 1 {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("tasd-executor-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn executor worker");
            pool.handles.push(handle);
        }
    }

    /// Runs every job to completion, distributing them over the pool; blocks until the
    /// last one finishes, helping with queued work while it waits. Jobs may borrow from
    /// the caller's stack. If any job panics, the first panic (by job index) is
    /// re-raised here after the whole batch has settled.
    // lint: hot-path
    pub(crate) fn run_all<'scope>(&self, jobs: Vec<Job<'scope>>) {
        let mut panics = self.run_all_isolated(jobs);
        if let Some(payload) = panics.iter_mut().find_map(Option::take) {
            resume_unwind(payload);
        }
    }

    /// [`run_all`](Self::run_all) with per-job panic isolation: every job runs to
    /// completion (panicking or not), and the return value maps each job index to its
    /// panic payload — `None` for jobs that finished cleanly. Nothing is re-raised:
    /// the caller decides what a panic fails (this is what lets the batch executor
    /// fail one request group without taking the window down).
    ///
    /// With one worker (or one job) everything runs inline on the caller — the
    /// single-core configuration pays no queue or thread cost.
    // lint: hot-path
    pub(crate) fn run_all_isolated<'scope>(
        &self,
        jobs: Vec<Job<'scope>>,
    ) -> Vec<Option<Box<dyn Any + Send>>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        if self.workers == 1 || jobs.len() == 1 {
            return jobs
                .into_iter()
                .map(|job| catch_unwind(AssertUnwindSafe(job)).err())
                .collect();
        }
        self.ensure_spawned();
        let latch = Arc::new(Latch::new(jobs.len()));
        {
            let mut queue = lock_or_panic(&self.shared.queue, "executor queue");
            for (index, job) in jobs.into_iter().enumerate() {
                // SAFETY: erasing `'scope` to `'static` is sound because the
                // completion latch pins the erased job's lifetime inside `'scope`:
                //
                // * `latch` starts at `jobs.len()` and every wrapper below decrements
                //   it exactly once — the job runs under `catch_unwind`, so the
                //   decrement happens even if the job panics.
                // * `run_all_isolated` does not return before `latch` reaches zero
                //   (both `break` arms of the help loop go through `latch.wait()`), so
                //   every erased job has been consumed — run to completion by a pool
                //   thread or by this caller — before the borrows it captures expire.
                // * No erased job outlives the queue unrun: `shutdown` is only set in
                //   `Drop`, which takes `&mut self` and therefore cannot overlap an
                //   in-flight `run_all_isolated` borrow of `self`.
                let job = unsafe { std::mem::transmute::<Job<'scope>, QueuedJob>(job) };
                let latch = Arc::clone(&latch);
                queue.jobs.push_back(Box::new(move || {
                    let panic = catch_unwind(AssertUnwindSafe(job)).err();
                    latch.complete(index, panic);
                }));
            }
        }
        self.shared.work_cv.notify_all();
        // Help while waiting: run queued jobs (ours or anyone's) instead of sleeping.
        // See the module docs for why this makes nested run_all deadlock-free.
        loop {
            if latch.is_done() {
                break latch.wait();
            }
            let job = lock_or_panic(&self.shared.queue, "executor queue")
                .jobs
                .pop_front();
            match job {
                Some(job) => job(),
                // Queue drained but our jobs still running on pool threads: sleep on
                // the latch until the last one completes.
                None => break latch.wait(),
            }
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        {
            let mut queue = lock_or_panic(&self.shared.queue, "executor queue");
            queue.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        let handles = std::mem::take(&mut lock_or_panic(&self.pool, "executor pool").handles);
        for handle in handles {
            let _ = handle.join();
        }
    }
}

// lint: hot-path
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock_or_panic(&shared.queue, "executor queue");
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                queue = wait_or_panic(&shared.work_cv, queue, "executor queue");
            }
        };
        job();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn boxed<'a>(f: impl FnOnce() + Send + 'a) -> Box<dyn FnOnce() + Send + 'a> {
        Box::new(f)
    }

    #[test]
    fn runs_every_job_exactly_once() {
        for workers in [1usize, 2, 4] {
            let exec = Executor::new(workers);
            let counter = AtomicUsize::new(0);
            let jobs = (0..37)
                .map(|_| {
                    let counter = &counter;
                    boxed(move || {
                        counter.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            exec.run_all(jobs);
            assert_eq!(counter.load(Ordering::Relaxed), 37, "workers={workers}");
        }
    }

    #[test]
    fn jobs_can_borrow_and_write_disjoint_slabs() {
        let exec = Executor::new(4);
        let mut data = vec![0u32; 64];
        let jobs = data
            .chunks_mut(16)
            .enumerate()
            .map(|(i, chunk)| {
                boxed(move || {
                    for v in chunk.iter_mut() {
                        *v = i as u32 + 1;
                    }
                })
            })
            .collect();
        exec.run_all(jobs);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i / 16) as u32 + 1);
        }
    }

    #[test]
    fn pool_threads_are_spawned_once_not_per_call() {
        let exec = Executor::new(3);
        assert_eq!(exec.pool_threads(), 0, "pool is lazy");
        for _ in 0..10 {
            let jobs = (0..6).map(|_| boxed(|| {})).collect();
            exec.run_all(jobs);
            assert_eq!(exec.pool_threads(), 2, "workers − 1, spawned exactly once");
        }
    }

    #[test]
    fn single_worker_runs_inline_without_threads() {
        let exec = Executor::new(1);
        let jobs = (0..8).map(|_| boxed(|| {})).collect::<Vec<_>>();
        exec.run_all(jobs);
        assert_eq!(exec.pool_threads(), 0);
    }

    #[test]
    fn nested_run_all_does_not_deadlock() {
        let exec = Arc::new(Executor::new(2));
        let counter = AtomicUsize::new(0);
        let jobs = (0..4)
            .map(|_| {
                let exec = Arc::clone(&exec);
                let counter = &counter;
                boxed(move || {
                    let inner = (0..3)
                        .map(|_| {
                            let counter = &counter;
                            boxed(move || {
                                counter.fetch_add(1, Ordering::Relaxed);
                            })
                        })
                        .collect();
                    exec.run_all(inner);
                })
            })
            .collect();
        exec.run_all(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn job_panics_propagate_to_the_caller_and_the_pool_survives() {
        let exec = Executor::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            exec.run_all(vec![
                boxed(|| {}),
                boxed(|| panic!("kernel exploded")),
                boxed(|| {}),
            ]);
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        // The pool is still serviceable afterwards.
        let counter = AtomicUsize::new(0);
        let jobs = (0..4)
            .map(|_| {
                let counter = &counter;
                boxed(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
            })
            .collect();
        exec.run_all(jobs);
        assert_eq!(counter.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let exec = Arc::new(Executor::new(4));
        let total = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let exec = Arc::clone(&exec);
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    for _ in 0..5 {
                        let jobs = (0..8)
                            .map(|_| {
                                let total = &total;
                                boxed(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                })
                            })
                            .collect();
                        exec.run_all(jobs);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 5 * 8);
        assert_eq!(
            exec.pool_threads(),
            3,
            "one shared pool, not one per caller"
        );
    }
}
