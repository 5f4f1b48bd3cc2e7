//! A persistent thread pool with one shared job queue.
//!
//! The paper's runtime executes rule applications on "a parallel work
//! stealing scheduler" whose sequential/parallel switch-over points are
//! exposed to the autotuner (§5.2). What is reproduced here is that
//! tunable switch-over (the `sequential_cutoff` of
//! [`crate::parallel::parallel_gen`], charged by the cost models); the
//! lock-free Chase–Lev deques are not — the traffic is one submitter
//! pushing batches a few chunks wide, so the pool is:
//!
//! * **Persistent workers, one FIFO.** `threads - 1` workers are
//!   spawned once and park between batches. A batch is split into
//!   contiguous chunks of its indices, one job each, all pushed onto
//!   the pool's single queue under its single lock.
//! * **Caller participation.** The submitter pops and runs jobs (its
//!   own or anyone's) until its batch is done, which also makes
//!   concurrent submitters deadlock-free.
//! * **Depth-aware admission.** A batch submitted from *inside* a pool
//!   task runs inline on the submitting thread: the outer batch already
//!   occupies the workers, and re-splitting would only add queue
//!   traffic and oversubscribe small machines. A top-level single-task
//!   batch runs inline too, without marking depth: its one task may be
//!   costly, and what it submits should still fan out.
//! * **Inline by the caller's estimate.** A submitter that knows its
//!   batch costs less than a dispatch ([`Pool::run_inline`]; the
//!   tuner's evaluator, from its measured trial times) runs it on its
//!   own thread as one pool task, depth marked, so the batches its
//!   tasks submit run inline as they would under a dispatched batch.
//! * **Panic propagation.** A panicking task aborts its batch's
//!   remaining chunks (best effort); the first payload is re-thrown on
//!   the submitter once the batch has drained.
//! * **Pool-owned completion.** A batch's bookkeeping (`BatchState`)
//!   lives on its submitter's stack, and the submitter returns as soon
//!   as it reads `remaining == 0`, so a job's decrement of `remaining`
//!   is its *last* access to the batch. The job that brings it to zero
//!   notifies `done`, a condvar owned by the pool-lifetime `Shared`.
//! * **Counters, not spans.** The pool's only instrumentation is
//!   [`Pool::batch_stats`]: three relaxed counters bumped once per
//!   top-level batch. Nothing is recorded per job.
//!
//! **Why no wake-up is lost.** Every push, pop, park and notify happens
//! under the one queue lock. A worker parks on `wake` only after seeing
//! the queue empty under the lock, and a submitter pushes and notifies
//! under it, so the notify cannot fall between the check and the wait.
//! A submitter waits on `done` only after seeing, under the lock, the
//! queue empty and its own `remaining != 0`: the rest of its batch is
//! then running elsewhere, and the last of those jobs takes the lock to
//! notify — after the submitter's wait released it. `done` is shared:
//! any batch's completion wakes every waiting submitter, and each
//! re-checks only its own `remaining`.
//!
//! **Watching before parking.** Before either wait, the thread re-reads
//! what it is waiting for (`remaining`, or the `pushed` batch counter)
//! a bounded number of times without the lock, then takes the lock and
//! decides as above. That is not part of the argument, only of the
//! timing: while a tuner runs, the next batch is microseconds away, and
//! how long a parked thread takes to come back is up to the host — the
//! one cost here that varied from run to run.

#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

thread_local! {
    /// How many pool tasks are currently executing on this thread
    /// (a worker running a job, or a blocked submitter helping).
    /// Batches submitted at depth >= 1 run inline — see
    /// [`Pool::run_indexed`].
    static TASK_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Increments the thread's task depth for its lifetime (panic-safe:
/// the decrement runs during unwinding too, so a panicking task does
/// not poison the thread's depth).
struct DepthGuard;

impl DepthGuard {
    fn enter() -> DepthGuard {
        TASK_DEPTH.with(|d| d.set(d.get() + 1));
        DepthGuard
    }
}

impl Drop for DepthGuard {
    fn drop(&mut self) {
        TASK_DEPTH.with(|d| d.set(d.get() - 1));
    }
}

/// How many pool tasks are executing on the current thread right now
/// (0 outside the pool). Exposed so schedulers and tests can observe
/// the depth-aware admission policy.
pub fn current_task_depth() -> usize {
    TASK_DEPTH.with(Cell::get)
}

/// One schedulable unit: a contiguous index range of some batch.
struct Job {
    /// The batch this job belongs to. The `BatchState` lives on the
    /// submitter's stack, and the submitter returns from
    /// [`Pool::run_ranges`] as soon as it observes `remaining == 0`.
    /// The pointer is therefore valid from the job's creation up to
    /// and including the job's own `remaining.fetch_sub` in
    /// [`BatchState::execute`] (until then `remaining >= 1` keeps the
    /// submitter blocked) — and must not be dereferenced after it.
    batch: *const BatchState,
    start: usize,
    end: usize,
}

// SAFETY: `Job` moves a raw `BatchState` pointer between threads. The
// pointee is `Sync` (below) and outlives every dereference: each job
// reads it only up to its own `remaining.fetch_sub` (see `Job::batch`).
unsafe impl Send for Job {}

/// Shared bookkeeping for one dispatched batch. Lives on the
/// submitter's stack; see [`Job::batch`] for how long jobs may use it.
struct BatchState {
    /// The chunk runner, as a raw wide pointer so `BatchState` can be
    /// stored behind `'static` jobs. Valid while the submitter blocks.
    task: *const (dyn Fn(Range<usize>) + Sync),
    /// Jobs not yet finished. A job's decrement is its last access to
    /// this struct.
    remaining: AtomicUsize,
    /// Set by the first panicking job; later jobs in the batch
    /// early-exit instead of doing work whose result will be thrown
    /// away by the propagated panic.
    poisoned: AtomicBool,
    /// The first panic payload, re-thrown on the submitting thread.
    panic: OnceLock<Box<dyn Any + Send>>,
}

// SAFETY: a `BatchState` is shared by reference between its submitter
// and the threads running its jobs, each of which stops using it at
// its own `remaining.fetch_sub` (see `Job::batch`), while the
// submitter — which owns the struct and the closure behind `task` —
// is still blocked in `run_ranges`. Field by field: `task` points at
// a `Sync` closure that is only ever called through `&`; `remaining`
// and `poisoned` are atomics; `panic` holds a `Send`-only payload
// that one job moves in (`OnceLock::set`) and only the submitter
// takes out, after every job's release-decrement has been acquired —
// it is never accessed through a shared reference from two threads.
unsafe impl Send for BatchState {}
unsafe impl Sync for BatchState {}

impl BatchState {
    /// Runs indices `start..end` and retires the job. Returns whether
    /// this was the batch's last job, in which case the caller must
    /// signal completion *without* touching `self` again: the
    /// decrement below releases the submitter, whose stack frame (and
    /// this struct with it) may be gone by the time this returns.
    fn execute(&self, start: usize, end: usize) -> bool {
        if !self.poisoned.load(Ordering::Relaxed) {
            let _depth = DepthGuard::enter();
            // SAFETY: the submitter keeps the closure alive until the
            // batch completes (it blocks in `run_ranges`).
            let task = unsafe { &*self.task };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(start..end))) {
                self.poisoned.store(true, Ordering::Relaxed);
                // First payload wins; a later one is dropped here.
                let _ = self.panic.set(payload);
            }
        }
        // Release: publishes this job's writes (results, the panic
        // slot) to the submitter's acquire load of `remaining`.
        self.remaining.fetch_sub(1, Ordering::AcqRel) == 1
    }
}

const POISONED: &str = "pool queue lock poisoned";

/// How often a thread with nothing to pop re-reads what it is waiting
/// for before it parks (~0.3 ms in all at ~16 ns a read). While a tuner
/// runs, batches are tens to hundreds of microseconds apart, and a
/// parked thread comes back only as fast as the host reschedules its
/// halted vCPU: microseconds on a quiet machine, a millisecond beside
/// busy neighbours. Watching across the gap keeps that out of every
/// batch; parking only bounds what an idle pool burns.
const WATCH_BEFORE_PARK: usize = 20_000;

/// Re-reads `waiting` until it is false or the watch runs out.
fn watch(waiting: impl Fn() -> bool) {
    for _ in 0..WATCH_BEFORE_PARK {
        if !waiting() {
            break;
        }
        std::hint::spin_loop();
    }
}

/// What the one lock guards.
struct Queue {
    jobs: VecDeque<Job>,
    /// Set by [`Pool::drop`]; a worker exits when it sees this on an
    /// empty queue, so a dropped pool still drains what was queued.
    shutdown: bool,
}

/// State shared between the pool handle and its worker threads (see
/// the module docs for the ordering argument).
struct Shared {
    queue: Mutex<Queue>,
    /// Batches pushed so far, bumped under the lock. Only a watching
    /// worker reads it without the lock, to see that the queue it
    /// found empty has changed.
    pushed: AtomicUsize,
    /// Parked workers wait here; submitters notify on new work.
    wake: Condvar,
    /// The completion channel: a submitter whose queue is empty waits
    /// here, and whichever thread retires the last job of any batch
    /// notifies. Owned by the pool, so a notifier never touches a
    /// submitter's stack.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect(POISONED)
    }

    /// Executes one job and, if it was its batch's last, wakes the
    /// waiting submitters through the pool-owned completion channel.
    fn run_job(&self, job: &Job) {
        // SAFETY: `job` has not run yet, so its batch state is alive
        // (see `Job::batch`); `execute` makes the job's `fetch_sub`
        // its final access, and nothing below dereferences
        // `job.batch` again.
        let last = unsafe { (*job.batch).execute(job.start, job.end) };
        if last {
            // Taking the lock orders this notify after a submitter's
            // check-then-wait, so the wake-up cannot be lost.
            let _queue = self.lock();
            self.done.notify_all();
        }
    }
}

/// Cumulative **top-level** batch counters for one pool: how many
/// batches were dispatched to the queues vs run inline, and how many
/// tasks they carried. Relaxed atomics, updated once per top-level
/// submission — batches submitted from
/// *inside* a pool task (nested parallelism running under the
/// depth-aware admission policy) are deliberately not counted, so
/// worker threads never touch those shared cache lines from their
/// inner loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolBatchStats {
    /// Batches fanned out across the workers.
    pub dispatched: u64,
    /// Batches run inline on the submitting thread (single-thread
    /// budget, a single-task batch, a `parallel_gen` below its cutoff,
    /// or [`Pool::run_inline`]); nested submissions are not counted.
    pub inline: u64,
    /// Total tasks across all batches.
    pub tasks: u64,
}

impl PoolBatchStats {
    /// The traffic between an `earlier` snapshot of the same pool's
    /// stats and this one. Kept only because the frozen benchmark
    /// (`ledger/src/layers.rs`) calls it; delete it with the next
    /// benchmark change.
    pub fn delta_since(&self, earlier: &PoolBatchStats) -> PoolBatchStats {
        PoolBatchStats {
            dispatched: self.dispatched.saturating_sub(earlier.dispatched),
            inline: self.inline.saturating_sub(earlier.inline),
            tasks: self.tasks.saturating_sub(earlier.tasks),
        }
    }

    /// Folds another delta into this one. Kept only because the frozen
    /// benchmark (`ledger/src/layers.rs`) calls it; delete it with the
    /// next benchmark change.
    pub fn absorb(&mut self, other: &PoolBatchStats) {
        self.dispatched += other.dispatched;
        self.inline += other.inline;
        self.tasks += other.tasks;
    }
}

/// A persistent thread pool (see the module docs).
pub struct Pool {
    shared: Arc<Shared>,
    /// Cached hardware thread budget (including the calling thread).
    threads: usize,
    dispatched: AtomicU64,
    inline: AtomicU64,
    tasks: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads)
            .finish()
    }
}

/// The environment variable overriding the global pool's thread count
/// (useful for determinism tests on small machines and for pinning CI).
pub const THREADS_ENV: &str = "PB_POOL_THREADS";

static GLOBAL: OnceLock<Pool> = OnceLock::new();

impl Pool {
    /// The lazily initialized process-wide pool.
    ///
    /// Sized to `std::thread::available_parallelism()` unless the
    /// `PB_POOL_THREADS` environment variable overrides it. The first
    /// caller fixes the thread budget for the life of the process.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| {
            let threads = std::env::var(THREADS_ENV)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism()
                        .map(|n| n.get())
                        .unwrap_or(1)
                });
            Pool::with_threads(threads)
        })
    }

    /// Creates a pool with an explicit thread budget of `threads`
    /// (counting the submitting thread: `threads - 1` workers are
    /// spawned, and `threads < 2` means "run everything inline").
    pub fn with_threads(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            pushed: AtomicUsize::new(0),
            wake: Condvar::new(),
            done: Condvar::new(),
        });
        for _ in 1..threads {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("pb-pool-worker".into())
                .spawn(move || worker_loop(&shared))
                .expect("failed to spawn pool worker");
        }
        Pool {
            shared,
            threads,
            dispatched: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
        }
    }

    /// The pool's thread budget (cached; no syscall per query).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Always 1: the pool has one queue (sharding was removed).
    /// Kept only because the frozen benchmark (`ledger/src/env.rs`)
    /// calls it; delete it with the next benchmark change.
    pub fn shards(&self) -> usize {
        1
    }

    /// Cumulative batch counters since the pool was created.
    pub fn batch_stats(&self) -> PoolBatchStats {
        PoolBatchStats {
            dispatched: self.dispatched.load(Ordering::Relaxed),
            inline: self.inline.load(Ordering::Relaxed),
            tasks: self.tasks.load(Ordering::Relaxed),
        }
    }

    /// Counts one top-level batch of `count` tasks against the stats.
    /// Also called by [`crate::parallel::parallel_gen`] for top-level
    /// batches its cutoff short-circuits before they reach the pool,
    /// so the counters see all top-level batch traffic, not just what
    /// dispatched.
    pub(crate) fn count_batch(&self, count: usize, dispatched: bool) {
        if dispatched {
            self.dispatched.fetch_add(1, Ordering::Relaxed);
        } else {
            self.inline.fetch_add(1, Ordering::Relaxed);
        }
        self.tasks.fetch_add(count as u64, Ordering::Relaxed);
    }

    /// Runs `task` on the calling thread as one inline batch of `count`
    /// tasks, marked as a pool task: a batch it submits (a kernel's
    /// nested [`crate::parallel::parallel_gen`]) runs inline too, as
    /// under a dispatched batch. For a caller that knows a batch is
    /// cheaper than a dispatch: `pb_tuner::exec`'s evaluator, for trial
    /// batches whose measured wall-time history says so. Counted in
    /// [`Pool::batch_stats`] as inline when submitted at the top level.
    pub fn run_inline<R>(&self, count: usize, task: impl FnOnce() -> R) -> R {
        if current_task_depth() == 0 {
            self.count_batch(count, false);
        }
        let _depth = DepthGuard::enter();
        task()
    }

    /// Runs `task(i)` for every `i` in `0..count` and blocks until all
    /// calls complete. Calls may run concurrently and in any order;
    /// the caller's thread participates.
    ///
    /// # Panics
    ///
    /// If any `task(i)` panics, the first panic payload is re-thrown
    /// here after the batch drains (remaining chunks are skipped on a
    /// best-effort basis).
    pub fn run_indexed<F>(&self, count: usize, task: F)
    where
        F: Fn(usize) + Sync,
    {
        self.run_ranges(count, &|range: Range<usize>| range.for_each(&task));
    }

    /// The length of the chunks a dispatched batch of `count` tasks is
    /// split into: at most `min(count, 4 · threads)` contiguous chunks,
    /// more than threads so a thread that finishes early finds more to
    /// pop.
    pub(crate) fn chunk_len(&self, count: usize) -> usize {
        count.div_ceil(self.threads * 4).max(1)
    }

    /// [`Pool::run_indexed`] by the range: runs `task` over contiguous
    /// ranges that together cover `0..count` once, one per job if the
    /// batch is dispatched (chunks of [`Pool::chunk_len`]), else one.
    pub(crate) fn run_ranges(&self, count: usize, task: &(dyn Fn(Range<usize>) + Sync)) {
        if count == 0 {
            return;
        }
        // Depth-aware admission (module docs): nested batches run
        // inline. Not counted in the batch stats — nested submissions
        // come from worker inner loops, where shared-atomic updates
        // would ping-pong cache lines — but still marked as pool tasks,
        // so further nesting observes the right depth.
        if current_task_depth() >= 1 {
            let _depth = DepthGuard::enter();
            return task(0..count);
        }
        // Top-level degenerate batches run inline *without* marking
        // task depth: their tasks occupy no worker, so parallelism
        // nested inside them should still fan out across the idle pool.
        if self.threads < 2 || count == 1 {
            self.count_batch(count, false);
            return task(0..count);
        }
        self.count_batch(count, true);

        let chunk_len = self.chunk_len(count);
        let chunks = count.div_ceil(chunk_len);

        // SAFETY: the transmute only erases the wide reference's
        // lifetime so jobs can carry it through the 'static queue
        // (same pointee type, same vtable). Sound because this
        // function does not return until every job of the batch has
        // executed, so the borrow outlives every dereference.
        let task_ptr: *const (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(task) };
        let state = BatchState {
            task: task_ptr,
            remaining: AtomicUsize::new(chunks),
            poisoned: AtomicBool::new(false),
            panic: OnceLock::new(),
        };

        let mut queue = self.shared.lock();
        let mut start = 0;
        while start < count {
            let end = (start + chunk_len).min(count);
            queue.jobs.push_back(Job {
                batch: &state,
                start,
                end,
            });
            start = end;
        }
        self.shared.pushed.fetch_add(1, Ordering::Relaxed);
        self.shared.wake.notify_all();

        // Help: execute queued jobs (ours or anyone's) until the batch
        // is done. The acquire load pairs with each job's
        // release-decrement.
        let mut watched = false;
        while state.remaining.load(Ordering::Acquire) != 0 {
            queue = match queue.jobs.pop_front() {
                Some(job) => {
                    drop(queue);
                    self.shared.run_job(&job);
                    watched = false;
                    self.shared.lock()
                }
                // Queue empty, batch unfinished: its last jobs are
                // running elsewhere. Watch for them first.
                None if !watched => {
                    drop(queue);
                    watch(|| state.remaining.load(Ordering::Acquire) != 0);
                    watched = true;
                    self.shared.lock()
                }
                // Still unfinished, seen under the lock: the final
                // job's notify needs the lock this wait releases.
                None => self.shared.done.wait(queue).expect(POISONED),
            };
        }
        drop(queue);

        if let Some(payload) = state.panic.into_inner() {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    /// Signals workers to drain and exit, so non-global pools (tests,
    /// ad-hoc instances) do not leak threads. The process-wide pool
    /// from [`Pool::global`] lives in a static and is never dropped.
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
    }
}

fn worker_loop(shared: &Shared) {
    let mut queue = shared.lock();
    let mut watched = false;
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            drop(queue);
            shared.run_job(&job);
            watched = false;
            queue = shared.lock();
        } else if queue.shutdown {
            return;
        } else if !watched {
            // Out of work: watch for the next batch before parking.
            let seen = shared.pushed.load(Ordering::Relaxed);
            drop(queue);
            watch(|| shared.pushed.load(Ordering::Relaxed) == seen);
            watched = true;
            queue = shared.lock();
        } else {
            queue = shared.wake.wait(queue).expect(POISONED);
            // If the submitter has already popped the whole batch,
            // stay up for the next one.
            watched = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = Pool::with_threads(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run_indexed(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn single_thread_budget_runs_inline() {
        let pool = Pool::with_threads(1);
        let caller = std::thread::current().id();
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        pool.run_indexed(64, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 1);
        assert!(seen.contains(&caller));
    }

    #[test]
    fn work_actually_spreads_across_threads() {
        let pool = Pool::with_threads(4);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        pool.run_indexed(256, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // Enough work per task that workers wake before it's over.
            std::thread::sleep(Duration::from_micros(200));
        });
        // Even on a single-core host the 3 workers plus the caller
        // timeshare; requiring >= 2 distinct threads keeps the test
        // robust while still proving jobs leave the calling thread.
        assert!(seen.into_inner().unwrap().len() >= 2);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let pool = Pool::with_threads(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(100, |i| {
                if i == 37 {
                    panic!("task 37 exploded");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "task 37 exploded");
        // The pool survives a panicked batch.
        let count = AtomicU64::new(0);
        pool.run_indexed(10, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = Pool::with_threads(3);
        let count = AtomicU64::new(0);
        pool.run_indexed(8, |_| {
            pool.run_indexed(8, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn nested_batches_run_inline_on_the_submitting_task() {
        let pool = Pool::with_threads(4);
        // Every inner task must execute on the thread of the outer task
        // that submitted it (depth-aware admission), at depth 2.
        let violations = AtomicU64::new(0);
        pool.run_indexed(16, |_| {
            assert_eq!(current_task_depth(), 1);
            let submitter = std::thread::current().id();
            pool.run_indexed(16, |_| {
                if std::thread::current().id() != submitter || current_task_depth() != 2 {
                    violations.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert_eq!(violations.load(Ordering::Relaxed), 0);
        // Depth unwinds once the batch completes.
        assert_eq!(current_task_depth(), 0);
    }

    #[test]
    fn top_level_single_task_batches_do_not_mark_depth() {
        // A degenerate top-level batch runs inline but occupies no
        // worker, so parallelism nested inside it must still fan out.
        let pool = Pool::with_threads(4);
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        pool.run_indexed(1, |_| {
            assert_eq!(current_task_depth(), 0, "inline top-level task");
            pool.run_indexed(64, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(Duration::from_micros(200));
            });
        });
        assert!(
            seen.into_inner().unwrap().len() >= 2,
            "nested batch under a single-task top-level batch must still fan out"
        );
    }

    #[test]
    fn run_inline_is_one_counted_pool_task_on_the_caller() {
        let pool = Pool::with_threads(4);
        let caller = std::thread::current().id();
        let seen: Mutex<HashSet<ThreadId>> = Mutex::new(HashSet::new());
        let depth = pool.run_inline(5, || {
            // What the inline batch submits stays on this thread.
            pool.run_indexed(64, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
            pool.run_inline(2, current_task_depth)
        });
        assert_eq!(depth, 2, "marked once per level");
        assert_eq!(seen.into_inner().unwrap(), HashSet::from([caller]));
        assert_eq!(current_task_depth(), 0);
        let stats = pool.batch_stats();
        assert_eq!((stats.dispatched, stats.inline, stats.tasks), (0, 1, 5));
    }

    #[test]
    fn depth_unwinds_after_a_panicking_task() {
        let pool = Pool::with_threads(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(4, |i| {
                if i == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(current_task_depth(), 0, "panic must not leak depth");
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = Pool::with_threads(4);
        pool.run_indexed(0, |_| panic!("must not run"));
        assert_eq!(pool.batch_stats(), PoolBatchStats::default());
    }

    #[test]
    fn batch_stats_track_dispatch_and_inline() {
        let pool = Pool::with_threads(4);
        pool.run_indexed(64, |_| {});
        let after_dispatch = pool.batch_stats();
        assert_eq!(after_dispatch.dispatched, 1);
        assert_eq!(after_dispatch.tasks, 64);
        // A single-task batch runs inline and is counted; nested
        // batches run inline on the submitting task and are *not*
        // counted (worker inner loops must not touch the shared
        // counters).
        pool.run_indexed(1, |_| {});
        pool.run_indexed(2, |_| {
            pool.run_indexed(3, |_| {});
        });
        let stats = pool.batch_stats();
        assert_eq!(stats.dispatched, 2);
        assert_eq!(stats.inline, 1, "only the degenerate top-level batch");
        assert_eq!(stats.tasks, 64 + 1 + 2);
    }

    #[test]
    fn batch_stats_delta_since_windows_the_counters() {
        let pool = Pool::with_threads(4);
        pool.run_indexed(64, |_| {});
        let snap = pool.batch_stats();
        pool.run_indexed(1, |_| {});
        pool.run_indexed(32, |_| {});
        let delta = pool.batch_stats().delta_since(&snap);
        assert_eq!(delta.dispatched, 1);
        assert_eq!(delta.inline, 1);
        assert_eq!(delta.tasks, 33);
        let mut acc = PoolBatchStats::default();
        acc.absorb(&delta);
        acc.absorb(&snap.delta_since(&PoolBatchStats::default()));
        assert_eq!(acc.tasks, 64 + 33);
    }

    #[test]
    fn dropping_a_pool_stops_its_workers() {
        let pool = Pool::with_threads(3);
        let count = AtomicU64::new(0);
        pool.run_indexed(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
        let weak = Arc::downgrade(&pool.shared);
        drop(pool);
        // Workers hold the only other Arc<Shared> references; once
        // they exit, the weak handle dangles.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while weak.upgrade().is_some() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(
            weak.upgrade().is_none(),
            "worker threads must exit after the pool is dropped"
        );
    }

    #[test]
    fn global_pool_threads_are_cached_and_positive() {
        let a = Pool::global().threads();
        let b = Pool::global().threads();
        assert_eq!(a, b);
        assert!(a >= 1);
        assert!(std::ptr::eq(Pool::global(), Pool::global()));
    }
}
