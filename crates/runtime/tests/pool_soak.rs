//! Soak tests for the pool: the failure modes that only show after
//! many batches.
//!
//! The pool has no timed waits, so a lost wake-up is a hang: every test
//! runs its body under [`with_deadline`] and fails with a message
//! instead of stalling CI.
//!
//! The first one pins the pool's completion protocol. A batch's
//! bookkeeping lives on the submitter's stack and the submitter
//! returns as soon as it sees the last job retired, so nothing may
//! touch that bookkeeping after a job's final decrement. A pool that
//! signals completion through the batch itself (as this one once did)
//! has its last worker lock and notify inside a dead stack frame: the
//! canary below then sees foreign writes in memory the submitter has
//! already reused, or the worker dies on the garbage it read and every
//! later batch silently runs on the caller alone.

use pb_runtime::pool::{current_task_depth, Pool};
use std::collections::HashSet;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generous: the longest body (a full-length canary) takes a few
/// seconds on two cores.
const DEADLINE: Duration = Duration::from_secs(if cfg!(debug_assertions) { 60 } else { 120 });

/// Runs `body` on a thread of its own and fails the test if it has not
/// returned by [`DEADLINE`]; a panic in `body` is re-thrown as is.
fn with_deadline(body: impl FnOnce() + Send + 'static) {
    let (finished, wait) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        body();
        let _ = finished.send(());
    });
    match wait.recv_timeout(DEADLINE) {
        Ok(()) => handle.join().expect("body finished"),
        // The sender dropped unsent: `body` is unwinding.
        Err(RecvTimeoutError::Disconnected) => {
            resume_unwind(handle.join().expect_err("body panicked"))
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("still running after {DEADLINE:?}: a pool thread missed a wake-up")
        }
    }
}

/// Batches per canary run. An unoptimized canary costs ~90 us per
/// batch, so debug builds (tier-1) run a shorter soak to stay within
/// seconds; CI runs the full length in release. (The defect this pins
/// showed within 300 k batches in release and 2 k in debug.)
const CANARY_BATCHES: usize = if cfg!(debug_assertions) {
    40_000
} else {
    1_000_000
};

const CANARY_WORDS: usize = 1024;
const CANARY_PATTERN: usize = 0xA5C3_3C5A;

/// Submits one no-op batch from its own stack frame, so the batch
/// bookkeeping sits in memory the next call to [`canary`] reuses.
#[inline(never)]
fn submit_noop(pool: &Pool, width: usize) {
    pool.run_indexed(width, |_| {});
}

/// Fills the stack region [`submit_noop`] just vacated with a pattern
/// and re-reads it; returns how many words some other thread changed.
#[inline(never)]
fn canary() -> usize {
    let mut buf = [0usize; CANARY_WORDS];
    for word in buf.iter_mut() {
        // SAFETY: `word` is a valid, aligned `&mut usize`; volatile
        // only keeps the compiler from eliding the buffer.
        unsafe { std::ptr::write_volatile(word, CANARY_PATTERN) };
    }
    let mut changed = 0;
    for _ in 0..8 {
        for word in buf.iter() {
            // SAFETY: as above, for a shared read.
            if unsafe { std::ptr::read_volatile(word) } != CANARY_PATTERN {
                changed += 1;
            }
        }
    }
    changed
}

/// How many distinct threads of `pool` are alive: one single-task job
/// per budgeted thread, each holding its thread until all of them have
/// started — which takes every worker plus the caller. A dead worker
/// shows as a short count once the deadline passes.
fn live_threads(pool: &Pool) -> usize {
    let want = pool.threads();
    let started = AtomicUsize::new(0);
    let seen = Mutex::new(HashSet::new());
    let deadline = Instant::now() + Duration::from_secs(5);
    pool.run_indexed(want, |_| {
        seen.lock().unwrap().insert(std::thread::current().id());
        started.fetch_add(1, Ordering::SeqCst);
        while started.load(Ordering::SeqCst) < want && Instant::now() < deadline {
            std::thread::yield_now();
        }
    });
    seen.into_inner().unwrap().len()
}

fn completion_never_touches_a_returned_submitter(threads: usize) {
    let pool = Pool::with_threads(threads);
    for batch in 0..CANARY_BATCHES {
        submit_noop(&pool, 2 + batch % 3);
        let changed = canary();
        assert_eq!(
            changed, 0,
            "batch {batch}: a pool thread wrote into the submitter's dead stack frame"
        );
    }
    assert_eq!(
        live_threads(&pool),
        threads,
        "a worker died during the soak"
    );
}

#[test]
fn completion_never_touches_a_returned_submitter_2_threads() {
    with_deadline(|| completion_never_touches_a_returned_submitter(2));
}

#[test]
fn completion_never_touches_a_returned_submitter_4_threads() {
    with_deadline(|| completion_never_touches_a_returned_submitter(4));
}

#[test]
fn parked_workers_wake_for_every_batch() {
    // The back-to-back soaks above almost never let a worker park;
    // here every round starts with all of them parked (the sleep
    // outlasts their ~0.3 ms watch several times over), and a worker
    // that sleeps through the notify shows as a short thread count.
    with_deadline(|| {
        for threads in [2, 4] {
            let pool = Pool::with_threads(threads);
            for round in 0..300 {
                std::thread::sleep(Duration::from_millis(2));
                assert_eq!(
                    live_threads(&pool),
                    threads,
                    "round {round}: a parked worker missed its wake-up"
                );
            }
        }
    });
}

#[test]
fn concurrent_submitters_complete_independently() {
    // Any batch's completion wakes every waiting submitter; each must
    // re-check only its own batch, return when that one is done, and
    // have had every index run exactly once.
    const SUBMITTERS: usize = 3;
    const BATCHES: usize = 20_000;
    const WIDTH: usize = 3;
    with_deadline(|| {
        let pool = Pool::with_threads(4);
        std::thread::scope(|scope| {
            for _ in 0..SUBMITTERS {
                scope.spawn(|| {
                    for batch in 0..BATCHES {
                        let runs: [AtomicUsize; WIDTH] = Default::default();
                        pool.run_indexed(WIDTH, |i| {
                            runs[i].fetch_add(1, Ordering::Relaxed);
                        });
                        for (i, run) in runs.iter().enumerate() {
                            assert_eq!(run.load(Ordering::Relaxed), 1, "batch {batch} index {i}");
                        }
                    }
                });
            }
        });
        assert_eq!(live_threads(&pool), 4);
    });
}

#[test]
fn pool_survives_repeated_panicking_jobs() {
    with_deadline(pool_survives_repeated_panicking_jobs_body);
}

fn pool_survives_repeated_panicking_jobs_body() {
    struct Boom(usize);
    let pool = Pool::with_threads(4);
    for round in 0..20_000 {
        let width = 2 + round % 15;
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(width, |i| {
                if i == round % width {
                    // Unwinds like `panic!` but skips the panic hook,
                    // so thousands of rounds stay quiet.
                    resume_unwind(Box::new(Boom(round)));
                }
            });
        }));
        let payload = result.expect_err("the job's panic must reach the submitter");
        let boom = payload
            .downcast_ref::<Boom>()
            .expect("the job's own payload is re-thrown");
        assert_eq!(boom.0, round);
        assert_eq!(current_task_depth(), 0, "round {round} leaked task depth");
    }
    let ran = AtomicUsize::new(0);
    pool.run_indexed(1000, |_| {
        ran.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(ran.load(Ordering::Relaxed), 1000);
    assert_eq!(live_threads(&pool), 4, "a worker died of a job's panic");
}

#[test]
fn nested_batches_under_load() {
    with_deadline(nested_batches_under_load_body);
}

fn nested_batches_under_load_body() {
    // Several top-level submitters share the global pool (sized by
    // `PB_POOL_THREADS`) — and with it the one completion channel —
    // while every task submits a nested batch of its own.
    const SUBMITTERS: usize = 3;
    const ROUNDS: usize = 20_000;
    let pool = Pool::global();
    // A single-thread budget runs top-level batches inline without
    // marking depth, so there is no placement to check.
    let pooled = pool.threads() >= 2;
    let inner_runs = AtomicUsize::new(0);
    let misplaced = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..SUBMITTERS {
            scope.spawn(|| {
                for _ in 0..ROUNDS {
                    pool.run_indexed(8, |_| {
                        let outer_depth = current_task_depth();
                        let outer_thread = std::thread::current().id();
                        pool.run_indexed(4, |_| {
                            inner_runs.fetch_add(1, Ordering::Relaxed);
                            if pooled
                                && (std::thread::current().id() != outer_thread
                                    || current_task_depth() != outer_depth + 1)
                            {
                                misplaced.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    });
                    assert_eq!(current_task_depth(), 0);
                }
            });
        }
    });
    assert_eq!(
        inner_runs.load(Ordering::Relaxed),
        SUBMITTERS * ROUNDS * 8 * 4
    );
    assert_eq!(
        misplaced.load(Ordering::Relaxed),
        0,
        "nested batches must run inline on the submitting task"
    );
    assert_eq!(live_threads(pool), pool.threads());
}
