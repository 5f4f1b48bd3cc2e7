//! What `parallel_gen` asks of a multi-thread global pool: one
//! dispatched batch that counts every element as a task, and no leak
//! when `f` panics.
//!
//! A binary of its own: it fixes the global pool's width before first
//! use and compares `Pool::global().batch_stats()` snapshots, so the
//! tests take one lock and nothing else touches that pool meanwhile.

use pb_runtime::parallel::parallel_gen;
use pb_runtime::pool::{Pool, THREADS_ENV};
use pb_runtime::PoolBatchStats;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests.
static SERIAL: Mutex<()> = Mutex::new(());

/// The 4-thread global pool, held exclusively.
fn global_pool() -> (MutexGuard<'static, ()>, &'static Pool) {
    let serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(THREADS_ENV, "4");
    let pool = Pool::global();
    assert_eq!(pool.threads(), 4);
    (serial, pool)
}

#[test]
fn a_dispatched_map_counts_its_elements_as_tasks() {
    let (_serial, pool) = global_pool();
    for n in [2, 17, 1000] {
        let before = pool.batch_stats();
        let out = parallel_gen(n, 2, |i| i * 3);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
        assert_eq!(
            pool.batch_stats().delta_since(&before),
            PoolBatchStats {
                dispatched: 1,
                inline: 0,
                tasks: n as u64,
            },
            "n = {n}"
        );
    }
}

#[test]
fn a_panicking_f_drops_every_element_already_built() {
    static BUILT: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);

    #[derive(Debug)]
    struct Tracked;
    impl Drop for Tracked {
        fn drop(&mut self) {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }

    let (_serial, _pool) = global_pool();
    const N: usize = 10_000;
    let result = catch_unwind(AssertUnwindSafe(|| {
        parallel_gen(N, 2, |i| {
            if i == N / 2 {
                // The parts queued before this one are already taken,
                // so some element gets built while this one waits.
                while BUILT.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                panic!("f exploded at {i}");
            }
            BUILT.fetch_add(1, Ordering::Relaxed);
            Tracked
        })
    }));
    let payload = result.expect_err("the panic reaches the caller");
    assert_eq!(
        payload.downcast_ref::<String>().map(String::as_str),
        Some("f exploded at 5000")
    );
    let built = BUILT.load(Ordering::Relaxed);
    assert_eq!(
        DROPPED.load(Ordering::Relaxed),
        built,
        "built, then dropped once"
    );
}
