//! Data-parallel helpers with tunable sequential cutoffs.
//!
//! The original PetaBricks runtime automatically parallelized rule
//! applications with a work-stealing scheduler and tuned the
//! sequential/parallel cutoff. We reproduce the essential behaviour: a
//! data-parallel map with a tunable sequential cutoff, built on the
//! persistent [`Pool`]. Benchmarks
//! call [`parallel_gen`] with a cutoff read from
//! their configuration, so the tuner controls the switch-over point
//! exactly as in the paper (§5.2 "switching points from a parallel
//! work stealing scheduler to sequential code").

#![deny(unsafe_op_in_unsafe_fn)]

use crate::pool::Pool;

/// A raw output pointer that may cross thread boundaries.
///
/// Tasks write disjoint slots (`ptr.add(i)` for distinct `i`), which is
/// what makes sharing the pointer sound.
struct SendPtr<T>(*mut T);

// SAFETY: `SendPtr` is only used to fan one allocation's slots out to
// pool tasks that write disjoint indices (`ptr.add(i)` for distinct
// `i`, each within capacity, each written exactly once), while the
// owning `Vec` is pinned on the submitting thread for the duration of
// the batch. `T: Send` because ownership of each written slot
// transfers back to the submitter.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: tasks share `&SendPtr` across threads; disjoint-slot writes
// (above) are the only access, so no synchronization on the pointee is
// needed beyond the batch-completion fence `run_indexed` provides.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// Whether a map of `count` elements with the given cutoff runs on
/// the pool (as opposed to inline on the calling thread).
///
/// This is the single source of truth for the switch-over decision:
/// [`parallel_gen`] branches on it, and cost models
/// that charge for the schedule (e.g. the clustering benchmark's
/// `par_cutoff` tunable) query it rather than duplicating the
/// condition.
pub fn parallel_engages(count: usize, sequential_cutoff: usize) -> bool {
    count >= sequential_cutoff.max(2) && Pool::global().threads() >= 2
}

/// Builds a `Vec` whose `i`-th element is `f(i)`, splitting across the
/// global pool when at least `sequential_cutoff` elements are
/// requested.
///
/// With fewer elements than the cutoff (or a single-thread budget) the
/// map runs sequentially on the calling thread, which is the tuned
/// fast path for small inputs. Results are written straight into their
/// final slots — no intermediate `Vec<Option<O>>`.
///
/// # Panics
///
/// Propagates the first panic from `f`. Elements already produced by
/// other tasks are leaked (not dropped) in that case.
///
/// # Examples
///
/// ```
/// use pb_runtime::parallel::parallel_gen;
///
/// let squares = parallel_gen(4, 2, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub fn parallel_gen<O, F>(count: usize, sequential_cutoff: usize, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    if !parallel_engages(count, sequential_cutoff) {
        // Below-cutoff top-level batches never reach the pool; record
        // them as inline so `Pool::batch_stats` reflects the full
        // top-level batch traffic. Nested calls skip the counters —
        // see `PoolBatchStats`.
        if count > 0 && crate::pool::current_task_depth() == 0 {
            Pool::global().count_batch(count, false);
            if pb_trace::enabled() {
                let seq = pb_trace::next_seq();
                let start = pb_trace::now_ns();
                let out = (0..count).map(f).collect();
                pb_trace::record(pb_trace::Event::span(
                    pb_trace::EventKind::PoolBatch,
                    seq,
                    0,
                    start,
                    [count as u64, 1, 0, 0],
                ));
                return out;
            }
        }
        return (0..count).map(f).collect();
    }
    let pool = Pool::global();
    let mut out: Vec<O> = Vec::with_capacity(count);
    let slots = SendPtr(out.as_mut_ptr());
    let slots = &slots;
    pool.run_indexed(count, |i| {
        // SAFETY: `i` values are distinct across tasks, so each slot
        // is written exactly once, within the Vec's capacity, while
        // `out` (len 0) is fenced by `run_indexed`'s completion.
        unsafe { slots.0.add(i).write(f(i)) };
    });
    // SAFETY: `run_indexed` returned without panicking, so all `count`
    // slots were initialized.
    unsafe { out.set_len(count) };
    out
}

/// Number of hardware threads the global pool uses (cached in the
/// pool; no syscall per query).
pub fn available_threads() -> usize {
    Pool::global().threads()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sequential_below_cutoff() {
        let calls = AtomicUsize::new(0);
        let out = parallel_gen(3, 1000, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i + 1
        });
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn parallel_preserves_order() {
        let out = parallel_gen(10_000, 8, |i| i as u64 * 2);
        let expected: Vec<u64> = (0..10_000).map(|x| x * 2).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = parallel_gen(0, 1, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn results_match_sequential_for_nontrivial_work() {
        let input: Vec<f64> = (1..500).map(|i| i as f64).collect();
        let par = parallel_gen(input.len(), 4, |i| input[i].sqrt().sin());
        let seq: Vec<f64> = input.iter().map(|&x| x.sqrt().sin()).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn gen_handles_non_copy_outputs() {
        let out = parallel_gen(100, 2, |i| vec![i; 3]);
        assert!(out.iter().enumerate().all(|(i, v)| v == &vec![i; 3]));
    }

    #[test]
    fn available_threads_is_stable() {
        assert_eq!(available_threads(), available_threads());
        assert!(available_threads() >= 1);
    }

    /// Pins the `SendPtr` contract: every slot is written exactly once
    /// (constructions == slots, even through pool-task fan-out), each
    /// landing at its own index, and no value is dropped during the
    /// writes or double-dropped afterwards — which would all be
    /// observable here because the payload counts its constructions
    /// and drops.
    #[test]
    fn sendptr_writes_each_slot_exactly_once() {
        static BUILT: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);

        #[derive(Debug, PartialEq)]
        struct Tracked(usize);
        impl Drop for Tracked {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::Relaxed);
            }
        }

        const N: usize = 10_000;
        let out = parallel_gen(N, 2, |i| {
            BUILT.fetch_add(1, Ordering::Relaxed);
            Tracked(i)
        });
        assert_eq!(out.len(), N);
        // Order and placement: slot i holds f(i).
        assert!(out.iter().enumerate().all(|(i, v)| v.0 == i));
        // Exactly-once writes: one construction per slot, and nothing
        // dropped while the batch ran (a double write at a slot would
        // overwrite — not drop — but would show up as extra
        // constructions).
        assert_eq!(BUILT.load(Ordering::Relaxed), N);
        assert_eq!(DROPPED.load(Ordering::Relaxed), 0);
        drop(out);
        // Exactly-once drops: set_len(count) handed ownership of every
        // initialized slot to the Vec.
        assert_eq!(DROPPED.load(Ordering::Relaxed), N);
    }
}
