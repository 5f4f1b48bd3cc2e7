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
//!
//! What a split map *costs* is charged against one stated machine,
//! [`MODELED_THREADS`] wide, through [`ExecCtx::charge_split`]. The
//! pool's own width decides only where a batch runs in wall time, so a
//! tuned program is the same on every box.

#![forbid(unsafe_code)]

use crate::pool::Pool;
use crate::ExecCtx;
use std::ops::Range;
use std::sync::Mutex;

/// The machine every virtual-cost charge models: a map that splits is
/// charged as its work divided across this many threads. A build
/// constant, like every other charge coefficient.
pub const MODELED_THREADS: usize = 2;

/// Virtual-cost units for dispatching one split map on the modeled
/// machine (wakeups, chunking, the join). Below the crossover the
/// dispatch outweighs the divided work, which gives every `par_cutoff`
/// tunable the tradeoff the real scheduler has.
const DISPATCH_COST: f64 = 512.0;

/// Whether a map of `count` elements with the given cutoff splits.
fn splits(count: usize, sequential_cutoff: usize) -> bool {
    count >= sequential_cutoff.max(2)
}

impl ExecCtx<'_> {
    /// Charges a data-parallel map of `count` elements that does `work`
    /// units in total, as split on the modeled machine
    /// (`work / MODELED_THREADS` plus a dispatch), when `count` reaches
    /// `sequential_cutoff`. Otherwise charges nothing: the map runs
    /// sequentially and the caller charges its sequential work. Returns
    /// whether it charged.
    pub fn charge_split(&mut self, count: usize, sequential_cutoff: usize, work: f64) -> bool {
        let split = splits(count, sequential_cutoff);
        if split {
            self.charge(work / MODELED_THREADS as f64 + DISPATCH_COST);
        }
        split
    }
}

/// Builds a `Vec` whose `i`-th element is `f(i)`, splitting across the
/// global pool when at least `sequential_cutoff` elements are
/// requested.
///
/// With fewer elements than the cutoff (or a single-thread budget) the
/// map runs sequentially on the calling thread, which is the tuned
/// fast path for small inputs. On the pool, each job fills its own
/// contiguous part of the output, one pool task per element.
///
/// # Panics
///
/// Propagates the first panic from `f`. Every element already produced
/// is dropped.
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
    if !(splits(count, sequential_cutoff) && Pool::global().threads() >= 2) {
        // Below-cutoff top-level batches never reach the pool; record
        // them as inline so `Pool::batch_stats` reflects the full
        // top-level batch traffic. Nested calls skip the counters —
        // see `PoolBatchStats`.
        if count > 0 && crate::pool::current_task_depth() == 0 {
            Pool::global().count_batch(count, false);
        }
        return (0..count).map(f).collect();
    }
    let pool = Pool::global();
    let chunk_len = pool.chunk_len(count);
    let mut out: Vec<Option<O>> = std::iter::repeat_with(|| None).take(count).collect();
    {
        // One lock per part, taken by the one job that fills it: the
        // split needs no unsafe code.
        let parts: Vec<Mutex<&mut [Option<O>]>> =
            out.chunks_mut(chunk_len).map(Mutex::new).collect();
        pool.run_ranges(count, &|range: Range<usize>| {
            // A dispatched range is one part; an inline one, all of them.
            let mut i = range.start;
            for part in &parts[range.start / chunk_len..range.end.div_ceil(chunk_len)] {
                for slot in part.lock().expect("each part has one job").iter_mut() {
                    *slot = Some(f(i));
                    i += 1;
                }
            }
        });
    }
    out.into_iter()
        .map(|o| o.expect("the pool ran every part"))
        .collect()
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
    fn charge_split_charges_the_modeled_machine_from_the_cutoff() {
        let schema = pb_config::Schema::new("split");
        let config = schema.default_config();
        let mut ctx = ExecCtx::new(&schema, &config, 1, 0);
        // Below the cutoff, or below two elements whatever the cutoff,
        // the map is sequential and the caller charges it.
        assert!(!ctx.charge_split(7, 8, 1000.0));
        assert!(!ctx.charge_split(1, 0, 1000.0));
        assert_eq!(ctx.virtual_cost(), 0.0);
        assert!(ctx.charge_split(8, 8, 1000.0));
        assert_eq!(ctx.virtual_cost(), 1000.0 / 2.0 + DISPATCH_COST);
    }

    /// Pins the fan-out's bookkeeping: every slot is written exactly
    /// once (constructions == slots, even through pool-task fan-out),
    /// each landing at its own index, and no value is dropped during
    /// the writes or double-dropped afterwards — which would all be
    /// observable here because the payload counts its constructions
    /// and drops.
    #[test]
    fn pool_fills_each_slot_exactly_once() {
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
        // dropped while the batch ran (a second write to a slot would
        // drop the first value and add a construction).
        assert_eq!(BUILT.load(Ordering::Relaxed), N);
        assert_eq!(DROPPED.load(Ordering::Relaxed), 0);
        drop(out);
        // Exactly-once drops: the returned Vec owns every element.
        assert_eq!(DROPPED.load(Ordering::Relaxed), N);
    }
}
