//! What bin packing's placement scans ask of the global pool: nothing.
//!
//! One `#[test]` in a binary of its own: it fixes the global pool's
//! width before first use and compares `Pool::global().batch_stats()`
//! snapshots, so nothing else may touch that pool meanwhile.

use pb_benchmarks::binpacking::{generate_input, pack_with, BinPacking, ALGORITHM_NAMES};
use pb_runtime::pool::{Pool, THREADS_ENV};
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn engaged_placement_scans_leave_the_pool_untouched() {
    std::env::set_var(THREADS_ENV, "4");
    let pool = Pool::global();
    assert_eq!(pool.threads(), 4);

    // Ledger-sized packing with every scan past 16 bins engaged: the
    // §5.2 schedule is charged, but no scan is worth a dispatch, so
    // the pool and its counters are never touched.
    let schema = BinPacking.schema();
    let config = schema.default_config();
    let mut rng = SmallRng::seed_from_u64(7);
    let input = generate_input(2048, &mut rng);
    let before = pool.batch_stats();
    for algorithm in 0..ALGORITHM_NAMES.len() {
        let [(engaged, engaged_cost), (sequential, sequential_cost)] =
            [16, usize::MAX].map(|par_cutoff| {
                let mut ctx = ExecCtx::new(&schema, &config, 2048, 0);
                let packing = pack_with(algorithm, &input, 2, par_cutoff, &mut ctx);
                (packing, ctx.virtual_cost())
            });
        assert_eq!(engaged.residuals(), sequential.residuals());
        if ![7, 8].contains(&algorithm) {
            // Every kernel but NextFit scans, and is charged for the
            // schedule it asked for.
            assert_ne!(engaged_cost.to_bits(), sequential_cost.to_bits());
        }
    }
    assert_eq!(pool.batch_stats(), before, "an engaged scan used the pool");
}
