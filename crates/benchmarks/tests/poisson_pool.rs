//! A Poisson trial whose smoother sweeps engage the §5.2 parallel
//! schedule, run on a 4-thread pool and charged like the modeled
//! two-thread machine.
//!
//! One `#[test]` in a binary of its own: it fixes the global pool's
//! width before first use, at a width other than the modeled one, so
//! a charge that read the pool would miss the pin.

use pb_benchmarks::Poisson2d;
use pb_config::Value;
use pb_runtime::pool::{Pool, THREADS_ENV};
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn an_engaged_par_cutoff_trial_matches_its_pin() {
    std::env::set_var(THREADS_ENV, "4");
    assert_eq!(Pool::global().threads(), 4);

    // The default V-cycle at n = 63 with `omega` 1.3: with `par_cutoff`
    // 16 the n63 and n31 sweeps are charged as split on the modeled
    // machine and the n15 and n7 ones as sequential; with 2¹⁶, the
    // configuration `poisson.rs`' whole-trial pins use, none are split.
    let t = Poisson2d;
    let schema = t.schema();
    let input = t.generate_input(63, &mut SmallRng::seed_from_u64(63));
    let trial = |par_cutoff: i64| {
        let mut config = schema.default_config();
        for (name, v) in [
            ("omega", Value::Float(1.3)),
            ("par_cutoff", Value::Int(par_cutoff)),
        ] {
            config.set_by_name(&schema, name, v).unwrap();
        }
        let mut ctx = ExecCtx::new(&schema, &config, 63, 0);
        ctx.enable_trace();
        let out = t.execute(&input, &mut ctx);
        (out, ctx.trace_tree(), ctx.virtual_cost())
    };
    let (engaged, engaged_shape, engaged_cost) = trial(16);
    let (sequential, sequential_shape, sequential_cost) = trial(1 << 16);
    assert_eq!(engaged, sequential, "the schedule changed the answer");
    assert_eq!(
        engaged_shape, sequential_shape,
        "the schedule changed the cycle"
    );
    assert!(engaged_cost < sequential_cost, "the split sweeps cost less");
    assert_eq!(engaged_cost, 248_806.0);
}
