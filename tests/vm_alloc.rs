//! Pins the steady-state allocation behavior of the VM dispatch loop:
//! once frames and tunable-resolution tables are warm, executing a
//! compiled rule body performs **zero heap allocations per loop
//! iteration** — including iterations that read prefixed tunables,
//! which before the resolution cache cost one `format!` each.
//!
//! The harness measures total allocations for runs whose inner loops
//! differ by ~256x in trip count and asserts the totals match (small
//! slack for test-harness noise): any per-iteration allocation in the
//! dispatch loop would show up tens of thousands of times over. The
//! same bound is then re-pinned with `pb_trace` VM chunk profiling
//! enabled — observability must not cost the hot path its guarantee.
//!
//! Pinned at both levels, on a loop that reads an array element every
//! trip: `OptLevel::O3` (the default) and `OptLevel::O0` chunks run on
//! the same pooled frames with the same cached name resolution and the
//! same indexed-access path, so the unoptimized baseline is
//! allocation-free too. The profile a traced run collects must carry
//! the chunks.
//!
//! Two more pin the *scratch* behind those frames: across thousands of
//! trials, each followed by its accuracy metric under a second
//! `ExecCtx`, a thread keeps at most one frame per call level and a
//! flat heap — on the test's own thread and on a pool worker, for a
//! call-free rule and for one whose generic sub-transform call runs
//! the callee's rule on the same thread's scratch.
//!
//! A third pins the copies one run makes of its arrays: binding a
//! read-only input and an output moves each between the data store and
//! the rule's frame, and the write-back moves the output back; none of
//! the three clones an array.
//!
//! The counters are per thread: each counts only what the thread
//! reading it allocates and frees, so a free on another thread (libtest
//! dropping a finished test's captured output, a pool worker finishing
//! its batch) cannot land inside a measured window. The tests also take
//! one lock, so they never measure at the same time.

use petabricks::config::Value as ConfigValue;
use petabricks::lang::interp::Value;
use petabricks::lang::{check_program, parse_program, DslTransform, Interpreter, OptLevel};
use petabricks::runtime::{CostModel, ExecCtx, Pool, TransformRunner, TrialRunner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Barrier, Mutex};
use std::thread::LocalKey;

struct CountingAlloc;

// `const` initializers and no destructor: reading them never allocates
// and they outlive every allocation their thread makes.
thread_local! {
    static ALLOCS: Cell<i64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// Allocations of at least [`BIG_BYTES`].
    static BIG: Cell<i64> = const { Cell::new(0) };
}
/// The byte size of [`COPY`]'s arrays as `write_back_moves_outputs`
/// runs it.
const BIG_BYTES: usize = 8 * COPY_LEN;
/// Serializes the tests.
static COUNTERS: Mutex<()> = Mutex::new(());

/// Adds `by` to the calling thread's `counter`.
fn bump(counter: &'static LocalKey<Cell<i64>>, by: i64) {
    let _ = counter.try_with(|c| c.set(c.get() + by));
}

/// The calling thread's `counter`.
fn read(counter: &'static LocalKey<Cell<i64>>) -> i64 {
    counter.with(Cell::get)
}

// SAFETY: delegates everything to `System`; only adds counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&LIVE, layout.size() as i64);
        if layout.size() >= BIG_BYTES {
            bump(&BIG, 1);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&LIVE, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS, 1);
        bump(&LIVE, new_size as i64 - layout.size() as i64);
        if new_size >= BIG_BYTES {
            bump(&BIG, 1);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The hot body lives in a *called* sub-transform so every tunable it
/// reads resolves under the `helper.` prefix — the case that used to
/// allocate a `String` per read in the dispatch loop.
const HOT: &str = r#"
    transform hot from In[n] to Out {
        to (Out o) from (In a) { o = helper(a); }
    }

    transform helper accuracy_variable bump 1 1000000 from X[m] to Y {
        to (Y y) from (X x) {
            y = x[0];
            for (i in 0 .. bump) {
                y = y + bump * len(x) + x[i - i];
                y = y - i;
            }
        }
    }
"#;

fn run_hot(interp: &Interpreter, schema: &petabricks::config::Schema, iters: i64) -> f64 {
    let mut config = schema.default_config();
    config
        .set_by_name(schema, "helper.bump", ConfigValue::Int(iters))
        .unwrap();
    let inputs: HashMap<String, Value> = [("In".to_string(), Value::Arr1(vec![1.0, 2.0]))].into();
    let mut ctx = ExecCtx::new(schema, &config, 2, 0);
    let out = interp.run("hot", &inputs, &mut ctx).unwrap();
    out["Out"].as_num().unwrap()
}

/// The short trip count of [`assert_flat_allocations`].
const SHORT: i64 = 16;

/// Allocations of eight runs at 16 loop trips and of eight at 4096,
/// after warming the thread's frame reservoir and resolution caches at
/// both trip counts: ~256x the iterations (each reading the prefixed
/// `bump` tunable twice) must cost the same allocation count. The
/// slack absorbs incidental harness noise; a single per-iteration
/// allocation would add RUNS * (LONG - SHORT) ≈ 32k.
fn assert_flat_allocations(interp: &Interpreter, schema: &petabricks::config::Schema, what: &str) {
    const RUNS: u64 = 8;
    const LONG: i64 = 4096;
    for _ in 0..2 {
        run_hot(interp, schema, SHORT);
        run_hot(interp, schema, LONG);
    }
    let allocs_of = |iters: i64| {
        let before = read(&ALLOCS);
        for _ in 0..RUNS {
            run_hot(interp, schema, iters);
        }
        read(&ALLOCS) - before
    };
    let (short, long) = (allocs_of(SHORT), allocs_of(LONG));
    assert!(
        long <= short + 64,
        "{what}: the dispatch loop allocates per iteration: {short} allocs for \
         {RUNS}x{SHORT} iterations vs {long} for {RUNS}x{LONG}"
    );
}

#[test]
fn dispatch_loop_is_allocation_free_in_steady_state() {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let program = parse_program(HOT).expect("parses");
    check_program(&program).expect("well-formed");
    let schema = petabricks::lang::extract_schema(&program, "hot");

    // The default pipeline is the whole optimizer.
    assert_eq!(OptLevel::default(), OptLevel::O3);
    let interp = Interpreter::new_compiled(program.clone());
    let (compiled, total) = interp.compiled().unwrap().coverage();
    assert_eq!(compiled, total, "the hot path must run on the VM");
    assert_flat_allocations(&interp, &schema, "O3");

    // Unoptimized chunks run on the same frame path.
    let baseline = Interpreter::new_compiled_at(program.clone(), OptLevel::O0);
    assert_flat_allocations(&baseline, &schema, "O0");

    // With VM chunk profiling enabled the contract must hold
    // unchanged: the per-chunk counters live on the stack during the
    // dispatch loop and merge into an already-populated table after
    // it returns, so steady state stays allocation-free. (The warm-up
    // matters here: the initial `record_chunk` per (thread, chunk)
    // label inserts.)
    petabricks::trace::set_vm_profiling(true);
    assert_flat_allocations(&interp, &schema, "O3, profiled");
    petabricks::trace::set_vm_profiling(false);

    // And the profile was really collected: both transforms' chunks
    // appear with execution counts.
    let chunks = petabricks::trace::chunk_snapshot();
    assert!(
        chunks.iter().any(|c| c.label.starts_with("helper::")),
        "expected a helper chunk in the profile: {:?}",
        chunks.iter().map(|c| &c.label).collect::<Vec<_>>()
    );
    assert!(
        chunks
            .iter()
            .all(|c| c.executions > 0 && c.instructions() > 0),
        "profiled chunks must carry counts"
    );
    // What a traced run hands its reader is the same profile.
    assert_eq!(petabricks::trace::collect().chunks, chunks);

    // And the result is still the interpreter's, bit for bit.
    let tree = Interpreter::new(program);
    let inputs: HashMap<String, Value> = [("In".to_string(), Value::Arr1(vec![1.0, 2.0]))].into();
    let mut config = schema.default_config();
    config
        .set_by_name(&schema, "helper.bump", ConfigValue::Int(SHORT))
        .unwrap();
    let mut ctx = ExecCtx::new(&schema, &config, 2, 0);
    let expect = tree.run("hot", &inputs, &mut ctx).unwrap();
    assert_eq!(
        expect["Out"].as_num().unwrap(),
        run_hot(&interp, &schema, SHORT)
    );
}

/// A call-free program and its metric: every trial runs a rule chunk
/// under the trial's context and then the metric's chunk under a
/// second context, created while the first is alive.
const SMOOTH: &str = r#"
    transform smooth
    accuracy_metric smoothacc
    from In[n]
    to Out[n]
    {
        to (Out o) from (In a) {
            for_enough {
                for (i in 0 .. len(a)) { o[i] = (o[i] + a[i]) / 2; }
            }
        }
    }

    transform smoothacc
    from Out[n], In[n]
    to Accuracy
    {
        to (Accuracy acc) from (Out o, In a) {
            let e = 0;
            for (i in 0 .. len(a)) { e = e + abs(o[i] - a[i]); }
            acc = 0 - e;
        }
    }
"#;

/// [`SMOOTH`] with the smoothing step behind a generic call: `halve`
/// returns an array, so the inliner leaves its `CallTransform` and the
/// callee's rule runs on a frame of its own, popped from the caller's
/// thread scratch while the caller's rule holds another.
const SMOOTH_NESTED: &str = r#"
    transform smooth
    accuracy_metric smoothacc
    from In[n]
    to Out[n]
    {
        to (Out o) from (In a) {
            for_enough {
                let h = halve(a);
                for (i in 0 .. len(a)) { o[i] = o[i] / 2 + h[i]; }
            }
        }
    }

    transform halve
    from X[m]
    to Y[m]
    {
        to (Y y) from (X x) {
            for (i in 0 .. len(x)) { y[i] = x[i] / 2; }
        }
    }

    transform smoothacc
    from Out[n], In[n]
    to Accuracy
    {
        to (Accuracy acc) from (Out o, In a) {
            let e = 0;
            for (i in 0 .. len(a)) { e = e + abs(o[i] - a[i]); }
            acc = 0 - e;
        }
    }
"#;

/// Runs 100 warm-up trials and 2 000 more on the calling thread;
/// returns the heap growth over the 2 000 and the thread's parked VM
/// frames.
fn trial_footprint(runner: &TransformRunner<DslTransform>) -> (i64, usize) {
    let config = runner.schema().default_config();
    for seed in 0..100 {
        runner.run_trial(&config, 64, seed);
    }
    let warm = read(&LIVE);
    for seed in 100..2100 {
        runner.run_trial(&config, 64, seed);
    }
    let grown = read(&LIVE) - warm;
    (grown, petabricks::lang::vm::parked_frames())
}

/// Measures [`trial_footprint`] of `src`'s `smooth` on a pool worker
/// and on the calling thread: each must end with a parked-frame count
/// in `frames` and a flat heap.
fn assert_trials_stay_bounded(src: &str, frames: std::ops::RangeInclusive<usize>) {
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let program = parse_program(src).expect("parses");
    let dsl = DslTransform::compile(
        program,
        "smooth",
        Box::new(|n, _| {
            let data = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            [("In".to_string(), Value::Arr1(data))].into()
        }),
    )
    .expect("compiles");
    let runner = TransformRunner::new(dsl, CostModel::Virtual);

    // One worker and the caller each hold one of the two tasks (the
    // barrier needs both); the worker's runs the measurement.
    let pool = Pool::with_threads(2);
    let both = Barrier::new(2);
    let on_worker = Mutex::new(None);
    pool.run_indexed(2, |_| {
        both.wait();
        if std::thread::current().name() == Some("pb-pool-worker") {
            *on_worker.lock().unwrap() = Some(trial_footprint(&runner));
        }
    });
    let on_worker = on_worker
        .into_inner()
        .unwrap()
        .expect("a worker ran a task");

    for (thread, (grown, parked)) in [("caller", trial_footprint(&runner)), ("worker", on_worker)] {
        assert!(
            frames.contains(&parked),
            "{thread}: {parked} parked frames, want {frames:?}"
        );
        // Flat, not merely slow-growing: 2 000 trials may not keep
        // even one small allocation each.
        assert!(
            grown.abs() < 2_000,
            "{thread}: heap grew {grown} bytes over 2 000 trials"
        );
    }
}

#[test]
fn trial_scratch_stays_bounded_on_caller_and_worker_threads() {
    // A call-free rule needs one frame; the depth limit bounds any
    // program.
    assert_trials_stay_bounded(SMOOTH, 1..=9);
}

#[test]
fn nested_calls_share_the_thread_scratch() {
    // The caller's rule and the callee's each hold one frame while
    // both run, and give both back: two parked, whatever the trial
    // count.
    assert_trials_stay_bounded(SMOOTH_NESTED, 2..=2);
}

/// One array in, one out, and a loop copying the one into the other.
const COPY: &str = r#"
    transform copy from In[n] to Out[n] {
        to (Out o) from (In a) { for (i in 0 .. len(a)) { o[i] = a[i]; } }
    }
"#;

/// The length of the arrays [`COPY`] runs on (128 KiB each).
const COPY_LEN: usize = 1 << 14;

#[test]
fn write_back_moves_outputs() {
    // A run of `copy` makes two array-sized allocations: the data
    // store's copy of `In` and its zeroed `Out`. The rule reads `In`
    // and never writes it, so both bindings move their arrays into the
    // frame, and `Out` moves back; a clone at any of the three would be
    // a third.
    let _serial = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    let program = parse_program(COPY).expect("parses");
    let schema = petabricks::lang::extract_schema(&program, "copy");
    let config = schema.default_config();
    let input: Vec<f64> = (0..COPY_LEN).map(|i| i as f64).collect();
    let inputs: HashMap<String, Value> = [("In".to_string(), Value::Arr1(input.clone()))].into();
    for level in OptLevel::ALL {
        let interp = Interpreter::new_compiled_at(program.clone(), level);
        let run = || {
            let mut ctx = ExecCtx::new(&schema, &config, COPY_LEN as u64, 0);
            interp.run("copy", &inputs, &mut ctx).unwrap()
        };
        run(); // warm the thread's frames and name tables
        let before = read(&BIG);
        let out = run();
        let big = read(&BIG) - before;
        assert_eq!(out["Out"], Value::Arr1(input.clone()), "{level:?}");
        assert_eq!(big, 2, "{level:?}: array-sized allocations in one run");
    }
}
