//! VM throughput: executions/sec of shipped DSL workloads on the
//! tree-walking interpreter and on the register VM at every
//! [`OptLevel`] — `O0` (straight-from-lowering bytecode), `O1`/`O2`
//! (scalar locals promoted to registers, chunk-wide value tracking,
//! dead-code elimination; then superinstruction fusion and charge
//! folding; frame reuse and tunable-resolution caching are always on
//! above `O0`), and `O3` (the typed specialization tier: scalar
//! helper transforms inlined into their callers, facts-directed
//! unchecked indexing, loop-invariant shape hoisting, loop constants
//! in registers set once, threaded back-edge jumps). The engine list
//! derives from [`OptLevel::ALL`], so a new level shows up here — and
//! in the gates — by construction.
//!
//! Writes `BENCH_vm.json` (in the working directory) so the per-trial
//! cost trajectory is recorded across PRs, and prints a human-readable
//! summary. Every run cross-checks bitwise-equal outputs of every
//! engine against the tree-walker before timing (recorded per level
//! in the JSON), and the process exits non-zero if a level regresses
//! its gate — the CI smoke regression gate.
//!
//! Usage: `vm_opt [--smoke] [--trace <path>]`
//!
//! `--smoke` shrinks the measured run counts for CI; the JSON is
//! still written. `--trace <path>` turns on `pb_trace` (including the
//! VM's per-chunk opcode profiling) and writes a Chrome trace-event
//! file whose metadata carries the chunk execution profile; outputs
//! stay bit-identical, only the wall times carry the profiling cost.

use pb_lang::interp::Value;
use pb_lang::{check_program, extract_schema, parse_program, Interpreter, OptLevel};
use pb_runtime::ExecCtx;
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

/// The Figure-3 kmeans program: choice-site rules, 2-D indexing,
/// accuracy-variable-sized intermediates, `for_enough` — the
/// dispatch-loop shape autotuning trials spend their time in.
const KMEANS: &str = r#"
    transform kmeans
    accuracy_metric kmeansaccuracy
    accuracy_variable k 1 64
    from Points[2, n]
    through Centroids[2, k]
    to Assignments[n]
    {
        to (Centroids c) from (Points p) {
            for (i in 0 .. cols(c)) {
                let src = floor(rand(0, cols(p)));
                c[0, i] = p[0, src];
                c[1, i] = p[1, src];
            }
        }
        to (Centroids c) from (Points p) {
            for (i in 0 .. cols(c)) {
                let src = i * cols(p) / cols(c);
                c[0, i] = p[0, src];
                c[1, i] = p[1, src];
            }
        }
        to (Assignments a) from (Points p, Centroids c) {
            for_enough {
                for (i in 0 .. len(a)) {
                    a[i] = i % cols(c);
                }
            }
        }
    }
    transform kmeansaccuracy
    from Assignments[n], Points[2, n]
    to Accuracy
    {
        to (Accuracy acc) from (Assignments a, Points p) {
            acc = 1;
        }
    }
"#;

/// Scalar accumulator refinement: the `for_enough`/`either` shape
/// whose `e = e / 2; w = w + 1` bodies fuse into slot
/// superinstructions.
const REFINE: &str = r#"
    transform refine
    accuracy_metric refineacc
    from In[n]
    to Err, Work
    {
        to (Err e, Work w) from (In a) {
            e = 1;
            for_enough {
                either {
                    e = e / 2;
                    w = w + 1;
                } or {
                    e = e / 4;
                    w = w + 10;
                }
            }
        }
    }
    transform refineacc
    from Err, In[n]
    to Accuracy
    {
        to (Accuracy acc) from (Err e, In a) {
            acc = 0 - log(e) / log(10);
        }
    }
"#;

/// Bin packing (same program as `examples/dsl/binpacking.pb`): an
/// `either` choice in a hot indexed loop over rank-1 arrays — the
/// bounds-check-dominated shape the `O3` unchecked forms target.
const BINPACK: &str = r#"
    transform binpack
    accuracy_metric binpackacc
    from Sizes[n]
    to Bins[n], Used
    {
        to (Bins b, Used u) from (Sizes s) {
            u = 1;
            let fill = 0;
            for (i in 0 .. len(s)) {
                either {
                    if (fill + s[i] > 1) {
                        u = u + 1;
                        fill = 0;
                    }
                    b[i] = u - 1;
                    fill = fill + s[i];
                } or {
                    b[i] = i % u;
                }
            }
        }
    }
    transform binpackacc
    from Bins[n], Used, Sizes[n]
    to Accuracy
    {
        to (Accuracy acc) from (Bins b, Used u, Sizes s) {
            acc = len(s) / max(u, 1);
        }
    }
"#;

#[derive(Debug, Serialize)]
struct EngineReport {
    wall_seconds: f64,
    runs: u64,
    runs_per_sec: f64,
}

/// One VM optimization level's measurement.
#[derive(Debug, Serialize)]
struct LevelReport {
    /// The level (`"O0"` .. `"O3"`).
    level: String,
    wall_seconds: f64,
    runs: u64,
    runs_per_sec: f64,
    /// This level's outputs were bitwise equal to the tree-walker's.
    bit_identical: bool,
}

#[derive(Debug, Serialize)]
struct WorkloadReport {
    name: String,
    /// Input size (points / signal length).
    n: u64,
    interp: EngineReport,
    /// One entry per [`OptLevel::ALL`] member, in order.
    levels: Vec<LevelReport>,
    /// `O0 runs_per_sec / interp.runs_per_sec`.
    vm_over_interp: f64,
    /// `O2 / O0` — the classic optimizer pipeline's win.
    opt_over_vm: f64,
    /// `O3 / O2` — the typed specialization tier's win.
    spec_over_opt: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    smoke: bool,
    workloads: Vec<WorkloadReport>,
}

fn outputs_eq(a: &HashMap<String, Value>, b: &HashMap<String, Value>) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(k, v)| b.get(k).map(|w| v.bits_eq(w)).unwrap_or(false))
}

struct Workload {
    name: &'static str,
    src: &'static str,
    transform: &'static str,
    n: u64,
    configure: fn(&pb_config::Schema, &mut pb_config::Config),
    inputs: fn(u64) -> HashMap<String, Value>,
}

/// Timed executions per measurement batch (scaled down by `--smoke`).
const BATCHES: usize = 4;

/// One timed pass of `runs` executions on one engine.
fn time_batch(
    interp: &Interpreter,
    transform: &str,
    schema: &pb_config::Schema,
    config: &pb_config::Config,
    inputs: &HashMap<String, Value>,
    n: u64,
    runs: u64,
) -> f64 {
    let start = Instant::now();
    for seed in 0..runs {
        let mut ctx = ExecCtx::new(schema, config, n, seed);
        std::hint::black_box(interp.run(transform, inputs, &mut ctx).expect("runs"));
    }
    start.elapsed().as_secs_f64().max(1e-9)
}

fn run_workload(w: &Workload, runs: u64) -> WorkloadReport {
    let program = parse_program(w.src).expect("parses");
    check_program(&program).expect("well-formed");
    let schema = extract_schema(&program, w.transform);
    let mut config = schema.default_config();
    (w.configure)(&schema, &mut config);
    let inputs = (w.inputs)(w.n);

    let tree = Interpreter::new(program.clone());
    let vms: Vec<(OptLevel, Interpreter)> = OptLevel::ALL
        .iter()
        .map(|&level| (level, Interpreter::new_compiled_at(program.clone(), level)))
        .collect();
    let (compiled, total) = vms[0].1.compiled().expect("compiled").coverage();
    assert_eq!(
        compiled, total,
        "{}: uncompiled rules on the hot path",
        w.name
    );

    // Warm each engine (frames, caches, branch predictors) and collect
    // its output for the cross-engine check against the tree-walker.
    let run_once = |e: &Interpreter| {
        let mut ctx = ExecCtx::new(&schema, &config, w.n, 7);
        e.run(w.transform, &inputs, &mut ctx).expect("runs")
    };
    let reference = run_once(&tree);
    let identical: Vec<bool> = vms
        .iter()
        .map(|(_, e)| outputs_eq(&reference, &run_once(e)))
        .collect();
    for ((level, _), &ok) in vms.iter().zip(&identical) {
        assert!(ok, "{}: {level:?} diverged from the tree-walker", w.name);
    }

    // Engines interleave within each measurement round so ambient
    // slowdowns hit all of them alike; best-of-rounds per engine then
    // yields stable ratios even on busy single-core hosts.
    let mut best = vec![f64::INFINITY; 1 + vms.len()];
    for _ in 0..BATCHES {
        let engines = std::iter::once(&tree).chain(vms.iter().map(|(_, e)| e));
        for (slot, engine) in engines.enumerate() {
            let t = time_batch(engine, w.transform, &schema, &config, &inputs, w.n, runs);
            best[slot] = best[slot].min(t);
        }
    }
    let interp = EngineReport {
        wall_seconds: best[0],
        runs,
        runs_per_sec: runs as f64 / best[0],
    };
    let levels: Vec<LevelReport> = vms
        .iter()
        .zip(&best[1..])
        .zip(&identical)
        .map(|(((level, _), &wall), &bit_identical)| LevelReport {
            level: format!("{level:?}"),
            wall_seconds: wall,
            runs,
            runs_per_sec: runs as f64 / wall,
            bit_identical,
        })
        .collect();
    let per = |l: OptLevel| {
        let i = OptLevel::ALL
            .iter()
            .position(|&x| x == l)
            .expect("level present");
        levels[i].runs_per_sec
    };

    WorkloadReport {
        name: w.name.to_string(),
        n: w.n,
        vm_over_interp: per(OptLevel::O0) / interp.runs_per_sec.max(1e-9),
        opt_over_vm: per(OptLevel::O2) / per(OptLevel::O0).max(1e-9),
        spec_over_opt: per(OptLevel::O3) / per(OptLevel::O2).max(1e-9),
        interp,
        levels,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let trace_path = args
        .iter()
        .position(|a| a == "--trace")
        .map(|i| args.get(i + 1).expect("--trace requires a path").clone());
    if trace_path.is_some() {
        pb_trace::enable();
    }
    let runs: u64 = if smoke { 60 } else { 600 };

    let workloads = [
        Workload {
            name: "kmeans",
            src: KMEANS,
            transform: "kmeans",
            n: 256,
            configure: |schema, config| {
                config
                    .set_by_name(schema, "k", pb_config::Value::Int(16))
                    .unwrap();
                config
                    .set_by_name(schema, "for_enough_0", pb_config::Value::Int(100))
                    .unwrap();
            },
            inputs: |n| {
                [(
                    "Points".to_string(),
                    Value::Arr2 {
                        rows: 2,
                        cols: n as usize,
                        data: (0..2 * n as usize)
                            .map(|i| (i as f64 * 0.37).sin() * 100.0)
                            .collect(),
                    },
                )]
                .into()
            },
        },
        Workload {
            name: "refine",
            src: REFINE,
            transform: "refine",
            n: 16,
            configure: |schema, config| {
                config
                    .set_by_name(schema, "for_enough_0", pb_config::Value::Int(400))
                    .unwrap();
            },
            inputs: |n| [("In".to_string(), Value::Arr1(vec![0.0; n as usize]))].into(),
        },
        Workload {
            name: "binpacking",
            src: BINPACK,
            transform: "binpack",
            n: 512,
            configure: |_, _| {},
            inputs: |n| {
                [(
                    "Sizes".to_string(),
                    Value::Arr1(
                        (0..n as usize)
                            .map(|i| 0.05 + 0.9 * ((i as f64 * 0.61).sin() * 0.5 + 0.5))
                            .collect(),
                    ),
                )]
                .into()
            },
        },
    ];

    let report = Report {
        smoke,
        workloads: workloads.iter().map(|w| run_workload(w, runs)).collect(),
    };

    println!(
        "# VM throughput ({} runs/engine{})",
        runs,
        if smoke { ", smoke" } else { "" }
    );
    println!(
        "{:>10} {:>13} {:>13} {:>13} {:>13} {:>10} {:>9} {:>9}",
        "workload", "interp/s", "O0/s", "O2/s", "O3/s", "vm/interp", "opt/vm", "spec/opt"
    );
    for w in &report.workloads {
        let rate = |name: &str| {
            w.levels
                .iter()
                .find(|l| l.level == name)
                .map(|l| l.runs_per_sec)
                .unwrap_or(0.0)
        };
        println!(
            "{:>10} {:>13.0} {:>13.0} {:>13.0} {:>13.0} {:>9.2}x {:>8.2}x {:>8.2}x",
            w.name,
            w.interp.runs_per_sec,
            rate("O0"),
            rate("O2"),
            rate("O3"),
            w.vm_over_interp,
            w.opt_over_vm,
            w.spec_over_opt,
        );
    }

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_vm.json", &json).expect("write BENCH_vm.json");
    println!("\nwrote BENCH_vm.json");

    if let Some(path) = &trace_path {
        let trace = pb_trace::collect();
        std::fs::write(path, trace.chrome_json()).expect("write trace file");
        println!(
            "wrote {path} ({} events, {} profiled chunks)",
            trace.events.len(),
            trace.chunks.len()
        );
    }

    // Regression gate. Smoke (CI) runs only require each tier to hold
    // (within noise) what the tier below delivers — shared runners are
    // too noisy for more. Full runs additionally protect the kmeans
    // headline (README claims >= 1.5x; gate at 1.3x so honest jitter
    // does not flake) and require the specialization tier to win
    // outright on most workloads.
    let mut spec_wins = 0;
    for w in &report.workloads {
        assert!(
            w.opt_over_vm >= 0.95,
            "{}: VM+opt regressed below the VM baseline ({:.2}x)",
            w.name,
            w.opt_over_vm
        );
        assert!(
            w.spec_over_opt >= 0.9,
            "{}: O3 regressed below O2 ({:.2}x)",
            w.name,
            w.spec_over_opt
        );
        if w.spec_over_opt > 1.0 {
            spec_wins += 1;
        }
        if !smoke && w.name == "kmeans" {
            assert!(
                w.opt_over_vm >= 1.3,
                "kmeans: VM+opt headline regressed ({:.2}x < 1.3x)",
                w.opt_over_vm
            );
        }
    }
    if !smoke {
        assert!(
            spec_wins >= 2,
            "specialization won on only {spec_wins}/{} workloads",
            report.workloads.len()
        );
    }
}
