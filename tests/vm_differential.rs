//! Differential tests: the register VM must produce *bit-identical*
//! outputs — and identical virtual cost, which proves the execution
//! traces match statement for statement — to the tree-walking
//! interpreter, for every DSL program the repository ships
//! (`tests/dsl_end_to_end.rs`'s refine and Figure-3 kmeans,
//! `examples/dsl_kmeans.rs`'s host-function kmeans) plus synthetic
//! programs covering each language construct, across several
//! configurations, input sizes, and RNG seeds.
//!
//! Every comparison runs at both [`OptLevel`]s (bytecode as lowered,
//! and through the whole optimizer pipeline) and additionally pins
//! the RNG *draw count*: after each run both contexts draw one probe value, which
//! only matches if the executors consumed exactly the same number of
//! draws in the same order.

mod common;

use petabricks::config::{Config, Schema, Value as ConfigValue};
use petabricks::lang::ast::BinOp;
use petabricks::lang::compile::Instr;
use petabricks::lang::interp::Value;
use petabricks::lang::{check_program, compile_program, parse_program, Interpreter, OptLevel};
use petabricks::runtime::ExecCtx;
use proptest::prelude::*;
use rand::Rng;
use std::collections::HashMap;

/// Bitwise `f64` equality: stricter than `==` (distinguishes `-0.0`
/// from `0.0`) and total over NaN, which random programs do produce.
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn outputs_bits_eq(a: &HashMap<String, Value>, b: &HashMap<String, Value>) -> bool {
    a.len() == b.len()
        && a.iter()
            .all(|(k, v)| b.get(k).map(|w| v.bits_eq(w)).unwrap_or(false))
}

/// Runs `transform` through the tree-walker and through the VM at
/// both [`OptLevel`]s, asserting outputs, virtual cost, and RNG draw
/// counts are identical across all of them.
#[allow(clippy::too_many_arguments)]
fn assert_identical(
    src: &str,
    transform: &str,
    schema: &Schema,
    config: &Config,
    inputs: &HashMap<String, Value>,
    n: u64,
    seed: u64,
    hosts: &dyn Fn(&mut Interpreter),
) {
    let outcome = assert_same_outcome(src, transform, schema, config, inputs, n, seed, hosts);
    if let Err(message) = outcome {
        panic!("`{transform}` fails on both engines: {message}");
    }
}

/// [`assert_identical`] for programs that may fail: when the
/// tree-walker errors, the VM must raise the same message at every
/// level (cost and draws of an aborted run are not compared — charge
/// folding pre-pays a straight-line region). Returns the tree-walker's
/// error message, if it raised one.
#[allow(clippy::too_many_arguments)]
fn assert_same_outcome(
    src: &str,
    transform: &str,
    schema: &Schema,
    config: &Config,
    inputs: &HashMap<String, Value>,
    n: u64,
    seed: u64,
    hosts: &dyn Fn(&mut Interpreter),
) -> Result<(), String> {
    let program = parse_program(src).expect("parses");
    check_program(&program).expect("well-formed");

    let mut tree = Interpreter::new(program.clone());
    hosts(&mut tree);
    let mut tree_ctx = ExecCtx::new(schema, config, n, seed);
    let tree_out = tree.run(transform, inputs, &mut tree_ctx);
    let tree_probe: u64 = tree_ctx.rng().gen();

    for level in OptLevel::ALL {
        let mut vm = Interpreter::new_compiled_at(program.clone(), level);
        hosts(&mut vm);
        let mut vm_ctx = ExecCtx::new(schema, config, n, seed);
        let vm_out = vm.run(transform, inputs, &mut vm_ctx);
        let (tree_out, vm_out) = match (&tree_out, vm_out) {
            (Ok(tree_out), Ok(vm_out)) => (tree_out, vm_out),
            (Err(tree_err), Err(vm_err)) => {
                assert_eq!(
                    tree_err.message, vm_err.message,
                    "error text diverges for `{transform}` at {level:?} (n={n}, seed={seed})"
                );
                continue;
            }
            (tree_out, vm_out) => panic!(
                "one engine fails for `{transform}` at {level:?} (n={n}, seed={seed}):\n\
                 interp: {tree_out:?}\n    vm: {vm_out:?}"
            ),
        };

        assert!(
            outputs_bits_eq(tree_out, &vm_out),
            "outputs diverge for `{transform}` at {level:?} (n={n}, seed={seed}):\n\
             interp: {tree_out:?}\n    vm: {vm_out:?}"
        );
        assert!(
            bits_eq(tree_ctx.virtual_cost(), vm_ctx.virtual_cost()),
            "virtual cost diverges for `{transform}` at {level:?} (n={n}, seed={seed}): {} vs {}",
            tree_ctx.virtual_cost(),
            vm_ctx.virtual_cost()
        );
        let vm_probe: u64 = vm_ctx.rng().gen();
        assert_eq!(
            tree_probe, vm_probe,
            "RNG draw count diverges for `{transform}` at {level:?} (n={n}, seed={seed})"
        );
    }
    tree_out.map(|_| ()).map_err(|e| e.message)
}

fn no_hosts(_: &mut Interpreter) {}

/// The refine program from `tests/dsl_end_to_end.rs`: `for_enough`
/// wrapping an `either…or` over scalar data.
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

#[test]
fn refine_matches_across_configs_and_sizes() {
    let program = parse_program(REFINE).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "refine");
    for n in [1u64, 4, 64] {
        let inputs: HashMap<String, Value> =
            [("In".to_string(), Value::Arr1(vec![0.0; n as usize]))].into();
        for iters in [1i64, 2, 7, 23] {
            for branch in [0usize, 1] {
                let mut config = schema.default_config();
                config
                    .set_by_name(&schema, "for_enough_0", ConfigValue::Int(iters))
                    .unwrap();
                config
                    .set_by_name(
                        &schema,
                        "either_0",
                        ConfigValue::Tree(petabricks::config::DecisionTree::single(branch)),
                    )
                    .unwrap();
                assert_identical(
                    REFINE, "refine", &schema, &config, &inputs, n, 42, &no_hosts,
                );
            }
        }
    }
}

#[test]
fn refine_metric_matches_too() {
    let program = parse_program(REFINE).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "refineacc");
    let config = schema.default_config();
    let inputs: HashMap<String, Value> = [
        ("Err".to_string(), Value::Num(0.125)),
        ("In".to_string(), Value::Arr1(vec![0.0; 4])),
    ]
    .into();
    assert_identical(
        REFINE,
        "refineacc",
        &schema,
        &config,
        &inputs,
        4,
        0,
        &no_hosts,
    );
}

/// The Figure-3 kmeans program from `tests/dsl_end_to_end.rs`: a
/// two-producer choice site (`rule_Centroids`), `rand` in rule bodies,
/// 2-D indexing, and an accuracy-variable-sized intermediate.
const KMEANS_FIG3: &str = r#"
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

fn points(n: usize) -> HashMap<String, Value> {
    [(
        "Points".to_string(),
        Value::Arr2 {
            rows: 2,
            cols: n,
            data: (0..2 * n)
                .map(|i| (i as f64 * 0.37).sin() * 100.0)
                .collect(),
        },
    )]
    .into()
}

#[test]
fn kmeans_fig3_matches_across_rules_sizes_and_seeds() {
    let program = parse_program(KMEANS_FIG3).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "kmeans");
    for n in [8usize, 32, 128] {
        let inputs = points(n);
        for rule in [0usize, 1] {
            for seed in [0u64, 1, 99] {
                let mut config = schema.default_config();
                config
                    .set_by_name(&schema, "k", ConfigValue::Int(5))
                    .unwrap();
                config
                    .set_by_name(&schema, "for_enough_0", ConfigValue::Int(3))
                    .unwrap();
                config
                    .set_by_name(
                        &schema,
                        "rule_Centroids",
                        ConfigValue::Tree(petabricks::config::DecisionTree::single(rule)),
                    )
                    .unwrap();
                assert_identical(
                    KMEANS_FIG3,
                    "kmeans",
                    &schema,
                    &config,
                    &inputs,
                    n as u64,
                    seed,
                    &no_hosts,
                );
            }
        }
    }
}

/// The host-function kmeans of `examples/dsl_kmeans.rs` (same program
/// text, same helper semantics): host calls with mutable first
/// arguments, early `return` out of a `for_enough`, and a
/// sub-expression host call in the metric.
const KMEANS_HOSTED: &str = r#"
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
            CenterPlus(c, p);
        }

        to (Assignments a) from (Points p, Centroids c) {
            for_enough {
                let change = AssignClusters(a, p, c);
                if (change == 0) { return; }
                NewClusterLocations(c, p, a);
            }
        }
    }

    transform kmeansaccuracy
    from Assignments[n], Points[2, n]
    to Accuracy
    {
        to (Accuracy acc) from (Assignments a, Points p) {
            acc = sqrt(2 * len(a) / SumClusterDistanceSquared(a, p));
        }
    }
"#;

fn arr2(v: &Value) -> (&Vec<f64>, usize) {
    match v {
        Value::Arr2 { data, cols, .. } => (data, *cols),
        _ => panic!("expected a 2-D array"),
    }
}

/// The example's host helpers, registered identically on both
/// executors.
fn kmeans_hosts(interp: &mut Interpreter) {
    interp.register_host_fn(
        "CenterPlus",
        Box::new(|centroids, rest| {
            let (p, n) = arr2(&rest[0]);
            if let Value::Arr2 { data, cols, .. } = centroids {
                let k = *cols;
                for i in 0..k {
                    let src = i * n.max(1) / k.max(1);
                    data[i] = p[src];
                    data[k + i] = p[n + src];
                }
            }
            Ok(Value::Num(0.0))
        }),
    );
    interp.register_host_fn(
        "AssignClusters",
        Box::new(|assignments, rest| {
            let (p, n) = arr2(&rest[0]);
            let (c, k) = arr2(&rest[1]);
            let mut changed = 0.0;
            if let Value::Arr1(a) = assignments {
                for i in 0..n {
                    let (x, y) = (p[i], p[n + i]);
                    let mut best = 0usize;
                    let mut best_d = f64::INFINITY;
                    for j in 0..k {
                        let dx = x - c[j];
                        let dy = y - c[k + j];
                        let d = dx * dx + dy * dy;
                        if d < best_d {
                            best_d = d;
                            best = j;
                        }
                    }
                    if a[i] != best as f64 {
                        a[i] = best as f64;
                        changed += 1.0;
                    }
                }
            }
            Ok(Value::Num(changed))
        }),
    );
    interp.register_host_fn(
        "NewClusterLocations",
        Box::new(|centroids, rest| {
            let (p, n) = arr2(&rest[0]);
            let a = match &rest[1] {
                Value::Arr1(a) => a.clone(),
                _ => return Err("assignments must be 1-D".into()),
            };
            if let Value::Arr2 { data, cols, .. } = centroids {
                let k = *cols;
                let mut sx = vec![0.0; k];
                let mut sy = vec![0.0; k];
                let mut count = vec![0.0; k];
                for i in 0..n {
                    let j = (a[i] as usize).min(k - 1);
                    sx[j] += p[i];
                    sy[j] += p[n + i];
                    count[j] += 1.0;
                }
                for j in 0..k {
                    if count[j] > 0.0 {
                        data[j] = sx[j] / count[j];
                        data[k + j] = sy[j] / count[j];
                    }
                }
            }
            Ok(Value::Num(0.0))
        }),
    );
    interp.register_host_fn(
        "SumClusterDistanceSquared",
        Box::new(|assignments, rest| {
            let a = match assignments {
                Value::Arr1(a) => a.clone(),
                _ => return Err("assignments must be 1-D".into()),
            };
            let (p, n) = arr2(&rest[0]);
            let k = a.iter().fold(0usize, |m, &v| m.max(v as usize)) + 1;
            let mut sx = vec![0.0; k];
            let mut sy = vec![0.0; k];
            let mut count = vec![0.0; k];
            for i in 0..n {
                let j = a[i] as usize;
                sx[j] += p[i];
                sy[j] += p[n + i];
                count[j] += 1.0;
            }
            let mut ssd = 0.0;
            for i in 0..n {
                let j = a[i] as usize;
                if count[j] > 0.0 {
                    let dx = p[i] - sx[j] / count[j];
                    let dy = p[n + i] - sy[j] / count[j];
                    ssd += dx * dx + dy * dy;
                }
            }
            Ok(Value::Num(ssd.max(f64::MIN_POSITIVE)))
        }),
    );
}

#[test]
fn hosted_kmeans_matches_across_configs() {
    let program = parse_program(KMEANS_HOSTED).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "kmeans");
    for n in [8usize, 64] {
        let inputs = points(n);
        for (rule, iters, k) in [(0, 2, 3i64), (1, 5, 4), (0, 9, 2), (1, 1, 8)] {
            let mut config = schema.default_config();
            config
                .set_by_name(&schema, "k", ConfigValue::Int(k))
                .unwrap();
            config
                .set_by_name(&schema, "for_enough_0", ConfigValue::Int(iters))
                .unwrap();
            config
                .set_by_name(
                    &schema,
                    "rule_Centroids",
                    ConfigValue::Tree(petabricks::config::DecisionTree::single(rule)),
                )
                .unwrap();
            assert_identical(
                KMEANS_HOSTED,
                "kmeans",
                &schema,
                &config,
                &inputs,
                n as u64,
                7,
                &kmeans_hosts,
            );
        }
    }
}

#[test]
fn hosted_kmeans_metric_matches() {
    let program = parse_program(KMEANS_HOSTED).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "kmeansaccuracy");
    let config = schema.default_config();
    let mut inputs = points(16);
    inputs.insert(
        "Assignments".to_string(),
        Value::Arr1((0..16).map(|i| (i % 3) as f64).collect()),
    );
    assert_identical(
        KMEANS_HOSTED,
        "kmeansaccuracy",
        &schema,
        &config,
        &inputs,
        16,
        0,
        &kmeans_hosts,
    );
}

/// A stress program touching every remaining construct: `while`,
/// `if`/`else`, nested `either`, short-circuit logic whose right-hand
/// side consumes RNG (ordering must match exactly), builtins, scalar
/// sub-transform calls under accuracy variables, and `verify_accuracy`.
const STRESS: &str = r#"
    transform stress
    accuracy_variable depth 1 8
    from In[n]
    to Out[n], Flag
    {
        to (Out o, Flag f) from (In a) {
            verify_accuracy;
            let j = 0;
            while (j < len(a)) {
                if (a[j] > 0.5) { o[j] = helper(a[j]); } else { o[j] = 0 - helper(a[j]); }
                j = j + 1;
            }
            f = a[0] > 0.25 && rand(0, 1) > 0.5;
            f = f || rand(0, 1) > 0.9;
            either {
                either { f = f + 10; } or { f = f + 20; }
            } or {
                f = f + depth;
            }
            o[0] = min(max(o[0], 0 - 2), 2) + pow(2, 3) + floor(1.7) + ceil(1.2)
                 + abs(0 - 1) + exp(0) + log(1) + sqrt(4);
        }
    }

    transform helper
    from X
    to Y
    {
        to (Y y) from (X x) { y = x * 3 + 1; }
    }
"#;

#[test]
fn stress_program_matches_across_choice_paths() {
    let program = parse_program(STRESS).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "stress");
    let inputs: HashMap<String, Value> = [(
        "In".to_string(),
        Value::Arr1((0..24).map(|i| (i as f64 * 0.21).fract()).collect()),
    )]
    .into();
    for outer in [0usize, 1] {
        for inner in [0usize, 1] {
            for seed in [0u64, 3, 17] {
                let mut config = schema.default_config();
                config
                    .set_by_name(
                        &schema,
                        "either_0",
                        ConfigValue::Tree(petabricks::config::DecisionTree::single(outer)),
                    )
                    .unwrap();
                config
                    .set_by_name(
                        &schema,
                        "either_1",
                        ConfigValue::Tree(petabricks::config::DecisionTree::single(inner)),
                    )
                    .unwrap();
                config
                    .set_by_name(&schema, "depth", ConfigValue::Int(4))
                    .unwrap();
                assert_identical(
                    STRESS, "stress", &schema, &config, &inputs, 24, seed, &no_hosts,
                );
            }
        }
    }
}

#[test]
fn shipped_programs_compile_fully() {
    // Every rule of every shipped DSL program must lower to bytecode —
    // no silent interpreter fallbacks on the hot paths.
    let (lloyd, relax) = (ledger_program("lloyd"), ledger_program("relax"));
    for src in [REFINE, KMEANS_FIG3, KMEANS_HOSTED, STRESS, &lloyd, &relax] {
        let program = parse_program(src).unwrap();
        let compiled = compile_program(&program);
        let (done, total) = compiled.coverage();
        assert_eq!(done, total, "uncompiled rules in a shipped program");
    }
}

/// `src` with a statement that binds `zq` on some paths only (one
/// variant in six: on every path) spliced in at one line of `t`'s rule
/// body and a read of it at a later one — the generators emit a
/// statement, block opener or closer per line, and `t` first — and the
/// byte range of that body.
fn splice_partial_binding(src: &str, seed: u64) -> (String, std::ops::Range<usize>) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xb1d);
    let start = src.find(") {\n").expect("t's rule header") + 4;
    let t_end = src[start..]
        .find("\ntransform ")
        .map_or(src.len(), |i| start + i);
    // Past the rule's closing brace comes the transform's.
    let end = src[..src[..t_end].rfind('}').unwrap()].rfind('}').unwrap();
    let lines: Vec<usize> = std::iter::once(start)
        .chain(
            src[start..end]
                .match_indices('\n')
                .map(|(i, _)| start + i + 1),
        )
        .collect();
    let bind_at = rng.gen_range(0..lines.len());
    let read_at = lines[rng.gen_range(bind_at..lines.len())];
    let bind_at = lines[bind_at];
    let bind = [
        "if (acc) { let zq = 1; }\n",
        "for (zi in 0 .. 2) { let zq = zi; }\n",
        "either { let zq = 1; } or { acc = acc; }\n",
        "for_enough { zq = 3; }\n",
        "let zw = 0;\nwhile (zw < 1) { let zq = 1; zw = zw + 1; }\n",
        "if (acc) { let zq = 1; } else { let zq = 2; }\n",
    ][rng.gen_range(0..6)];
    let read = ["acc = zq;\n", "o[0] = zq + 1;\n", "acc = min(zq, 2);\n"][rng.gen_range(0..3)];
    let (head, mid, tail) = (&src[..bind_at], &src[bind_at..read_at], &src[read_at..]);
    let spliced = [head, bind, mid, read, tail].concat();
    (spliced, start..end + bind.len() + read.len())
}

#[test]
fn accepted_programs_always_compile() {
    // The contract: whatever `check_program` accepts lowers, whole.
    // Every generated program as it is, and with a partially bound
    // name read somewhere after its binding: rejected with a span
    // inside the rule, or accepted and fully compiled — never accepted
    // and left without bytecode.
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..300 {
        for src in [
            common::gen_straight_line_program(seed, 1 + (seed % 11) as usize),
            common::gen_helper_program(seed),
            common::gen_array_loop_program(seed),
        ] {
            let (spliced, body) = splice_partial_binding(&src, seed);
            for (src, as_generated) in [(&src, true), (&spliced, false)] {
                let program = parse_program(src).unwrap_or_else(|e| panic!("{e}\n{src}"));
                match check_program(&program) {
                    Ok(()) => {
                        let compiled = compile_program(&program);
                        let (done, total) = compiled.coverage();
                        assert!(done == total && total > 0, "{:?}\n{src}", compiled.error());
                        accepted += usize::from(!as_generated);
                    }
                    Err(errors) => {
                        assert!(!as_generated, "{errors:?}\n{src}");
                        let outside = errors.iter().find(|e| !body.contains(&e.span.start));
                        assert!(outside.is_none(), "{outside:?} is not in {body:?}:\n{src}");
                        rejected += 1;
                    }
                }
            }
        }
    }
    // The splice is worth its cases only if it lands on both sides.
    assert!(
        accepted >= 50 && rejected >= 500,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn nesting_at_the_limit_runs_bit_identically_and_past_it_is_a_parse_error() {
    let wrapped = |open: &str, core: &str, close: &str, depth: usize| {
        format!("{}{core}{}", open.repeat(depth), close.repeat(depth))
    };
    // One rule body per shape, `depth` levels each (an index is a level
    // of its own).
    let programs = |depth: usize| {
        [
            format!("acc = {};", wrapped("(", "a[1]", ")", depth - 1)),
            format!("acc = {};", wrapped("-", "a[1]", "", depth - 1)),
            format!("acc = {};", wrapped("sqrt(", "16", ")", depth)),
            wrapped("if (a[0]) {", "acc = acc + 2;", "}", depth),
            format!("acc = {};", vec!["a[2]"; depth].join(" + ")),
        ]
        .map(|body| {
            format!("transform t from In[n] to Out[n], Acc {{\n to (Out o, Acc acc) from (In a) {{ {body} }}\n}}\n")
        })
    };
    for src in programs(256) {
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{e}: {}…", &src[..160]));
        let schema = petabricks::lang::extract_schema(&program, "t");
        let config = schema.default_config();
        assert_identical(&src, "t", &schema, &config, &in4(), 4, 0, &no_hosts);
    }
    for src in programs(258).into_iter().chain(programs(100_000)) {
        let err = parse_program(&src).expect_err("too deep");
        assert!(err.message.contains("nesting deeper than 256"), "{err}");
    }
}

/// The two ledger programs (`ledger/programs/`, read as shipped): the
/// workloads whose inner loops call a scalar helper per element, so at
/// `O3` every comparison below runs through inlined bodies.
fn ledger_program(name: &str) -> String {
    let path = format!("{}/ledger/programs/{name}.pb", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn ledger_lloyd_matches_across_rules_sizes_and_seeds() {
    let src = ledger_program("lloyd");
    let program = parse_program(&src).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "lloyd");
    for n in [8usize, 48] {
        let inputs = points(n);
        for (rule, k, iters) in [(0usize, 3i64, 2i64), (1, 5, 3), (1, 1, 1)] {
            for seed in [0u64, 11] {
                let mut config = schema.default_config();
                for (name, value) in [
                    ("k", ConfigValue::Int(k)),
                    ("for_enough_0", ConfigValue::Int(iters)),
                    (
                        "rule_Seeds",
                        ConfigValue::Tree(petabricks::config::DecisionTree::single(rule)),
                    ),
                ] {
                    config.set_by_name(&schema, name, value).unwrap();
                }
                assert_identical(
                    &src, "lloyd", &schema, &config, &inputs, n as u64, seed, &no_hosts,
                );
            }
        }
    }

    // The metric calls the helper with an indexed-by-element argument.
    let schema = petabricks::lang::extract_schema(&program, "lloydacc");
    let mut inputs = points(12);
    inputs.insert(
        "Assignments".to_string(),
        Value::Arr1((0..12).map(|i| (i % 3) as f64).collect()),
    );
    inputs.insert(
        "Centres".to_string(),
        Value::Arr2 {
            rows: 2,
            cols: 3,
            data: vec![1.0, -20.0, 35.5, 0.0, 4.0, -60.0],
        },
    );
    let config = schema.default_config();
    assert_identical(
        &src, "lloydacc", &schema, &config, &inputs, 12, 0, &no_hosts,
    );
}

#[test]
fn ledger_relax_matches_across_sweeps_and_sizes() {
    let src = ledger_program("relax");
    let program = parse_program(&src).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "relax");
    // n = 2 leaves the sweeps' `1 .. len(x) - 1` loops zero-trip.
    for n in [2usize, 9, 33] {
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
        let inputs: HashMap<String, Value> = [("B".to_string(), Value::Arr1(b.clone()))].into();
        for sweep in [0usize, 1] {
            for iters in [1i64, 4] {
                let mut config = schema.default_config();
                config
                    .set_by_name(&schema, "for_enough_0", ConfigValue::Int(iters))
                    .unwrap();
                config
                    .set_by_name(
                        &schema,
                        "either_0",
                        ConfigValue::Tree(petabricks::config::DecisionTree::single(sweep)),
                    )
                    .unwrap();
                assert_identical(
                    &src, "relax", &schema, &config, &inputs, n as u64, 5, &no_hosts,
                );
            }
        }
        let metric = petabricks::lang::extract_schema(&program, "relaxacc");
        let metric_inputs: HashMap<String, Value> = [
            ("B".to_string(), Value::Arr1(b.clone())),
            (
                "X".to_string(),
                Value::Arr1(b.iter().map(|v| v * 0.4).collect()),
            ),
        ]
        .into();
        assert_identical(
            &src,
            "relaxacc",
            &metric,
            &metric.default_config(),
            &metric_inputs,
            n as u64,
            0,
            &no_hosts,
        );
    }
}

// ---- inliner pins: error parity and per-entry state --------------------

fn run_at(
    src: &str,
    transform: &str,
    level: Option<OptLevel>,
    inputs: &HashMap<String, Value>,
) -> (Result<HashMap<String, Value>, String>, f64) {
    let program = parse_program(src).unwrap();
    check_program(&program).unwrap();
    let schema = petabricks::lang::extract_schema(&program, transform);
    let config = schema.default_config();
    let engine = match level {
        Some(level) => Interpreter::new_compiled_at(program, level),
        None => Interpreter::new(program),
    };
    let mut ctx = ExecCtx::new(&schema, &config, 4, 0);
    let out = engine.run(transform, inputs, &mut ctx);
    (out.map_err(|e| e.message), ctx.virtual_cost())
}

fn in4() -> HashMap<String, Value> {
    [("In".to_string(), Value::Arr1(vec![0.25, -1.5, 3.0, 0.0]))].into()
}

/// `t` calls `c1`, which calls `c2`, … down to `c<depth>`; each link
/// runs one statement before its call, so the charges made before the
/// error are a count of the links entered.
fn call_chain(depth: usize) -> String {
    let mut src = String::from(
        "transform t from In[n] to Out[n] {\n to (Out o) from (In a) { o[0] = c1(a[0]); }\n}\n",
    );
    for i in 1..=depth {
        let body = if i == depth {
            "r = x + 1;".to_string()
        } else {
            format!("let y = x * 2;\n r = c{}(y) + 1;", i + 1)
        };
        src.push_str(&format!(
            "transform c{i} from X to R {{\n to (R r) from (X x) {{ {body} }}\n}}\n"
        ));
    }
    src
}

#[test]
fn depth_limit_fires_at_the_same_point_through_inlined_sites() {
    // Depth 8 is the deepest legal nest; the ninth link must fail, with
    // the same message and after exactly the interpreter's charges —
    // the depth guard is a charge barrier, so nothing past it is
    // pre-paid — whether a link is reached by an inlined body or a
    // real call.
    let (ok, _) = run_at(&call_chain(8), "t", Some(OptLevel::O3), &in4());
    assert_eq!(ok.unwrap()["Out"], Value::Arr1(vec![40.0, 0.0, 0.0, 0.0]));

    let src = call_chain(9);
    let (tree, tree_cost) = run_at(&src, "t", None, &in4());
    assert_eq!(tree.unwrap_err(), "transform call depth exceeded");
    for level in OptLevel::ALL {
        let (vm, vm_cost) = run_at(&src, "t", Some(level), &in4());
        assert_eq!(
            vm.unwrap_err(),
            "transform call depth exceeded",
            "{level:?}"
        );
        assert_eq!(vm_cost, tree_cost, "charges before the error at {level:?}");
    }

    // And the failing link really is reached through inlined bodies at
    // O3: some link absorbed several of the links below it (the size
    // cap stops it absorbing them all), so the chain is a mix of
    // nested guards and real calls.
    let compiled = compile_program(&parse_program(&src).unwrap()).optimized(OptLevel::O3);
    let deepest_guard = (1..=9)
        .filter_map(|i| compiled.chunk(&format!("c{i}"), 0))
        .flat_map(|chunk| &chunk.code)
        .filter_map(|i| match i {
            petabricks::lang::compile::Instr::DepthGuard { extra } => Some(*extra),
            _ => None,
        })
        .max();
    assert!(deepest_guard >= Some(3), "deepest guard: {deepest_guard:?}");
}

#[test]
fn empty_rule_bodies_match_the_tree_walker_at_every_level() {
    // Sema accepts a rule with no statements, so its chunk has no
    // blocks. Every level must still compile it and leave its outputs,
    // and what a later rule reads of them, as the tree-walker does.
    let programs = [
        "transform t from In[n] to Out[n] {\n to (Out o) from (In a) { }\n}\n",
        "transform t from In[n] to S {\n to (S s) from (In a) { }\n}\n",
        "transform t from In[n] through Mid[n] to Out[n] {\n\
         to (Mid m) from (In a) { }\n\
         to (Out o) from (Mid m) { o[0] = m[1] + 1; }\n}\n",
    ];
    for src in programs {
        let program = parse_program(src).unwrap();
        let schema = petabricks::lang::extract_schema(&program, "t");
        let config = schema.default_config();
        assert_identical(src, "t", &schema, &config, &in4(), 4, 0, &no_hosts);
    }
}

#[test]
fn array_bound_to_a_scalar_parameter_reports_the_generic_error() {
    // `a` is an array: the site is not provably scalar, stays a real
    // call, and the callee's input check speaks.
    let src = r#"
        transform t from In[n] to Out[n] {
            to (Out o) from (In a) { o[0] = twice(a); }
        }
        transform twice from X to R {
            to (R r) from (X x) { r = x * 2; }
        }
    "#;
    let (tree, _) = run_at(src, "t", None, &in4());
    let want = tree.unwrap_err();
    assert_eq!(want, "input `X` has 1 dimensions, declared 0");
    for level in OptLevel::ALL {
        assert_eq!(run_at(src, "t", Some(level), &in4()).0.unwrap_err(), want);
    }
}

#[test]
fn oversized_declarations_report_an_error_not_a_crash() {
    // An element count that overflows `usize`, and one no allocator can
    // satisfy: each is a runtime error naming the datum, the same on
    // every engine, not a panic or an abort.
    for (dims, at, shown) in [
        ("4294967296, 4294967296", "0, 0", "[4294967296, 4294967296]"),
        ("1e15", "0", "[1000000000000000]"),
    ] {
        let src = format!(
            "transform t from In[n] to Out[{dims}] {{\n to (Out o) from (In a) {{ o[{at}] = 1; }}\n}}\n"
        );
        let (tree, _) = run_at(&src, "t", None, &in4());
        let want = tree.unwrap_err();
        assert_eq!(
            want,
            format!("`Out` with dimensions {shown} is too large to allocate")
        );
        for level in OptLevel::ALL {
            assert_eq!(run_at(&src, "t", Some(level), &in4()).0.unwrap_err(), want);
        }
    }
}

#[test]
fn index_edges_match_the_tree_walker_at_every_level() {
    // Every indexed form takes its in-bounds fast path at every level;
    // an index on either side of the guard's edges must still read or
    // write the tree-walker's element, or raise its error, after the
    // same charges. `(body, length of the axis `i` indexes, the opcode
    // the body dispatches at O3)`.
    let bodies = [
        ("acc = a[i];", 4.0, "load_idx1"),
        ("acc = g[1, i];", 4.0, "load_idx2"),
        ("acc = g[i, 3];", 2.0, "load_idx2"),
        ("o[i] = 7;", 4.0, "store_idx1"),
        ("m[1, i] = 7;", 4.0, "store_idx2"),
        ("m[i, 3] = 7;", 2.0, "store_idx2"),
        ("o[i] = a[1] * a[2];", 4.0, "bin_store_idx1"),
    ];
    for (body, len, opcode) in bodies {
        let src = format!(
            "transform t from In[n], G[2, n], I to Out[n], M[2, n], Acc {{\n to (Out o, M m, Acc acc) from (In a, G g, I i) {{ {body} }}\n}}\n"
        );
        let o3 = compile_program(&parse_program(&src).unwrap()).optimized(OptLevel::O3);
        assert!(
            o3.chunk("t", 0)
                .unwrap()
                .code
                .iter()
                .any(|instr| { petabricks::lang::OPCODE_NAMES[instr.opcode_index()] == opcode }),
            "`{body}` does not dispatch {opcode} at O3"
        );
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        for v in [-0.0, 2.5, len - 0.5, len, -1.0, nan, inf, -inf, 1e300] {
            let mut inputs = in4();
            inputs.insert(
                "G".to_string(),
                Value::Arr2 {
                    rows: 2,
                    cols: 4,
                    data: (0..8).map(|k| k as f64 * 0.5 - 1.0).collect(),
                },
            );
            inputs.insert("I".to_string(), Value::Num(v));
            let (tree, tree_cost) = run_at(&src, "t", None, &inputs);
            // In range exactly for `-0.0`, `len - 0.5` and, on a
            // 4-long axis, `2.5`.
            let in_range = v == 0.0 || v == len - 0.5 || (v == 2.5 && len == 4.0);
            assert_eq!(tree.is_ok(), in_range, "`{body}` at i = {v}: {tree:?}");
            for level in OptLevel::ALL {
                let (vm, vm_cost) = run_at(&src, "t", Some(level), &inputs);
                match (&tree, &vm) {
                    (Ok(want), Ok(got)) => assert!(
                        outputs_bits_eq(want, got),
                        "`{body}` at i = {v}, {level:?}: {want:?} vs {got:?}"
                    ),
                    (want, got) => assert_eq!(want, got, "`{body}` at i = {v}, {level:?}"),
                }
                assert!(
                    bits_eq(tree_cost, vm_cost),
                    "`{body}` at i = {v}, {level:?}: cost {tree_cost} vs {vm_cost}"
                );
            }
        }
    }
}

#[test]
fn an_unswitched_loop_resolves_a_missing_choice_only_when_it_runs() {
    // The loops' bodies are one `either` each, so lowering resolves the
    // choice once, ahead of the first trip. Under a schema that lacks
    // `either_0` that must fail with the tree-walker's text, and a loop
    // that runs no trip must not resolve it at all.
    for body in [
        "for (i in 0 .. len(a)) { either { o[i] = 1; } or { o[i] = 2; } or { return; } }",
        "for_enough { either { o[0] = o[0] + 1; } or { o[0] = 2; } }",
    ] {
        let src = format!(
            "transform t from In[n] to Out[n] {{\n to (Out o) from (In a) {{ {body} }}\n}}\n"
        );
        let o3 = compile_program(&parse_program(&src).unwrap()).optimized(OptLevel::O3);
        assert!(
            o3.chunk("t", 0)
                .unwrap()
                .code
                .windows(2)
                .any(|w| matches!(w, [Instr::JumpIfGe { .. }, Instr::Choice { .. }])),
            "`{body}` is not unswitched at O3"
        );
        // The same program without the `either`: its `for_enough_0`,
        // no `either_0`.
        let twin = src
            .replace("either {", "if (1) {")
            .replace("} or {", "} else {");
        let twin = twin.replace("} else { return; }", "}");
        let schema = petabricks::lang::extract_schema(&parse_program(&twin).unwrap(), "t");
        assert!(schema.tunable("either_0").is_none(), "{twin}");
        let config = schema.default_config();
        for len in [0, 3] {
            if len == 0 && body.starts_with("for_enough") {
                continue; // `for_enough_0` runs at least once
            }
            let inputs: HashMap<String, Value> =
                [("In".to_string(), Value::Arr1(vec![0.5; len]))].into();
            let outcome =
                assert_same_outcome(&src, "t", &schema, &config, &inputs, 4, 0, &no_hosts);
            match len {
                0 => assert_eq!(outcome, Ok(()), "`{body}` ran no trip"),
                _ => {
                    let message = outcome.unwrap_err();
                    assert!(message.contains("either_0"), "`{body}`: {message}");
                }
            }
        }
    }
}

#[test]
fn remainder_edges_match_the_tree_walker_at_every_level() {
    // `%` takes an integer fast path for a non-negative `a` and a
    // positive `b`, both integers below 2^32; on those inputs it must be
    // bit-identical to the tree-walker's `f64` `%`, and every other pair
    // must take `%` itself. Each pair runs from arrays (the VM's
    // element-store arithmetic) and as literals (the constant folder).
    let two32 = 4_294_967_296.0;
    let edges = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        3.0,
        7.0,
        0.5,
        2.5,
        -2.5,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        two32 - 1.0,
        two32,
        9_007_199_254_740_992.0,
    ];
    let pairs: Vec<(f64, f64)> = edges
        .iter()
        .flat_map(|&a| edges.iter().map(move |&b| (a, b)))
        .collect();
    let literal = |v: f64| match v {
        v if v.is_nan() => "(0 / 0)".to_string(),
        v if v.is_infinite() => format!("({}1 / 0)", if v < 0.0 { "-" } else { "" }),
        v if v.is_sign_negative() => format!("(-{})", -v),
        v => format!("{v}"),
    };
    let arrays = "transform t from A[n], B[n] to Out[n] {\n to (Out o) from (A a, B b) { for (i in 0 .. len(a)) { o[i] = a[i] % b[i]; } }\n}\n";
    let stores: String = pairs
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| format!("o[{i}] = {} % {};\n", literal(a), literal(b)))
        .collect();
    let literals = format!(
        "transform t from A[n], B[n] to Out[n] {{\n to (Out o) from (A a, B b) {{\n{stores}}}\n}}\n"
    );
    let inputs: HashMap<String, Value> = [
        (
            "A".to_string(),
            Value::Arr1(pairs.iter().map(|p| p.0).collect()),
        ),
        (
            "B".to_string(),
            Value::Arr1(pairs.iter().map(|p| p.1).collect()),
        ),
    ]
    .into();
    let rem_ops = |src: &str| {
        let o3 = compile_program(&parse_program(src).unwrap()).optimized(OptLevel::O3);
        let code = &o3.chunk("t", 0).unwrap().code;
        let rem = |i: &&Instr| {
            matches!(
                i,
                Instr::Bin { op: BinOp::Rem, .. }
                    | Instr::BinRI { op: BinOp::Rem, .. }
                    | Instr::BinIR { op: BinOp::Rem, .. }
                    | Instr::BinStoreIdx1 { op: BinOp::Rem, .. }
            )
        };
        code.iter().filter(rem).count()
    };
    assert!(rem_ops(arrays) > 0, "the array loop dispatches `%`");
    assert_eq!(
        rem_ops(&literals),
        0,
        "the constant folder computes every `%`"
    );
    for src in [arrays, literals.as_str()] {
        let (tree, _) = run_at(src, "t", None, &inputs);
        let tree = tree.unwrap();
        for level in OptLevel::ALL {
            let (vm, _) = run_at(src, "t", Some(level), &inputs);
            assert!(outputs_bits_eq(&tree, &vm.unwrap()), "{level:?}\n{src}");
        }
    }
}

#[test]
fn inlined_while_guard_restarts_on_every_entry() {
    // The helper's `while` runs 1 500 iterations per call and is called
    // 10 000 times: 15 M iterations in all, past the 10 M guard if the
    // inlined counter carried over from one entry to the next.
    let src = r#"
        transform t from In[n] to Out[n] {
            to (Out o) from (In a) {
                for (i in 0 .. 10000) { o[0] = o[0] + spin(i); }
            }
        }
        transform spin from X to R {
            to (R r) from (X x) {
                let w = 0;
                while (w < 1500) { w = w + 1; }
                r = w + x - x;
            }
        }
    "#;
    let (out, cost) = run_at(src, "t", Some(OptLevel::O3), &in4());
    assert_eq!(
        out.unwrap()["Out"],
        Value::Arr1(vec![15_000_000.0, 0.0, 0.0, 0.0])
    );
    // 1 + 10 000 × (1 + 3 + 1 500) statements.
    assert_eq!(cost, 15_040_001.0);
}

#[test]
fn inlined_tunables_resolve_under_the_helper_prefix() {
    let src = r#"
        transform t from In[n] to Out[n] {
            to (Out o) from (In a) { o[0] = pick(a[0]); }
        }
        transform pick from X to R {
            to (R r) from (X x) {
                either { r = x + 1; } or { r = x + 2; }
                for_enough { r = r * 10; }
            }
        }
    "#;
    let program = parse_program(src).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "t");
    let compiled = compile_program(&program).optimized(OptLevel::O3);
    let root = compiled.chunk("t", 0).unwrap();
    assert!(
        root.names.contains(&"pick.either_0".to_string())
            && root.names.contains(&"pick.for_enough_0".to_string()),
        "{:?}",
        root.names
    );
    assert!(!root
        .code
        .iter()
        .any(|i| matches!(i, petabricks::lang::compile::Instr::CallTransform { .. })));
    for (branch, iters, want) in [(0usize, 1i64, 12.5), (1, 2, 225.0)] {
        let mut config = schema.default_config();
        config
            .set_by_name(
                &schema,
                "pick.either_0",
                ConfigValue::Tree(petabricks::config::DecisionTree::single(branch)),
            )
            .unwrap();
        config
            .set_by_name(&schema, "pick.for_enough_0", ConfigValue::Int(iters))
            .unwrap();
        assert_identical(src, "t", &schema, &config, &in4(), 4, 0, &no_hosts);
        let vm = Interpreter::new_compiled(program.clone());
        let mut ctx = ExecCtx::new(&schema, &config, 4, 0);
        let out = vm.run("t", &in4(), &mut ctx).unwrap();
        assert_eq!(out["Out"], Value::Arr1(vec![want, 0.0, 0.0, 0.0]));
    }
}

/// Regression: a *later* argument containing a host call that mutates
/// a variable must not affect the value an *earlier* argument already
/// captured — the interpreter snapshots each argument at its
/// evaluation point, and the VM must too (slot operands get
/// evaluation-point `CopySlot` snapshots when a later argument can
/// mutate).
const MUTATING_ARGS: &str = r#"
    transform t from In[n] to Out[n] {
        to (Out o) from (In a) {
            let x = 1;
            o[0] = Probe(o, x, Bump(x));
            o[1] = x;
            o[2] = inner(x, Bump(x));
        }
    }
    transform inner from P, Q to R {
        to (R r) from (P p, Q q) { r = p * 1000 + q; }
    }
"#;

fn mutating_hosts(interp: &mut Interpreter) {
    // Bump(v): overwrites its first argument with 100, returns 7.
    interp.register_host_fn(
        "Bump",
        Box::new(|first, _rest| {
            *first = Value::Num(100.0);
            Ok(Value::Num(7.0))
        }),
    );
    // Probe(o, x, y): returns x (what the caller captured for x).
    interp.register_host_fn("Probe", Box::new(|_first, rest| Ok(rest[0].clone())));
}

#[test]
fn argument_snapshots_survive_mutating_later_arguments() {
    let program = parse_program(MUTATING_ARGS).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "t");
    let config = schema.default_config();
    let inputs: HashMap<String, Value> = [("In".to_string(), Value::Arr1(vec![0.0; 4]))].into();
    assert_identical(
        MUTATING_ARGS,
        "t",
        &schema,
        &config,
        &inputs,
        4,
        0,
        &mutating_hosts,
    );

    // And pin the interpreter-defined ground truth explicitly:
    // Probe sees x = 1 (captured before Bump runs), x itself ends at
    // 100, and inner receives p = 100 (x after the first statement's
    // Bump) captured before the second Bump.
    let mut vm = Interpreter::new_compiled(program);
    mutating_hosts(&mut vm);
    let mut ctx = ExecCtx::new(&schema, &config, 4, 0);
    let out = vm.run("t", &inputs, &mut ctx).unwrap();
    assert_eq!(out["Out"], Value::Arr1(vec![1.0, 100.0, 100_007.0, 0.0]));
}

#[test]
fn a_failing_argument_speaks_before_the_host_function_resolves() {
    // Sema accepts both unknown names: `q` reads as a tunable and
    // `nosuch` as a host function, each resolved at run time. The
    // arguments are evaluated before the function is looked up, so it
    // is `q` that fails, on every engine.
    let src = "transform t from In[n] to Out {\n to (Out o) from (In a) { o = nosuch(a[0 - q], 1); }\n}\n";
    let program = parse_program(src).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "t");
    let config = schema.default_config();
    let err = assert_same_outcome(src, "t", &schema, &config, &in4(), 4, 0, &no_hosts);
    assert_eq!(err.unwrap_err(), "unknown variable `q`");

    // With the function registered, a failing rest argument speaks
    // before a failing first one: the rest are evaluated first.
    let src = "transform t from In[n] to Out {\n to (Out o) from (In a) { o = Probe(a[0 - q], a[9]); }\n}\n";
    let err = assert_same_outcome(src, "t", &schema, &config, &in4(), 4, 0, &mutating_hosts);
    assert_eq!(err.unwrap_err(), "index 9 out of bounds (len 4)");
}

#[test]
fn code_after_a_return_runs_nowhere() {
    // The loop behind the `return` is unreachable. The optimizer may
    // drop any of it, and the verified pipeline must accept that.
    let src = "transform t from In[n] to Out {\n to (Out o) from (In a) { return; for (i in 0 .. len(a)) { if (a[i] == 1) { } } }\n}\n";
    let program = parse_program(src).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "t");
    let config = schema.default_config();
    assert_identical(src, "t", &schema, &config, &in4(), 4, 0, &no_hosts);
    let (out, cost) = run_at(src, "t", Some(OptLevel::O3), &in4());
    assert_eq!((out.unwrap()["Out"].clone(), cost), (Value::Num(0.0), 1.0));
}

// ---- randomized straight-line bodies -----------------------------------
// The generator lives in `tests/common/mod.rs`, shared with the
// `analysis` suite so every fuzzed program is also run through the
// verifier.

use common::{
    array_loop_inputs, gen_array_loop_program, gen_helper_program, gen_straight_line_program,
    random_config,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random straight-line rule bodies: optimized execution (every
    /// level) is pinned to unoptimized and interpreted execution —
    /// outputs, cost, and RNG draws.
    #[test]
    fn random_straight_line_bodies_are_bit_identical(
        seed in 0u64..10_000,
        n_stmts in 1usize..12,
    ) {
        let src = gen_straight_line_program(seed, n_stmts);
        let program = parse_program(&src).unwrap_or_else(|e| panic!("generated program parses: {e:?}\n{src}"));
        let schema = petabricks::lang::extract_schema(&program, "t");
        let config = schema.default_config();
        let inputs: HashMap<String, Value> = [(
            "In".to_string(),
            Value::Arr1(vec![0.25, -1.5, 3.0, 0.0]),
        )]
        .into();
        assert_identical(&src, "t", &schema, &config, &inputs, 4, seed, &no_hosts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random scalar helpers (`if`, `while`, `for`, `either`,
    /// `for_enough`, `return`, `rand`, calls to other helpers) called
    /// from loops, branches, argument positions and `let`s, under a
    /// random configuration of the tunables the helpers introduce: at
    /// `O3` most of these calls are inlined, below it none are, and
    /// every level must reproduce the tree-walker — outputs, draws,
    /// cost, or the error it raises.
    #[test]
    fn random_helper_programs_are_bit_identical(seed in 0u64..100_000) {
        let src = gen_helper_program(seed);
        let program = parse_program(&src)
            .unwrap_or_else(|e| panic!("generated program parses: {e:?}\n{src}"));
        let schema = petabricks::lang::extract_schema(&program, "t");
        let config = random_config(&schema, seed);
        let _ = assert_same_outcome(&src, "t", &schema, &config, &in4(), 4, seed, &no_hosts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random array loops (counted loops over rank-1 and rank-2 data,
    /// zero-trip and nested; locals declared in loop bodies, assigned
    /// in one branch, read after their loop; scalar outputs updated in
    /// place; `either`/`for_enough` inside loops; loop bodies that are
    /// one `either`, which lowering unswitches; locals bound to an
    /// array; indices that sometimes fall out of range): what
    /// `promote`, chunk-wide value tracking, constant homes and loop
    /// rotation rewrite. Every level must reproduce the tree-walker —
    /// outputs, draws, cost, or the error it raises.
    #[test]
    fn random_array_loop_programs_are_bit_identical(seed in 0u64..100_000) {
        let src = gen_array_loop_program(seed);
        let program = parse_program(&src)
            .unwrap_or_else(|e| panic!("generated program parses: {e:?}\n{src}"));
        let schema = petabricks::lang::extract_schema(&program, "t");
        let config = random_config(&schema, seed);
        let (inputs, n) = array_loop_inputs(seed);
        let _ = assert_same_outcome(&src, "t", &schema, &config, &inputs, n, seed, &no_hosts);
    }
}

#[test]
fn generated_array_loop_programs_both_complete_and_fail() {
    // The generator is only worth its cases if most programs run to
    // completion (so outputs, cost and draws are compared) while some
    // raise an error mid-loop (so error parity is), and if enough of
    // them hold an unswitched loop — lowered as a zero-trip check
    // straight before the `Choice` — some nested in another's arm.
    let (mut completed, mut failed) = (0, 0);
    let (mut unswitched, mut nested) = (0, 0);
    for seed in 0..200 {
        let src = gen_array_loop_program(seed);
        let program = parse_program(&src).unwrap();
        let schema = petabricks::lang::extract_schema(&program, "t");
        let config = random_config(&schema, seed);
        let (inputs, n) = array_loop_inputs(seed);
        match assert_same_outcome(&src, "t", &schema, &config, &inputs, n, seed, &no_hosts) {
            Ok(()) => completed += 1,
            Err(_) => failed += 1,
        }
        let code = compile_program(&program)
            .chunk("t", 0)
            .unwrap()
            .code
            .clone();
        let loops = petabricks::lang::opt::loops(&code);
        let choices: Vec<usize> = (1..code.len())
            .filter(|&i| {
                matches!(
                    code[i - 1..=i],
                    [Instr::JumpIfGe { .. }, Instr::Choice { .. }]
                )
            })
            .collect();
        // The arms: the loops the `Switch` behind each such `Choice`
        // dispatches to.
        let arms: Vec<(usize, usize)> = loops
            .iter()
            .copied()
            .filter(|(h, _)| {
                choices.iter().any(|&c| {
                    matches!(&code[c + 1], Instr::Switch { targets, .. } if targets.contains(h))
                })
            })
            .collect();
        unswitched += usize::from(!choices.is_empty());
        nested += usize::from(
            choices
                .iter()
                .any(|&c| arms.iter().any(|&(h, l)| h < c && c <= l)),
        );
    }
    assert!(
        completed >= 60 && failed >= 20,
        "{completed} completed, {failed} failed"
    );
    assert!(
        unswitched >= 70 && nested >= 20,
        "{unswitched} with an unswitched loop, {nested} with one nested in a loop"
    );
}

#[test]
fn data_a_rule_leaves_in_another_shape_is_not_assumed_declared() {
    // A declaration describes data when the transform starts; a rule
    // may rebind its output to a value of another shape, and the rules
    // scheduled after it see that. Whatever acts on the declared shape
    // ahead of the first use (the entry load of a promoted binding)
    // would then raise an error the tree-walker never reaches, or
    // reaches elsewhere.
    let reader_bodies: [(&str, &str, &[&str]); 3] = [
        // Scalar-declared `S` holding an array, read as an input…
        (
            "to (S s) from (In a) { s = a; }",
            "to (Out o) from (S s, In a)",
            &[
                "if (a[0] > 100) { o[0] = s + 1; }",
                "o[0] = 1; o[1] = s + 1;",
                "for (i in 0 .. len(a)) { if (a[i] > 100) { o[i] = s; } }",
            ],
        ),
        // …and rebound as an output.
        (
            "to (S s) from (In a) { s = a; }",
            "to (Out o, S s) from (In a)",
            &[
                "if (a[0] > 100) { s = s + 1; } o[0] = 2;",
                "o[0] = 2; s = s + 1;",
            ],
        ),
        // Array-declared `S` holding a scalar.
        (
            "to (S s) from (In a) { s = 5; }",
            "to (Out o) from (S s, In a)",
            &[
                "for (i in 0 .. len(a)) { if (a[0] > 100) { o[i] = len(s); } }",
                "for (i in 0 .. len(a)) { if (a[0] > 100) { o[i] = s[i]; } }",
                "for (i in 0 .. len(a)) { o[i] = s[i]; }",
            ],
        ),
    ];
    let (mut completed, mut failed) = (0, 0);
    for (k, (writer, reader, bodies)) in reader_bodies.iter().enumerate() {
        let decl = if k == 2 { "S[n]" } else { "S" };
        for body in *bodies {
            let src = format!(
                "transform t from In[n] through {decl} to Out[n] {{\n {writer}\n {reader} {{ {body} }}\n}}\n"
            );
            let program = parse_program(&src).unwrap();
            let schema = petabricks::lang::extract_schema(&program, "t");
            let config = schema.default_config();
            match assert_same_outcome(&src, "t", &schema, &config, &in4(), 4, 1, &no_hosts) {
                Ok(()) => completed += 1,
                Err(_) => failed += 1,
            }
        }
    }
    assert!(
        completed >= 3 && failed >= 3,
        "{completed} completed, {failed} failed"
    );
}

#[test]
fn rule_bindings_move_only_what_nothing_observes() {
    // The VM moves a binding's array between the data store and the
    // rule's frame instead of cloning it where nothing can tell: each
    // program below must still run as the tree-walker's clones do, and
    // `moves` (inputs, then outputs, per rule) pins which bindings move.
    let cases: [(&str, &str, &[&[bool]]); 5] = [
        // A rule writes its own input alias; the next rule reads that
        // datum and must see the original.
        (
            "a rule writing its input",
            "transform t from In[n] through Mid[n] to Out[n], Sum {
                to (Mid m) from (In a) {
                    a[0] = 99;
                    for (i in 0 .. len(a)) { m[i] = a[i] * 2; }
                }
                to (Out o, Sum s) from (In a, Mid m) {
                    for (i in 0 .. len(a)) { o[i] = a[i] + m[i]; s = s + a[i]; }
                }
            }",
            &[&[false, true], &[true, true, true, true]],
        ),
        // The output alias shadows the input's: the body sees `Mid`.
        (
            "an output alias shadowing an input alias",
            "transform t from In[n] through Mid[n] to Out[n] {
                to (Mid x) from (In x) { for (i in 0 .. len(x)) { x[i] = x[i] + i; } }
                to (Out o) from (In a, Mid m) {
                    for (i in 0 .. len(a)) { o[i] = a[i] * 10 + m[i]; }
                }
            }",
            &[&[false, true], &[true, true, true]],
        ),
        // One datum bound twice, one of the two written.
        (
            "one datum under two aliases",
            "transform t from In[n] to Out[n] {
                to (Out o) from (In a, In b) {
                    a[0] = 7;
                    for (i in 0 .. len(a)) { o[i] = a[i] - b[len(b) - 1 - i]; }
                }
            }",
            &[&[false, false, true]],
        ),
        // Two rules in a row read the same datum, one through a call
        // that borrows the moved array.
        (
            "one datum read by two rules",
            "transform t from In[n] through Mid to Out[n] {
                to (Mid m) from (In a) { m = total(a); }
                to (Out o) from (In a, Mid m) {
                    for (i in 0 .. len(a)) { o[i] = a[i] / m; }
                }
            }
            transform total from V[k] to S {
                to (S s) from (V v) { for (i in 0 .. len(v)) { s = s + v[i]; } }
            }",
            &[&[true, true], &[true, true, true]],
        ),
        // A rule that fails after its input moved in: the error text
        // is the tree-walker's.
        (
            "an erroring rule",
            "transform t from In[n] through Mid[n] to Out[n] {
                to (Mid m) from (In a) { m[0] = a[0]; m[1] = a[len(a)]; }
                to (Out o) from (In a, Mid m) { o[0] = a[0] + m[0]; }
            }",
            &[&[true, true], &[true, true, true]],
        ),
    ];
    let inputs: HashMap<String, Value> =
        [("In".to_string(), Value::Arr1(vec![0.5, -1.5, 3.0, 2.0]))].into();
    for (what, src, moves) in cases {
        let program = parse_program(src).unwrap();
        let schema = petabricks::lang::extract_schema(&program, "t");
        let config = schema.default_config();
        let outcome = assert_same_outcome(src, "t", &schema, &config, &inputs, 4, 5, &no_hosts);
        assert_eq!(
            outcome.is_err(),
            what == "an erroring rule",
            "{what}: {outcome:?}"
        );
        for level in OptLevel::ALL {
            let compiled = compile_program(&program).optimized(level);
            for (r, want) in moves.iter().enumerate() {
                let got = &compiled.chunk("t", r).unwrap().moves;
                assert_eq!(got, want, "{what}: rule {r} at {level:?}");
            }
        }
    }
}

#[test]
fn rand_with_a_nan_bound_draws_nothing_on_either_engine() {
    // `a[0] / a[1]` is NaN on `[0, 0]`: a NaN bound is an empty range,
    // which yields `lo` without a draw, as the next draw must show.
    for (lo, hi) in [
        ("0", "a[0] / a[1]"),
        ("a[0] / a[1]", "1"),
        ("a[0] / a[1]", "a[1] / a[0]"),
    ] {
        let src = format!(
            "transform t from In[n] to Out[n] {{\n to (Out o) from (In a) {{ o[0] = rand({lo}, {hi}); o[1] = rand(0, 1); }}\n}}\n"
        );
        let program = parse_program(&src).unwrap();
        let schema = petabricks::lang::extract_schema(&program, "t");
        let config = schema.default_config();
        let inputs: HashMap<String, Value> =
            [("In".to_string(), Value::Arr1(vec![0.0, 0.0]))].into();
        assert_identical(&src, "t", &schema, &config, &inputs, 2, 9, &no_hosts);
    }
}
