//! Integration: a program written in the language goes through the
//! whole paper pipeline — parse, check, schema extraction, and
//! autotuning with the same genetic tuner the native benchmarks use.

use petabricks::config::AccuracyBins;
use petabricks::lang::interp::Value;
use petabricks::lang::{check_program, parse_program, DslTransform};
use petabricks::runtime::{CostModel, TransformRunner, TrialRunner};
use petabricks::tuner::{config_fingerprint, Autotuner, TunerOptions, TunerStats};
use std::collections::HashMap;

/// Iterative refinement: each `for_enough` iteration halves the error,
/// and an `either…or` picks between a cheap and an expensive variant
/// of the refinement step (the expensive one converges twice as fast
/// per unit of accuracy but costs 10x). Its bins are in "digits of
/// error reduction".
const REFINE: &str = r#"
    transform refine
    accuracy_metric refineacc
    accuracy_bins 1 3
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

fn compile() -> DslTransform {
    compile_source(REFINE)
}

fn compile_source(source: &str) -> DslTransform {
    let program = parse_program(source).expect("parses");
    check_program(&program).expect("well-formed");
    DslTransform::compile(
        program,
        "refine",
        Box::new(|n, _rng| {
            let mut inputs = HashMap::new();
            inputs.insert("In".to_string(), Value::Arr1(vec![0.0; n.max(1) as usize]));
            inputs
        }),
    )
    .expect("compiles")
}

#[test]
fn dsl_program_exposes_expected_tunables() {
    let dsl = compile();
    let runner = TransformRunner::new(dsl, CostModel::Virtual);
    let schema = runner.schema();
    assert!(schema.tunable("for_enough_0").is_some());
    assert!(schema.tunable("either_0").is_some());
}

#[test]
fn dsl_program_tunes_to_accuracy_bins() {
    let dsl = compile();
    let bins = dsl.accuracy_bins().expect("REFINE declares its bins");
    assert_eq!(bins, AccuracyBins::new(vec![1.0, 3.0]));
    let unbinned = compile_source(&REFINE.replace("accuracy_bins 1 3", ""));
    assert_eq!(unbinned.accuracy_bins(), None);
    let runner = TransformRunner::new(dsl, CostModel::Virtual);
    let outcome = Autotuner::new(&runner, bins, TunerOptions::fast_preset(4, 0xD51))
        .tune_outcome()
        .expect("reachable targets");
    let tuned = outcome.program;
    let schema = runner.schema();

    // The run's decisions, recorded at seed `0xD51`: a change that
    // claims to leave the tuner's decisions alone leaves these alone.
    let decisions = TunerStats {
        children_created: 32,
        children_accepted: 11,
        guided_runs: 1,
        cache_hits: 30,
        cache_misses: 60,
        ..TunerStats::default()
    };
    assert_eq!(outcome.stats.decision_image(), decisions);
    let fingerprints: Vec<u64> = tuned
        .entries()
        .iter()
        .map(|e| config_fingerprint(&e.config))
        .collect();
    assert_eq!(fingerprints, [16632294184343744959, 17451968936011951962]);

    // The tight bin needs more for_enough iterations than the loose
    // one (1 digit needs ~4 halvings; 3 digits ~10).
    let loose = tuned.entry(0).config.int(schema, "for_enough_0").unwrap();
    let tight = tuned.entry(1).config.int(schema, "for_enough_0").unwrap();
    assert!(tight >= loose, "tight={tight} loose={loose}");
    assert!(tuned.entry(0).observed_accuracy >= 1.0 - 1e-9);
    assert!(tuned.entry(1).observed_accuracy >= 3.0 - 1e-9);

    // And fresh executions deliver the promised accuracy.
    let outcome = runner.run_trial(&tuned.entry(1).config, 4, 777);
    assert!(outcome.accuracy >= 3.0 - 1e-9);
}

#[test]
fn kmeans_figure3_pipeline() {
    // The Figure-3 program from the paper: parse, check, schema.
    let source = r#"
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
    let program = parse_program(source).unwrap();
    check_program(&program).unwrap();
    let schema = petabricks::lang::extract_schema(&program, "kmeans");
    assert!(schema.tunable("k").is_some());
    assert!(schema.tunable("rule_Centroids").is_some());
    assert!(schema.tunable("for_enough_0").is_some());
}
