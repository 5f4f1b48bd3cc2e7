//! The full paper pipeline on a program *written in the language*:
//! parse the Figure-3 kmeans program, extract its tunable schema
//! (training information), register the host helper functions, and
//! autotune it to the accuracy bins the program declares —
//! sub-algorithm choice, `k`, and `for_enough` iterations all
//! discovered automatically.
//!
//! Run with: `cargo run --release --example dsl_kmeans`

use petabricks::lang::interp::Value;
use petabricks::lang::{parse_program, DslTransform};
use petabricks::runtime::{CostModel, TransformRunner};
use petabricks::tuner::{Autotuner, TunerOptions};
use rand::Rng;
use std::collections::HashMap;

/// The kmeans program of Figure 3, in this reproduction's grammar.
/// `Points[2, n]`: row 0 = x coordinates, row 1 = y coordinates.
const KMEANS: &str = r#"
    transform kmeans
    accuracy_metric kmeansaccuracy
    accuracy_variable k 1 64
    accuracy_bins 0.1 0.4
    from Points[2, n]
    through Centroids[2, k]
    to Assignments[n]
    {
        // Rule 1: random points as initial centroids.
        to (Centroids c) from (Points p) {
            for (i in 0 .. cols(c)) {
                let src = floor(rand(0, cols(p)));
                c[0, i] = p[0, src];
                c[1, i] = p[1, src];
            }
        }

        // Rule 2: kmeans++ style initialization (host helper).
        to (Centroids c) from (Points p) {
            CenterPlus(c, p);
        }

        // Rule 3: Lloyd iteration, count chosen by the autotuner.
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

fn main() {
    let program = parse_program(KMEANS).expect("the Figure-3 program parses");
    let mut dsl = DslTransform::compile(
        program,
        "kmeans",
        Box::new(|n, rng| {
            // The paper's generator: sqrt(n) centres, unit-normal spread.
            let n = n.max(4) as usize;
            let k = (n as f64).sqrt().round() as usize;
            let centres: Vec<(f64, f64)> = (0..k)
                .map(|_| (rng.gen_range(-250.0..250.0), rng.gen_range(-250.0..250.0)))
                .collect();
            let mut data = vec![0.0; 2 * n];
            for i in 0..n {
                let (cx, cy) = centres[i % k];
                data[i] = cx + rng.gen_range(-1.0..1.0);
                data[n + i] = cy + rng.gen_range(-1.0..1.0);
            }
            let mut inputs = HashMap::new();
            inputs.insert(
                "Points".to_string(),
                Value::Arr2 {
                    rows: 2,
                    cols: n,
                    data,
                },
            );
            inputs
        }),
    )
    .expect("the program is well-formed");

    register_host_helpers(&mut dsl);

    let bins = dsl.accuracy_bins().expect("the program declares its bins");
    let runner = TransformRunner::new(dsl, CostModel::Virtual);
    println!("extracted tunables (the training information):");
    for (_, tunable) in runner.schema().iter() {
        println!("  {:<16} {:?}", tunable.name(), tunable.kind());
    }

    let tuned = Autotuner::new(&runner, bins, TunerOptions::fast_preset(64, 5))
        .tune()
        .expect("targets reachable");

    println!("\ntuned kmeans (from the DSL program):");
    let schema = runner.schema();
    for entry in tuned.entries() {
        println!(
            "  accuracy {:>4}: k = {:>2}, init rule = {}, for_enough iters = {:>3} (observed {:.3})",
            entry.target,
            entry.config.int(schema, "k").unwrap(),
            entry.config.choice(schema, "rule_Centroids", 64).unwrap(),
            entry.config.int(schema, "for_enough_0").unwrap(),
            entry.observed_accuracy,
        );
    }
}

/// The helper algorithms referenced by the DSL program, supplied by
/// the host exactly as PetaBricks linked external C++ helpers.
fn register_host_helpers(dsl: &mut DslTransform) {
    // CenterPlus(c, p): kmeans++-ish spread initialization.
    dsl.register_host_fn(
        "CenterPlus",
        Box::new(|centroids, rest| {
            let (p, n) = arr2(&rest[0]);
            if let Value::Arr2 { data, cols, .. } = centroids {
                let k = *cols;
                for i in 0..k {
                    // Deterministic stride seeding spreads the centres.
                    let src = i * n.max(1) / k.max(1);
                    data[i] = p[src];
                    data[k + i] = p[n + src];
                }
            }
            Ok(Value::Num(0.0))
        }),
    );
    // AssignClusters(a, p, c): nearest-centroid assignment, returns the
    // number of changed labels.
    dsl.register_host_fn(
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
    // NewClusterLocations(c, p, a): move centroids to their means.
    dsl.register_host_fn(
        "NewClusterLocations",
        Box::new(|centroids, rest| {
            let (p, n) = arr2(&rest[0]);
            let a = match &rest[1] {
                Value::Arr1(a) => a,
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
    // SumClusterDistanceSquared(a, p): the metric's helper.
    dsl.register_host_fn(
        "SumClusterDistanceSquared",
        Box::new(|assignments, rest| {
            let a = match assignments {
                Value::Arr1(a) => a.clone(),
                _ => return Err("assignments must be 1-D".into()),
            };
            let (p, n) = arr2(&rest[0]);
            // Recompute centroids from the labels, then sum distances.
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
