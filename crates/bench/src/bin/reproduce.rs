//! Regenerates the paper's evaluation (§6), every measured cell with its
//! label and verdict (see the `bench` crate docs). Exits non-zero when a
//! cell at its program's training size fails.

use bench::{fig6_panels, gate, judge, measure, train, Cell, Label};
use pb_benchmarks::binpacking::{generate_input, pack_with, ALGORITHM_NAMES};
use pb_benchmarks::clustering::{INIT_NAMES, ITERATION_NAMES};
use pb_benchmarks::{BinPacking, Clustering};
use pb_config::AccuracyBins;
use pb_runtime::{CostModel, ExecCtx, TraceNode, Transform, TransformRunner};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The kmeans program with the variable-accuracy extensions (Fig. 3).
const WITH_EXTENSIONS: &str = r#"
transform kmeans
accuracy_metric kmeansaccuracy
accuracy_variable k 1 4096
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

/// The same program with the extensions manually erased, in the style
/// the paper describes for the pre-extension Poisson benchmark:
/// specialized training transforms, explicit parameter plumbing, one
/// copy of the pipeline per (init × iteration-policy) combination, and
/// a hand-written accuracy search driver.
const WITHOUT_EXTENSIONS: &str = r#"
transform kmeans_rand_once from Points[2, n] to Assignments[n] {
    to (Assignments a) from (Points p) {
        let k = ReadParamFile(p, 0);
        InitRandom(a, p, k);
        AssignClusters(a, p, a);
    }
}
transform kmeans_rand_iter from Points[2, n] to Assignments[n] {
    to (Assignments a) from (Points p) {
        let k = ReadParamFile(p, 0);
        let iters = ReadParamFile(p, 1);
        InitRandom(a, p, k);
        let i = 0;
        while (i < iters) {
            let change = AssignClusters(a, p, a);
            if (change == 0) { return; }
            NewClusterLocations(a, p, a);
            i = i + 1;
        }
    }
}
transform kmeans_rand_fixpoint from Points[2, n] to Assignments[n] {
    to (Assignments a) from (Points p) {
        let k = ReadParamFile(p, 0);
        InitRandom(a, p, k);
        while (1) {
            let change = AssignClusters(a, p, a);
            if (change == 0) { return; }
            NewClusterLocations(a, p, a);
        }
    }
}
transform kmeans_pp_once from Points[2, n] to Assignments[n] {
    to (Assignments a) from (Points p) {
        let k = ReadParamFile(p, 0);
        InitCenterPlus(a, p, k);
        AssignClusters(a, p, a);
    }
}
transform kmeans_pp_iter from Points[2, n] to Assignments[n] {
    to (Assignments a) from (Points p) {
        let k = ReadParamFile(p, 0);
        let iters = ReadParamFile(p, 1);
        InitCenterPlus(a, p, k);
        let i = 0;
        while (i < iters) {
            let change = AssignClusters(a, p, a);
            if (change == 0) { return; }
            NewClusterLocations(a, p, a);
            i = i + 1;
        }
    }
}
transform kmeans_pp_fixpoint from Points[2, n] to Assignments[n] {
    to (Assignments a) from (Points p) {
        let k = ReadParamFile(p, 0);
        InitCenterPlus(a, p, k);
        while (1) {
            let change = AssignClusters(a, p, a);
            if (change == 0) { return; }
            NewClusterLocations(a, p, a);
        }
    }
}
transform kmeans_train_k from Points[2, n] to BestK {
    to (BestK best) from (Points p) {
        let k = 1;
        let bestacc = 0;
        while (k < 4096) {
            WriteParamFile(p, 0, k);
            let acc = RunCandidateAndMeasure(p, k);
            if (acc > bestacc) { bestacc = acc; best = k; }
            k = k * 2;
        }
        WriteParamFile(p, 0, best);
    }
}
transform kmeans_train_iters from Points[2, n] to BestIters {
    to (BestIters best) from (Points p) {
        let i = 1;
        let bestacc = 0;
        while (i < 500) {
            WriteParamFile(p, 1, i);
            let acc = RunCandidateAndMeasure(p, i);
            if (acc > bestacc) { bestacc = acc; best = i; }
            i = i * 2;
        }
        WriteParamFile(p, 1, best);
    }
}
transform kmeans_train_variant from Points[2, n] to BestVariant {
    to (BestVariant best) from (Points p) {
        let v = 0;
        let bestacc = 0;
        while (v < 6) {
            let acc = RunVariantAndMeasure(p, v);
            if (acc > bestacc) { bestacc = acc; best = v; }
            v = v + 1;
        }
        WriteParamFile(p, 2, best);
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

fn loc(source: &str) -> usize {
    let code = |l: &&str| !l.is_empty() && !l.starts_with("//");
    source.lines().map(str::trim).filter(code).count()
}

/// Average `(bins/OPT ratio, cost)` per bin-packing algorithm at one
/// size, over three inputs, at the default config.
fn profile(n: u64) -> Vec<(f64, f64)> {
    let schema = BinPacking.schema();
    let config = schema.default_config();
    let mut out = vec![(0.0, 0.0); ALGORITHM_NAMES.len()];
    for trial in 0..3 {
        let input = generate_input(n, &mut SmallRng::seed_from_u64(0xF17 ^ (n << 8) ^ trial));
        for (alg, acc) in out.iter_mut().enumerate() {
            let mut ctx = ExecCtx::new(&schema, &config, n, trial);
            let packing = pack_with(alg, &input, 2, usize::MAX, &mut ctx);
            acc.0 += packing.bins() as f64 / input.opt_bins().max(1) as f64;
            acc.1 += ctx.virtual_cost();
        }
    }
    out.into_iter().map(|(r, c)| (r / 3.0, c / 3.0)).collect()
}

/// A Fig. 7 grid label: the algorithm name's capitals.
fn abbreviate(name: &str) -> String {
    name.chars().filter(char::is_ascii_uppercase).collect()
}

/// Renders a trace as Fig. 8's indented tree.
fn render(node: &TraceNode, mut depth: usize) -> String {
    let mut out = String::new();
    if !node.label.is_empty() {
        let relax = "•".repeat(node.points.iter().filter(|p| *p == "relax").count());
        let direct = node.points.iter().any(|p| p == "direct");
        let (indent, direct) = ("  ".repeat(depth), direct.then_some(" direct"));
        out = format!("{indent}{} {relax}{}\n", node.label, direct.unwrap_or(""));
        depth += 1;
    }
    for child in &node.children {
        out += &render(child, depth);
    }
    out
}

fn main() {
    let (mut all, mut panels) = (Vec::new(), Vec::new());
    for panel in fig6_panels() {
        let (tuned, cells) = panel.run();
        println!("# {}; trained at n = {}", panel.title, panel.train_size);
        println!("input_size       accuracy      speedup   held_out         label  verdict");
        // Each size's bins come in target order: the last is the tightest.
        for size in cells.chunks(tuned.entries().len()) {
            let top = size.last().expect("at least one bin").cost;
            for c in size {
                let speedup = if c.cost > 0.0 { top / c.cost } else { 1.0 };
                println!("{:>10} {:>14.4} {speedup:>12.2} {c}", c.n, c.target);
            }
        }
        println!();
        all.extend(cells);
        panels.push((panel, tuned));
    }

    let ratios: Vec<f64> = (0..=10).map(|i| 1.0 + 0.05 * i as f64).collect();
    println!("# Fig 7: best algorithm per (required bins/OPT ratio, input size)");
    print!("{:>8}", "size");
    for r in &ratios {
        print!(" {r:>6.2}");
    }
    println!();
    for n in (3..=14).map(|k| 1u64 << k) {
        let profiles = profile(n);
        print!("{n:>8}");
        for &r in &ratios {
            // The cheapest algorithm whose mean ratio meets the requirement.
            let best = profiles
                .iter()
                .enumerate()
                .filter(|(_, (ratio, _))| *ratio <= r)
                .min_by(|(_, (_, ca)), (_, (_, cb))| ca.partial_cmp(cb).expect("finite costs"))
                .map_or("-".to_string(), |(alg, _)| abbreviate(ALGORITHM_NAMES[alg]));
            print!(" {best:>6}");
        }
        println!();
    }
    println!("\nLegend:");
    for name in ALGORITHM_NAMES {
        println!("  {:>6} = {name}", abbreviate(name));
    }

    // Fig. 6(c)'s program, drawn at that panel's sizes on one seed.
    let (helmholtz, tuned) = &panels[2];
    println!("\n# Fig 8: tuned Helmholtz cycle shapes (the Fig 6(c) program)");
    println!("# (• = one SOR relaxation at that level; `direct` = bottom direct solve)");
    let (mut cells, mut shapes) = (Vec::new(), Vec::new());
    for entry in tuned.entries() {
        for &n in &helmholtz.sizes {
            let (outcome, trace) = helmholtz.runner.run_traced(&entry.config, n, 0x5EED);
            let (train, cost, acc) = (helmholtz.train_size, outcome.virtual_cost, outcome.accuracy);
            cells.push(Cell::new(n, entry.target, train, cost, acc));
            shapes.push(render(&trace, 0));
        }
    }
    judge(&mut cells);
    for (c, shape) in cells.iter().zip(&shapes) {
        println!(
            "\n== required 10^{:.0} residual reduction, size {} (achieved {:.2} orders, cost {:.2e}): {}, {} ==",
            c.target, c.n, c.accuracy, c.cost, c.label, c.verdict()
        );
        print!("{shape}");
    }
    all.extend(cells);

    let n = 2048;
    let runner = TransformRunner::new(Clustering, CostModel::Virtual);
    let bins = AccuracyBins::new(vec![0.10, 0.20, 0.50, 0.75, 0.95]);
    let tuned = train(&runner, &bins, n, 0x7AB1);
    let cells = measure(&runner, &tuned, &[n], n);
    let schema = runner.schema();
    let k_opt = (n as f64).sqrt().round() as u64;
    println!("\n# Table 1: autotuned k-means choices (n = {n}, k_optimal ~ sqrt(n) = {k_opt})");
    let head = " accuracy      k       init        iteration   observed";
    println!("{head}   held_out         label  verdict");
    for (entry, c) in tuned.entries().iter().zip(&cells) {
        let config = &entry.config;
        let int = |name: &str| config.int(schema, name).expect("a k-means tunable");
        let choice = |name: &str| config.choice(schema, name, n).expect("a k-means choice");
        let (k, init) = (int("k").min(n as i64), INIT_NAMES[choice("init").min(1)]);
        let policy = match choice("iteration") {
            1 => format!("{}% stabilize", int("stabilize_pct")),
            other => ITERATION_NAMES[other.min(2)].to_string(),
        };
        let observed = entry.observed_accuracy;
        println!(
            "{:>9.2} {k:>6} {init:>10} {policy:>16} {observed:>10.3} {c}",
            entry.target
        );
    }
    all.extend(cells);

    // Both §6.5 versions must be valid programs in our language.
    for source in [WITH_EXTENSIONS, WITHOUT_EXTENSIONS] {
        let program = pb_lang::parse_program(source).expect("§6.5 program parses");
        pb_lang::check_program(&program).expect("§6.5 program is well-formed");
    }
    let (a, b) = (loc(WITH_EXTENSIONS), loc(WITHOUT_EXTENSIONS));
    println!("\n# §6.5 programmability (qualitative reproduction)");
    println!("k-means with variable-accuracy extensions:    {a:>4} LoC");
    println!("k-means with extensions manually erased:      {b:>4} LoC");
    let ratio = b as f64 / a as f64;
    println!("code-size ratio:                              {ratio:.1}x");
    println!(
        "\n(The paper reports 15.6x for its 2D Poisson benchmark, whose manual \
         version also duplicated per-level multigrid accuracy plumbing; the \
         manual k-means above still under-counts the real burden since \
         ReadParamFile/RunCandidateAndMeasure hide a hand-written tuner.)"
    );

    println!("\n# Verdicts (a failing trained cell fails the run)");
    for label in [Label::Trained, Label::Below, Label::Extrapolated] {
        let of: Vec<&Cell> = all.iter().filter(|c| c.label == label).collect();
        let failing = of.iter().filter(|c| !c.passes()).count();
        println!("{label:>13}: {:>4} cells, {failing:>3} failing", of.len());
    }
    if !gate(&all) {
        eprintln!("reproduce: a cell at its training size failed its verdict");
        std::process::exit(1);
    }
}
