//! Cross-crate property tests (proptest) over the workspace's
//! invariants.

#![allow(clippy::needless_range_loop)]

use petabricks::benchmarks::binpacking::{generate_input, pack_with, ALGORITHM_NAMES};
use petabricks::benchmarks::BinPacking;
use petabricks::config::{AccuracyBins, Config, DecisionTree, Schema, Value};
use petabricks::lang::ast::{Expr, Transform as DslDecl};
use petabricks::lang::interp::Value as DslValue;
use petabricks::lang::{
    check_program, compile_program, extract_schema, lint_program, parse_program, Interpreter,
    OptLevel,
};
use petabricks::runtime::{CostModel, ExecCtx, Transform, TransformRunner, TunedProgram};
use petabricks::stats::{welch_t_test, Comparator, CompareOutcome, OnlineStats};
use petabricks::tuner::{
    Autotuner, Candidate, EvalMode, Evaluator, MutatorPool, Population, TunerOptions,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decision trees: whatever levels are added in whatever order,
    /// `select` is a piecewise-constant function whose pieces respect
    /// ascending cutoffs.
    #[test]
    fn decision_tree_select_is_consistent(
        levels in prop::collection::vec((1u64..10_000, 0usize..5), 0..8),
        queries in prop::collection::vec(0u64..20_000, 0..32),
    ) {
        let mut tree = DecisionTree::single(0);
        for (cutoff, choice) in &levels {
            tree.add_level(*cutoff, *choice);
        }
        // Cutoffs strictly ascending after deduplication.
        let cutoffs: Vec<u64> = tree.levels().iter().map(|l| l.cutoff).collect();
        for w in cutoffs.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for q in queries {
            let selected = tree.select(q);
            // The selected choice is the first level whose cutoff
            // exceeds q, or the top choice.
            let expect = tree
                .levels()
                .iter()
                .find(|l| q < l.cutoff)
                .map(|l| l.choice)
                .unwrap_or(tree.top_choice());
            prop_assert_eq!(selected, expect);
        }
    }

    /// Every mutation sequence leaves a config valid for its schema.
    #[test]
    fn mutations_preserve_validity(seed in 0u64..1_000, steps in 1usize..60) {
        let mut schema = Schema::new("prop");
        schema.add_choice_site("site", 4);
        schema.add_cutoff("cut", 1, 1 << 20);
        schema.add_accuracy_variable("acc", 1, 10_000);
        schema.add_switch("sw", 3);
        schema.add_float_param("f", -1.0, 1.0);
        let pool = MutatorPool::from_schema(&schema);
        let mut config = schema.default_config();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut prev = None;
        for step in 0..steps {
            if let Some(rec) =
                pool.apply_random(&mut config, &schema, 1 << (step % 12), &mut rng, prev.as_ref())
            {
                prev = Some(rec);
            }
            prop_assert!(config.validate(&schema).is_ok());
        }
    }

    /// Welch's t-test is symmetric and its p-value is a probability.
    #[test]
    fn t_test_is_symmetric(
        xs in prop::collection::vec(-100.0f64..100.0, 2..20),
        ys in prop::collection::vec(-100.0f64..100.0, 2..20),
    ) {
        let a: OnlineStats = xs.iter().copied().collect();
        let b: OnlineStats = ys.iter().copied().collect();
        let ab = welch_t_test(&a, &b);
        let ba = welch_t_test(&b, &a);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
        prop_assert!((ab.t + ba.t).abs() < 1e-9);
    }

    /// No packing heuristic ever overfills a bin or beats OPT, and the
    /// proven worst-case multipliers hold on generated instances.
    #[test]
    fn binpacking_invariants(seed in 0u64..300, n in 10u64..200) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let input = generate_input(n, &mut rng);
        let t = BinPacking;
        let schema = t.schema();
        let config = schema.default_config();
        for alg in 0..ALGORITHM_NAMES.len() {
            let mut ctx = ExecCtx::new(&schema, &config, n, seed);
            let packing = pack_with(alg, &input, 2, usize::MAX, &mut ctx);
            prop_assert!(packing.is_valid(), "{} overfilled", ALGORITHM_NAMES[alg]);
            // Volume bound (each bin holds at most 1.0), with float
            // slack: the generator's bins sum to 1.0 only up to
            // rounding, so `ceil` of the total would over-demand.
            prop_assert!(
                packing.bins() as f64 >= input.items().iter().sum::<f64>() - 1e-9,
                "{} lost volume", ALGORITHM_NAMES[alg]
            );
            prop_assert!(
                packing.bins() as f64 <= 2.0 * input.opt_bins() as f64 + 1.0,
                "{} above the NextFit bound", ALGORITHM_NAMES[alg]
            );
        }
    }

    /// Tournament-batched pruning (§5.5.4 on the pool) must select the
    /// same kept set as a brute-force full adaptive sort of every
    /// qualifying candidate, under the virtual cost model.
    ///
    /// Levels are powers of two (2x cost gaps) with ±1% deterministic
    /// trial noise, so every distinct-level comparison is decisive and
    /// equal-level candidates (which share trial seeds, hence
    /// observations) resolve as `Same` — the adaptive comparator is a
    /// consistent total preorder and both procedures must agree
    /// exactly, including on tie-breaks (both are stable).
    #[test]
    fn tournament_prune_matches_brute_force_sort(
        exponents in prop::collection::vec(0u32..6, 2..10),
        bin_mask in 1usize..8,
        k in 1usize..4,
    ) {
        let levels: Vec<i64> = exponents.iter().map(|&e| 1i64 << e).collect();
        let all_targets = [0.01, 0.1, 0.4];
        let bins: Vec<f64> = all_targets
            .iter()
            .enumerate()
            .filter(|(i, _)| bin_mask & (1 << i) != 0)
            .map(|(_, &t)| t)
            .collect();
        let (tournament, brute) = prune_both_ways(&levels, &bins, k);
        prop_assert_eq!(tournament, brute);
    }
}

/// The shipped DSL programs, read as shipped.
fn shipped_programs() -> Vec<String> {
    [
        "examples/dsl/binpacking.pb",
        "examples/dsl/kmeans.pb",
        "examples/dsl/refine.pb",
        "ledger/programs/lloyd.pb",
        "ledger/programs/relax.pb",
    ]
    .iter()
    .map(|file| {
        let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    })
    .collect()
}

/// What a byte-level edit of a program may insert: tokens of the
/// language, and multi-byte characters that must not be split.
const DSL_INSERTS: &[&str] = &[
    "§", "é", "—", "…", "(", ")", "{", "}", "[", "]", ";", ",", "=", "==", "<=", "..", ".", "+",
    "-", "*", "/", "%", "!", "&&", "||", "//", "\n", " ", "0", "1e9", "2.5", "for", "either", "or",
    "if", "let", "to", "from", "through", "len", "x",
];

/// What a byte-level edit of a JSON file may insert: its punctuation
/// and literals, escapes, numbers no integer field may load as a
/// different integer, the config format's tags, and multi-byte
/// characters.
const JSON_INSERTS: &[&str] = &[
    "§",
    "é",
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u00e9",
    "\\ud800",
    " ",
    "\n",
    "-",
    ".",
    "e",
    "E+",
    "0",
    "7",
    "2.5",
    "-1",
    "1e300",
    "9007199254740993.0",
    "18446744073709551616",
    "null",
    "true",
    "false",
    "\"Int\"",
    "\"Float\"",
    "\"Switch\"",
    "\"Tree\"",
    "\"levels\"",
];

/// Applies 1–3 random edits to `source`: delete a byte, insert from
/// `inserts`, overwrite a byte, or duplicate a span. An edit that
/// would leave invalid UTF-8 is skipped, because `&str` is the API.
fn mutate(source: &str, inserts: &[&str], rng: &mut SmallRng) -> String {
    let mut bytes = source.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        let mut edited = bytes.clone();
        let at = rng.gen_range(0..=edited.len());
        match rng.gen_range(0..4) {
            0 if at < edited.len() => {
                edited.remove(at);
            }
            1 => {
                let token = inserts[rng.gen_range(0..inserts.len())];
                edited.splice(at..at, token.bytes());
            }
            2 if at < edited.len() => edited[at] = rng.gen_range(0..=255u8),
            3 => {
                let end = (at + rng.gen_range(1..=32)).min(edited.len());
                let span = edited[at..end].to_vec();
                let to = rng.gen_range(0..=edited.len());
                edited.splice(to..to, span);
            }
            _ => {}
        }
        if std::str::from_utf8(&edited).is_ok() {
            bytes = edited;
        }
    }
    String::from_utf8(bytes).expect("every kept edit is valid UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// The front end and compiler reject a damaged program with an
    /// error, never a panic: every shipped program, after a few random
    /// byte edits, goes through parse, sema and compilation at the
    /// default level.
    #[test]
    fn mutated_programs_fail_with_errors_not_panics(seed in 0u64..1_000_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for source in shipped_programs() {
            let mutated = mutate(&source, DSL_INSERTS, &mut rng);
            // Compilation runs whether or not sema accepts: a program
            // that skipped `check_program` must still compile to an
            // error, not a crash.
            let outcome = std::panic::catch_unwind(|| {
                if let Ok(program) = parse_program(&mutated) {
                    let _ = check_program(&program);
                    let _ = compile_program(&program).optimized(OptLevel::default());
                }
            });
            prop_assert!(outcome.is_ok(), "panicked on:\n{mutated}");
        }
    }
}

/// The JSON files the system persists, as it writes them: a config
/// holding every value variant, and a tuned program from a tuning run
/// over [`NoisyLevels`].
fn persisted_files() -> &'static [String; 2] {
    static FILES: OnceLock<[String; 2]> = OnceLock::new();
    FILES.get_or_init(|| {
        let mut tree = DecisionTree::single(0);
        tree.add_level(64, 2);
        tree.add_level(4096, 1);
        let values = vec![
            Value::Int(-3),
            Value::Float(0.25),
            Value::Switch(2),
            Value::Tree(tree),
        ];
        let config = Config::from_values("golden".into(), values);
        let runner = TransformRunner::new(NoisyLevels, CostModel::Virtual);
        let options = TunerOptions::fast_preset(8, 0x51DE);
        let tuned = Autotuner::new(&runner, AccuracyBins::new(vec![0.1, 0.5]), options)
            .tune()
            .expect("tunes");
        [config.to_json(), tuned.to_json()]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// A damaged config or tuned program fails to load with an error,
    /// never a panic.
    #[test]
    fn mutated_config_files_fail_with_errors_not_panics(seed in 0u64..1_000_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let [config, tuned] = persisted_files();
        let config = mutate(config, JSON_INSERTS, &mut rng);
        let tuned = mutate(tuned, JSON_INSERTS, &mut rng);
        let outcome = std::panic::catch_unwind(|| {
            let _ = Config::from_json(&config);
            let _ = TunedProgram::from_json(&tuned);
        });
        prop_assert!(outcome.is_ok(), "panicked on:\n{config}\n{tuned}");
    }
}

/// Small inputs for `t`: every input at its declared shape, each
/// dimension 4 unless it is a literal of at most 8, holding a ramp.
fn small_inputs(t: &DslDecl) -> HashMap<String, DslValue> {
    let ramp = |len: usize| (0..len).map(|i| 0.75 * i as f64 - 1.0).collect::<Vec<_>>();
    let input = |dims: &[Expr]| {
        let dims: Vec<usize> = dims
            .iter()
            .map(|d| match d {
                Expr::Number(v, _) if (0.0..=8.0).contains(v) => *v as usize,
                _ => 4,
            })
            .collect();
        match dims[..] {
            [] => DslValue::Num(0.5),
            [len] => DslValue::Arr1(ramp(len)),
            [rows, cols, ..] => DslValue::Arr2 {
                rows,
                cols,
                data: ramp(rows * cols),
            },
        }
    };
    t.inputs
        .iter()
        .map(|p| (p.name.clone(), input(&p.dims)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// A damaged program that sema accepts still runs alike on every
    /// engine: each of its transforms, at the default configuration on
    /// small inputs, gives the tree-walker's outputs and virtual cost
    /// bit for bit at `O0` and `O3`, or the same error text. And no
    /// gate of the verified pipeline `lint_program` runs rejects a
    /// chunk.
    #[test]
    fn accepted_mutations_run_alike_on_every_engine(seed in 0u64..1_000_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for source in shipped_programs() {
            let mutated = mutate(&source, DSL_INSERTS, &mut rng);
            let Ok(program) = parse_program(&mutated) else {
                continue;
            };
            if check_program(&program).is_err() {
                continue;
            }
            for lint in lint_program(&program) {
                prop_assert!(!lint.message.contains("broke chunk"), "{}\n{mutated}", lint.message);
            }
            let tree = Interpreter::new(program.clone());
            let vms = OptLevel::ALL.map(|level| Interpreter::new_compiled_at(program.clone(), level));
            for t in &program.transforms {
                let schema = extract_schema(&program, &t.name);
                let config = schema.default_config();
                let inputs = small_inputs(t);
                let run = |engine: &Interpreter| {
                    let mut ctx = ExecCtx::new(&schema, &config, 4, seed);
                    let out = engine.run(&t.name, &inputs, &mut ctx);
                    (out.map_err(|e| e.message), ctx.virtual_cost())
                };
                let (want, want_cost) = run(&tree);
                for (level, vm) in OptLevel::ALL.iter().zip(&vms) {
                    let (got, cost) = run(vm);
                    let alike = match (&want, &got) {
                        (Ok(want), Ok(got)) => {
                            want.len() == got.len()
                                && want.iter().all(|(k, v)| got.get(k).is_some_and(|w| v.bits_eq(w)))
                                && want_cost.to_bits() == cost.to_bits()
                        }
                        (Err(want), Err(got)) => want == got,
                        _ => false,
                    };
                    prop_assert!(
                        alike,
                        "`{}` at {level:?}: {got:?} (cost {cost}), tree-walker {want:?} (cost {want_cost})\n{mutated}",
                        t.name
                    );
                }
            }
        }
    }
}

/// Cost = `level · n · (1 ± 1%)` with deterministic per-seed noise;
/// accuracy = `level / 64`. Distinct levels differ by at least 2x, so
/// the adaptive comparator always separates them; equal levels share
/// trial seeds and therefore observations.
#[derive(Clone, Copy)]
struct NoisyLevels;

impl Transform for NoisyLevels {
    type Input = f64;
    type Output = f64;
    fn name(&self) -> &str {
        "noisy_levels"
    }
    fn schema(&self) -> Schema {
        let mut s = Schema::new("noisy_levels");
        s.add_accuracy_variable("level", 1, 64);
        s
    }
    fn generate_input(&self, _n: u64, rng: &mut SmallRng) -> f64 {
        use rand::Rng;
        rng.gen_range(0.99..1.01)
    }
    fn execute(&self, noise: &f64, ctx: &mut ExecCtx<'_>) -> f64 {
        let level = ctx.param("level").unwrap() as f64;
        ctx.charge(level * ctx.size() as f64 * noise);
        level / 64.0
    }
    fn accuracy(&self, _i: &f64, o: &f64) -> f64 {
        *o
    }
}

/// Runs the tournament-batched `Population::prune` and a brute-force
/// reference (full stable adaptive insertion sort of every qualifying
/// candidate per bin, take the first K, plus the best-accuracy safety
/// net) on identically-built populations; returns both kept id sets.
fn prune_both_ways(levels: &[i64], bins: &[f64], k: usize) -> (Vec<u64>, Vec<u64>) {
    let runner = TransformRunner::new(NoisyLevels, CostModel::Virtual);
    let schema = runner.schema();
    let n = 8;
    let comparator = Comparator::default();
    let make_pop = || {
        let mut pop = Population::new();
        for (i, &level) in levels.iter().enumerate() {
            let mut config = schema.default_config();
            config
                .set_by_name(schema, "level", Value::Int(level))
                .unwrap();
            pop.add(Candidate::new(i as u64, config));
        }
        pop
    };

    // Tournament-batched prune (the production path).
    let mut pop_t = make_pop();
    let eval_t = Evaluator::new(&runner, EvalMode::Sequential, true);
    pop_t.test_all(&eval_t, n, 3);
    pop_t.prune(
        n,
        &AccuracyBins::new(bins.to_vec()),
        k,
        &eval_t,
        &comparator,
    );
    let kept_t: Vec<u64> = pop_t.candidates().iter().map(|c| c.id).collect();

    // Brute force: fully sort every qualifying candidate adaptively.
    let mut pop_b = make_pop();
    let eval_b = Evaluator::new(&runner, EvalMode::Sequential, true);
    pop_b.test_all(&eval_b, n, 3);
    let mut keep: BTreeSet<usize> = BTreeSet::new();
    for &target in bins {
        let mut qual: Vec<usize> = (0..pop_b.len())
            .filter(|&i| pop_b.candidates()[i].meets_target(n, target))
            .collect();
        // Stable adaptive insertion sort over the whole qualifying set.
        for i in 1..qual.len() {
            let mut j = i;
            while j > 0 {
                let (a, b) = (qual[j - 1], qual[j]);
                if pop_b.compare_time(b, a, n, &eval_b, &comparator) == CompareOutcome::Less {
                    qual.swap(j - 1, j);
                    j -= 1;
                } else {
                    break;
                }
            }
        }
        qual.truncate(k);
        keep.extend(qual);
    }
    if let Some(best) = pop_b.best_accuracy_index(n) {
        keep.insert(best);
    }
    let kept_b: Vec<u64> = keep.iter().map(|&i| pop_b.candidates()[i].id).collect();
    (kept_t, kept_b)
}
