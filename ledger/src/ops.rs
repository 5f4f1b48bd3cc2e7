//! Workloads as op lists.
//!
//! A tuning run's wall time is a chaotic function of its tuner seed:
//! across twelve seeds the same benchmark at the same size swings by
//! 17–74 % (interquartile range over median), so a run that drew fresh
//! tuner seeds from `--seed` would need hundreds of full-size tuning
//! runs before two seeds agreed within any useful bound. The tuning
//! corpus — program, size, bins, tuner seed — is therefore fixed, the
//! way a compiler benchmark fixes its input programs, and `--seed`
//! draws everything that can vary without changing what work a
//! workload is: the order tuning runs are issued in, the held-out
//! seeds tuned configurations are evaluated on, and every input of
//! every served request.

use crate::dsl;
use crate::programs::{Native, ProgramId};
use pb_benchmarks::binpacking::ratio_to_accuracy;

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 0x1E_D6E2;

/// Seeds the fixed tuning corpus's tuner seeds.
const CORPUS: u64 = 0x1E_D6E2;

/// Held-out seeds each tuned configuration is evaluated on.
pub const EVAL_SEEDS: usize = 8;

/// SplitMix64 of `a` perturbed by `b`: every derived seed comes from
/// here.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    TuneFull,
    TuneSmall,
    TuneDsl,
    ServeTuned,
}

impl Workload {
    /// All four, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::TuneFull,
        Workload::TuneSmall,
        Workload::TuneDsl,
        Workload::ServeTuned,
    ];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TuneFull => "tune_full",
            Workload::TuneSmall => "tune_small",
            Workload::TuneDsl => "tune_dsl",
            Workload::ServeTuned => "serve_tuned",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fresh processes the timed pass is spread over (see
    /// [`crate::sets`]): as many as the time budget affords. Every set
    /// pays for its own set-up, warm-up and at least five passes, which
    /// for `tune_full` and `tune_dsl` is already the whole budget (and a
    /// second set did not narrow `tune_dsl`'s spread: 6 % with one,
    /// 8 % with two).
    pub fn sets(self) -> usize {
        match self {
            Workload::TuneFull | Workload::TuneDsl => 1,
            Workload::TuneSmall | Workload::ServeTuned => 3,
        }
    }

    /// Whether the workload's ops are tuning runs.
    pub fn tunes(self) -> bool {
        self != Workload::ServeTuned
    }
}

/// A program at a training size with its accuracy bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub program: ProgramId,
    pub n: u64,
    pub bins: Vec<f64>,
}

/// The Fig. 6 bins of a native benchmark.
fn fig6_bins(native: Native) -> Vec<f64> {
    match native {
        Native::BinPacking => [1.4, 1.3, 1.2, 1.1, 1.01]
            .iter()
            .map(|&r| ratio_to_accuracy(r))
            .collect(),
        Native::Clustering => vec![0.05, 0.10, 0.20, 0.50, 0.75, 0.95],
        Native::Helmholtz | Native::Poisson => vec![1.0, 3.0, 5.0, 7.0, 9.0],
        Native::ImageCompr => vec![0.3, 0.6, 0.8, 1.0, 1.5, 2.0],
        Native::Precond => vec![0.0, 0.5, 1.0, 1.5, 2.0, 3.0],
    }
}

fn native_spec(native: Native, n: u64) -> Spec {
    Spec {
        program: ProgramId::Native(native),
        n,
        bins: fig6_bins(native),
    }
}

/// The six §6.1 benchmarks at paper-scale sizes.
fn full_specs() -> Vec<Spec> {
    vec![
        native_spec(Native::BinPacking, 2048),
        native_spec(Native::Clustering, 2048),
        native_spec(Native::Helmholtz, 7),
        native_spec(Native::ImageCompr, 96),
        native_spec(Native::Poisson, 63),
        native_spec(Native::Precond, 128),
    ]
}

/// The same six at the small end of the size schedule, plus `planted`.
/// Bin packing's Fig. 6 bins are unreachable at n ≤ 128 (the tuner
/// reports `AccuracyUnreachable` on every seed), so it gets the looser
/// 1.5 / 1.1 ratios here.
fn small_specs() -> Vec<Spec> {
    vec![
        native_spec(Native::Clustering, 64),
        Spec {
            bins: vec![ratio_to_accuracy(1.5), ratio_to_accuracy(1.1)],
            ..native_spec(Native::BinPacking, 128)
        },
        native_spec(Native::Precond, 24),
        native_spec(Native::Poisson, 7),
        native_spec(Native::ImageCompr, 16),
        native_spec(Native::Helmholtz, 3),
        // The payload is a placeholder: every corpus entry plants its
        // own optimum (see `op_list`).
        Spec {
            program: ProgramId::Planted(0),
            n: 64,
            bins: vec![0.3, 0.6, 0.9],
        },
    ]
}

/// The five DSL programs at their training sizes.
fn dsl_specs() -> Vec<Spec> {
    dsl::PROGRAMS
        .iter()
        .enumerate()
        .map(|(i, p)| Spec {
            program: ProgramId::Dsl(i),
            n: p.n,
            bins: p.bins.to_vec(),
        })
        .collect()
}

/// What `serve_tuned` serves: every DSL program and the three native
/// benchmarks with the widest cost range across bins.
pub fn served_specs() -> Vec<Spec> {
    let mut specs = dsl_specs();
    specs.extend([
        native_spec(Native::Clustering, 2048),
        native_spec(Native::BinPacking, 2048),
        native_spec(Native::Poisson, 63),
    ]);
    specs
}

/// The tuner seed of the `k`-th corpus entry of `spec`'s program.
pub fn corpus_seed(spec: &Spec, k: usize) -> u64 {
    let program = spec
        .program
        .name()
        .bytes()
        .fold(spec.n, |acc, b| mix(acc, u64::from(b)));
    mix(CORPUS, mix(program, k as u64))
}

/// One tuning run: source or native transform to a tuned program.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneOp {
    pub spec: Spec,
    pub tuner_seed: u64,
}

/// How a served request starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeKind {
    /// Source text + tuned JSON to the first verified result.
    Cold,
    /// A request against an already loaded program.
    Steady,
}

/// One served request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOp {
    pub kind: ServeKind,
    /// Index into [`served_specs`].
    pub served: usize,
    pub program: ProgramId,
    pub n: u64,
    pub required: f64,
    pub input_seed: u64,
}

/// One operation of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Tune(TuneOp),
    Serve(ServeOp),
}

impl Op {
    /// The report row the op's time is aggregated under: the program,
    /// with cold starts kept apart from steady-state requests.
    pub fn row(&self) -> String {
        match self {
            Op::Tune(t) => t.spec.program.name().to_string(),
            Op::Serve(s) => match s.kind {
                ServeKind::Cold => format!("cold:{}", s.program.name()),
                ServeKind::Steady => s.program.name().to_string(),
            },
        }
    }

    /// One line describing the op in per-op reports.
    pub fn describe(&self) -> String {
        match self {
            Op::Tune(t) => format!(
                "tune {}@{} seed {:#x}",
                t.spec.program.name(),
                t.spec.n,
                t.tuner_seed
            ),
            Op::Serve(s) => format!(
                "{} {}@{} accuracy {} input {:#x}",
                if s.kind == ServeKind::Cold {
                    "cold"
                } else {
                    "serve"
                },
                s.program.name(),
                s.n,
                s.required,
                s.input_seed
            ),
        }
    }
}

/// A workload's fixed op list for one `--seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct OpList {
    pub workload: Workload,
    pub seed: u64,
    pub ops: Vec<Op>,
    /// Held-out trial seeds tuned configurations are evaluated on.
    pub eval_seeds: [u64; EVAL_SEEDS],
}

/// Corpus entries per program (tuning) or inputs per bin (serving).
fn breadth(workload: Workload, smoke: bool) -> usize {
    match (workload, smoke) {
        (Workload::TuneFull, false) => 2,
        (Workload::TuneFull, true) => 1,
        (Workload::TuneSmall, false) => 20,
        (Workload::TuneSmall, true) => 4,
        (Workload::TuneDsl, false) => 10,
        (Workload::TuneDsl, true) => 2,
        (Workload::ServeTuned, false) => 8,
        (Workload::ServeTuned, true) => 2,
    }
}

/// The accuracy asked of each bin: halfway between the bin below and
/// the bin's own target (and as far below the lowest target), so the
/// request lands in that bin with the headroom a caller who needs
/// "about this much" leaves, instead of sitting exactly on the
/// boundary the tuner trained to.
fn requested(bins: &[f64]) -> Vec<f64> {
    let step = |b: usize| match (b.checked_sub(1), bins.get(b + 1)) {
        (Some(below), _) => bins[b] - bins[below],
        (None, Some(above)) => above - bins[b],
        (None, None) => 0.0,
    };
    (0..bins.len()).map(|b| bins[b] - step(b) / 2.0).collect()
}

/// Input size of a cold-start request.
const COLD_N: u64 = 64;

/// Builds the op list of `workload` for `seed`. `smoke` shrinks the
/// corpus (never the sizes) for a quick functional pass.
pub fn op_list(workload: Workload, seed: u64, smoke: bool) -> OpList {
    let breadth = breadth(workload, smoke);
    let mut ops = Vec::new();
    if workload.tunes() {
        let specs = match workload {
            Workload::TuneFull => full_specs(),
            Workload::TuneSmall => small_specs(),
            _ => dsl_specs(),
        };
        for spec in specs {
            for k in 0..breadth {
                let tuner_seed = corpus_seed(&spec, k);
                let mut spec = spec.clone();
                if let ProgramId::Planted(placement) = &mut spec.program {
                    *placement = mix(tuner_seed, 0x9_1A47);
                }
                ops.push(Op::Tune(TuneOp { tuner_seed, spec }));
            }
        }
    } else {
        // Cold starts first, then the request stream: `breadth` cycles
        // through every bin of every served program, each request with
        // an input of its own. The order is the same for every seed —
        // peak memory follows the allocation order (13.6 MiB in this
        // order on every seed, 14 or 17 MiB in shuffled ones), and the
        // inputs already differ from seed to seed.
        let served = served_specs();
        let lane = |program: usize| mix(seed, 0x5E_87E0 + program as u64);
        for (i, spec) in served.iter().enumerate() {
            if spec.program.dsl().is_some() {
                ops.push(Op::Serve(ServeOp {
                    kind: ServeKind::Cold,
                    served: i,
                    program: spec.program,
                    n: spec.n.min(COLD_N),
                    required: requested(&spec.bins)[0],
                    input_seed: mix(lane(i), 0xC01D),
                }));
            }
        }
        for cycle in 0..breadth {
            for (i, spec) in served.iter().enumerate() {
                for (b, required) in requested(&spec.bins).into_iter().enumerate() {
                    ops.push(Op::Serve(ServeOp {
                        kind: ServeKind::Steady,
                        served: i,
                        program: spec.program,
                        n: spec.n,
                        required,
                        input_seed: mix(lane(i), (b * breadth + cycle) as u64),
                    }));
                }
            }
        }
    }
    if workload.tunes() {
        // Fisher–Yates with the run's seed: the order tuning runs are
        // issued in is part of the input, so what neighbouring ops leave
        // in caches and allocator differs from seed to seed.
        for i in (1..ops.len()).rev() {
            let j = (mix(seed, 0x0_5EED + i as u64) % (i as u64 + 1)) as usize;
            ops.swap(i, j);
        }
    }
    let mut eval_seeds = [0; EVAL_SEEDS];
    for (j, slot) in eval_seeds.iter_mut().enumerate() {
        *slot = mix(seed, 0xE_7A10 + j as u64);
    }
    OpList {
        workload,
        seed,
        ops,
        eval_seeds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_list_different_seed_different_list() {
        for workload in Workload::ALL {
            let a = op_list(workload, 7, false);
            let b = op_list(workload, 7, false);
            let c = op_list(workload, 8, false);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a.ops, c.ops, "{}", workload.name());
            assert_ne!(a.eval_seeds, c.eval_seeds);
            // Another seed reorders the same amount of work.
            assert_eq!(a.ops.len(), c.ops.len());
        }
    }

    #[test]
    fn the_tuning_corpus_does_not_move_with_the_seed() {
        for workload in [Workload::TuneFull, Workload::TuneSmall, Workload::TuneDsl] {
            let key = |op: &Op| match op {
                Op::Tune(t) => (t.spec.program, t.spec.n, t.tuner_seed),
                Op::Serve(_) => unreachable!("tuning workloads only tune"),
            };
            let mut a: Vec<_> = op_list(workload, 1, false).ops.iter().map(key).collect();
            let mut b: Vec<_> = op_list(workload, 2, false).ops.iter().map(key).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn served_inputs_move_with_the_seed() {
        let seeds = |seed| -> Vec<u64> {
            let mut s: Vec<u64> = op_list(Workload::ServeTuned, seed, false)
                .ops
                .iter()
                .map(|op| match op {
                    Op::Serve(s) => s.input_seed,
                    Op::Tune(_) => unreachable!("serve_tuned only serves"),
                })
                .collect();
            s.sort_unstable();
            s
        };
        assert_ne!(seeds(1), seeds(2));
    }

    #[test]
    fn workload_shapes() {
        let full = op_list(Workload::TuneFull, DEFAULT_SEED, false);
        assert_eq!(full.ops.len(), 6 * 2);
        let small = op_list(Workload::TuneSmall, DEFAULT_SEED, false);
        assert_eq!(small.ops.len(), 7 * 20);
        let dsl = op_list(Workload::TuneDsl, DEFAULT_SEED, false);
        assert_eq!(dsl.ops.len(), 5 * 10);
        let serve = op_list(Workload::ServeTuned, DEFAULT_SEED, false);
        let bins: usize = served_specs().iter().map(|s| s.bins.len()).sum();
        assert_eq!(serve.ops.len(), 5 + bins * 8);
        let rows: std::collections::BTreeSet<String> = serve.ops.iter().map(Op::row).collect();
        assert_eq!(rows.len(), 5 + 8, "{rows:?}");
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(op_list(w, 1, true).ops.len() < op_list(w, 1, false).ops.len());
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn corpus_seeds_are_distinct_per_program_and_entry() {
        let mut seen = std::collections::HashSet::new();
        for spec in full_specs().iter().chain(&dsl_specs()) {
            for k in 0..20 {
                assert!(seen.insert(corpus_seed(spec, k)));
            }
        }
    }
}
