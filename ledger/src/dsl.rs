//! The five DSL programs the ledger tunes and serves: the three the
//! repository ships under `examples/dsl/` and the two the ledger owns
//! under `ledger/programs/`. Each entry pairs a source file with the
//! transform to tune, the training size, the accuracy bins and a
//! training-input generator (the paper's generators were external
//! programs too).

use pb_lang::interp::Value;
use pb_lang::{parse_program, DslTransform, Program};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;
use std::path::PathBuf;

/// One DSL program of the corpus.
#[derive(Debug, Clone, Copy)]
pub struct DslProgram {
    /// Row name in reports (`<file>.pb`).
    pub name: &'static str,
    /// Source path relative to the repository root.
    pub path: &'static str,
    /// The transform to tune.
    pub transform: &'static str,
    /// Largest training size (`TunerOptions::max_size`).
    pub n: u64,
    /// Accuracy-bin targets.
    pub bins: &'static [f64],
    inputs: fn(u64, &mut SmallRng) -> HashMap<String, Value>,
}

/// The corpus, in report order. The shipped three have metrics any
/// configuration meets and no nested loops or calls; `lloyd` and
/// `relax` add the nested loops, rank-2 indexing, `if` in loops and
/// scalar helper calls the O3 rewrites target, behind metrics that
/// have to be earned.
pub const PROGRAMS: [DslProgram; 5] = [
    DslProgram {
        name: "kmeans.pb",
        path: "examples/dsl/kmeans.pb",
        transform: "kmeans",
        n: 4096,
        bins: &[0.5, 1.0],
        inputs: clustered_points,
    },
    DslProgram {
        name: "refine.pb",
        path: "examples/dsl/refine.pb",
        transform: "refine",
        n: 4096,
        bins: &[1.0, 3.0, 6.0, 9.0],
        inputs: ones,
    },
    DslProgram {
        name: "binpacking.pb",
        path: "examples/dsl/binpacking.pb",
        transform: "binpack",
        n: 16384,
        bins: &[1.0, 1.5],
        inputs: item_sizes,
    },
    DslProgram {
        name: "lloyd.pb",
        path: "ledger/programs/lloyd.pb",
        transform: "lloyd",
        n: 128,
        bins: &[0.3, 0.6, 1.2],
        inputs: overlapping_points,
    },
    DslProgram {
        name: "relax.pb",
        path: "ledger/programs/relax.pb",
        transform: "relax",
        n: 24,
        bins: &[0.5, 1.5, 3.0],
        inputs: right_hand_side,
    },
];

impl DslProgram {
    /// Absolute source path: the repository root is the parent of this
    /// package's manifest directory, wherever the checkout lives.
    pub fn source_path(&self) -> PathBuf {
        repo_root().join(self.path)
    }

    /// Reads the source text.
    pub fn read_source(&self) -> std::io::Result<String> {
        std::fs::read_to_string(self.source_path())
    }

    /// Source text to a tunable transform: parse, then
    /// [`DslProgram::construct`].
    pub fn compile(&self, source: &str) -> Result<DslTransform, String> {
        self.construct(parse_program(source).map_err(|e| e.to_string())?)
    }

    /// A parsed program to a tunable transform: check, extract the
    /// schema, lower, optimize at the default level.
    pub fn construct(&self, program: Program) -> Result<DslTransform, String> {
        DslTransform::compile(program, self.transform, Box::new(self.inputs))
            .map_err(|e| e.to_string())
    }

    /// A training input of size `n`.
    pub fn generate_input(&self, n: u64, rng: &mut SmallRng) -> HashMap<String, Value> {
        (self.inputs)(n, rng)
    }
}

/// The repository root (parent of `ledger/`), fixed at build time.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the ledger package sits one level below the repository root")
        .to_path_buf()
}

/// The paper's clustering generator (§6.1.2): `sqrt(n)` centres in
/// `[-250, 250]^2`, points spread around them.
fn clustered_points(n: u64, rng: &mut SmallRng) -> HashMap<String, Value> {
    points_around(n, 250.0, rng)
}

/// The same shape with the centres only a few noise widths apart, so
/// accuracy grows gradually with `k` instead of jumping once `k`
/// reaches the number of centres.
fn overlapping_points(n: u64, rng: &mut SmallRng) -> HashMap<String, Value> {
    points_around(n, 8.0, rng)
}

fn points_around(n: u64, extent: f64, rng: &mut SmallRng) -> HashMap<String, Value> {
    let n = n.max(4) as usize;
    let k = (n as f64).sqrt().round() as usize;
    let centres: Vec<(f64, f64)> = (0..k)
        .map(|_| {
            (
                rng.gen_range(-extent..extent),
                rng.gen_range(-extent..extent),
            )
        })
        .collect();
    let mut data = vec![0.0; 2 * n];
    for i in 0..n {
        let (cx, cy) = centres[i % k];
        data[i] = cx + rng.gen_range(-1.0..1.0);
        data[n + i] = cy + rng.gen_range(-1.0..1.0);
    }
    HashMap::from([(
        "Points".to_string(),
        Value::Arr2 {
            rows: 2,
            cols: n,
            data,
        },
    )])
}

fn ones(n: u64, _rng: &mut SmallRng) -> HashMap<String, Value> {
    HashMap::from([("In".to_string(), Value::Arr1(vec![1.0; n.max(1) as usize]))])
}

fn item_sizes(n: u64, rng: &mut SmallRng) -> HashMap<String, Value> {
    let sizes = (0..n.max(1)).map(|_| rng.gen_range(0.05..0.95)).collect();
    HashMap::from([("Sizes".to_string(), Value::Arr1(sizes))])
}

fn right_hand_side(n: u64, rng: &mut SmallRng) -> HashMap<String, Value> {
    let b = (0..n.max(1)).map(|_| rng.gen_range(-1.0..1.0)).collect();
    HashMap::from([("B".to_string(), Value::Arr1(b))])
}
