//! k-means clustering benchmark (§6.1.2).
//!
//! Training data follows the paper: `√n` cluster centres drawn
//! uniformly from `[−250, 250]²`, remaining points scattered around
//! them with unit-normal noise; "the optimal value of k = √n is not
//! known to the autotuner". Tunables: the accuracy variable `k`, the
//! initialization choice (random columns vs k-means++), and the
//! iteration policy (once / iterate until fewer than a tunable
//! percentage of assignments change / iterate to a fixed point).
//! Accuracy metric: `√(2n / Σ Dᵢ²)`.
//!
//! The nearest-centroid distance computation — the kernel's hot loop —
//! runs through [`pb_runtime::parallel::parallel_gen`] with a tunable
//! `par_cutoff`, so the tuner sets the parallel/sequential switch-over
//! point of the work-stealing scheduler exactly as in paper §5.2. With
//! enough centroids the scan visits them in order of distance in x
//! from each point and stops once that distance alone exceeds the best
//! found (Friedman, Baskett & Shustek, 1975): the same centroid as the
//! scan over all of them, ties to the lowest index. It is still charged
//! as that scan, `n·k` per assignment step.
//!
//! An input, [`Dataset`], keeps the k-means++ seeding its trials have
//! drawn (Arthur & Vassilvitskii, 2007), so a trial draws only the
//! centres no earlier trial on it has.

use pb_config::Schema;
use pb_runtime::parallel::parallel_gen;
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// A set of 2D points (x and y in separate arrays, matching the
/// paper's `Points[n, 2]` layout).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Points {
    /// x coordinates.
    pub x: Vec<f64>,
    /// y coordinates.
    pub y: Vec<f64>,
}

impl Points {
    /// Number of points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether there are no points.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }
}

/// Clustering output: centroid positions plus per-point assignments.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterAssignment {
    /// Final centroids.
    pub centroids: Points,
    /// `assignments[i]` = centroid index of point `i`.
    pub assignments: Vec<usize>,
}

/// Generates the paper's clustered training data.
pub fn generate_points(n: u64, rng: &mut SmallRng) -> Points {
    let n = n.max(1) as usize;
    let k = (n as f64).sqrt().round().max(1.0) as usize;
    let cx: Vec<f64> = (0..k).map(|_| rng.gen_range(-250.0..250.0)).collect();
    let cy: Vec<f64> = (0..k).map(|_| rng.gen_range(-250.0..250.0)).collect();
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    // First the centres themselves, then points distributed evenly.
    for i in 0..n {
        let c = i % k;
        if i < k {
            x.push(cx[c]);
            y.push(cy[c]);
        } else {
            x.push(cx[c] + normal_sample(rng));
            y.push(cy[c] + normal_sample(rng));
        }
    }
    Points { x, y }
}

fn normal_sample(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

fn dist2(points: &Points, i: usize, cx: f64, cy: f64) -> f64 {
    let dx = points.x[i] - cx;
    let dy = points.y[i] - cy;
    dx * dx + dy * dy
}

/// Random initialization: k distinct-ish random input points.
fn init_random(points: &Points, k: usize, rng: &mut SmallRng) -> Points {
    let n = points.len();
    let mut cx = Vec::with_capacity(k);
    let mut cy = Vec::with_capacity(k);
    for _ in 0..k {
        let i = rng.gen_range(0..n);
        cx.push(points.x[i]);
        cy.push(points.y[i]);
    }
    Points { x: cx, y: cy }
}

/// One set of points to cluster, with the k-means++ seedings its
/// trials have drawn, one per execution seed. A draw depends only on
/// the points, the seed and the centres drawn before it, so the first
/// `k` centres are the same at every larger rank: a trial of rank `k`
/// grows its seed's seeding to `k` centres if it must, then copies the
/// first `k` out, the bits a fresh input gives. A trial is still
/// charged for all `k` draws: a real call on a new input would pay for
/// them. Trials may come from several threads at once; one that must
/// grow a seeding holds the lock while it does.
#[derive(Debug)]
pub struct Dataset {
    points: Points,
    seedings: Mutex<Vec<Seeding>>,
}

impl Dataset {
    /// Wraps `points`, with no seeding drawn yet.
    fn new(points: Points) -> Self {
        Dataset {
            points,
            seedings: Mutex::default(),
        }
    }

    /// The points.
    fn points(&self) -> &Points {
        &self.points
    }

    /// The first `k` k-means++ centres drawn from a generator seeded
    /// with `s`: each subsequent centre drawn proportional to squared
    /// distance from the nearest chosen one.
    fn kmeanspp(&self, k: usize, s: u64) -> Points {
        // A draw that panicked changed nothing (see `Seeding::draw`), so
        // a poisoned lock is taken as it is.
        let mut seedings = self.seedings.lock().unwrap_or_else(PoisonError::into_inner);
        let at = match seedings.iter().position(|seeding| seeding.s == s) {
            Some(at) => at,
            None => {
                seedings.push(Seeding::new(&self.points, s));
                seedings.len() - 1
            }
        };
        let seeding = &mut seedings[at];
        while seeding.centres.len() < k {
            seeding.draw(&self.points);
        }
        Points {
            x: seeding.centres.x[..k].to_vec(),
            y: seeding.centres.y[..k].to_vec(),
        }
    }
}

/// A k-means++ seeding grown so far.
#[derive(Debug)]
struct Seeding {
    /// The seed of the draws' generator.
    s: u64,
    /// The centres drawn so far, in order.
    centres: Points,
    /// Each point's squared distance to its nearest centre so far.
    d2: Vec<f64>,
    /// The generator after the last draw.
    rng: SmallRng,
}

impl Seeding {
    /// The first centre, drawn uniformly.
    fn new(points: &Points, s: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(s);
        let first = rng.gen_range(0..points.len());
        let (cx, cy) = (points.x[first], points.y[first]);
        Seeding {
            s,
            centres: Points {
                x: vec![cx],
                y: vec![cy],
            },
            d2: (0..points.len())
                .map(|i| dist2(points, i, cx, cy))
                .collect(),
            rng,
        }
    }

    /// Draws the next centre. The draw runs on a copy of the generator,
    /// so one that panics leaves the seeding as it was.
    fn draw(&mut self, points: &Points) {
        let n = points.len();
        let mut rng = self.rng.clone();
        let total: f64 = self.d2.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &w) in self.d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        self.rng = rng;
        let (cx, cy) = (points.x[next], points.y[next]);
        self.centres.x.push(cx);
        self.centres.y.push(cy);
        for (i, d) in self.d2.iter_mut().enumerate() {
            *d = d.min(dist2(points, i, cx, cy));
        }
    }
}

/// k-means++ initialization as every trial ran it before [`Dataset`]
/// kept seedings, less its charges: the bit-identity oracle for
/// `Dataset::kmeanspp`.
#[cfg(test)]
fn init_kmeanspp(points: &Points, k: usize, rng: &mut SmallRng) -> Points {
    let n = points.len();
    let first = rng.gen_range(0..n);
    let mut cx = vec![points.x[first]];
    let mut cy = vec![points.y[first]];
    let mut d2: Vec<f64> = (0..n).map(|i| dist2(points, i, cx[0], cy[0])).collect();
    while cx.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen_range(0.0..total);
            let mut chosen = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            chosen
        };
        cx.push(points.x[next]);
        cy.push(points.y[next]);
        let c = cx.len() - 1;
        for i in 0..n {
            d2[i] = d2[i].min(dist2(points, i, cx[c], cy[c]));
        }
    }
    Points { x: cx, y: cy }
}

/// Nearest centroid to point `i` (pure: safe to evaluate in parallel).
fn nearest_centroid(points: &Points, centroids: &Points, i: usize) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for c in 0..centroids.len() {
        let d = dist2(points, i, centroids.x[c], centroids.y[c]);
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// From this many centroids on, [`assign`] sorts them by x and prunes
/// its scan. On the paper's clustered points with k-means++ centroids,
/// one core of a 2-vCPU Xeon VM, the pruned scan with its sort read
/// 7–13 % slower than the linear one at 16 centroids and n ≥ 1 024, and
/// 12–30 % faster at 24 for every n from 64 to 2 048: below that, the
/// binary search, the sort and their allocations cost more than the
/// distances they save.
const PRUNE_MIN_CENTROIDS: usize = 24;

/// Centroids sorted by x, for the pruned nearest-centroid scan.
struct ByX {
    x: Vec<f64>,
    y: Vec<f64>,
    /// Each sorted centroid's index.
    index: Vec<usize>,
}

impl ByX {
    /// `None` when pruning would not pay, or some centroid coordinate
    /// is not finite.
    fn new(centroids: &Points) -> Option<ByX> {
        let finite = |v: &[f64]| v.iter().all(|c| c.is_finite());
        if centroids.len() < PRUNE_MIN_CENTROIDS || !finite(&centroids.x) || !finite(&centroids.y) {
            return None;
        }
        let mut index: Vec<usize> = (0..centroids.len()).collect();
        index.sort_unstable_by(|&a, &b| centroids.x[a].total_cmp(&centroids.x[b]));
        Some(ByX {
            x: index.iter().map(|&c| centroids.x[c]).collect(),
            y: index.iter().map(|&c| centroids.y[c]).collect(),
            index,
        })
    }

    /// [`nearest_centroid`] of a point with finite coordinates. The scan
    /// starts at the point's x and walks up, then down. `fl(px − cx)` is
    /// monotone in `cx`, and `fl(fl(dx²) + fl(dy²)) ≥ fl(dx²)`, so once
    /// `dx²` exceeds the best distance, every centroid further along
    /// that way is strictly farther than the best: it can neither win
    /// nor tie.
    fn nearest(&self, px: f64, py: f64) -> usize {
        let start = self.x.partition_point(|&cx| cx < px);
        let (mut best, mut best_d) = (usize::MAX, f64::INFINITY);
        let mut visit = |cx: f64, cy: f64, c: usize| {
            let dx = px - cx;
            let dx2 = dx * dx;
            if dx2 > best_d {
                return false;
            }
            let dy = py - cy;
            let d = dx2 + dy * dy;
            if d < best_d || (d == best_d && c < best) {
                best = c;
                best_d = d;
            }
            true
        };
        let (x, y, index) = (&self.x, &self.y, &self.index);
        let up = x[start..].iter().zip(&y[start..]).zip(&index[start..]);
        for ((&cx, &cy), &c) in up {
            if !visit(cx, cy, c) {
                break;
            }
        }
        let down = x[..start]
            .iter()
            .zip(&y[..start])
            .zip(&index[..start])
            .rev();
        for ((&cx, &cy), &c) in down {
            if !visit(cx, cy, c) {
                break;
            }
        }
        best
    }
}

/// Assigns every point to its nearest centroid; returns the number of
/// changed assignments.
///
/// The per-point distance scans split across the pool
/// when the input reaches `par_cutoff` points (paper §5.2's tuned
/// switch-over). Each point's result is a pure function of the
/// inputs, so the *assignments* are identical in both regimes; the
/// *virtual cost* models the schedule (`ExecCtx::charge_split`: the
/// scan divided across the modeled machine's threads plus a dispatch)
/// — so the tuner can find the crossover deterministically, the way
/// wall-clock measurements would on real hardware. The charge is the
/// same whatever the pool's width, so a tuned program is too, and
/// whether the scan prunes or visits every centroid.
fn assign(
    points: &Points,
    centroids: &Points,
    assignments: &mut [usize],
    par_cutoff: usize,
    ctx: &mut ExecCtx<'_>,
) -> usize {
    let by_x = ByX::new(centroids);
    let nearest = parallel_gen(points.len(), par_cutoff, |i| {
        let (px, py) = (points.x[i], points.y[i]);
        match &by_x {
            Some(by_x) if px.is_finite() && py.is_finite() => by_x.nearest(px, py),
            _ => nearest_centroid(points, centroids, i),
        }
    });
    let mut changed = 0;
    for (slot, best) in assignments.iter_mut().zip(nearest) {
        if *slot != best {
            *slot = best;
            changed += 1;
        }
    }
    let work = (points.len() * centroids.len()) as f64;
    if !ctx.charge_split(points.len(), par_cutoff, work) {
        ctx.charge(work);
    }
    changed
}

/// Moves each centroid to the mean of its assigned points (empty
/// clusters stay put).
fn update_centroids(
    points: &Points,
    centroids: &mut Points,
    assignments: &[usize],
    ctx: &mut ExecCtx<'_>,
) {
    let k = centroids.len();
    let mut sx = vec![0.0; k];
    let mut sy = vec![0.0; k];
    let mut count = vec![0usize; k];
    for (i, &c) in assignments.iter().enumerate() {
        sx[c] += points.x[i];
        sy[c] += points.y[i];
        count[c] += 1;
    }
    for c in 0..k {
        if count[c] > 0 {
            centroids.x[c] = sx[c] / count[c] as f64;
            centroids.y[c] = sy[c] / count[c] as f64;
        }
    }
    ctx.charge(points.len() as f64);
}

/// Sum of squared distances from each point to its centroid.
pub fn sum_cluster_distance_squared(points: &Points, result: &ClusterAssignment) -> f64 {
    result
        .assignments
        .iter()
        .enumerate()
        .map(|(i, &c)| dist2(points, i, result.centroids.x[c], result.centroids.y[c]))
        .sum()
}

/// The paper's accuracy metric `√(2n / Σ Dᵢ²)` (larger = tighter
/// clusters).
pub fn kmeans_accuracy(points: &Points, result: &ClusterAssignment) -> f64 {
    let ssd = sum_cluster_distance_squared(points, result);
    if ssd <= 0.0 {
        // Perfect clustering (every point on its centroid).
        return f64::MAX.sqrt();
    }
    (2.0 * points.len() as f64 / ssd).sqrt()
}

/// The k-means variable-accuracy transform.
#[derive(Debug, Clone, Copy, Default)]
pub struct Clustering;

/// Iteration-policy choice indices.
pub const ITERATION_NAMES: [&str; 3] = ["once", "stabilize_pct", "fixed_point"];
/// Initialization choice indices.
pub const INIT_NAMES: [&str; 2] = ["random", "kmeans++"];

impl Transform for Clustering {
    type Input = Dataset;
    type Output = ClusterAssignment;

    fn name(&self) -> &str {
        "kmeans"
    }

    fn schema(&self) -> Schema {
        let mut s = Schema::new("kmeans");
        s.add_accuracy_variable("k", 1, 4096);
        s.add_choice_site("init", INIT_NAMES.len());
        s.add_choice_site("iteration", ITERATION_NAMES.len());
        s.add_accuracy_variable("stabilize_pct", 1, 100);
        s.add_accuracy_variable("max_iters", 1, 200);
        s.add_cutoff("par_cutoff", 16, 1 << 16);
        s
    }

    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> Dataset {
        Dataset::new(generate_points(n, rng))
    }

    fn execute(&self, input: &Dataset, ctx: &mut ExecCtx<'_>) -> ClusterAssignment {
        let points = input.points();
        let n = points.len();
        let k = (ctx.param("k").expect("schema declares k") as usize).clamp(1, n);
        let init = ctx.choice("init").expect("schema declares init");
        let policy = ctx.choice("iteration").expect("schema declares iteration");
        let pct = ctx.param("stabilize_pct").expect("schema") as f64 / 100.0;
        let max_iters = ctx.for_enough("max_iters").expect("schema");
        let par_cutoff = ctx.param("par_cutoff").expect("schema").max(1) as usize;

        let s: u64 = ctx.rng().gen();
        let mut centroids = match init {
            0 => init_random(points, k, &mut SmallRng::seed_from_u64(s)),
            _ => {
                let centres = input.kmeanspp(k, s);
                // One pass over the points per centre drawn.
                for _ in 0..k {
                    ctx.charge(n as f64);
                }
                centres
            }
        };
        ctx.event(INIT_NAMES[init.min(1)]);
        ctx.event(ITERATION_NAMES[policy.min(2)]);

        let mut assignments = vec![usize::MAX; n];
        // The first assignment counts every point as changed.
        let mut changed = assign(points, &centroids, &mut assignments, par_cutoff, ctx);
        let mut iters = 1u64;
        loop {
            let stop = match policy {
                0 => true, // once
                1 => changed as f64 <= pct * n as f64,
                _ => changed == 0,
            };
            if stop || iters >= max_iters.max(1) {
                break;
            }
            update_centroids(points, &mut centroids, &assignments, ctx);
            changed = assign(points, &centroids, &mut assignments, par_cutoff, ctx);
            iters += 1;
        }
        ClusterAssignment {
            centroids,
            assignments,
        }
    }

    fn accuracy(&self, input: &Dataset, output: &ClusterAssignment) -> f64 {
        kmeans_accuracy(input.points(), output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_inputs::{assert_bits_eq, trial_hash_words};
    use pb_config::Value;
    use rand::SeedableRng;

    /// Whole-trial hashes (centroid and assignment bits, virtual cost
    /// and accuracy) taken before trials kept their k-means++ seeding on
    /// the input and the assignment scan pruned by x. At `k = n` random
    /// initialization draws duplicate centroids, so the scan meets ties.
    const PINS: [&str; 78] = [
        "n64 random once k=1: b57237b5b7d495ab",
        "n64 random once k=8: 63260e6fd2161a8d",
        "n64 random once k=64: cbf054a4ac975491",
        "n64 random stabilize_pct k=1: 018c59d9390aea01",
        "n64 random stabilize_pct k=8: ad1bf551abcfed4d",
        "n64 random stabilize_pct k=64: be2f38235d49e43e",
        "n64 random fixed_point k=1: 018c59d9390aea01",
        "n64 random fixed_point k=8: ad1bf551abcfed4d",
        "n64 random fixed_point k=64: be2f38235d49e43e",
        "n64 kmeans++ once k=1: e960131b36a80259",
        "n64 kmeans++ once k=8: 7fdc3c7609293f64",
        "n64 kmeans++ once k=64: d89ff5025eb711f6",
        "n64 kmeans++ stabilize_pct k=1: b401482663a8a3cc",
        "n64 kmeans++ stabilize_pct k=8: 03c99e0fa3378eb8",
        "n64 kmeans++ stabilize_pct k=64: 2da545434f20195e",
        "n64 kmeans++ fixed_point k=1: b401482663a8a3cc",
        "n64 kmeans++ fixed_point k=8: 03c99e0fa3378eb8",
        "n64 kmeans++ fixed_point k=64: 2da545434f20195e",
        "n512 random once k=1: 56a9d5983d83930b",
        "n512 random once k=8: 3f1dbf458a883c10",
        "n512 random once k=23: 5fac996c6e809d54",
        "n512 random once k=459: 81c44e9184fe3ad4",
        "n512 random once k=512: 9b5f5c6a8a18a5a0",
        "n512 random stabilize_pct k=1: b02b2ca9a1453bce",
        "n512 random stabilize_pct k=8: 0396e74c4554e2da",
        "n512 random stabilize_pct k=23: d0e54bdb89a6ce00",
        "n512 random stabilize_pct k=459: b432cbc990f99116",
        "n512 random stabilize_pct k=512: d95c47af8b05bf9e",
        "n512 random fixed_point k=1: b02b2ca9a1453bce",
        "n512 random fixed_point k=8: 0396e74c4554e2da",
        "n512 random fixed_point k=23: 0166564c989d63db",
        "n512 random fixed_point k=459: b432cbc990f99116",
        "n512 random fixed_point k=512: 0acd08601bd64059",
        "n512 kmeans++ once k=1: a1c506af3c36122f",
        "n512 kmeans++ once k=8: 3e21cd12a580a576",
        "n512 kmeans++ once k=23: 6525a93313c791e5",
        "n512 kmeans++ once k=459: 9c9665e612d8c849",
        "n512 kmeans++ once k=512: 8bb3d348ec8fdb88",
        "n512 kmeans++ stabilize_pct k=1: 6712a758f88613ba",
        "n512 kmeans++ stabilize_pct k=8: cd5580dd9fe7f9f9",
        "n512 kmeans++ stabilize_pct k=23: 2fdef7515d08e5ce",
        "n512 kmeans++ stabilize_pct k=459: 7087c08f7c584523",
        "n512 kmeans++ stabilize_pct k=512: 6beb0fe9ee80e11c",
        "n512 kmeans++ fixed_point k=1: 6712a758f88613ba",
        "n512 kmeans++ fixed_point k=8: cd5580dd9fe7f9f9",
        "n512 kmeans++ fixed_point k=23: 2fdef7515d08e5ce",
        "n512 kmeans++ fixed_point k=459: 7087c08f7c584523",
        "n512 kmeans++ fixed_point k=512: 6beb0fe9ee80e11c",
        "n2048 random once k=1: fb0b07f0e13edf2f",
        "n2048 random once k=8: d692fad6f06699a7",
        "n2048 random once k=45: 8408eb1983ae1bd1",
        "n2048 random once k=459: c1e598a9c8e86c2a",
        "n2048 random once k=2048: 15329e7abc6b4c3e",
        "n2048 random stabilize_pct k=1: 57a4c8ad04d6c10f",
        "n2048 random stabilize_pct k=8: 695ef4bf2b26a635",
        "n2048 random stabilize_pct k=45: 314a4f5842970102",
        "n2048 random stabilize_pct k=459: dc5dfb90c48d75ad",
        "n2048 random stabilize_pct k=2048: 1aa9b2a8b7c3eab4",
        "n2048 random fixed_point k=1: 57a4c8ad04d6c10f",
        "n2048 random fixed_point k=8: 695ef4bf2b26a635",
        "n2048 random fixed_point k=45: ad5672621d67c645",
        "n2048 random fixed_point k=459: b4e9893cdf5b21c3",
        "n2048 random fixed_point k=2048: f021bd97750a9833",
        "n2048 kmeans++ once k=1: 43f21260c3793133",
        "n2048 kmeans++ once k=8: 375960e8466faf33",
        "n2048 kmeans++ once k=45: 79ad211c3d935fbc",
        "n2048 kmeans++ once k=459: 45984d3fc51a5f12",
        "n2048 kmeans++ once k=2048: e6d86bb935e64181",
        "n2048 kmeans++ stabilize_pct k=1: e3d82767ff3a5517",
        "n2048 kmeans++ stabilize_pct k=8: 2d2184d0037b0ea4",
        "n2048 kmeans++ stabilize_pct k=45: ee02b64ce8f86254",
        "n2048 kmeans++ stabilize_pct k=459: c0880016a88f24ab",
        "n2048 kmeans++ stabilize_pct k=2048: ce7f3cf9b2ecdf9e",
        "n2048 kmeans++ fixed_point k=1: e3d82767ff3a5517",
        "n2048 kmeans++ fixed_point k=8: 9d8ee699dde1bb41",
        "n2048 kmeans++ fixed_point k=45: 41a1be274472c48b",
        "n2048 kmeans++ fixed_point k=459: f2af19ca31998fec",
        "n2048 kmeans++ fixed_point k=2048: ce7f3cf9b2ecdf9e",
    ];

    #[test]
    fn whole_trials_match_their_pins() {
        let t = Clustering;
        let schema = t.schema();
        let mut got = Vec::new();
        for n in [64u64, 512, 2048] {
            let input = t.generate_input(n, &mut SmallRng::seed_from_u64(n));
            let root = (n as f64).sqrt().round() as u64;
            let mut ks: Vec<u64> = [1, 8, root, 459, n]
                .into_iter()
                .filter(|&k| k <= n)
                .collect();
            ks.dedup();
            for (init, init_name) in INIT_NAMES.iter().enumerate() {
                for (policy, policy_name) in ITERATION_NAMES.iter().enumerate() {
                    for &k in &ks {
                        let mut config = schema.default_config();
                        let tree = |c| Value::Tree(pb_config::DecisionTree::single(c));
                        config.set_by_name(&schema, "init", tree(init)).unwrap();
                        config
                            .set_by_name(&schema, "iteration", tree(policy))
                            .unwrap();
                        config
                            .set_by_name(&schema, "k", Value::Int(k as i64))
                            .unwrap();
                        config
                            .set_by_name(&schema, "max_iters", Value::Int(12))
                            .unwrap();
                        let (hash, _) = trial_hash_words(&t, &config, &input, n, |out| {
                            let c = &out.centroids;
                            let floats = c.x.iter().chain(&c.y).map(|v| v.to_bits());
                            floats
                                .chain(out.assignments.iter().map(|&a| a as u64))
                                .collect()
                        });
                        got.push(format!("n{n} {init_name} {policy_name} k={k}: {hash:016x}"));
                    }
                }
            }
        }
        assert_eq!(got, PINS);
    }

    /// The linear scan's assignment of every point.
    fn linear_scan(points: &Points, centroids: &Points) -> Vec<usize> {
        (0..points.len())
            .map(|i| nearest_centroid(points, centroids, i))
            .collect()
    }

    /// `assign`'s assignment of every point.
    fn assigned(points: &Points, centroids: &Points) -> Vec<usize> {
        let schema = Clustering.schema();
        let config = schema.default_config();
        let mut ctx = ExecCtx::new(&schema, &config, points.len() as u64, 0);
        let mut assignments = vec![usize::MAX; points.len()];
        assign(points, centroids, &mut assignments, 16, &mut ctx);
        assignments
    }

    fn points_of(xy: impl IntoIterator<Item = (f64, f64)>) -> Points {
        let (x, y) = xy.into_iter().unzip();
        Points { x, y }
    }

    /// Labelled `(points, centroids)` cases for the pruned scan: random
    /// and clustered points, half-integer lattices that put many points
    /// exactly between centroids, duplicated centroids, signed zeros,
    /// and centroids that all share one x. The points include every
    /// centroid itself.
    fn scan_cases() -> Vec<(String, Points, Points)> {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut cases = Vec::new();
        let mut add = |label: String, points: Points, centroids: Points| {
            let all = points_of(
                points
                    .x
                    .iter()
                    .zip(&points.y)
                    .chain(centroids.x.iter().zip(&centroids.y))
                    .map(|(&x, &y)| (x, y)),
            );
            cases.push((label, all, centroids));
        };
        for k in [PRUNE_MIN_CENTROIDS, PRUNE_MIN_CENTROIDS + 1, 45, 100] {
            let mut uniform = || rng.gen_range(-250.0..250.0);
            let points = points_of((0..400).map(|_| (uniform(), uniform())));
            let centroids = points_of((0..k).map(|_| (uniform(), uniform())));
            add(format!("random k={k}"), points, centroids);
            let clustered = generate_points(512, &mut rng);
            let centroids = init_kmeanspp(&clustered, k, &mut rng);
            add(format!("clustered k={k}"), clustered, centroids);
        }
        let half = |i: i32| f64::from(i) / 2.0;
        let lattice = points_of((-8..=8).flat_map(|i| (-8..=8).map(move |j| (half(i), half(j)))));
        let integer =
            points_of((-2..=2).flat_map(|i| (-2..=2).map(move |j| (f64::from(i), f64::from(j)))));
        add(
            "half-integer lattice".into(),
            lattice.clone(),
            integer.clone(),
        );
        let spread = points_of(
            integer
                .x
                .iter()
                .zip(&integer.y)
                .map(|(&x, &y)| (2.0 * x, 2.0 * y)),
        );
        add(
            "half-integer lattice, spread centroids".into(),
            lattice.clone(),
            spread,
        );
        let mut twice: Vec<(f64, f64)> = integer
            .x
            .iter()
            .copied()
            .zip(integer.y.iter().copied())
            .collect();
        twice.extend(twice.clone().into_iter().rev());
        add(
            "duplicated centroids".into(),
            lattice.clone(),
            points_of(twice),
        );
        let zeros = points_of((0..32).map(|j| ([0.0, -0.0][j % 2], half(j as i32 / 2 - 8))));
        let signed = points_of((-6..=6).flat_map(|j| {
            [
                (-0.0, half(j)),
                (0.0, half(j)),
                (0.5, half(j)),
                (-0.5, half(j)),
            ]
        }));
        add("signed zeros".into(), signed, zeros);
        let column = points_of((0..24).map(|j| (1.0, half(j - 12))));
        add("all-equal x".into(), lattice, column);
        cases
    }

    /// The pruned scan returns the linear scan's centroid, lowest index
    /// among equals, for every point of every case.
    #[test]
    fn pruned_scan_matches_linear_scan() {
        for (label, points, centroids) in scan_cases() {
            let by_x = ByX::new(&centroids).unwrap_or_else(|| panic!("{label}: not pruned"));
            for i in 0..points.len() {
                assert_eq!(
                    by_x.nearest(points.x[i], points.y[i]),
                    nearest_centroid(&points, &centroids, i),
                    "{label}: point ({}, {})",
                    points.x[i],
                    points.y[i]
                );
            }
            assert_eq!(
                assigned(&points, &centroids),
                linear_scan(&points, &centroids),
                "{label}"
            );
        }
    }

    /// A non-finite coordinate, in a point or a centroid, takes the
    /// linear scan, and so does a centroid count too small to prune.
    #[test]
    fn assign_scans_linearly_where_pruning_does_not_hold() {
        let (_, points, centroids) = scan_cases().swap_remove(0);
        let mut odd = points.clone();
        for (i, v) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            odd.x[3 * i] = v;
            odd.y[3 * i + 1] = v;
        }
        assert_eq!(assigned(&odd, &centroids), linear_scan(&odd, &centroids));
        for v in [f64::NAN, f64::INFINITY] {
            let mut bad = centroids.clone();
            bad.y[5] = v;
            assert!(ByX::new(&bad).is_none());
            assert_eq!(assigned(&points, &bad), linear_scan(&points, &bad));
        }
        let few = points_of((0..PRUNE_MIN_CENTROIDS - 1).map(|c| (centroids.x[c], centroids.y[c])));
        assert!(ByX::new(&few).is_none());
        assert_eq!(assigned(&points, &few), linear_scan(&points, &few));
    }

    /// One shared `Dataset` per size, asked for k-means++ seedings under
    /// two seeds at ranks that grow, shrink and revisit them: ascending,
    /// descending, the two seeds interleaved, and from four threads at
    /// once. Every seeding must be the one a fresh input draws, bit for
    /// bit.
    #[test]
    fn kept_seedings_match_fresh_inputs_bit_for_bit() {
        for n in [64u64, 512] {
            let points = generate_points(n, &mut SmallRng::seed_from_u64(n));
            let n = n as usize;
            let ranks = [1, 8, n / 2, n, 3, n - 1, 23];
            let seeds = [7u64, 0xC0FFEE];
            let fresh: Vec<Vec<Points>> = seeds
                .iter()
                .map(|&s| {
                    ranks
                        .iter()
                        .map(|&k| init_kmeanspp(&points, k, &mut SmallRng::seed_from_u64(s)))
                        .collect()
                })
                .collect();
            let mut by_rank: Vec<usize> = (0..ranks.len()).collect();
            by_rank.sort_by_key(|&r| ranks[r]);
            let ascending: Vec<(usize, usize)> = by_rank.iter().map(|&r| (0, r)).collect();
            let descending: Vec<(usize, usize)> = by_rank.iter().rev().map(|&r| (0, r)).collect();
            let interleaved: Vec<(usize, usize)> = (0..ranks.len())
                .flat_map(|r| [(0, r), (1, ranks.len() - 1 - r)])
                .collect();
            let check = |kept: &Dataset, order: &[(usize, usize)], label: &str| {
                for &(s, r) in order {
                    let got = kept.kmeanspp(ranks[r], seeds[s]);
                    let what = format!("n={n} {label} s={} k={}", seeds[s], ranks[r]);
                    assert_bits_eq(&got.x, &fresh[s][r].x, &what);
                    assert_bits_eq(&got.y, &fresh[s][r].y, &what);
                }
            };
            for (label, order) in [
                ("ascending", &ascending),
                ("descending", &descending),
                ("interleaved", &interleaved),
            ] {
                check(&Dataset::new(points.clone()), order, label);
            }
            let shared = Dataset::new(points.clone());
            std::thread::scope(|scope| {
                for (i, order) in [&ascending, &descending, &interleaved, &interleaved]
                    .into_iter()
                    .enumerate()
                {
                    let (check, shared) = (&check, &shared);
                    scope.spawn(move || {
                        let mut order = order.clone();
                        order.rotate_left(i * 3);
                        check(shared, &order, &format!("thread {i}"));
                    });
                }
            });
        }
    }

    #[test]
    fn generator_matches_paper_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let p = generate_points(2048, &mut rng);
        assert_eq!(p.len(), 2048);
        // sqrt(2048) ~ 45 clusters; points concentrate near centres, so
        // coordinates stay within the centre box plus noise.
        assert!(p.x.iter().all(|&v| v.abs() < 260.0));
    }

    fn run_with(k: i64, init: usize, policy: usize, n: u64) -> (ClusterAssignment, f64) {
        let t = Clustering;
        let schema = t.schema();
        let mut config = schema.default_config();
        config.set_by_name(&schema, "k", Value::Int(k)).unwrap();
        config
            .set_by_name(
                &schema,
                "init",
                Value::Tree(pb_config::DecisionTree::single(init)),
            )
            .unwrap();
        config
            .set_by_name(
                &schema,
                "iteration",
                Value::Tree(pb_config::DecisionTree::single(policy)),
            )
            .unwrap();
        config
            .set_by_name(&schema, "max_iters", Value::Int(100))
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let input = t.generate_input(n, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, n, 7);
        let out = t.execute(&input, &mut ctx);
        let acc = t.accuracy(&input, &out);
        (out, acc)
    }

    #[test]
    fn assignments_reference_valid_centroids() {
        let (out, _) = run_with(16, 1, 2, 256);
        assert_eq!(out.centroids.len(), 16);
        assert!(out.assignments.iter().all(|&c| c < 16));
    }

    #[test]
    fn more_clusters_and_iterations_give_higher_accuracy() {
        let (_, rough) = run_with(2, 0, 0, 256);
        let (_, good) = run_with(16, 1, 2, 256);
        assert!(
            good > rough,
            "k=16 fixed-point ({good}) should beat k=2 once ({rough})"
        );
    }

    #[test]
    fn fixed_point_policy_reaches_stability() {
        let t = Clustering;
        let schema = t.schema();
        let mut config = schema.default_config();
        config.set_by_name(&schema, "k", Value::Int(8)).unwrap();
        config
            .set_by_name(
                &schema,
                "iteration",
                Value::Tree(pb_config::DecisionTree::single(2)),
            )
            .unwrap();
        config
            .set_by_name(&schema, "max_iters", Value::Int(200))
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let input = t.generate_input(128, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, 128, 3);
        let out = t.execute(&input, &mut ctx);
        // Re-running one assignment step changes nothing at a fixed
        // point.
        let mut assignments = out.assignments.clone();
        let mut ctx2 = ExecCtx::new(&schema, &config, 128, 3);
        let changed = assign(
            input.points(),
            &out.centroids,
            &mut assignments,
            16,
            &mut ctx2,
        );
        assert_eq!(changed, 0);
    }

    #[test]
    fn par_cutoff_changes_schedule_not_results() {
        let t = Clustering;
        let schema = t.schema();
        let mut rng = SmallRng::seed_from_u64(5);
        let input = t.generate_input(512, &mut rng);
        let mut outputs = Vec::new();
        // Always-parallel vs never-parallel must agree bit-for-bit on
        // the clustering itself: the cutoff tunes the scheduler, not
        // the algorithm.
        for cutoff in [16i64, 1 << 16] {
            let mut config = schema.default_config();
            config.set_by_name(&schema, "k", Value::Int(8)).unwrap();
            config
                .set_by_name(&schema, "par_cutoff", Value::Int(cutoff))
                .unwrap();
            let mut ctx = ExecCtx::new(&schema, &config, 512, 11);
            let out = t.execute(&input, &mut ctx);
            outputs.push((out, ctx.virtual_cost()));
        }
        assert_eq!(outputs[0].0, outputs[1].0);
        // The virtual cost *sees* the schedule: the always-parallel
        // run (cutoff 16, 512 points, k = 8: work well past the
        // dispatch overhead) is modelled cheaper on the modeled
        // machine, whatever the pool's width.
        assert!(
            outputs[0].1 < outputs[1].1,
            "parallel schedule should cost less: {} vs {}",
            outputs[0].1,
            outputs[1].1
        );
    }

    #[test]
    fn k_is_clamped_to_point_count() {
        let (out, _) = run_with(4096, 0, 0, 16);
        assert_eq!(out.centroids.len(), 16);
    }

    #[test]
    fn accuracy_metric_matches_formula() {
        let points = Points {
            x: vec![0.0, 1.0],
            y: vec![0.0, 0.0],
        };
        let result = ClusterAssignment {
            centroids: Points {
                x: vec![0.0],
                y: vec![0.0],
            },
            assignments: vec![0, 0],
        };
        // SSD = 1, n = 2: accuracy = sqrt(4/1) = 2.
        assert!((kmeans_accuracy(&points, &result) - 2.0).abs() < 1e-12);
    }
}
