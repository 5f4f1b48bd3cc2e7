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
//! point of the work-stealing scheduler exactly as in paper §5.2.

use pb_config::Schema;
use pb_runtime::parallel::parallel_gen;
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use rand::Rng;

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

/// k-means++ initialization: subsequent centres drawn proportional to
/// squared distance from the nearest chosen centre.
fn init_kmeanspp(points: &Points, k: usize, rng: &mut SmallRng, ctx: &mut ExecCtx<'_>) -> Points {
    let n = points.len();
    let first = rng.gen_range(0..n);
    let mut cx = vec![points.x[first]];
    let mut cy = vec![points.y[first]];
    let mut d2: Vec<f64> = (0..n).map(|i| dist2(points, i, cx[0], cy[0])).collect();
    ctx.charge(n as f64);
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
        ctx.charge(n as f64);
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
/// same whatever the pool's width, so a tuned program is too.
fn assign(
    points: &Points,
    centroids: &Points,
    assignments: &mut [usize],
    par_cutoff: usize,
    ctx: &mut ExecCtx<'_>,
) -> usize {
    let nearest = parallel_gen(points.len(), par_cutoff, |i| {
        nearest_centroid(points, centroids, i)
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
    type Input = Points;
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

    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> Points {
        generate_points(n, rng)
    }

    fn execute(&self, input: &Points, ctx: &mut ExecCtx<'_>) -> ClusterAssignment {
        let n = input.len();
        let k = (ctx.param("k").expect("schema declares k") as usize).clamp(1, n);
        let init = ctx.choice("init").expect("schema declares init");
        let policy = ctx.choice("iteration").expect("schema declares iteration");
        let pct = ctx.param("stabilize_pct").expect("schema") as f64 / 100.0;
        let max_iters = ctx.for_enough("max_iters").expect("schema");
        let par_cutoff = ctx.param("par_cutoff").expect("schema").max(1) as usize;

        let mut seed_rng = {
            use rand::SeedableRng;
            let s: u64 = ctx.rng().gen();
            SmallRng::seed_from_u64(s)
        };
        let mut centroids = match init {
            0 => init_random(input, k, &mut seed_rng),
            _ => init_kmeanspp(input, k, &mut seed_rng, ctx),
        };
        ctx.event(INIT_NAMES[init.min(1)]);
        ctx.event(ITERATION_NAMES[policy.min(2)]);

        let mut assignments = vec![usize::MAX; n];
        // The first assignment counts every point as changed.
        let mut changed = assign(input, &centroids, &mut assignments, par_cutoff, ctx);
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
            update_centroids(input, &mut centroids, &assignments, ctx);
            changed = assign(input, &centroids, &mut assignments, par_cutoff, ctx);
            iters += 1;
        }
        ClusterAssignment {
            centroids,
            assignments,
        }
    }

    fn accuracy(&self, input: &Points, output: &ClusterAssignment) -> f64 {
        kmeans_accuracy(input, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::Value;
    use rand::SeedableRng;

    #[test]
    fn generator_matches_paper_shape() {
        let mut rng = SmallRng::seed_from_u64(1);
        let p = generate_points(2048, &mut rng);
        assert_eq!(p.len(), 2048);
        // sqrt(2048) ~ 45 clusters; points concentrate near centres, so
        // coordinates stay within the centre box plus noise.
        assert!(p.x.iter().all(|&v| v.abs() < 260.0));
    }

    fn run_with(k: i64, init: usize, policy: usize, n: u64) -> (Points, ClusterAssignment, f64) {
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
        (input, out, acc)
    }

    #[test]
    fn assignments_reference_valid_centroids() {
        let (_, out, _) = run_with(16, 1, 2, 256);
        assert_eq!(out.centroids.len(), 16);
        assert!(out.assignments.iter().all(|&c| c < 16));
    }

    #[test]
    fn more_clusters_and_iterations_give_higher_accuracy() {
        let (_, _, rough) = run_with(2, 0, 0, 256);
        let (_, _, good) = run_with(16, 1, 2, 256);
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
        let changed = assign(&input, &out.centroids, &mut assignments, 16, &mut ctx2);
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
        let (_, out, _) = run_with(4096, 0, 0, 16);
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
