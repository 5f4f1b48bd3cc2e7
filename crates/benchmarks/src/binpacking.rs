//! Bin Packing benchmark (§6.1.1).
//!
//! Thirteen polynomial-time approximation algorithms for the NP-hard
//! BINPACKING problem, from `NextFit` (2×OPT worst case, `O(n)`) to
//! `ModifiedFirstFitDecreasing` (71/60×OPT). The training generator
//! "divides up full bins into a number of items", so OPT is known at
//! training time "without the need for an exponential search".
//!
//! The paper reports accuracy as `bins / OPT` (lower = better, range
//! 1.0–1.5 in Fig. 7). The tuner's convention is larger-is-better, so
//! the accuracy metric is `2 − bins/OPT` (see [`ratio_to_accuracy`]).
//!
//! The per-item placement scans — the kernels' hot loops — expose the
//! §5.2 work-stealing switch-over to the autotuner through the
//! `par_cutoff` tunable, exactly like clustering's nearest-centroid
//! scan. Below the cutoff a scan probes sequentially and is charged
//! one `PROBE_COST` per probe (early exit included). From the cutoff up
//! it is *engaged*: charged once as a split scan on the modeled machine
//! (`ExecCtx::charge_split`: probes divided across its threads plus a
//! dispatch), whatever the placement and the pool's width. The
//! packing decisions are the same in both regimes; only the
//! virtual-cost schedule differs.
//!
//! The charges model the §5.2 schedule; execution picks the cheapest
//! way to the same placement:
//!
//! * An engaged scan touches neither the pool, its counters nor the
//!   heap: at the ≤ 1500 open bins of a 2048-item instance the whole
//!   scan costs a fraction of one measured pool dispatch (≈ 1.7–2.0 µs,
//!   the ledger's `pool.dispatch_us_w4`), so splitting it could only
//!   lose. Fanning a scan out again needs a workload with enough open
//!   bins to measure it on first.
//! * A [`Packing`] keeps an upper bound on the residuals of each block
//!   of 64 bins, so first fit and last fit (FF, FFD, LF, LFD and MFFD's
//!   final pass) read the block bounds, then one block. The charges
//!   still count what a linear scan probes: the bins up to the hit, or
//!   every open bin on a miss.
//! * A sequential scan is charged once, not once per probe, whenever
//!   that one add gives the per-probe loop's bits (see
//!   `charge_probes`), so no scan adds per probe. BestFit, WorstFit
//!   and AlmostWorstFit still read every bin (their tie rules need
//!   them): AlmostWorstFit in one pass, BestFit and WorstFit as the
//!   winning residual over independent chains, then its first bin.
//! * MFFD's pairing walk binary-searches the descending medium items
//!   for the first that fits and follows links past the used ones, but
//!   is charged for the linear walk over every medium item.

use pb_config::Schema;
use pb_runtime::{ExecCtx, Transform};
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::OnceLock;

/// The 13 packing heuristics, in the paper's order.
pub const ALGORITHM_NAMES: [&str; 13] = [
    "FirstFit",
    "FirstFitDecreasing",
    "ModifiedFirstFitDecreasing",
    "BestFit",
    "BestFitDecreasing",
    "LastFit",
    "LastFitDecreasing",
    "NextFit",
    "NextFitDecreasing",
    "WorstFit",
    "WorstFitDecreasing",
    "AlmostWorstFit",
    "AlmostWorstFitDecreasing",
];

/// A training instance: item sizes plus the number of bins the
/// generator unpacked them from (an upper bound on — and in practice
/// equal to — OPT). It also keeps the items' descending order, sorted
/// on first use: every decreasing variant and MFFD on this input reads
/// the one sort, and each is still charged for sorting. An input whose
/// packings never sort pays nothing for it.
#[derive(Debug, Clone)]
pub struct BinPackingInput {
    items: Vec<f64>,
    opt_bins: usize,
    descending: OnceLock<Vec<f64>>,
}

impl BinPackingInput {
    /// Item sizes in `(0, 1]`, in generator order.
    pub fn items(&self) -> &[f64] {
        &self.items
    }

    /// The number of full bins the generator split.
    pub fn opt_bins(&self) -> usize {
        self.opt_bins
    }

    /// The items sorted descending, stably.
    fn descending(&self) -> &[f64] {
        self.descending.get_or_init(|| {
            let mut sorted = self.items.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            sorted
        })
    }
}

/// Generates `n` items by splitting full bins with stick-breaking into
/// 2–5 pieces each, so the optimal packing uses exactly the generated
/// bins.
pub fn generate_input(n: u64, rng: &mut SmallRng) -> BinPackingInput {
    let n = n.max(1) as usize;
    let mut items = Vec::with_capacity(n);
    let mut opt_bins = 0;
    while items.len() < n {
        opt_bins += 1;
        let pieces = rng.gen_range(2..=5usize).min(n - items.len()).max(1);
        // Stick-breaking: cut [0, 1] at `pieces − 1` sorted points.
        let mut cuts: Vec<f64> = (0..pieces - 1).map(|_| rng.gen::<f64>()).collect();
        cuts.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut last = 0.0;
        for &c in &cuts {
            items.push((c - last).max(f64::MIN_POSITIVE));
            last = c;
        }
        items.push((1.0 - last).max(f64::MIN_POSITIVE));
    }
    items.truncate(n);
    // Shuffle so arrival order carries no information about the source
    // bins (the generator controls the size *distribution* only).
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
    BinPackingInput {
        items,
        opt_bins,
        descending: OnceLock::new(),
    }
}

/// Bins per block of [`Packing`]'s block bounds.
const BLOCK: usize = 64;

/// A packing: the residual capacity of each open bin.
#[derive(Debug, Clone, Default)]
pub struct Packing {
    residuals: Vec<f64>,
    /// One bound per block of `BLOCK` consecutive bins, at least every
    /// residual in the block. A placement lowers a residual and leaves
    /// the bound as it is; a scan that finds no fit below a bound that
    /// fits lowers it to the block's largest residual.
    block_bounds: Vec<f64>,
}

impl Packing {
    /// An empty packing with room for one bin per item.
    fn with_capacity(items: usize) -> Packing {
        Packing {
            residuals: Vec::with_capacity(items),
            block_bounds: Vec::with_capacity(items.div_ceil(BLOCK)),
        }
    }

    /// Number of bins used.
    pub fn bins(&self) -> usize {
        self.residuals.len()
    }

    /// Residual capacities.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }

    /// Whether no bin is over capacity (beyond rounding).
    pub fn is_valid(&self) -> bool {
        self.residuals.iter().all(|&r| r >= -1e-12)
    }

    fn place(&mut self, bin: usize, item: f64) {
        self.residuals[bin] -= item;
    }

    fn open(&mut self, item: f64) {
        let r = 1.0 - item;
        if self.residuals.len().is_multiple_of(BLOCK) {
            self.block_bounds.push(r);
        } else {
            let bound = self.block_bounds.last_mut().expect("an open block");
            *bound = bound.max(r);
        }
        self.residuals.push(r);
    }

    /// The first (or last) bin `item` fits: the one a linear scan from
    /// that end stops at. Only blocks whose bound fits are read, and a
    /// block read in vain gets its largest residual as its bound.
    fn scan(&mut self, item: f64, from: ScanFrom) -> Option<usize> {
        let blocks = self.block_bounds.len();
        for step in 0..blocks {
            let k = match from {
                ScanFrom::Front => step,
                ScanFrom::Back => blocks - 1 - step,
            };
            if !fits(self.block_bounds[k], item) {
                continue;
            }
            let lo = k * BLOCK;
            let block = &self.residuals[lo..(lo + BLOCK).min(self.residuals.len())];
            let hit = match from {
                ScanFrom::Front => block.iter().position(|&r| fits(r, item)),
                ScanFrom::Back => block.iter().rposition(|&r| fits(r, item)),
            };
            match hit {
                Some(j) => return Some(lo + j),
                None => {
                    self.block_bounds[k] = block.iter().fold(f64::NEG_INFINITY, |m, &r| m.max(r))
                }
            }
        }
        None
    }
}

/// Cost charged per bin probed, so virtual cost tracks the real
/// `O(n·bins)` vs `O(n)` asymptotics that drive Fig. 6(a).
const PROBE_COST: f64 = 1.0;

/// Whether `item` fits a bin with `residual` capacity left.
fn fits(residual: f64, item: f64) -> bool {
    residual >= item - 1e-15
}

/// Charges `probes` sequential probes, to the bit what charging
/// `PROBE_COST` (one unit) once per probe gives. One add does that
/// when the running cost is non-negative and the add is exact (TwoSum's
/// error term is zero) with a sum below 2⁵³: the sum's ulp is then at
/// most one unit, the running cost is a multiple of it, and so is every
/// partial sum of the per-probe loop, which is therefore exact too.
/// Otherwise (say after an `n·log₂n` sort charge) the probes are added
/// one by one.
fn charge_probes(ctx: &mut ExecCtx<'_>, probes: usize) {
    let before = ctx.virtual_cost();
    let total = probes as f64 * PROBE_COST;
    let after = before + total;
    let seen = after - before;
    let error = (before - (after - seen)) + (total - seen);
    if before >= 0.0 && after < 9_007_199_254_740_992.0 && error == 0.0 {
        ctx.charge(total);
    } else {
        for _ in 0..probes {
            ctx.charge(PROBE_COST);
        }
    }
}

/// Charges one placement scan over `bins` open bins, which probes
/// `probes` of them when it runs sequentially.
fn charge_scan(ctx: &mut ExecCtx<'_>, bins: usize, probes: usize, par_cutoff: usize) {
    if !ctx.charge_split(bins, par_cutoff, bins as f64 * PROBE_COST) {
        charge_probes(ctx, probes);
    }
}

/// Scan direction of a one-slot placement (first fitting bin vs last).
#[derive(Clone, Copy, PartialEq)]
enum ScanFrom {
    Front,
    Back,
}

/// Places `item` in the first (or last) bin it fits, opening a new bin
/// otherwise — the shared per-item scan of FirstFit, LastFit, and
/// MFFD's final FFD pass. A sequential scan is charged for a linear
/// scan's probes, early exit included; at or above `par_cutoff` open
/// bins it is charged as one split scan. The placement is the same
/// either way.
fn place_one(p: &mut Packing, item: f64, from: ScanFrom, par_cutoff: usize, ctx: &mut ExecCtx<'_>) {
    let bins = p.bins();
    let hit = p.scan(item, from);
    let probes = match (hit, from) {
        (Some(b), ScanFrom::Front) => b + 1,
        (Some(b), ScanFrom::Back) => bins - b,
        (None, _) => bins,
    };
    charge_scan(ctx, bins, probes, par_cutoff);
    match hit {
        Some(b) => p.place(b, item),
        None => p.open(item),
    }
}

/// FirstFit (`Front`) and LastFit (`Back`).
fn pack_one_slot(
    items: &[f64],
    from: ScanFrom,
    par_cutoff: usize,
    ctx: &mut ExecCtx<'_>,
) -> Packing {
    let mut p = Packing::with_capacity(items.len());
    for &item in items {
        place_one(&mut p, item, from, par_cutoff, ctx);
    }
    p
}

/// BestFit and WorstFit: each item goes to the fitting bin whose
/// residual strictly `beats` all others (`start` loses to every
/// residual), the lowest such index among ties in both regimes.
fn pack_by_residual(
    items: &[f64],
    beats: impl Fn(f64, f64) -> bool,
    start: f64,
    par_cutoff: usize,
    ctx: &mut ExecCtx<'_>,
) -> Packing {
    let mut p = Packing::with_capacity(items.len());
    for &item in items {
        let bins = p.bins();
        let slot = winning_bin(&p.residuals, item, &beats, start);
        charge_scan(ctx, bins, bins, par_cutoff);
        match slot {
            Some(b) => p.place(b, item),
            None => p.open(item),
        }
    }
    p
}

/// Independent chains of [`winning_bin`]'s first pass.
const LANES: usize = 8;

/// The fitting bin whose residual strictly `beats` all others, the
/// lowest index among ties: the same bin as one pass that carries the
/// incumbent and its index. First the winning residual, over `LANES`
/// independent chains with no index to carry (picking one value of a
/// set is exact in any order), then the first bin that holds it,
/// `LANES` bins at a time.
fn winning_bin(
    residuals: &[f64],
    item: f64,
    beats: impl Fn(f64, f64) -> bool,
    start: f64,
) -> Option<usize> {
    let mut lanes = [start; LANES];
    let mut chunks = residuals.chunks_exact(LANES);
    let probe = |lane: &mut f64, r: f64| {
        let candidate = if fits(r, item) { r } else { start };
        *lane = if beats(candidate, *lane) {
            candidate
        } else {
            *lane
        };
    };
    for chunk in &mut chunks {
        for (lane, &r) in lanes.iter_mut().zip(chunk) {
            probe(lane, r);
        }
    }
    for &r in chunks.remainder() {
        probe(&mut lanes[0], r);
    }
    let best = lanes.into_iter().fold(
        start,
        |best, lane| if beats(lane, best) { lane } else { best },
    );
    if best == start {
        return None;
    }
    residuals.chunks(LANES).enumerate().find_map(|(c, chunk)| {
        let holds = chunk.iter().fold(false, |holds, &r| holds | (r == best));
        holds.then(|| c * LANES + chunk.iter().position(|&r| r == best).expect("held"))
    })
}

fn pack_best_fit(items: &[f64], par_cutoff: usize, ctx: &mut ExecCtx<'_>) -> Packing {
    pack_by_residual(items, |r, best| r < best, f64::INFINITY, par_cutoff, ctx)
}

fn pack_worst_fit(items: &[f64], par_cutoff: usize, ctx: &mut ExecCtx<'_>) -> Packing {
    pack_by_residual(
        items,
        |r, worst| r > worst,
        f64::NEG_INFINITY,
        par_cutoff,
        ctx,
    )
}

/// Inserts bin `b` into `top`, the first `k` entries of the bins seen
/// so far in stable descending-residual order (equal residuals in
/// ascending index order, which is the order they must arrive in).
fn insert_top(top: &mut Vec<(usize, f64)>, k: usize, b: usize, r: f64) {
    if top.len() == k {
        if top[k - 1].1 >= r {
            return;
        }
        top.pop();
    }
    let at = top.iter().position(|&(_, tr)| tr < r).unwrap_or(top.len());
    top.insert(at, (b, r));
}

/// `AlmostWorstFit`: place in the k-th least-full bin with capacity
/// (`k = 2` by the textbook definition; generalized per the paper,
/// "our implementation generalizes it and supports a variable
/// compiler-set k"), or the fullest fitting bin when fewer than `k`
/// fit.
fn pack_almost_worst_fit(
    items: &[f64],
    k: usize,
    par_cutoff: usize,
    ctx: &mut ExecCtx<'_>,
) -> Packing {
    let k = k.max(1);
    let mut p = Packing::with_capacity(items.len());
    // The k emptiest fitting bins, emptiest first; its last entry is
    // the k-th of a full stable sort of all fitting bins (or that
    // sort's last entry when fewer than k fit). One buffer per pack,
    // never more than one entry per open bin.
    let mut top: Vec<(usize, f64)> = Vec::with_capacity(k.min(items.len()));
    for &item in items {
        top.clear();
        let bins = p.bins();
        for (b, &r) in p.residuals.iter().enumerate() {
            if fits(r, item) {
                insert_top(&mut top, k, b, r);
            }
        }
        charge_scan(ctx, bins, bins, par_cutoff);
        match top.last() {
            Some(&(b, _)) => p.place(b, item),
            None => p.open(item),
        }
    }
    p
}

fn pack_next_fit(items: &[f64], ctx: &mut ExecCtx<'_>) -> Packing {
    let mut p = Packing::with_capacity(items.len());
    for &item in items {
        ctx.charge(PROBE_COST);
        let last = p.bins();
        if last > 0 && p.residuals[last - 1] >= item - 1e-15 {
            p.place(last - 1, item);
        } else {
            p.open(item);
        }
    }
    p
}

/// `ModifiedFirstFitDecreasing` (Johnson & Garey): classify items into
/// large (> 1/2), medium (> 1/3], small (> 1/6], and tiny; give every
/// large item its own bin; walk those bins from most-full to
/// least-full trying to add one medium item (or the two smallest small
/// items that fit); finish with FFD on whatever remains.
fn pack_mffd(input: &BinPackingInput, par_cutoff: usize, ctx: &mut ExecCtx<'_>) -> Packing {
    let (mut p, leftovers) = mffd_pairing(input, ctx);
    // This final placement loop is the same first-fit scan as the
    // standalone kernel, so it shares the tunable switch-over (the
    // large/medium pairing walk stays sequential: its probes
    // interleave mutation and cannot split).
    for &item in &leftovers {
        place_one(&mut p, item, ScanFrom::Front, par_cutoff, ctx);
    }
    p
}

/// MFFD up to its final FFD pass: the bins of the large items after
/// the medium/small pairing walk, and the leftovers (descending) still
/// to be first-fit.
fn mffd_pairing(input: &BinPackingInput, ctx: &mut ExecCtx<'_>) -> (Packing, Vec<f64>) {
    let sorted = decreasing(input, ctx);
    // Descending, so each class is a run: large (> 1/2), medium
    // (> 1/3), then the rest, whose two smallest sit at `rest_end`.
    let large = sorted.partition_point(|&x| x > 0.5);
    let rest_start = sorted.partition_point(|&x| x > 1.0 / 3.0);
    let mut rest_end = sorted.len();
    let medium = &sorted[large..rest_start];

    let mut p = Packing::with_capacity(sorted.len());
    for &x in &sorted[..large] {
        p.open(x);
    }
    // `next[i]` links toward the first unused medium item at or after
    // `i` (`medium.len()` when there is none).
    let mut next: Vec<usize> = (0..=medium.len()).collect();
    // Bins of large items, most-full first (they are already in
    // descending item order, so ascending residual order = original).
    for b in 0..large {
        let residual = p.residuals[b];
        // Try the largest unused medium item that fits: the medium
        // items that fit are a suffix, so it is the suffix's first
        // unused one. Charged as the linear walk that finds it: the
        // bin, then every medium item up to it (or all of them).
        let mi = first_unused(&mut next, medium.partition_point(|&m| !fits(residual, m)));
        charge_probes(ctx, 1 + (mi + 1).min(medium.len()));
        if mi < medium.len() {
            next[mi] = mi + 1;
            p.place(b, medium[mi]);
        } else if rest_end - rest_start >= 2 {
            // Try the two smallest remaining small items.
            let a = sorted[rest_end - 1];
            let c = sorted[rest_end - 2];
            if fits(residual, a + c) {
                rest_end -= 2;
                p.place(b, a + c);
            }
        }
    }
    // Leftovers, still descending: the unused medium items, then the
    // rest.
    let mut leftovers = Vec::with_capacity(medium.len() + rest_end - rest_start);
    let mut mi = first_unused(&mut next, 0);
    while mi < medium.len() {
        leftovers.push(medium[mi]);
        mi = first_unused(&mut next, mi + 1);
    }
    leftovers.extend_from_slice(&sorted[rest_start..rest_end]);
    (p, leftovers)
}

/// The first unused medium item at or after `i`, halving the path of
/// links followed on the way.
fn first_unused(next: &mut [usize], mut i: usize) -> usize {
    while next[i] != i {
        next[i] = next[next[i]];
        i = next[i];
    }
    i
}

fn charge_sort(ctx: &mut ExecCtx<'_>, n: usize) {
    let n = n.max(2) as f64;
    ctx.charge(n * n.log2());
}

/// `input`'s items, descending, charged as a sort.
fn decreasing<'i>(input: &'i BinPackingInput, ctx: &mut ExecCtx<'_>) -> &'i [f64] {
    charge_sort(ctx, input.items().len());
    input.descending()
}

/// Runs one named algorithm (index into [`ALGORITHM_NAMES`]) on
/// `input`.
///
/// `par_cutoff` is the §5.2 switch-over: placement scans over at least
/// that many open bins are charged as split scans (pass `usize::MAX`
/// for per-probe charging throughout). Packing decisions are identical
/// in both regimes.
///
/// # Panics
///
/// Panics if `algorithm >= 13`.
pub fn pack_with(
    algorithm: usize,
    input: &BinPackingInput,
    awf_k: usize,
    par_cutoff: usize,
    ctx: &mut ExecCtx<'_>,
) -> Packing {
    let items = input.items();
    match algorithm {
        0 => pack_one_slot(items, ScanFrom::Front, par_cutoff, ctx),
        1 => pack_one_slot(decreasing(input, ctx), ScanFrom::Front, par_cutoff, ctx),
        2 => pack_mffd(input, par_cutoff, ctx),
        3 => pack_best_fit(items, par_cutoff, ctx),
        4 => pack_best_fit(decreasing(input, ctx), par_cutoff, ctx),
        5 => pack_one_slot(items, ScanFrom::Back, par_cutoff, ctx),
        6 => pack_one_slot(decreasing(input, ctx), ScanFrom::Back, par_cutoff, ctx),
        7 => pack_next_fit(items, ctx),
        8 => pack_next_fit(decreasing(input, ctx), ctx),
        9 => pack_worst_fit(items, par_cutoff, ctx),
        10 => pack_worst_fit(decreasing(input, ctx), par_cutoff, ctx),
        11 => pack_almost_worst_fit(items, awf_k, par_cutoff, ctx),
        12 => pack_almost_worst_fit(decreasing(input, ctx), awf_k, par_cutoff, ctx),
        other => panic!("unknown bin-packing algorithm index {other}"),
    }
}

/// Converts the paper's `bins/OPT` ratio (lower = better) into the
/// tuner's larger-is-better accuracy: `2 − ratio`.
pub fn ratio_to_accuracy(ratio: f64) -> f64 {
    2.0 - ratio
}

/// Inverse of [`ratio_to_accuracy`].
pub fn accuracy_to_ratio(accuracy: f64) -> f64 {
    2.0 - accuracy
}

/// The Bin Packing variable-accuracy transform.
///
/// Tunables: the 13-way `algorithm` choice site (a decision tree over
/// input size, so different sizes may pack differently — exactly the
/// structure of Fig. 7) and the `almost_worst_k` parameter.
#[derive(Debug, Clone, Copy, Default)]
pub struct BinPacking;

impl Transform for BinPacking {
    type Input = BinPackingInput;
    type Output = Packing;

    fn name(&self) -> &str {
        "binpacking"
    }

    fn schema(&self) -> Schema {
        let mut s = Schema::new("binpacking");
        s.add_choice_site("algorithm", ALGORITHM_NAMES.len());
        s.add_user_param("almost_worst_k", 2, 8);
        s.add_cutoff("par_cutoff", 16, 1 << 16);
        s
    }

    fn generate_input(&self, n: u64, rng: &mut SmallRng) -> BinPackingInput {
        generate_input(n, rng)
    }

    fn execute(&self, input: &BinPackingInput, ctx: &mut ExecCtx<'_>) -> Packing {
        let algorithm = ctx.choice("algorithm").expect("schema declares algorithm");
        let k = ctx.param("almost_worst_k").expect("schema declares k") as usize;
        let par_cutoff = ctx.param("par_cutoff").expect("schema").max(1) as usize;
        ctx.event(ALGORITHM_NAMES[algorithm]);
        pack_with(algorithm, input, k, par_cutoff, ctx)
    }

    fn accuracy(&self, input: &BinPackingInput, output: &Packing) -> f64 {
        let ratio = output.bins() as f64 / input.opt_bins.max(1) as f64;
        ratio_to_accuracy(ratio)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::Config;
    use rand::SeedableRng;

    fn ctx_for<'a>(schema: &'a Schema, config: &'a Config, n: u64) -> ExecCtx<'a> {
        ExecCtx::new(schema, config, n, 0)
    }

    fn run_all(input: &BinPackingInput) -> Vec<Packing> {
        let t = BinPacking;
        let schema = t.schema();
        let config = schema.default_config();
        (0..13)
            .map(|alg| {
                let mut ctx = ctx_for(&schema, &config, input.items().len() as u64);
                pack_with(alg, input, 2, usize::MAX, &mut ctx)
            })
            .collect()
    }

    /// The placement kernels before inline engaged scans: every engaged
    /// scan materialises a `Vec<bool>` fit mask through `parallel_gen`
    /// (one pool task per open bin), every sequential scan is linear
    /// and charges each probe as it makes it. The pins below hold the
    /// current kernels to these bit for bit.
    mod reference {
        use super::super::*;
        use pb_runtime::parallel::parallel_gen;

        /// The shared parallel-regime prelude of every placement kernel:
        /// `Some(mask)` of `residual >= item - 1e-15` per open bin, computed
        /// on the pool, when the scan is charged as split, `None` when the
        /// kernel should probe (and charge) sequentially. The per-bin probes
        /// are pure, so the mask (and thus every placement decision derived
        /// from it) is identical to a sequential scan.
        fn fit_mask_if_parallel(
            p: &Packing,
            item: f64,
            par_cutoff: usize,
            ctx: &mut ExecCtx<'_>,
        ) -> Option<Vec<bool>> {
            let bins = p.bins();
            ctx.charge_split(bins, par_cutoff, bins as f64 * PROBE_COST)
                .then(|| parallel_gen(bins, par_cutoff, |b| p.residuals[b] >= item - 1e-15))
        }

        /// Places `item` in the first (or last) bin it fits, opening a new bin
        /// otherwise — the shared per-item scan of FirstFit, LastFit, and
        /// MFFD's final FFD pass. Sequential scans probe (and charge) with
        /// early exit; at or above `par_cutoff` open bins the fit mask
        /// computes on the pool, with identical placement either way.
        pub fn place_one(
            p: &mut Packing,
            item: f64,
            from: ScanFrom,
            par_cutoff: usize,
            ctx: &mut ExecCtx<'_>,
        ) {
            let placed = if let Some(fits) = fit_mask_if_parallel(p, item, par_cutoff, ctx) {
                let hit = match from {
                    ScanFrom::Front => fits.iter().position(|&f| f),
                    ScanFrom::Back => fits.iter().rposition(|&f| f),
                };
                match hit {
                    Some(b) => {
                        p.place(b, item);
                        true
                    }
                    None => false,
                }
            } else {
                // Concrete counted loops on the sequential path — this is the
                // kernels' hottest scan, so no iterator indirection.
                let probe = |p: &mut Packing, b: usize, ctx: &mut ExecCtx<'_>| {
                    ctx.charge(PROBE_COST);
                    if p.residuals[b] >= item - 1e-15 {
                        p.place(b, item);
                        true
                    } else {
                        false
                    }
                };
                let bins = p.bins();
                match from {
                    ScanFrom::Front => (0..bins).any(|b| probe(p, b, ctx)),
                    ScanFrom::Back => (0..bins).rev().any(|b| probe(p, b, ctx)),
                }
            };
            if !placed {
                p.open(item);
            }
        }

        pub fn pack_best_fit(items: &[f64], par_cutoff: usize, ctx: &mut ExecCtx<'_>) -> Packing {
            let mut p = Packing::default();
            for &item in items {
                let fits = fit_mask_if_parallel(&p, item, par_cutoff, ctx);
                let mut best: Option<(usize, f64)> = None;
                for b in 0..p.bins() {
                    let fit = match &fits {
                        Some(mask) => mask[b],
                        None => {
                            ctx.charge(PROBE_COST);
                            p.residuals[b] >= item - 1e-15
                        }
                    };
                    let r = p.residuals[b];
                    // Strict `<` keeps the lowest index among ties, in both
                    // regimes.
                    if fit && best.map(|(_, br)| r < br).unwrap_or(true) {
                        best = Some((b, r));
                    }
                }
                match best {
                    Some((b, _)) => p.place(b, item),
                    None => p.open(item),
                }
            }
            p
        }

        pub fn pack_worst_fit(items: &[f64], par_cutoff: usize, ctx: &mut ExecCtx<'_>) -> Packing {
            let mut p = Packing::default();
            for &item in items {
                let fits = fit_mask_if_parallel(&p, item, par_cutoff, ctx);
                let mut worst: Option<(usize, f64)> = None;
                for b in 0..p.bins() {
                    let fit = match &fits {
                        Some(mask) => mask[b],
                        None => {
                            ctx.charge(PROBE_COST);
                            p.residuals[b] >= item - 1e-15
                        }
                    };
                    let r = p.residuals[b];
                    if fit && worst.map(|(_, wr)| r > wr).unwrap_or(true) {
                        worst = Some((b, r));
                    }
                }
                match worst {
                    Some((b, _)) => p.place(b, item),
                    None => p.open(item),
                }
            }
            p
        }

        /// `AlmostWorstFit`: place in the k-th least-full bin with capacity
        /// (`k = 2` by the textbook definition; generalized per the paper,
        /// "our implementation generalizes it and supports a variable
        /// compiler-set k").
        pub fn pack_almost_worst_fit(
            items: &[f64],
            k: usize,
            par_cutoff: usize,
            ctx: &mut ExecCtx<'_>,
        ) -> Packing {
            let mut p = Packing::default();
            for &item in items {
                // Collect bins with capacity, sorted by descending residual.
                let mut fits: Vec<(usize, f64)> = Vec::new();
                if let Some(mask) = fit_mask_if_parallel(&p, item, par_cutoff, ctx) {
                    for (b, fit) in mask.into_iter().enumerate() {
                        if fit {
                            fits.push((b, p.residuals[b]));
                        }
                    }
                } else {
                    for b in 0..p.bins() {
                        ctx.charge(PROBE_COST);
                        if p.residuals[b] >= item - 1e-15 {
                            fits.push((b, p.residuals[b]));
                        }
                    }
                }
                if fits.is_empty() {
                    p.open(item);
                } else {
                    fits.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                    let idx = (k.max(1) - 1).min(fits.len() - 1);
                    p.place(fits[idx].0, item);
                }
            }
            p
        }

        /// MFFD up to its final FFD pass as a linear walk: each large
        /// bin rescans every medium item from the first, used ones
        /// included, charging each probe.
        pub fn mffd_pairing(items: &[f64], ctx: &mut ExecCtx<'_>) -> (Packing, Vec<f64>) {
            let mut sorted = items.to_vec();
            charge_sort(ctx, sorted.len());
            sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));

            let mut large: Vec<f64> = Vec::new();
            let mut medium: Vec<f64> = Vec::new();
            let mut rest: Vec<f64> = Vec::new();
            for &x in &sorted {
                if x > 0.5 {
                    large.push(x);
                } else if x > 1.0 / 3.0 {
                    medium.push(x);
                } else {
                    rest.push(x);
                }
            }

            let mut p = Packing::default();
            for &x in &large {
                p.open(x);
            }
            let mut medium_used = vec![false; medium.len()];
            for b in 0..p.bins() {
                ctx.charge(PROBE_COST);
                let mut chosen: Option<usize> = None;
                for (mi, &m) in medium.iter().enumerate() {
                    ctx.charge(PROBE_COST);
                    if !medium_used[mi] && p.residuals[b] >= m - 1e-15 {
                        chosen = Some(mi);
                        break;
                    }
                }
                if let Some(mi) = chosen {
                    medium_used[mi] = true;
                    let m = medium[mi];
                    p.place(b, m);
                } else if rest.len() >= 2 {
                    let a = rest[rest.len() - 1];
                    let c = rest[rest.len() - 2];
                    if p.residuals[b] >= a + c - 1e-15 {
                        rest.pop();
                        rest.pop();
                        p.place(b, a + c);
                    }
                }
            }
            let mut leftovers: Vec<f64> = medium
                .iter()
                .enumerate()
                .filter(|(i, _)| !medium_used[*i])
                .map(|(_, &m)| m)
                .collect();
            leftovers.extend(rest);
            (p, leftovers)
        }

        /// [`super::super::pack_with`]'s compositions over the kernels above.
        pub fn pack_with(
            algorithm: usize,
            items: &[f64],
            awf_k: usize,
            par_cutoff: usize,
            ctx: &mut ExecCtx<'_>,
        ) -> Packing {
            let sorted;
            let items = if matches!(algorithm, 1 | 4 | 6 | 8 | 10 | 12) {
                charge_sort(ctx, items.len());
                sorted = {
                    let mut sorted = items.to_vec();
                    sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
                    sorted
                };
                &sorted
            } else {
                items
            };
            let one_slot = |from, ctx: &mut ExecCtx<'_>| {
                let mut p = Packing::default();
                for &item in items {
                    place_one(&mut p, item, from, par_cutoff, ctx);
                }
                p
            };
            match algorithm {
                0 | 1 => one_slot(ScanFrom::Front, ctx),
                2 => {
                    let (mut p, leftovers) = mffd_pairing(items, ctx);
                    for &item in &leftovers {
                        place_one(&mut p, item, ScanFrom::Front, par_cutoff, ctx);
                    }
                    p
                }
                3 | 4 => pack_best_fit(items, par_cutoff, ctx),
                5 | 6 => one_slot(ScanFrom::Back, ctx),
                7 | 8 => pack_next_fit(items, ctx),
                9 | 10 => pack_worst_fit(items, par_cutoff, ctx),
                _ => pack_almost_worst_fit(items, awf_k, par_cutoff, ctx),
            }
        }
    }

    /// All 13 algorithms × both regimes (and the mixed one, where the
    /// cutoff engages partway through a pack) × sizes up to the
    /// ledger's: same placements, same virtual cost to the bit. At
    /// n = 1500 `charge_sort` is not an integer, so the cost bits also
    /// pin the order of the charges.
    #[test]
    fn inline_scans_match_mask_scans_bit_for_bit() {
        let schema = BinPacking.schema();
        let config = schema.default_config();
        for n in [1u64, 2, 64, 600, 1500, 2048] {
            let mut rng = SmallRng::seed_from_u64(40 + n);
            let input = generate_input(n, &mut rng);
            for alg in 0..13 {
                for cutoff in [16, 600, usize::MAX] {
                    for k in [2, 8] {
                        if k != 2 && alg < 11 {
                            continue;
                        }
                        let mut ctx = ctx_for(&schema, &config, n);
                        let got = pack_with(alg, &input, k, cutoff, &mut ctx);
                        let mut ref_ctx = ctx_for(&schema, &config, n);
                        let want =
                            reference::pack_with(alg, input.items(), k, cutoff, &mut ref_ctx);
                        let what = format!("{} n={n} cutoff={cutoff} k={k}", ALGORITHM_NAMES[alg]);
                        assert_eq!(got.residuals(), want.residuals(), "{what}");
                        assert_eq!(
                            ctx.virtual_cost().to_bits(),
                            ref_ctx.virtual_cost().to_bits(),
                            "{what}: cost {} vs {}",
                            ctx.virtual_cost(),
                            ref_ctx.virtual_cost()
                        );
                    }
                }
            }
        }
    }

    /// Every algorithm, twice, in a shuffled order, on four shared
    /// inputs (three of one size), each packing checked against a fresh
    /// input and against the kernels that sort per call: the kept order
    /// is the one each input's own sort gives, for that input only.
    #[test]
    fn shared_inputs_pack_like_fresh_ones() {
        let schema = BinPacking.schema();
        let config = schema.default_config();
        let draws = [(600, 1), (600, 2), (600, 3), (257, 4)];
        let draw = |(n, seed): (u64, u64)| generate_input(n, &mut SmallRng::seed_from_u64(seed));
        let shared: Vec<BinPackingInput> = draws.into_iter().map(draw).collect();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut order: Vec<usize> = (0..13).chain(0..13).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for alg in order {
            for (input, &(n, seed)) in shared.iter().zip(&draws) {
                for cutoff in [16, usize::MAX] {
                    let mut ctx = ctx_for(&schema, &config, n);
                    let got = pack_with(alg, input, 2, cutoff, &mut ctx);
                    let mut fresh_ctx = ctx_for(&schema, &config, n);
                    let fresh = pack_with(alg, &draw((n, seed)), 2, cutoff, &mut fresh_ctx);
                    let mut ref_ctx = ctx_for(&schema, &config, n);
                    let want = reference::pack_with(alg, input.items(), 2, cutoff, &mut ref_ctx);
                    let what =
                        format!("{} n={n} seed={seed} cutoff={cutoff}", ALGORITHM_NAMES[alg]);
                    assert_eq!(got.residuals(), fresh.residuals(), "{what}");
                    assert_eq!(got.residuals(), want.residuals(), "{what}");
                    let cost = ctx.virtual_cost().to_bits();
                    assert_eq!(cost, fresh_ctx.virtual_cost().to_bits(), "{what}");
                    assert_eq!(cost, ref_ctx.virtual_cost().to_bits(), "{what}");
                }
            }
        }
    }

    /// Ties and the `k > fitting bins` fallback of AlmostWorstFit,
    /// where the bounded selection and the full stable sort could
    /// disagree: many equal residuals, every `k` the schema allows and
    /// one beyond it.
    #[test]
    fn almost_worst_fit_selection_matches_full_sort_on_ties() {
        let schema = BinPacking.schema();
        let config = schema.default_config();
        let items: Vec<f64> = (0..400)
            .map(|i| [0.5, 0.25, 0.25, 0.125, 0.5, 0.375][i % 6])
            .collect();
        for k in [0, 1, 2, 3, 5, 8, 50] {
            for cutoff in [16, usize::MAX] {
                let mut ctx = ctx_for(&schema, &config, 400);
                let got = pack_almost_worst_fit(&items, k, cutoff, &mut ctx);
                let mut ref_ctx = ctx_for(&schema, &config, 400);
                let want = reference::pack_almost_worst_fit(&items, k, cutoff, &mut ref_ctx);
                assert_eq!(got.residuals(), want.residuals(), "k={k} cutoff={cutoff}");
                assert_eq!(
                    ctx.virtual_cost().to_bits(),
                    ref_ctx.virtual_cost().to_bits()
                );
            }
        }
    }

    /// BestFit and WorstFit on residuals full of exact ties (dyadic
    /// items, more bins than one lane pass covers): the winning value
    /// first, then its first bin, must be the bin the one-pass scan
    /// keeps, the lowest index among equals.
    #[test]
    fn best_and_worst_fit_keep_the_lowest_index_on_ties() {
        let schema = BinPacking.schema();
        let config = schema.default_config();
        let items: Vec<f64> = (0..600)
            .map(|i| [0.75, 0.5, 0.25, 0.125, 0.625, 0.375, 0.875][i % 7])
            .collect();
        type Kernel = fn(&[f64], usize, &mut ExecCtx<'_>) -> Packing;
        let kernels: [(&str, Kernel, Kernel); 2] = [
            ("BestFit", pack_best_fit, reference::pack_best_fit),
            ("WorstFit", pack_worst_fit, reference::pack_worst_fit),
        ];
        for (name, kernel, reference) in kernels {
            for cutoff in [16, usize::MAX] {
                let mut ctx = ctx_for(&schema, &config, 600);
                let got = kernel(&items, cutoff, &mut ctx);
                let mut ref_ctx = ctx_for(&schema, &config, 600);
                let want = reference(&items, cutoff, &mut ref_ctx);
                assert_eq!(got.residuals(), want.residuals(), "{name} cutoff={cutoff}");
                assert_eq!(
                    ctx.virtual_cost().to_bits(),
                    ref_ctx.virtual_cost().to_bits()
                );
            }
        }
    }

    /// `charge_probes` against the per-probe loop it stands for, from
    /// running totals that are integers, sort charges (`n·log₂n`, not
    /// dyadic at most `n`), non-dyadic totals (thirds),
    /// arbitrary fractions, and integers up to 2⁵⁴, where the loop
    /// rounds.
    #[test]
    fn charge_probes_matches_the_per_probe_loop() {
        let schema = BinPacking.schema();
        let config = schema.default_config();
        let mut rng = SmallRng::seed_from_u64(43);
        for case in 0..30_000 {
            let before = match case % 5 {
                0 => rng.gen_range(0..1u64 << 20) as f64,
                1 => {
                    let n = rng.gen_range(2..4096) as f64;
                    n * n.log2()
                }
                2 => rng.gen_range(0..1u64 << 20) as f64 / 3.0,
                3 => rng.gen::<f64>() * 2f64.powi(rng.gen_range(0..40)),
                _ => (1u64 << 53) as f64 - rng.gen_range(-3000.0..3000.0f64).round(),
            };
            let probes = rng.gen_range(0..2000);
            let mut got = ExecCtx::new(&schema, &config, 1, 0);
            got.charge(before);
            charge_probes(&mut got, probes);
            let mut want = ExecCtx::new(&schema, &config, 1, 0);
            want.charge(before);
            for _ in 0..probes {
                want.charge(PROBE_COST);
            }
            assert_eq!(
                got.virtual_cost().to_bits(),
                want.virtual_cost().to_bits(),
                "{probes} probes from {before:e}"
            );
        }
    }

    #[test]
    fn par_cutoff_changes_schedule_not_packings() {
        let mut rng = SmallRng::seed_from_u64(11);
        let input = generate_input(600, &mut rng);
        let t = BinPacking;
        let schema = t.schema();
        // Always-parallel vs never-parallel must agree on every
        // algorithm's packing bit for bit: the cutoff tunes the
        // scheduler, not the placement decisions.
        for alg in 0..13 {
            let packs: Vec<Packing> = [16usize, usize::MAX]
                .into_iter()
                .map(|cutoff| {
                    let config = schema.default_config();
                    let mut ctx = ExecCtx::new(&schema, &config, 600, 0);
                    pack_with(alg, &input, 2, cutoff, &mut ctx)
                })
                .collect();
            assert_eq!(
                packs[0].residuals(),
                packs[1].residuals(),
                "{} diverged across the cutoff",
                ALGORITHM_NAMES[alg]
            );
        }
    }

    #[test]
    fn generator_splits_full_bins() {
        let mut rng = SmallRng::seed_from_u64(1);
        let input = generate_input(100, &mut rng);
        assert_eq!(input.items().len(), 100);
        assert!(input.items().iter().all(|&x| x > 0.0 && x <= 1.0));
        // Total volume can't exceed the generated bins.
        let total: f64 = input.items().iter().sum();
        assert!(total <= input.opt_bins() as f64 + 1e-9);
        assert!(input.opt_bins() >= 20, "2–5 items per bin over 100 items");
    }

    #[test]
    fn all_algorithms_produce_valid_packings() {
        let mut rng = SmallRng::seed_from_u64(2);
        let input = generate_input(200, &mut rng);
        for (alg, p) in run_all(&input).into_iter().enumerate() {
            assert!(p.is_valid(), "{} overfilled a bin", ALGORITHM_NAMES[alg]);
            // Volume lower bound: bins >= ceil(total volume).
            let total: f64 = input.items().iter().sum();
            assert!(
                p.bins() as f64 >= total - 1e-9,
                "{} lost items",
                ALGORITHM_NAMES[alg]
            );
        }
    }

    #[test]
    fn worst_case_bounds_hold_on_random_instances() {
        // NextFit ≤ 2·OPT; FirstFit ≤ 1.7·OPT + 1; FFD ≤ 4/3·OPT + 1.
        // Our generator knows OPT.
        for seed in 0..5u64 {
            let mut r = SmallRng::seed_from_u64(seed);
            let input = generate_input(150 + 10 * seed, &mut r);
            let packs = run_all(&input);
            let opt = input.opt_bins() as f64;
            assert!(packs[7].bins() as f64 <= 2.0 * opt + 1.0, "NextFit bound");
            assert!(packs[0].bins() as f64 <= 1.7 * opt + 1.0, "FirstFit bound");
            assert!(packs[1].bins() as f64 <= 4.0 / 3.0 * opt + 1.0, "FFD bound");
            assert!(
                packs[2].bins() as f64 <= 71.0 / 60.0 * opt + 1.0,
                "MFFD bound (got {} vs opt {})",
                packs[2].bins(),
                opt
            );
        }
    }

    #[test]
    fn decreasing_variants_do_no_worse_on_average() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut ff = 0usize;
        let mut ffd = 0usize;
        for _ in 0..10 {
            let input = generate_input(120, &mut rng);
            let packs = run_all(&input);
            ff += packs[0].bins();
            ffd += packs[1].bins();
        }
        assert!(ffd <= ff, "FFD ({ffd}) should beat FF ({ff}) in aggregate");
    }

    #[test]
    fn next_fit_charges_linear_cost() {
        let t = BinPacking;
        let schema = t.schema();
        let mut config = schema.default_config();
        // Select NextFit (index 7) everywhere.
        config
            .set_by_name(
                &schema,
                "algorithm",
                pb_config::Value::Tree(pb_config::DecisionTree::single(7)),
            )
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let input = generate_input(500, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, 500, 0);
        let _ = t.execute(&input, &mut ctx);
        let nf_cost = ctx.virtual_cost();
        assert!(
            (nf_cost - 500.0).abs() < 1.0,
            "NextFit probes once per item"
        );

        // FirstFit on the same input is superlinear.
        config
            .set_by_name(
                &schema,
                "algorithm",
                pb_config::Value::Tree(pb_config::DecisionTree::single(0)),
            )
            .unwrap();
        let mut ctx = ExecCtx::new(&schema, &config, 500, 0);
        let _ = t.execute(&input, &mut ctx);
        assert!(ctx.virtual_cost() > 4.0 * nf_cost);
    }

    #[test]
    fn accuracy_conversion_round_trips() {
        for r in [1.0, 1.1, 1.5] {
            assert!((accuracy_to_ratio(ratio_to_accuracy(r)) - r).abs() < 1e-12);
        }
        // Perfect packing has accuracy 1.0.
        assert_eq!(ratio_to_accuracy(1.0), 1.0);
    }

    #[test]
    fn transform_end_to_end() {
        let t = BinPacking;
        let schema = t.schema();
        let config = schema.default_config();
        let mut rng = SmallRng::seed_from_u64(6);
        let input = t.generate_input(64, &mut rng);
        let mut ctx = ExecCtx::new(&schema, &config, 64, 0);
        let out = t.execute(&input, &mut ctx);
        let acc = t.accuracy(&input, &out);
        assert!(acc <= 1.0 + 1e-12, "cannot beat OPT");
        assert!(acc > 0.0, "first fit is within 2x of OPT here");
    }
}
