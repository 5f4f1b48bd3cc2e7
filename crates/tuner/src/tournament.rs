//! Fastest-K selection (§5.5.4) as arena contests.
//!
//! Each accuracy bin's six-step selection is a resumable
//! [`Contest`] driven by the
//! [`Arena`](crate::arena::Arena) round loop, so many selections
//! interleave their comparator draws into shared pool batches:
//!
//! 1–2. rough sort by cached mean time, split at the K-th element into
//!      KEEP and DISCARD (no trials);
//! 3.   sort KEEP with the adaptive comparator via a **k-way selection
//!      layout**: a bracket tournament over the heads of the pending
//!      runs. Every undecided head-to-head at every computable bracket
//!      level is queried each round, which exposes strictly more
//!      independent comparisons per round than a bottom-up two-run
//!      merge (whose stalled merges each expose exactly one). The
//!      extra queries the bracket replays after a pop cost nothing:
//!      decided verdicts come back from the session's pair memo.
//! 4.   compare each DISCARD element against the **fixed** K-th KEEP
//!      element (snapshotted before any promotion — §5.5.4; a moving
//!      pivot would make promotion depend on DISCARD iteration order);
//!      the promotion comparisons are mutually independent and batch.
//! 5.   re-sort by k-way selection over **pre-sorted runs**: the
//!      sorted KEEP run plus each promoted element as a singleton.
//!      KEEP-internal pairs are never re-compared (they share a run),
//!      promoted-vs-pivot verdicts replay from the pair memo, and only
//!      the first K elements are ever selected — the tail the
//!      bottom-up merge used to sort fully is left unsorted.
//! 6.   keep the first K.

use crate::arena::Contest;
use crate::candidate::Candidate;
use pb_stats::{total_cmp_nan_last, CompareOutcome};

/// What one [`Population::prune`](crate::Population::prune) call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Candidates removed from the population.
    pub removed: u64,
    /// The prune call's arena-session counters (rounds, draws, widths,
    /// pair-memo traffic).
    pub arena: crate::arena::ArenaReport,
}

/// K-way selection over pre-sorted runs of candidate indices:
/// repeatedly pops the overall fastest remaining head via a bracket
/// tournament, until `take` elements are selected.
///
/// The bracket pairs heads in run order, so the left side of every
/// pairing comes from an earlier run; ties (`Same`) keep the left
/// element, preserving the stability of the insertion/merge sorts this
/// replaces. Brackets are recomputed from scratch on every advance:
/// decided pairings answer from the arena's session memo (free), and
/// every *undecided* pairing whose inputs are known is queried before
/// the round ends — that breadth is what widens the trial batches.
struct KWaySelect {
    runs: Vec<Vec<usize>>,
    /// Per-run cursor: `runs[r][pos[r]]` is the current head.
    pos: Vec<usize>,
    out: Vec<usize>,
    take: usize,
}

impl KWaySelect {
    /// Selection of the first `take` elements across `runs`, each run
    /// pre-sorted fastest-first.
    fn new(runs: Vec<Vec<usize>>, take: usize) -> Self {
        let pos = vec![0; runs.len()];
        KWaySelect {
            runs,
            pos,
            out: Vec::with_capacity(take),
            take,
        }
    }

    fn remaining(&self) -> usize {
        self.runs
            .iter()
            .zip(&self.pos)
            .map(|(run, &p)| run.len() - p)
            .sum()
    }

    /// Pops winners while the bracket can decide; `true` once `take`
    /// elements are out (or the runs are exhausted).
    fn advance(&mut self, cmp: &mut dyn FnMut(usize, usize) -> Option<CompareOutcome>) -> bool {
        loop {
            let want = self.take.min(self.out.len() + self.remaining());
            if self.out.len() >= want {
                return true;
            }
            // Current heads, in run order. `None` marks an unknown
            // bracket winner below.
            let mut round: Vec<Option<usize>> = self
                .runs
                .iter()
                .zip(&self.pos)
                .filter(|(run, &p)| p < run.len())
                .map(|(run, &p)| Some(run[p]))
                .collect();
            while round.len() > 1 {
                let mut next = Vec::with_capacity(round.len().div_ceil(2));
                let mut pairs = round.chunks(2);
                for pair in &mut pairs {
                    next.push(match *pair {
                        [left] => left,
                        // An unknown side makes the pairing's winner
                        // unknown, but sibling pairings still advance
                        // (and still deposit their draw demands).
                        [Some(left), Some(right)] => match cmp(right, left) {
                            None => None,
                            Some(CompareOutcome::Less) => Some(right),
                            Some(_) => Some(left),
                        },
                        _ => None,
                    });
                }
                round = next;
            }
            match round.first().copied().flatten() {
                Some(winner) => {
                    let r = self
                        .runs
                        .iter()
                        .zip(&self.pos)
                        .position(|(run, &p)| p < run.len() && run[p] == winner)
                        .expect("winner is some run's head");
                    self.pos[r] += 1;
                    self.out.push(winner);
                }
                None => return false,
            }
        }
    }

    fn into_selected(self) -> Vec<usize> {
        self.out
    }
}

enum Phase {
    /// Step 3: fully sort KEEP (every element a singleton run).
    Sort(KWaySelect),
    /// Step 4: compare each DISCARD element against the **fixed** K-th
    /// KEEP element.
    Promote {
        keep: Vec<usize>,
        discard: Vec<usize>,
        verdicts: Vec<Option<bool>>,
    },
    /// Step 5: select the first K across the sorted KEEP run and the
    /// promoted singletons.
    Resort(KWaySelect),
    /// Step 6: the first K.
    Done(Vec<usize>),
}

/// One accuracy bin's six-step fastest-K selection (§5.5.4), expressed
/// as a resumable [`Contest`] so many selections interleave their
/// comparator draws into shared arena batches.
pub(crate) struct Selection {
    k: usize,
    /// DISCARD half, stashed until the KEEP sort finishes.
    discard: Vec<usize>,
    phase: Phase,
}

impl Selection {
    /// Steps 1–2: rough sort by cached mean time (no extra trials) and
    /// split at the K-th element.
    pub(crate) fn new(cands: &[Candidate], mut indices: Vec<usize>, k: usize, n: u64) -> Self {
        if k == 0 || indices.len() <= k {
            let kept = if k == 0 { Vec::new() } else { indices };
            return Selection {
                k,
                discard: Vec::new(),
                phase: Phase::Done(kept),
            };
        }
        indices.sort_by(|&a, &b| total_cmp_nan_last(cands[a].mean_time(n), cands[b].mean_time(n)));
        let discard = indices.split_off(k);
        let runs = indices.into_iter().map(|i| vec![i]).collect();
        Selection {
            k,
            discard,
            phase: Phase::Sort(KWaySelect::new(runs, k)),
        }
    }

    pub(crate) fn into_result(self) -> Vec<usize> {
        match self.phase {
            Phase::Done(kept) => kept,
            _ => unreachable!("selection consumed before completion"),
        }
    }
}

impl Contest for Selection {
    /// Advances through the phases as far as `cmp` can decide;
    /// returns `true` once the selection is done.
    fn advance(
        &mut self,
        cmp: &mut dyn FnMut(usize, usize) -> Option<CompareOutcome>,
        _cands: &[Candidate],
    ) -> bool {
        loop {
            match &mut self.phase {
                Phase::Done(_) => return true,
                Phase::Sort(sort) => {
                    if !sort.advance(cmp) {
                        return false;
                    }
                    let sort = match std::mem::replace(&mut self.phase, Phase::Done(Vec::new())) {
                        Phase::Sort(sort) => sort,
                        _ => unreachable!(),
                    };
                    let keep = sort.into_selected();
                    let discard = std::mem::take(&mut self.discard);
                    let verdicts = vec![None; discard.len()];
                    self.phase = Phase::Promote {
                        keep,
                        discard,
                        verdicts,
                    };
                }
                Phase::Promote {
                    keep,
                    discard,
                    verdicts,
                } => {
                    let pivot = keep[self.k - 1];
                    // The promotion comparisons are mutually
                    // independent: record every stalled one's demand
                    // before giving up the round.
                    let mut stalled = false;
                    for (&d, verdict) in discard.iter().zip(verdicts.iter_mut()) {
                        if verdict.is_none() {
                            match cmp(d, pivot) {
                                Some(outcome) => *verdict = Some(outcome == CompareOutcome::Less),
                                None => stalled = true,
                            }
                        }
                    }
                    if stalled {
                        return false;
                    }
                    let promoted: Vec<usize> = discard
                        .iter()
                        .zip(verdicts.iter())
                        .filter_map(|(&d, v)| v.expect("all verdicts in").then_some(d))
                        .collect();
                    let keep = std::mem::take(keep);
                    if promoted.is_empty() {
                        self.phase = Phase::Done(keep);
                    } else {
                        // Sorted KEEP is one pre-sorted run; each
                        // promoted element is a singleton run after it.
                        let mut runs = vec![keep];
                        runs.extend(promoted.into_iter().map(|d| vec![d]));
                        self.phase = Phase::Resort(KWaySelect::new(runs, self.k));
                    }
                }
                Phase::Resort(sort) => {
                    if !sort.advance(cmp) {
                        return false;
                    }
                    let sort = match std::mem::replace(&mut self.phase, Phase::Done(Vec::new())) {
                        Phase::Resort(sort) => sort,
                        _ => unreachable!(),
                    };
                    let mut selected = sort.into_selected();
                    selected.truncate(self.k);
                    self.phase = Phase::Done(selected);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a `KWaySelect` with a total order over indices and an
    /// always-decided comparator.
    fn select(runs: Vec<Vec<usize>>, take: usize, order: impl Fn(usize) -> i64) -> Vec<usize> {
        let mut sel = KWaySelect::new(runs, take);
        let mut cmp = |a: usize, b: usize| -> Option<CompareOutcome> {
            Some(match order(a).cmp(&order(b)) {
                std::cmp::Ordering::Less => CompareOutcome::Less,
                std::cmp::Ordering::Greater => CompareOutcome::Greater,
                std::cmp::Ordering::Equal => CompareOutcome::Same,
            })
        };
        assert!(sel.advance(&mut cmp));
        sel.into_selected()
    }

    #[test]
    fn kway_merges_sorted_runs() {
        let out = select(vec![vec![0, 2, 4], vec![1, 3, 5]], 6, |i| i as i64);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn kway_takes_only_what_is_asked() {
        let out = select(vec![vec![5, 6, 7], vec![0, 1, 2]], 2, |i| i as i64);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn kway_ties_keep_earlier_run_order() {
        // All elements equal: output preserves run order, then
        // within-run order (stability).
        let out = select(vec![vec![3, 4], vec![7], vec![9]], 4, |_| 0);
        assert_eq!(out, vec![3, 4, 7, 9]);
    }

    #[test]
    fn kway_stalls_and_resumes() {
        let mut sel = KWaySelect::new(vec![vec![0], vec![1], vec![2]], 3);
        // First pass: the (1, 0) pairing is undecided; the bracket
        // must still query nothing else decidable but not pop.
        let mut undecided_pairs: Vec<(usize, usize)> = Vec::new();
        let mut cmp = |a: usize, b: usize| -> Option<CompareOutcome> {
            undecided_pairs.push((a, b));
            None
        };
        assert!(!sel.advance(&mut cmp));
        assert!(
            undecided_pairs.contains(&(1, 0)),
            "bracket must query the stalled head pair: {undecided_pairs:?}"
        );
        // Once decidable, the selection completes.
        let mut cmp = |a: usize, b: usize| -> Option<CompareOutcome> {
            Some(match a.cmp(&b) {
                std::cmp::Ordering::Less => CompareOutcome::Less,
                std::cmp::Ordering::Greater => CompareOutcome::Greater,
                std::cmp::Ordering::Equal => CompareOutcome::Same,
            })
        };
        assert!(sel.advance(&mut cmp));
        assert_eq!(sel.into_selected(), vec![0, 1, 2]);
    }

    #[test]
    fn kway_exposes_multiple_pairings_per_round() {
        // Four runs: the first bracket level has two independent
        // pairings; both must be queried in one stalled round.
        let mut sel = KWaySelect::new(vec![vec![0], vec![1], vec![2], vec![3]], 4);
        let mut queried: Vec<(usize, usize)> = Vec::new();
        let mut cmp = |a: usize, b: usize| -> Option<CompareOutcome> {
            queried.push((a, b));
            None
        };
        assert!(!sel.advance(&mut cmp));
        assert!(queried.contains(&(1, 0)));
        assert!(queried.contains(&(3, 2)));
    }
}
