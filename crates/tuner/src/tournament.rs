//! Fastest-K selection (§5.5.4) as arena contests.
//!
//! Each accuracy bin's six-step selection is a resumable
//! [`Contest`] driven by the
//! [`Arena`](crate::arena::Arena) round loop, so many selections
//! interleave their comparator draws into shared pool batches:
//!
//! 1–2. rough sort by cached mean time, split at the K-th element into
//!      KEEP and DISCARD (no trials);
//! 3.   sort KEEP with the adaptive comparator by **k-way selection**:
//!      each pop scans the heads of the pending runs in order and keeps
//!      the fastest; a scan stops at its first undecided comparison,
//!      whose draws join the round's batch.
//! 4.   compare each DISCARD element against the **fixed** K-th KEEP
//!      element (snapshotted before any promotion — §5.5.4; a moving
//!      pivot would make promotion depend on DISCARD iteration order);
//!      the promotion comparisons are mutually independent and batch.
//! 5.   re-sort by k-way selection over **pre-sorted runs**: the
//!      sorted KEEP run plus each promoted element as a singleton.
//!      KEEP-internal pairs are never re-compared (they share a run),
//!      and only the first K elements are ever selected — the tail the
//!      bottom-up merge used to sort fully is left unsorted.
//! 6.   keep the first K.

use crate::arena::Contest;
use crate::candidate::Candidate;
use pb_stats::{total_cmp_nan_last, CompareOutcome};

/// K-way selection over pre-sorted runs of candidate indices:
/// repeatedly pops the overall fastest remaining head, until `take`
/// elements are selected.
///
/// Each pop scans the heads in run order, comparing every head to the
/// best so far; ties (`Same`) keep the earlier run's head, preserving
/// the stability of the insertion/merge sorts this replaces. The scan
/// restarts from scratch on every advance and stops at the first
/// comparison that needs more trials.
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

    /// Pops winners while the comparator can decide; `true` once
    /// `take` elements are out (or the runs are exhausted).
    fn advance(&mut self, cmp: &mut dyn FnMut(usize, usize) -> Option<CompareOutcome>) -> bool {
        loop {
            let want = self.take.min(self.out.len() + self.remaining());
            if self.out.len() >= want {
                return true;
            }
            // One pass over the current heads in run order: a later
            // head must beat the best so far outright to replace it.
            let mut best: Option<usize> = None;
            for (r, (run, &p)) in self.runs.iter().zip(&self.pos).enumerate() {
                let Some(&head) = run.get(p) else { continue };
                best = match best {
                    None => Some(r),
                    Some(b) => match cmp(head, self.runs[b][self.pos[b]]) {
                        None => return false,
                        Some(CompareOutcome::Less) => Some(r),
                        Some(_) => Some(b),
                    },
                };
            }
            let r = best.expect("a run has a head");
            self.out.push(self.runs[r][self.pos[r]]);
            self.pos[r] += 1;
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
        // First pass: the (1, 0) pairing is undecided, so nothing
        // pops.
        let mut undecided_pairs: Vec<(usize, usize)> = Vec::new();
        let mut cmp = |a: usize, b: usize| -> Option<CompareOutcome> {
            undecided_pairs.push((a, b));
            None
        };
        assert!(!sel.advance(&mut cmp));
        assert!(
            undecided_pairs.contains(&(1, 0)),
            "the scan must query the stalled head pair: {undecided_pairs:?}"
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
}
