//! Input-size decision trees for algorithm-choice sites.
//!
//! Each choice site in a PetaBricks program is tuned with a decision tree
//! that maps the current input size to an algorithm (§5.2, §5.4).
//! "Initially decision trees are very simple, set to use just a single
//! algorithm"; mutators later add levels with cutoffs initialized to
//! `3N/4` of the current training size, leaving behaviour for smaller
//! inputs unchanged.

/// One interior level of a decision tree: inputs strictly smaller than
/// `cutoff` take `choice` (unless an earlier level with a smaller cutoff
/// claims them first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Level {
    /// Inputs with `n < cutoff` select this level's choice.
    pub cutoff: u64,
    /// Algorithm index chosen below the cutoff.
    pub choice: usize,
}

serde::json_object!(Level { cutoff, choice });

/// A decision tree mapping input size to an algorithm index.
///
/// Represented as a sorted list of `(cutoff, choice)` levels plus the
/// choice used at and above the largest cutoff. A freshly created tree
/// has no levels and always returns its top-level choice.
///
/// # Examples
///
/// ```
/// use pb_config::DecisionTree;
///
/// let mut tree = DecisionTree::single(0);
/// tree.add_level(100, 1); // use algorithm 1 for n < 100
/// assert_eq!(tree.select(10), 1);
/// assert_eq!(tree.select(100), 0);
/// assert_eq!(tree.select(1_000_000), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DecisionTree {
    levels: Vec<Level>,
    top_choice: usize,
}

serde::json_object!(DecisionTree { levels, top_choice });

impl DecisionTree {
    /// A tree that always selects `choice`, regardless of input size.
    pub fn single(choice: usize) -> Self {
        DecisionTree {
            levels: Vec::new(),
            top_choice: choice,
        }
    }

    /// The algorithm used for inputs at or above every cutoff.
    pub fn top_choice(&self) -> usize {
        self.top_choice
    }

    /// Replaces the top-level (largest inputs) choice.
    pub fn set_top_choice(&mut self, choice: usize) {
        self.top_choice = choice;
    }

    /// The interior levels, sorted by ascending cutoff.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Number of interior levels.
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Selects the algorithm for input size `n`.
    pub fn select(&self, n: u64) -> usize {
        for level in &self.levels {
            if n < level.cutoff {
                return level.choice;
            }
        }
        self.top_choice
    }

    /// Adds a level: inputs below `cutoff` (and above any smaller
    /// existing cutoff) will use `choice`. If a level with the same
    /// cutoff exists, its choice is replaced instead.
    pub fn add_level(&mut self, cutoff: u64, choice: usize) {
        match self.levels.binary_search_by_key(&cutoff, |l| l.cutoff) {
            Ok(i) => self.levels[i].choice = choice,
            Err(i) => self.levels.insert(i, Level { cutoff, choice }),
        }
    }

    /// Removes the level at `index` (0 = smallest cutoff). Returns the
    /// removed level, or `None` if out of range.
    pub fn remove_level(&mut self, index: usize) -> Option<Level> {
        if index < self.levels.len() {
            Some(self.levels.remove(index))
        } else {
            None
        }
    }

    /// Replaces the choice at level `index`; `index == depth()` addresses
    /// the top-level choice. Returns `false` if out of range.
    pub fn set_choice(&mut self, index: usize, choice: usize) -> bool {
        if index < self.levels.len() {
            self.levels[index].choice = choice;
            true
        } else if index == self.levels.len() {
            self.top_choice = choice;
            true
        } else {
            false
        }
    }

    /// Rescales the cutoff at level `index` by `factor` (used by the
    /// log-normal scaling mutators), keeping the level list sorted and
    /// the cutoff at least 1. Returns `false` if out of range.
    pub fn scale_cutoff(&mut self, index: usize, factor: f64) -> bool {
        if index >= self.levels.len() {
            return false;
        }
        let old = self.levels[index].cutoff;
        let scaled = ((old as f64) * factor).round().max(1.0) as u64;
        let choice = self.levels[index].choice;
        self.levels.remove(index);
        self.add_level(scaled, choice);
        true
    }

    /// Checks that every choice in the tree is below `num_algorithms`
    /// and that the cutoffs ascend strictly, which [`select`](Self::select)
    /// and [`add_level`](Self::add_level) rely on.
    pub fn is_valid_for(&self, num_algorithms: usize) -> bool {
        self.top_choice < num_algorithms
            && self.levels.iter().all(|l| l.choice < num_algorithms)
            && self.levels.windows(2).all(|w| w[0].cutoff < w[1].cutoff)
    }
}

impl Default for DecisionTree {
    fn default() -> Self {
        DecisionTree::single(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tree_ignores_size() {
        let t = DecisionTree::single(2);
        assert_eq!(t.select(0), 2);
        assert_eq!(t.select(u64::MAX), 2);
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn levels_partition_the_size_axis() {
        let mut t = DecisionTree::single(0);
        t.add_level(10, 1);
        t.add_level(100, 2);
        assert_eq!(t.select(5), 1);
        assert_eq!(t.select(10), 2);
        assert_eq!(t.select(99), 2);
        assert_eq!(t.select(100), 0);
    }

    #[test]
    fn add_level_keeps_sorted_regardless_of_insert_order() {
        let mut t = DecisionTree::single(0);
        t.add_level(100, 2);
        t.add_level(10, 1);
        let cutoffs: Vec<u64> = t.levels().iter().map(|l| l.cutoff).collect();
        assert_eq!(cutoffs, vec![10, 100]);
    }

    #[test]
    fn duplicate_cutoff_replaces_choice() {
        let mut t = DecisionTree::single(0);
        t.add_level(10, 1);
        t.add_level(10, 3);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.select(5), 3);
    }

    #[test]
    fn remove_level_restores_upper_behaviour() {
        let mut t = DecisionTree::single(0);
        t.add_level(10, 1);
        let removed = t.remove_level(0).unwrap();
        assert_eq!(
            removed,
            Level {
                cutoff: 10,
                choice: 1
            }
        );
        assert_eq!(t.select(5), 0);
        assert!(t.remove_level(0).is_none());
    }

    #[test]
    fn set_choice_addresses_top_level_past_end() {
        let mut t = DecisionTree::single(0);
        t.add_level(10, 1);
        assert!(t.set_choice(0, 5));
        assert!(t.set_choice(1, 6)); // top level
        assert!(!t.set_choice(2, 7));
        assert_eq!(t.select(1), 5);
        assert_eq!(t.select(100), 6);
    }

    #[test]
    fn scale_cutoff_keeps_order_and_min_one() {
        let mut t = DecisionTree::single(0);
        t.add_level(100, 1);
        assert!(t.scale_cutoff(0, 0.0001));
        assert_eq!(t.levels()[0].cutoff, 1);
        assert!(t.scale_cutoff(0, 1000.0));
        assert_eq!(t.levels()[0].cutoff, 1000);
        assert!(!t.scale_cutoff(5, 2.0));
    }

    #[test]
    fn validity_checks_all_choices() {
        let mut t = DecisionTree::single(1);
        t.add_level(10, 3);
        assert!(t.is_valid_for(4));
        assert!(!t.is_valid_for(3));
        assert!(!t.is_valid_for(1));
    }

    #[test]
    fn serde_round_trip() {
        let mut t = DecisionTree::single(0);
        t.add_level(64, 2);
        t.add_level(4096, 1);
        let json = serde_json::to_string(&t).unwrap();
        let back: DecisionTree = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
