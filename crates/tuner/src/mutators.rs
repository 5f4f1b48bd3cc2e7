//! Mutator functions (§5.4).
//!
//! "Abstractly, a mutator function creates a new algorithm configuration
//! by changing an existing configuration … The set of mutator functions
//! is different for each program, and is generated fully automatically
//! with the static analysis information contained in the training
//! information file." Here the "training information" is the
//! [`pb_config::Schema`]; [`MutatorPool::from_schema`] builds the pool.
//!
//! Four categories are reproduced:
//!
//! * **Decision-tree manipulation** — add a level (cutoff initialized to
//!   `3N/4` of the current training size), remove a level, or change one
//!   level's algorithm.
//! * **Log-normal random scaling** — multiply a size-like value by
//!   `exp(Z)`, `Z ~ N(0, 1)`; "small changes have larger effects on
//!   small values than large values".
//! * **Uniform random** — redraw a switch or user parameter uniformly
//!   from its legal values.
//! * **Meta** — apply several random mutators at once (larger jumps), or
//!   undo the previous mutation.

use pb_config::{Config, Schema, TunableId, TunableKind, Value};
use rand::rngs::SmallRng;
use rand::Rng;

/// Record of the values a mutation overwrote, sufficient to undo it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MutationRecord {
    /// `(tunable, previous value)` pairs in application order.
    pub changes: Vec<(TunableId, Value)>,
}

impl MutationRecord {
    /// Whether the mutation changed anything.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Restores the recorded previous values into `config`.
    pub fn undo(&self, config: &mut Config) {
        for (id, old) in self.changes.iter().rev() {
            config.set(*id, old.clone());
        }
    }
}

/// One mutator: a schema-directed random edit of a configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutator {
    /// Add a decision-tree level at cutoff `3N/4` with a random choice.
    TreeAddLevel {
        /// The choice site to mutate.
        site: TunableId,
    },
    /// Remove a random decision-tree level.
    TreeRemoveLevel {
        /// The choice site to mutate.
        site: TunableId,
    },
    /// Change the algorithm at a random tree level (including the top).
    TreeChangeChoice {
        /// The choice site to mutate.
        site: TunableId,
    },
    /// Log-normally rescale a random active cutoff in the tree.
    TreeScaleCutoff {
        /// The choice site to mutate.
        site: TunableId,
    },
    /// Log-normally rescale an integer tunable (cutoff or accuracy
    /// variable).
    ScaleInt {
        /// The tunable to rescale.
        id: TunableId,
    },
    /// Redraw a switch uniformly.
    UniformSwitch {
        /// The switch to redraw.
        id: TunableId,
    },
    /// Redraw a user parameter uniformly from its range.
    UniformInt {
        /// The parameter to redraw.
        id: TunableId,
    },
    /// Redraw a float parameter uniformly from its range.
    UniformFloat {
        /// The parameter to redraw.
        id: TunableId,
    },
    /// Meta: apply several random base mutators ("allowing larger jumps
    /// to be taken in the configuration space").
    MetaMany,
    /// Meta: undo the effects of the previously applied mutator.
    MetaUndo,
}

impl Mutator {
    /// Whether this mutator can change program accuracy directly
    /// (log-normal/uniform mutators on accuracy variables and
    /// decision-tree changes; §5.4). The tuner nevertheless retests
    /// accuracy after *every* mutation, conservatively.
    pub fn affects_accuracy(&self, schema: &Schema) -> bool {
        match self {
            Mutator::TreeAddLevel { .. }
            | Mutator::TreeRemoveLevel { .. }
            | Mutator::TreeChangeChoice { .. }
            | Mutator::TreeScaleCutoff { .. }
            | Mutator::MetaMany
            | Mutator::MetaUndo => true,
            Mutator::ScaleInt { id } | Mutator::UniformInt { id } => {
                schema.tunable_by_id(*id).kind().affects_accuracy()
            }
            Mutator::UniformSwitch { .. } | Mutator::UniformFloat { .. } => false,
        }
    }
}

/// Samples a standard normal via Box–Muller.
fn standard_normal(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Log-normal factor with scale 1 (§5.4).
fn lognormal_factor(rng: &mut SmallRng) -> f64 {
    standard_normal(rng).exp()
}

/// The automatically generated mutator pool for one schema.
///
/// # Examples
///
/// ```
/// use pb_config::Schema;
/// use pb_tuner::MutatorPool;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let mut schema = Schema::new("demo");
/// schema.add_choice_site("algo", 3);
/// schema.add_accuracy_variable("iters", 1, 100);
/// let pool = MutatorPool::from_schema(&schema);
/// assert!(pool.len() >= 5);
///
/// let mut config = schema.default_config();
/// let mut rng = SmallRng::seed_from_u64(0);
/// let record = pool.apply_random(&mut config, &schema, 64, &mut rng, None);
/// assert!(config.validate(&schema).is_ok());
/// # let _ = record;
/// ```
#[derive(Debug, Clone)]
pub struct MutatorPool {
    mutators: Vec<Mutator>,
}

impl MutatorPool {
    /// Builds the pool for a schema (§5.4: "generated fully
    /// automatically with the static analysis information").
    pub fn from_schema(schema: &Schema) -> Self {
        let mut mutators = Vec::new();
        for (id, tunable) in schema.iter() {
            match tunable.kind() {
                TunableKind::ChoiceSite { num_algorithms } => {
                    if *num_algorithms > 1 {
                        mutators.push(Mutator::TreeChangeChoice { site: id });
                        mutators.push(Mutator::TreeAddLevel { site: id });
                        mutators.push(Mutator::TreeRemoveLevel { site: id });
                        mutators.push(Mutator::TreeScaleCutoff { site: id });
                    }
                }
                TunableKind::Cutoff { .. } | TunableKind::AccuracyVariable { .. } => {
                    mutators.push(Mutator::ScaleInt { id });
                }
                TunableKind::Switch { num_values } => {
                    if *num_values > 1 {
                        mutators.push(Mutator::UniformSwitch { id });
                    }
                }
                TunableKind::FloatParam { .. } => {
                    mutators.push(Mutator::UniformFloat { id });
                }
                TunableKind::UserDefined { .. } => {
                    mutators.push(Mutator::UniformInt { id });
                }
            }
        }
        if !mutators.is_empty() {
            mutators.push(Mutator::MetaMany);
            mutators.push(Mutator::MetaUndo);
        }
        MutatorPool { mutators }
    }

    /// Number of mutators in the pool.
    pub fn len(&self) -> usize {
        self.mutators.len()
    }

    /// Whether the pool is empty (schema with no tunables).
    pub fn is_empty(&self) -> bool {
        self.mutators.is_empty()
    }

    /// Base (non-meta) mutators.
    fn base_mutators(&self) -> impl Iterator<Item = &Mutator> {
        self.mutators
            .iter()
            .filter(|m| !matches!(m, Mutator::MetaMany | Mutator::MetaUndo))
    }

    /// Picks a random mutator and applies it to `config`.
    ///
    /// `n` is the current training input size (used for new decision
    /// tree cutoffs). `previous` is the record of the candidate's last
    /// mutation, consumed by [`Mutator::MetaUndo`]. Returns the record
    /// of this mutation, or `None` if the chosen mutator was
    /// inapplicable (e.g. removing a level from a depth-0 tree).
    pub fn apply_random(
        &self,
        config: &mut Config,
        schema: &Schema,
        n: u64,
        rng: &mut SmallRng,
        previous: Option<&MutationRecord>,
    ) -> Option<MutationRecord> {
        if self.mutators.is_empty() {
            return None;
        }
        let mutator = self.mutators[rng.gen_range(0..self.mutators.len())];
        self.apply(mutator, config, schema, n, rng, previous)
    }

    /// Applies one specific mutator. See [`MutatorPool::apply_random`].
    pub fn apply(
        &self,
        mutator: Mutator,
        config: &mut Config,
        schema: &Schema,
        n: u64,
        rng: &mut SmallRng,
        previous: Option<&MutationRecord>,
    ) -> Option<MutationRecord> {
        let mut record = MutationRecord::default();
        let applied = self.apply_inner(mutator, config, schema, n, rng, previous, &mut record);
        if applied && !record.is_empty() {
            Some(record)
        } else {
            None
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_inner(
        &self,
        mutator: Mutator,
        config: &mut Config,
        schema: &Schema,
        n: u64,
        rng: &mut SmallRng,
        previous: Option<&MutationRecord>,
        record: &mut MutationRecord,
    ) -> bool {
        match mutator {
            Mutator::TreeAddLevel { site } => {
                let num = match schema.tunable_by_id(site).kind() {
                    TunableKind::ChoiceSite { num_algorithms } => *num_algorithms,
                    _ => return false,
                };
                let old = config.get(site).clone();
                let tree = match config.get_mut(site).as_tree_mut() {
                    Some(t) => t,
                    None => return false,
                };
                // §5.4: "the cutoff point is initially set to 3N/4. This
                // leaves the behavior for smaller inputs the same, while
                // changing the behavior for the current set of inputs".
                let cutoff = (3 * n / 4).max(1);
                let below = tree.select(cutoff.saturating_sub(1));
                tree.add_level(cutoff, below);
                tree.set_top_choice(rng.gen_range(0..num));
                record.changes.push((site, old));
                true
            }
            Mutator::TreeRemoveLevel { site } => {
                let old = config.get(site).clone();
                let tree = match config.get_mut(site).as_tree_mut() {
                    Some(t) => t,
                    None => return false,
                };
                if tree.depth() == 0 {
                    return false;
                }
                let idx = rng.gen_range(0..tree.depth());
                tree.remove_level(idx);
                record.changes.push((site, old));
                true
            }
            Mutator::TreeChangeChoice { site } => {
                let num = match schema.tunable_by_id(site).kind() {
                    TunableKind::ChoiceSite { num_algorithms } => *num_algorithms,
                    _ => return false,
                };
                if num < 2 {
                    return false;
                }
                let old = config.get(site).clone();
                let tree = match config.get_mut(site).as_tree_mut() {
                    Some(t) => t,
                    None => return false,
                };
                let idx = rng.gen_range(0..=tree.depth());
                let current = if idx == tree.depth() {
                    tree.top_choice()
                } else {
                    tree.levels()[idx].choice
                };
                // Draw a different algorithm.
                let mut next = rng.gen_range(0..num - 1);
                if next >= current {
                    next += 1;
                }
                tree.set_choice(idx, next);
                record.changes.push((site, old));
                true
            }
            Mutator::TreeScaleCutoff { site } => {
                let old = config.get(site).clone();
                let tree = match config.get_mut(site).as_tree_mut() {
                    Some(t) => t,
                    None => return false,
                };
                if tree.depth() == 0 {
                    return false;
                }
                let idx = rng.gen_range(0..tree.depth());
                tree.scale_cutoff(idx, lognormal_factor(rng));
                record.changes.push((site, old));
                true
            }
            Mutator::ScaleInt { id } => {
                let old = config.get(id).clone();
                let value = match old.as_int() {
                    Some(v) => v,
                    None => return false,
                };
                let factor = lognormal_factor(rng);
                let scaled = ((value as f64) * factor).round() as i64;
                // Always move at least one step so the mutation is not a
                // no-op after rounding.
                let scaled = if scaled == value {
                    if factor >= 1.0 {
                        value + 1
                    } else {
                        value - 1
                    }
                } else {
                    scaled
                };
                let clamped = schema.tunable_by_id(id).clamp(Value::Int(scaled));
                if clamped == old {
                    return false;
                }
                config.set(id, clamped);
                record.changes.push((id, old));
                true
            }
            Mutator::UniformSwitch { id } => {
                let num = match schema.tunable_by_id(id).kind() {
                    TunableKind::Switch { num_values } => *num_values,
                    _ => return false,
                };
                if num < 2 {
                    return false;
                }
                let old = config.get(id).clone();
                let current = old.as_switch().unwrap_or(0);
                let mut next = rng.gen_range(0..num - 1);
                if next >= current {
                    next += 1;
                }
                config.set(id, Value::Switch(next));
                record.changes.push((id, old));
                true
            }
            Mutator::UniformInt { id } => {
                let (min, max) = match schema.tunable_by_id(id).kind() {
                    TunableKind::UserDefined { min, max } => (*min, *max),
                    _ => return false,
                };
                if min == max {
                    return false;
                }
                let old = config.get(id).clone();
                let next = rng.gen_range(min..=max);
                if Value::Int(next) == old {
                    return false;
                }
                config.set(id, Value::Int(next));
                record.changes.push((id, old));
                true
            }
            Mutator::UniformFloat { id } => {
                let (min, max) = match schema.tunable_by_id(id).kind() {
                    TunableKind::FloatParam { min, max } => (*min, *max),
                    _ => return false,
                };
                if min == max {
                    return false;
                }
                let old = config.get(id).clone();
                config.set(id, Value::Float(rng.gen_range(min..=max)));
                record.changes.push((id, old));
                true
            }
            Mutator::MetaMany => {
                let bases: Vec<Mutator> = self.base_mutators().copied().collect();
                if bases.is_empty() {
                    return false;
                }
                let jumps = rng.gen_range(2..=4usize);
                let mut any = false;
                for _ in 0..jumps {
                    let m = bases[rng.gen_range(0..bases.len())];
                    let mut sub = MutationRecord::default();
                    if self.apply_inner(m, config, schema, n, rng, None, &mut sub) {
                        record.changes.extend(sub.changes);
                        any = true;
                    }
                }
                any
            }
            Mutator::MetaUndo => match previous {
                Some(prev) if !prev.is_empty() => {
                    // Record current values so the undo itself can be
                    // undone, then restore.
                    for (id, _) in &prev.changes {
                        record.changes.push((*id, config.get(*id).clone()));
                    }
                    prev.undo(config);
                    true
                }
                _ => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn schema() -> Schema {
        let mut s = Schema::new("demo");
        s.add_choice_site("algo", 3);
        s.add_cutoff("block", 1, 1_000_000);
        s.add_switch("layout", 2);
        s.add_accuracy_variable("iters", 1, 10_000);
        s.add_float_param("omega", 0.5, 2.0);
        s.add_user_param("k", 2, 16);
        s
    }

    #[test]
    fn pool_contains_expected_categories() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let has = |m: &dyn Fn(&Mutator) -> bool| pool.mutators.iter().any(m);
        assert!(has(&|m| matches!(m, Mutator::TreeAddLevel { .. })));
        assert!(has(&|m| matches!(m, Mutator::ScaleInt { .. })));
        assert!(has(&|m| matches!(m, Mutator::UniformSwitch { .. })));
        assert!(has(&|m| matches!(m, Mutator::UniformFloat { .. })));
        assert!(has(&|m| matches!(m, Mutator::UniformInt { .. })));
        assert!(has(&|m| matches!(m, Mutator::MetaMany)));
        assert!(has(&|m| matches!(m, Mutator::MetaUndo)));
    }

    #[test]
    fn empty_schema_gets_empty_pool() {
        let s = Schema::new("empty");
        let pool = MutatorPool::from_schema(&s);
        assert!(pool.is_empty());
        let mut config = s.default_config();
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(pool
            .apply_random(&mut config, &s, 8, &mut rng, None)
            .is_none());
    }

    #[test]
    fn mutations_always_leave_config_valid() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let mut config = s.default_config();
        let mut rng = SmallRng::seed_from_u64(1234);
        let mut prev: Option<MutationRecord> = None;
        for step in 0..500 {
            if let Some(rec) =
                pool.apply_random(&mut config, &s, 1 << (step % 16), &mut rng, prev.as_ref())
            {
                prev = Some(rec);
            }
            config
                .validate(&s)
                .unwrap_or_else(|e| panic!("invalid config after step {step}: {e}"));
        }
    }

    #[test]
    fn add_level_uses_three_quarters_cutoff() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let (site, _) = s.tunable("algo").unwrap();
        let mut config = s.default_config();
        let mut rng = SmallRng::seed_from_u64(7);
        let rec = pool
            .apply(
                Mutator::TreeAddLevel { site },
                &mut config,
                &s,
                1000,
                &mut rng,
                None,
            )
            .unwrap();
        let tree = config.get(site).as_tree().unwrap();
        assert_eq!(tree.depth(), 1);
        assert_eq!(tree.levels()[0].cutoff, 750);
        // Behaviour below the cutoff is unchanged (choice 0 = old single).
        assert_eq!(tree.select(100), 0);
        assert!(!rec.is_empty());
    }

    #[test]
    fn remove_level_requires_depth() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let (site, _) = s.tunable("algo").unwrap();
        let mut config = s.default_config();
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(pool
            .apply(
                Mutator::TreeRemoveLevel { site },
                &mut config,
                &s,
                8,
                &mut rng,
                None
            )
            .is_none());
    }

    #[test]
    fn change_choice_always_differs() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let (site, _) = s.tunable("algo").unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..50 {
            let mut config = s.default_config();
            let before = config.get(site).as_tree().unwrap().top_choice();
            pool.apply(
                Mutator::TreeChangeChoice { site },
                &mut config,
                &s,
                8,
                &mut rng,
                None,
            )
            .unwrap();
            let after = config.get(site).as_tree().unwrap().top_choice();
            assert_ne!(before, after);
        }
    }

    #[test]
    fn scale_int_never_leaves_range_and_never_noops() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let (id, _) = s.tunable("iters").unwrap();
        let mut config = s.default_config();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let before = config.get(id).as_int().unwrap();
            if pool
                .apply(Mutator::ScaleInt { id }, &mut config, &s, 8, &mut rng, None)
                .is_some()
            {
                let after = config.get(id).as_int().unwrap();
                assert_ne!(before, after, "accepted mutation must change the value");
                assert!((1..=10_000).contains(&after));
            }
        }
    }

    #[test]
    fn undo_restores_previous_values() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let (id, _) = s.tunable("iters").unwrap();
        let mut config = s.default_config();
        // Start mid-range so scaling in either direction stays in
        // bounds and the mutation is never clamped into a no-op,
        // whatever the RNG stream produces.
        config.set(id, Value::Int(50));
        let mut rng = SmallRng::seed_from_u64(3);
        let before = config.clone();
        let rec = pool
            .apply(Mutator::ScaleInt { id }, &mut config, &s, 8, &mut rng, None)
            .unwrap();
        assert_ne!(config, before);
        let undo_rec = pool
            .apply(Mutator::MetaUndo, &mut config, &s, 8, &mut rng, Some(&rec))
            .unwrap();
        assert_eq!(config, before);
        // Undoing the undo restores the mutated state.
        pool.apply(
            Mutator::MetaUndo,
            &mut config,
            &s,
            8,
            &mut rng,
            Some(&undo_rec),
        )
        .unwrap();
        assert_ne!(config, before);
    }

    #[test]
    fn undo_without_history_is_inapplicable() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let mut config = s.default_config();
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(pool
            .apply(Mutator::MetaUndo, &mut config, &s, 8, &mut rng, None)
            .is_none());
    }

    #[test]
    fn meta_many_changes_multiple_tunables_over_time() {
        let s = schema();
        let pool = MutatorPool::from_schema(&s);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut max_changes = 0;
        for _ in 0..20 {
            let mut config = s.default_config();
            if let Some(rec) = pool.apply(Mutator::MetaMany, &mut config, &s, 64, &mut rng, None) {
                max_changes = max_changes.max(rec.changes.len());
            }
        }
        assert!(max_changes >= 2, "meta mutator should take larger jumps");
    }

    #[test]
    fn affects_accuracy_classification() {
        let s = schema();
        let (iters, _) = s.tunable("iters").unwrap();
        let (block, _) = s.tunable("block").unwrap();
        let (site, _) = s.tunable("algo").unwrap();
        assert!(Mutator::ScaleInt { id: iters }.affects_accuracy(&s));
        assert!(!Mutator::ScaleInt { id: block }.affects_accuracy(&s));
        assert!(Mutator::TreeChangeChoice { site }.affects_accuracy(&s));
        assert!(Mutator::MetaMany.affects_accuracy(&s));
    }
}
