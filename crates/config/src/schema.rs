//! Tunable inventories extracted by static analysis.
//!
//! The compiler's training-information file describes "all the logical
//! constructs in the configuration file" (§5.3). A [`Schema`] is that
//! description: the ordered list of tunables, each with a kind and legal
//! range, from which the tuner generates its mutator pool fully
//! automatically (§5.4).

use crate::config::Config;
use crate::tree::DecisionTree;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Index of a tunable within its [`Schema`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TunableId(pub usize);

impl fmt::Display for TunableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// The category of a tunable, which determines its value representation
/// and which mutators apply to it (§5.2, §5.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TunableKind {
    /// An algorithmic choice site, tuned with a [`DecisionTree`] over
    /// input sizes. `num_algorithms` rules can satisfy this site.
    ChoiceSite {
        /// How many alternative algorithms exist at this site.
        num_algorithms: usize,
    },
    /// A size-like cutoff (blocking size, sequential/parallel switch
    /// point). Mutated with log-normal scaling.
    Cutoff {
        /// Smallest legal value.
        min: i64,
        /// Largest legal value.
        max: i64,
    },
    /// A small categorical switch (e.g. storage layout). Mutated with a
    /// discrete uniform draw.
    Switch {
        /// Number of legal values (`0..num_values`).
        num_values: usize,
    },
    /// An `accuracy_variable` (§3.2): an algorithm-specific parameter
    /// that influences accuracy, such as the iteration count of a
    /// `for_enough` loop or the number of clusters `k`.
    AccuracyVariable {
        /// Smallest legal value.
        min: i64,
        /// Largest legal value.
        max: i64,
    },
    /// A continuous parameter (e.g. an over-relaxation weight).
    FloatParam {
        /// Smallest legal value.
        min: f64,
        /// Largest legal value.
        max: f64,
    },
    /// A user-defined integer parameter passed through untouched except
    /// for range clamping.
    UserDefined {
        /// Smallest legal value.
        min: i64,
        /// Largest legal value.
        max: i64,
    },
}

impl TunableKind {
    /// Whether mutations to this tunable can change program accuracy.
    ///
    /// The tuner "conservatively assumes all mutators affect accuracy"
    /// when retesting (§5.4), but *guided mutation* (§5.5.3) hill-climbs
    /// only on tunables for which this returns `true`.
    pub fn affects_accuracy(&self) -> bool {
        matches!(
            self,
            TunableKind::AccuracyVariable { .. } | TunableKind::ChoiceSite { .. }
        )
    }
}

/// One tunable: a named decision the autotuner controls.
#[derive(Debug, Clone, PartialEq)]
pub struct Tunable {
    name: String,
    kind: TunableKind,
    default: Value,
}

impl Tunable {
    /// The tunable's name (unique within its schema).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tunable's kind.
    pub fn kind(&self) -> &TunableKind {
        &self.kind
    }

    /// Checks that `value` has the right variant and is within range.
    pub fn accepts(&self, value: &Value) -> bool {
        match (&self.kind, value) {
            (TunableKind::ChoiceSite { num_algorithms }, Value::Tree(t)) => {
                t.is_valid_for(*num_algorithms)
            }
            (TunableKind::Cutoff { min, max }, Value::Int(v))
            | (TunableKind::AccuracyVariable { min, max }, Value::Int(v))
            | (TunableKind::UserDefined { min, max }, Value::Int(v)) => v >= min && v <= max,
            (TunableKind::Switch { num_values }, Value::Switch(v)) => v < num_values,
            (TunableKind::FloatParam { min, max }, Value::Float(v)) => {
                v.is_finite() && v >= min && v <= max
            }
            _ => false,
        }
    }

    /// Clamps `value` into this tunable's legal range (variant must
    /// already match; decision-tree values are returned unchanged if
    /// valid).
    pub fn clamp(&self, value: Value) -> Value {
        match (&self.kind, value) {
            (TunableKind::Cutoff { min, max }, Value::Int(v))
            | (TunableKind::AccuracyVariable { min, max }, Value::Int(v))
            | (TunableKind::UserDefined { min, max }, Value::Int(v)) => {
                Value::Int(v.clamp(*min, *max))
            }
            (TunableKind::Switch { num_values }, Value::Switch(v)) => {
                Value::Switch(v.min(num_values.saturating_sub(1)))
            }
            (TunableKind::FloatParam { min, max }, Value::Float(v)) => {
                Value::Float(v.clamp(*min, *max))
            }
            (_, v) => v,
        }
    }
}

/// The full tunable inventory for one transform.
///
/// # Examples
///
/// ```
/// use pb_config::{Schema, TunableKind};
///
/// let mut schema = Schema::new("binpacking");
/// let site = schema.add_choice_site("pack_algorithm", 13);
/// let k = schema.add_user_param("almost_worst_k", 2, 16);
/// assert_eq!(schema.len(), 2);
/// assert_eq!(schema.tunable_by_id(site).name(), "pack_algorithm");
/// assert!(matches!(
///     schema.tunable_by_id(k).kind(),
///     TunableKind::UserDefined { .. }
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct Schema {
    name: String,
    tunables: Vec<Tunable>,
    by_name: HashMap<String, TunableId>,
}

impl Schema {
    /// Creates an empty schema for the transform `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Schema {
            name: name.into(),
            tunables: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// The transform name this schema belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of tunables.
    pub fn len(&self) -> usize {
        self.tunables.len()
    }

    /// Whether the schema has no tunables.
    pub fn is_empty(&self) -> bool {
        self.tunables.is_empty()
    }

    /// Iterates over `(id, tunable)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TunableId, &Tunable)> {
        self.tunables
            .iter()
            .enumerate()
            .map(|(i, t)| (TunableId(i), t))
    }

    /// Looks a tunable up by name.
    pub fn tunable(&self, name: &str) -> Option<(TunableId, &Tunable)> {
        let id = *self.by_name.get(name)?;
        Some((id, &self.tunables[id.0]))
    }

    /// Returns the tunable with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn tunable_by_id(&self, id: TunableId) -> &Tunable {
        &self.tunables[id.0]
    }

    /// Adds a tunable with an explicit kind and default.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken or the default is not legal
    /// for the kind.
    pub fn add(&mut self, name: impl Into<String>, kind: TunableKind, default: Value) -> TunableId {
        let name = name.into();
        assert!(
            !self.by_name.contains_key(&name),
            "duplicate tunable name {name:?}"
        );
        let tunable = Tunable {
            name: name.clone(),
            kind,
            default,
        };
        assert!(
            tunable.accepts(&tunable.default),
            "default value {:?} is illegal for tunable {name:?} of kind {kind:?}",
            tunable.default
        );
        let id = TunableId(self.tunables.len());
        self.tunables.push(tunable);
        self.by_name.insert(name, id);
        id
    }

    /// Adds an algorithm-choice site with `num_algorithms` rules; the
    /// default decision tree always picks rule 0.
    pub fn add_choice_site(&mut self, name: impl Into<String>, num_algorithms: usize) -> TunableId {
        assert!(
            num_algorithms > 0,
            "a choice site needs at least one algorithm"
        );
        self.add(
            name,
            TunableKind::ChoiceSite { num_algorithms },
            Value::Tree(DecisionTree::single(0)),
        )
    }

    /// Adds a size-like cutoff defaulting to its minimum.
    pub fn add_cutoff(&mut self, name: impl Into<String>, min: i64, max: i64) -> TunableId {
        assert!(min <= max, "cutoff range is empty");
        self.add(name, TunableKind::Cutoff { min, max }, Value::Int(min))
    }

    /// Adds a categorical switch defaulting to value 0.
    pub fn add_switch(&mut self, name: impl Into<String>, num_values: usize) -> TunableId {
        assert!(num_values > 0, "a switch needs at least one value");
        self.add(name, TunableKind::Switch { num_values }, Value::Switch(0))
    }

    /// Adds an `accuracy_variable` defaulting to its minimum.
    pub fn add_accuracy_variable(
        &mut self,
        name: impl Into<String>,
        min: i64,
        max: i64,
    ) -> TunableId {
        self.add_accuracy_variable_with_default(name, min, max, min)
    }

    /// Adds an `accuracy_variable` with an explicit default (useful
    /// when the range minimum — e.g. zero relaxations — produces a
    /// degenerate starting algorithm the mutators would have to climb
    /// out of).
    pub fn add_accuracy_variable_with_default(
        &mut self,
        name: impl Into<String>,
        min: i64,
        max: i64,
        default: i64,
    ) -> TunableId {
        assert!(min <= max, "accuracy variable range is empty");
        assert!((min..=max).contains(&default), "default outside the range");
        self.add(
            name,
            TunableKind::AccuracyVariable { min, max },
            Value::Int(default),
        )
    }

    /// Adds a continuous parameter defaulting to the range midpoint.
    pub fn add_float_param(&mut self, name: impl Into<String>, min: f64, max: f64) -> TunableId {
        assert!(
            min <= max && min.is_finite() && max.is_finite(),
            "bad float range"
        );
        self.add(
            name,
            TunableKind::FloatParam { min, max },
            Value::Float(0.5 * (min + max)),
        )
    }

    /// Adds a user-defined integer parameter defaulting to its minimum.
    pub fn add_user_param(&mut self, name: impl Into<String>, min: i64, max: i64) -> TunableId {
        assert!(min <= max, "user parameter range is empty");
        self.add(name, TunableKind::UserDefined { min, max }, Value::Int(min))
    }

    /// Builds the default configuration (every tunable at its default).
    pub fn default_config(&self) -> Config {
        Config::from_values(
            self.name.clone(),
            self.tunables.iter().map(|t| t.default.clone()).collect(),
        )
    }

    /// Ids of tunables whose kind [`TunableKind::affects_accuracy`],
    /// used by guided mutation (§5.5.3).
    pub fn accuracy_tunables(&self) -> Vec<TunableId> {
        self.iter()
            .filter(|(_, t)| t.kind().affects_accuracy())
            .map(|(id, _)| id)
            .collect()
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.tunables == other.tunables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        let mut s = Schema::new("demo");
        s.add_choice_site("algo", 3);
        s.add_cutoff("block", 1, 4096);
        s.add_switch("layout", 2);
        s.add_accuracy_variable("iters", 1, 1000);
        s.add_float_param("omega", 0.5, 2.0);
        s.add_user_param("k", 2, 16);
        s
    }

    #[test]
    fn lookup_by_name_and_id_agree() {
        let s = sample_schema();
        let (id, t) = s.tunable("iters").unwrap();
        assert_eq!(t.name(), "iters");
        assert_eq!(s.tunable_by_id(id).name(), "iters");
        assert!(s.tunable("nonexistent").is_none());
    }

    #[test]
    fn default_config_is_valid() {
        let s = sample_schema();
        let c = s.default_config();
        assert_eq!(c.len(), s.len());
        assert!(c.validate(&s).is_ok());
    }

    #[test]
    fn accuracy_tunables_are_choice_sites_and_accuracy_vars() {
        let s = sample_schema();
        let ids = s.accuracy_tunables();
        let names: Vec<&str> = ids.iter().map(|&id| s.tunable_by_id(id).name()).collect();
        assert_eq!(names, vec!["algo", "iters"]);
    }

    #[test]
    fn accepts_enforces_ranges() {
        let s = sample_schema();
        let (_, block) = s.tunable("block").unwrap();
        assert!(block.accepts(&Value::Int(1)));
        assert!(block.accepts(&Value::Int(4096)));
        assert!(!block.accepts(&Value::Int(0)));
        assert!(!block.accepts(&Value::Int(5000)));
        assert!(!block.accepts(&Value::Switch(1)), "wrong variant rejected");

        let (_, layout) = s.tunable("layout").unwrap();
        assert!(layout.accepts(&Value::Switch(1)));
        assert!(!layout.accepts(&Value::Switch(2)));

        let (_, algo) = s.tunable("algo").unwrap();
        assert!(algo.accepts(&Value::Tree(DecisionTree::single(2))));
        assert!(!algo.accepts(&Value::Tree(DecisionTree::single(3))));
    }

    #[test]
    fn clamp_pulls_values_into_range() {
        let s = sample_schema();
        let (_, block) = s.tunable("block").unwrap();
        assert_eq!(block.clamp(Value::Int(0)), Value::Int(1));
        assert_eq!(block.clamp(Value::Int(10_000)), Value::Int(4096));
        let (_, omega) = s.tunable("omega").unwrap();
        assert_eq!(omega.clamp(Value::Float(9.0)), Value::Float(2.0));
    }

    #[test]
    #[should_panic(expected = "duplicate tunable name")]
    fn duplicate_names_rejected() {
        let mut s = Schema::new("x");
        s.add_switch("a", 2);
        s.add_switch("a", 3);
    }
}
