//! Choice configuration files (§5.2).
//!
//! A [`Config`] is one candidate algorithm: an assignment of a value to
//! every tunable declared in a [`Schema`]. Configurations are what the
//! genetic tuner mutates, what gets written to disk after training, and
//! what the runtime consults when executing a transform.

use crate::schema::{Schema, TunableId};
use crate::value::Value;
use std::fmt;

/// Errors produced when validating or querying a configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The configuration has a different number of values than the
    /// schema has tunables.
    LengthMismatch {
        /// Values present in the config.
        config: usize,
        /// Tunables declared by the schema.
        schema: usize,
    },
    /// A tunable name was not found in the schema.
    UnknownTunable(String),
    /// A value has the wrong variant or is out of range for its tunable.
    IllegalValue {
        /// The offending tunable's name.
        tunable: String,
        /// Debug rendering of the offending value.
        value: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LengthMismatch { config, schema } => write!(
                f,
                "configuration has {config} values but the schema declares {schema} tunables"
            ),
            ConfigError::UnknownTunable(name) => {
                write!(f, "unknown tunable {name:?}")
            }
            ConfigError::IllegalValue { tunable, value } => {
                write!(f, "value {value} is illegal for tunable {tunable:?}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One candidate algorithm: a value for every tunable in a schema.
///
/// # Examples
///
/// ```
/// use pb_config::{Schema, Value};
///
/// let mut schema = Schema::new("sort");
/// schema.add_choice_site("sorter", 3);
/// schema.add_cutoff("insertion_cutoff", 1, 1024);
/// let mut cfg = schema.default_config();
/// cfg.set_by_name(&schema, "insertion_cutoff", Value::Int(64)).unwrap();
/// assert_eq!(cfg.int(&schema, "insertion_cutoff").unwrap(), 64);
/// assert_eq!(cfg.choice(&schema, "sorter", 10_000).unwrap(), 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    transform: String,
    values: Vec<Value>,
}

serde::json_object!(Config { transform, values });

impl Config {
    /// Builds a configuration directly from values (callers normally use
    /// [`Schema::default_config`] instead).
    pub fn from_values(transform: String, values: Vec<Value>) -> Self {
        Config { transform, values }
    }

    /// Name of the transform this configuration belongs to.
    pub fn transform(&self) -> &str {
        &self.transform
    }

    /// Number of values stored.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the configuration is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// All values in schema (tunable-id) order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Returns the value for a tunable id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: TunableId) -> &Value {
        &self.values[id.0]
    }

    /// Mutable access to the value for a tunable id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get_mut(&mut self, id: TunableId) -> &mut Value {
        &mut self.values[id.0]
    }

    /// Replaces the value for a tunable id without validation (the tuner
    /// clamps through the schema before calling this).
    pub fn set(&mut self, id: TunableId, value: Value) {
        self.values[id.0] = value;
    }

    /// Sets a value by tunable name, validating it against the schema.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownTunable`] for a bad name and
    /// [`ConfigError::IllegalValue`] if the value is out of range or of
    /// the wrong variant.
    pub fn set_by_name(
        &mut self,
        schema: &Schema,
        name: &str,
        value: Value,
    ) -> Result<(), ConfigError> {
        let (id, tunable) = schema
            .tunable(name)
            .ok_or_else(|| ConfigError::UnknownTunable(name.to_owned()))?;
        if !tunable.accepts(&value) {
            return Err(ConfigError::IllegalValue {
                tunable: name.to_owned(),
                value: format!("{value:?}"),
            });
        }
        self.set(id, value);
        Ok(())
    }

    /// Reads an integer tunable (cutoff, accuracy variable, or user
    /// parameter) by name.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or non-integer tunables.
    pub fn int(&self, schema: &Schema, name: &str) -> Result<i64, ConfigError> {
        let (id, _) = schema
            .tunable(name)
            .ok_or_else(|| ConfigError::UnknownTunable(name.to_owned()))?;
        self.get(id)
            .as_int()
            .ok_or_else(|| ConfigError::IllegalValue {
                tunable: name.to_owned(),
                value: format!("{:?}", self.get(id)),
            })
    }

    /// Reads a float tunable by name.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or non-float tunables.
    pub fn float(&self, schema: &Schema, name: &str) -> Result<f64, ConfigError> {
        let (id, _) = schema
            .tunable(name)
            .ok_or_else(|| ConfigError::UnknownTunable(name.to_owned()))?;
        self.get(id)
            .as_float()
            .ok_or_else(|| ConfigError::IllegalValue {
                tunable: name.to_owned(),
                value: format!("{:?}", self.get(id)),
            })
    }

    /// Reads a switch tunable by name.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or non-switch tunables.
    pub fn switch(&self, schema: &Schema, name: &str) -> Result<usize, ConfigError> {
        let (id, _) = schema
            .tunable(name)
            .ok_or_else(|| ConfigError::UnknownTunable(name.to_owned()))?;
        self.get(id)
            .as_switch()
            .ok_or_else(|| ConfigError::IllegalValue {
                tunable: name.to_owned(),
                value: format!("{:?}", self.get(id)),
            })
    }

    /// Like [`Config::int`] with a pre-resolved [`TunableId`], for hot
    /// paths that cache name resolution (same errors as the by-name
    /// accessor, minus the unknown-name case the id rules out).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::IllegalValue`] for non-integer tunables.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this configuration.
    pub fn int_by_id(&self, schema: &Schema, id: TunableId) -> Result<i64, ConfigError> {
        self.get(id)
            .as_int()
            .ok_or_else(|| ConfigError::IllegalValue {
                tunable: schema.tunable_by_id(id).name().to_owned(),
                value: format!("{:?}", self.get(id)),
            })
    }

    /// Like [`Config::choice`] with a pre-resolved [`TunableId`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::IllegalValue`] for non-choice tunables.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this configuration.
    pub fn choice_by_id(
        &self,
        schema: &Schema,
        id: TunableId,
        n: u64,
    ) -> Result<usize, ConfigError> {
        self.get(id)
            .as_tree()
            .map(|t| t.select(n))
            .ok_or_else(|| ConfigError::IllegalValue {
                tunable: schema.tunable_by_id(id).name().to_owned(),
                value: format!("{:?}", self.get(id)),
            })
    }

    /// Resolves the algorithm index for choice site `name` at input size
    /// `n` by consulting its decision tree.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown names or non-choice-site tunables.
    pub fn choice(&self, schema: &Schema, name: &str, n: u64) -> Result<usize, ConfigError> {
        let (id, _) = schema
            .tunable(name)
            .ok_or_else(|| ConfigError::UnknownTunable(name.to_owned()))?;
        self.get(id)
            .as_tree()
            .map(|t| t.select(n))
            .ok_or_else(|| ConfigError::IllegalValue {
                tunable: name.to_owned(),
                value: format!("{:?}", self.get(id)),
            })
    }

    /// Validates every value against the schema.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self, schema: &Schema) -> Result<(), ConfigError> {
        if self.values.len() != schema.len() {
            return Err(ConfigError::LengthMismatch {
                config: self.values.len(),
                schema: schema.len(),
            });
        }
        for (id, tunable) in schema.iter() {
            let value = self.get(id);
            if !tunable.accepts(value) {
                return Err(ConfigError::IllegalValue {
                    tunable: tunable.name().to_owned(),
                    value: format!("{value:?}"),
                });
            }
        }
        Ok(())
    }

    /// Serializes to a pretty JSON config file body.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("Config serialization cannot fail")
    }

    /// Parses a configuration from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error message.
    pub fn from_json(json: &str) -> Result<Self, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.transform)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DecisionTree;

    /// The persisted form of a config holding every value variant and a
    /// two-level tree. Config files already on disk are in this form,
    /// so it may not move by a byte.
    const GOLDEN: &str = r#"{
  "transform": "golden",
  "values": [
    {
      "Int": -3
    },
    {
      "Float": 0.25
    },
    {
      "Switch": 2
    },
    {
      "Tree": {
        "levels": [
          {
            "cutoff": 64,
            "choice": 2
          },
          {
            "cutoff": 4096,
            "choice": 1
          }
        ],
        "top_choice": 0
      }
    }
  ]
}"#;

    #[test]
    fn json_form_is_pinned() {
        let mut tree = DecisionTree::single(0);
        tree.add_level(64, 2);
        tree.add_level(4096, 1);
        let values = vec![
            Value::Int(-3),
            Value::Float(0.25),
            Value::Switch(2),
            Value::Tree(tree),
        ];
        let config = Config::from_values("golden".into(), values);
        assert_eq!(config.to_json(), GOLDEN);
        assert_eq!(Config::from_json(GOLDEN).unwrap(), config);
    }

    #[test]
    fn integers_load_exactly_or_not_at_all() {
        // 2^53 + 1 has no `f64`, and 1e300 no `i64`: read through a
        // float, each would load as a different integer.
        let cutoff = r#"{"transform": "t", "values": [{"Tree": {"levels":
            [{"cutoff": 9007199254740993.0, "choice": 1}], "top_choice": 0}}]}"#;
        let int = r#"{"transform": "t", "values": [{"Int": 1e300}]}"#;
        for json in [cutoff, int] {
            let err = Config::from_json(json).unwrap_err();
            assert!(err.starts_with("expected integer"), "{err}");
        }
        let exact = Config::from_json(&cutoff.replace("993.0", "993")).unwrap();
        let tree = exact.values()[0].as_tree().unwrap();
        assert_eq!(tree.levels()[0].cutoff, 9_007_199_254_740_993);
    }

    fn schema() -> Schema {
        let mut s = Schema::new("demo");
        s.add_choice_site("algo", 3);
        s.add_cutoff("block", 1, 4096);
        s.add_switch("layout", 2);
        s.add_accuracy_variable("iters", 1, 1000);
        s
    }

    #[test]
    fn typed_getters_work() {
        let s = schema();
        let c = s.default_config();
        assert_eq!(c.int(&s, "block").unwrap(), 1);
        assert_eq!(c.switch(&s, "layout").unwrap(), 0);
        assert_eq!(c.choice(&s, "algo", 123).unwrap(), 0);
        assert_eq!(c.int(&s, "iters").unwrap(), 1);
    }

    #[test]
    fn wrong_kind_getter_errors() {
        let s = schema();
        let c = s.default_config();
        assert!(matches!(
            c.int(&s, "algo"),
            Err(ConfigError::IllegalValue { .. })
        ));
        assert!(matches!(
            c.choice(&s, "block", 1),
            Err(ConfigError::IllegalValue { .. })
        ));
        assert!(matches!(
            c.int(&s, "missing"),
            Err(ConfigError::UnknownTunable(_))
        ));
    }

    #[test]
    fn by_id_getters_match_by_name() {
        let s = schema();
        let c = s.default_config();
        let (block, _) = s.tunable("block").unwrap();
        assert_eq!(c.int_by_id(&s, block).unwrap(), c.int(&s, "block").unwrap());
        let (algo, _) = s.tunable("algo").unwrap();
        assert_eq!(
            c.choice_by_id(&s, algo, 77).unwrap(),
            c.choice(&s, "algo", 77).unwrap()
        );
        // Wrong-kind errors render identically to the by-name path.
        assert_eq!(c.int_by_id(&s, algo), c.int(&s, "algo"));
        assert_eq!(c.choice_by_id(&s, block, 1), c.choice(&s, "block", 1));
    }

    #[test]
    fn set_by_name_validates() {
        let s = schema();
        let mut c = s.default_config();
        c.set_by_name(&s, "block", Value::Int(64)).unwrap();
        assert_eq!(c.int(&s, "block").unwrap(), 64);
        assert!(c.set_by_name(&s, "block", Value::Int(0)).is_err());
        assert!(c.set_by_name(&s, "block", Value::Switch(1)).is_err());
        assert!(c.set_by_name(&s, "missing", Value::Int(1)).is_err());
    }

    #[test]
    fn decision_tree_choice_resolves_by_size() {
        let s = schema();
        let mut c = s.default_config();
        let mut tree = DecisionTree::single(2);
        tree.add_level(100, 1);
        c.set_by_name(&s, "algo", Value::Tree(tree)).unwrap();
        assert_eq!(c.choice(&s, "algo", 10).unwrap(), 1);
        assert_eq!(c.choice(&s, "algo", 100).unwrap(), 2);
    }

    #[test]
    fn validate_catches_violations() {
        let s = schema();
        let mut c = s.default_config();
        assert!(c.validate(&s).is_ok());
        // Bypass validation with raw set, then check validate() notices.
        let (id, _) = s.tunable("iters").unwrap();
        c.set(id, Value::Int(0));
        assert!(matches!(
            c.validate(&s),
            Err(ConfigError::IllegalValue { .. })
        ));
    }

    #[test]
    fn validate_catches_length_mismatch() {
        let s = schema();
        let c = Config::from_values("demo".into(), vec![Value::Int(1)]);
        assert!(matches!(
            c.validate(&s),
            Err(ConfigError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn json_round_trip() {
        let s = schema();
        let mut c = s.default_config();
        c.set_by_name(&s, "block", Value::Int(256)).unwrap();
        let json = c.to_json();
        let back = Config::from_json(&json).unwrap();
        assert_eq!(c, back);
        assert!(back.validate(&s).is_ok());
    }

    #[test]
    fn display_mentions_transform_name() {
        let s = schema();
        let c = s.default_config();
        let shown = c.to_string();
        assert!(shown.starts_with("demo{"));
    }
}
