//! Values that a single tunable can take.

use crate::tree::DecisionTree;
use serde::json::Value as Json;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The value assigned to one tunable inside a [`crate::Config`].
///
/// The variant must match the tunable's [`crate::TunableKind`]:
/// integer-like kinds (cutoffs, accuracy variables, user parameters) use
/// [`Value::Int`], switches use [`Value::Switch`], and algorithm-choice
/// sites use [`Value::Tree`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// An integer-valued tunable (cutoff, accuracy variable, user
    /// parameter).
    Int(i64),
    /// A continuous tunable (e.g. a relaxation weight).
    Float(f64),
    /// A small categorical switch.
    Switch(usize),
    /// A decision tree for an algorithm-choice site.
    Tree(DecisionTree),
}

impl Value {
    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, if this is a [`Value::Float`].
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the switch payload, if this is a [`Value::Switch`].
    pub fn as_switch(&self) -> Option<usize> {
        match self {
            Value::Switch(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the decision tree, if this is a [`Value::Tree`].
    pub fn as_tree(&self) -> Option<&DecisionTree> {
        match self {
            Value::Tree(t) => Some(t),
            _ => None,
        }
    }

    /// Mutable access to the decision tree, if this is a [`Value::Tree`].
    pub fn as_tree_mut(&mut self) -> Option<&mut DecisionTree> {
        match self {
            Value::Tree(t) => Some(t),
            _ => None,
        }
    }
}

/// Externally tagged: `{"Int": 3}`, `{"Tree": {…}}`.
impl Serialize for Value {
    fn to_json(&self) -> Json {
        let (tag, payload) = match self {
            Value::Int(v) => ("Int", v.to_json()),
            Value::Float(v) => ("Float", v.to_json()),
            Value::Switch(v) => ("Switch", v.to_json()),
            Value::Tree(t) => ("Tree", t.to_json()),
        };
        Json::Obj(vec![(tag.to_owned(), payload)])
    }
}

impl Deserialize for Value {
    fn from_json(v: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = v else {
            return Err(format!("expected a tagged config value, found {v:?}"));
        };
        let [(tag, payload)] = &fields[..] else {
            return Err(format!(
                "a config value has one tag, found {}",
                fields.len()
            ));
        };
        match tag.as_str() {
            "Int" => i64::from_json(payload).map(Value::Int),
            "Float" => f64::from_json(payload).map(Value::Float),
            "Switch" => usize::from_json(payload).map(Value::Switch),
            "Tree" => DecisionTree::from_json(payload).map(Value::Tree),
            other => Err(format!("unknown config value variant `{other}`")),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Switch(v) => write!(f, "#{v}"),
            Value::Tree(t) => {
                write!(f, "tree[")?;
                for l in t.levels() {
                    write!(f, "<{}:{} ", l.cutoff, l.choice)?;
                }
                write!(f, "*:{}]", t.top_choice())
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<DecisionTree> for Value {
    fn from(t: DecisionTree) -> Self {
        Value::Tree(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Int(3).as_float(), None);
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Switch(1).as_switch(), Some(1));
        let t = Value::Tree(DecisionTree::single(4));
        assert_eq!(t.as_tree().unwrap().top_choice(), 4);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Value::Int(-7).to_string(), "-7");
        assert_eq!(Value::Switch(2).to_string(), "#2");
        let mut tree = DecisionTree::single(0);
        tree.add_level(16, 1);
        assert_eq!(Value::Tree(tree).to_string(), "tree[<16:1 *:0]");
    }

    #[test]
    fn serde_round_trip_all_variants() {
        for v in [
            Value::Int(42),
            Value::Float(0.5),
            Value::Switch(3),
            Value::Tree(DecisionTree::single(1)),
        ] {
            let json = serde_json::to_string(&v).unwrap();
            let back: Value = serde_json::from_str(&json).unwrap();
            assert_eq!(v, back);
        }
    }
}
