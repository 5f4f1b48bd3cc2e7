//! Free-form JSON on top of the vendored `serde` stand-in, whose value
//! tree implements neither of its own traits.

pub use serde::json::Value;

/// A JSON value that round-trips through `serde_json` as itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Value);

impl serde::Serialize for Json {
    fn to_json(&self) -> Value {
        self.0.clone()
    }
}

impl serde::Deserialize for Json {
    fn from_json(v: &Value) -> Result<Self, String> {
        Ok(Json(v.clone()))
    }
}

/// An object from `(key, value)` pairs, in the given order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A number. Non-finite values have no JSON form; they become 0 so a
/// degenerate measurement can never make the result line unparsable.
pub fn num(value: f64) -> Value {
    Value::Float(if value.is_finite() { value } else { 0.0 })
}

/// A whole number.
pub fn int(value: u64) -> Value {
    Value::Int(i64::try_from(value).unwrap_or(i64::MAX))
}

/// A string.
pub fn text(value: impl Into<String>) -> Value {
    Value::Str(value.into())
}

/// Compact one-line rendering.
pub fn line(value: Value) -> String {
    serde_json::to_string(&Json(value)).expect("the stand-in serializer is total")
}

/// Indented rendering.
pub fn pretty(value: Value) -> String {
    serde_json::to_string_pretty(&Json(value)).expect("the stand-in serializer is total")
}

/// Parses JSON text into a value tree.
///
/// # Errors
///
/// Malformed JSON.
pub fn parse(source: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(source)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// The elements of an array value (empty for anything else).
pub fn items(value: Option<&Value>) -> &[Value] {
    match value {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

/// The string at `key` of an object value.
pub fn str_at<'v>(value: &'v Value, key: &str) -> Option<&'v str> {
    match value.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}
