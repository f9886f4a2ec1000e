//! Thin adapters between the shim `serde::Value` tree and JSON text: the
//! benchmark builds its reports as value trees and reads its children's
//! result lines back the same way.

use serde::{DeError, Deserialize, Serialize, Value};

struct Tree<'a>(&'a Value);

impl Serialize for Tree<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

struct Owned(Value);

impl Deserialize for Owned {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(Owned(value.clone()))
    }
}

/// Compact JSON text of `value`.
#[must_use]
pub fn render(value: &Value) -> String {
    serde_json::to_string(&Tree(value)).expect("the shim serializer is infallible")
}

/// Indented JSON text of `value`.
#[must_use]
pub fn render_pretty(value: &Value) -> String {
    serde_json::to_string_pretty(&Tree(value)).expect("the shim serializer is infallible")
}

/// Parses JSON text into a value tree.
///
/// # Errors
/// Malformed JSON.
pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Owned>(text)
        .map(|o| o.0)
        .map_err(|e| e.to_string())
}

/// A number field of a map, integers included.
#[must_use]
pub fn num(value: &Value, key: &str) -> Option<f64> {
    match value.get(key)? {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// A string field of a map.
#[must_use]
pub fn text<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    match value.get(key)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// The entries of a map field (empty when absent or not a map).
#[must_use]
pub fn entries<'a>(value: &'a Value, key: &str) -> &'a [(String, Value)] {
    match value.get(key) {
        Some(Value::Map(e)) => e,
        _ => &[],
    }
}
