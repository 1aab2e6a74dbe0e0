//! Small constructors for the JSON the benchmark prints.

use serde_json::Number;
pub use serde_json::Value;

/// A whole number.
pub fn int(v: u64) -> Value {
    Value::Number(Number::from_i128(v as i128))
}

/// A measured number, printed with all its digits.
pub fn num(v: f64) -> Value {
    Value::Number(Number::from_f64(v))
}

/// A string.
pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// An object whose keys keep the given order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}
