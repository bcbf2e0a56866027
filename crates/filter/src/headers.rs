//! Typed message headers.

use crate::parser::parse_headers;
use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A header value: number, string or boolean.
///
/// Its `Display` is the one text form of a value, read back by the
/// predicate parser and by [`Headers::from_json`]: `true`/`false`, a finite
/// number as Rust's shortest round-trip decimal (never an exponent), a
/// non-finite one as `null` (which no reader accepts), and a string in
/// double quotes with JSON's escapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A 64-bit float (all numeric headers are floats).
    Num(f64),
    /// A UTF-8 string.
    Str(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) if n.is_finite() => write!(f, "{n}"),
            Value::Num(_) => f.write_str("null"),
            Value::Str(s) => quote(s, f),
        }
    }
}

/// Writes `s` as a JSON string: `\"`, `\\`, `\n`, `\r`, `\t`, `\u00XX` for
/// the other characters below U+0020, and every other character as itself.
fn quote(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_str("\"")
}

impl From<bool> for Value {
    fn from(value: bool) -> Self {
        Value::Bool(value)
    }
}

impl From<f64> for Value {
    fn from(value: f64) -> Self {
        Value::Num(value)
    }
}

impl From<i64> for Value {
    fn from(value: i64) -> Self {
        Value::Num(value as f64)
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::Str(value.to_string())
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::Str(value)
    }
}

/// A publication's headers: an ordered map from field name to [`Value`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Headers {
    fields: BTreeMap<String, Value>,
}

impl Headers {
    /// An empty header set.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Sets a field (replacing any existing value).
    pub fn set(&mut self, field: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.fields.insert(field.into(), value.into());
        self
    }

    /// The value of a field, if present.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.fields.get(field)
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether there are no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over `(field, value)` pairs in field order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serializes to a compact JSON object (used on the wire): the fields
    /// in order as `"field":value` pairs, each side in [`Value`]'s text form.
    pub fn to_json(&self) -> String {
        let pairs: Vec<String> =
            self.iter().map(|(field, value)| format!("{}:{value}", Value::from(field))).collect();
        format!("{{{}}}", pairs.join(","))
    }

    /// Parses the JSON produced by [`Headers::to_json`].
    ///
    /// # Errors
    ///
    /// Returns the [`ParseError`](crate::ParseError) as text; a `null` (a
    /// non-finite number on the way out) is an error.
    pub fn from_json(text: &str) -> Result<Self, String> {
        parse_headers(text).map_err(|e| e.to_string())
    }
}

impl FromIterator<(String, Value)> for Headers {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        Headers { fields: iter.into_iter().collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_len() {
        let mut h = Headers::new();
        assert!(h.is_empty());
        h.set("price", 10.5).set("symbol", "X").set("halted", false);
        assert_eq!(h.len(), 3);
        assert_eq!(h.get("price"), Some(&Value::Num(10.5)));
        assert_eq!(h.get("symbol"), Some(&Value::Str("X".into())));
        assert_eq!(h.get("halted"), Some(&Value::Bool(false)));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn integer_values_become_numbers() {
        let mut h = Headers::new();
        h.set("count", 42i64);
        assert_eq!(h.get("count"), Some(&Value::Num(42.0)));
    }

    #[test]
    fn json_roundtrip() {
        let mut h = Headers::new();
        h.set("price", 10.5).set("symbol", "ACME").set("live", true);
        let json = h.to_json();
        let back = Headers::from_json(&json).unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn bad_json_reports_error() {
        assert!(Headers::from_json("[1,2]").is_err());
        assert!(Headers::from_json("{").is_err());
    }

    #[test]
    fn wire_form() {
        let mut h = Headers::new();
        h.set("symbol", "AAPL").set("price", 101.5).set("halted", false);
        assert_eq!(h.to_json(), r#"{"halted":false,"price":101.5,"symbol":"AAPL"}"#);
        assert_eq!(Headers::new().to_json(), "{}");
        assert_eq!(Headers::from_json(" { } ").unwrap(), Headers::new());
        // An integer-valued number prints without a fraction and reads back
        // as the same float.
        let json = Headers::new().set("count", 42i64).to_json();
        assert_eq!(json, r#"{"count":42}"#);
        assert_eq!(Headers::from_json(&json).unwrap().get("count"), Some(&Value::Num(42.0)));
        // A non-finite number has no JSON form: it is written as `null`,
        // which does not read back.
        let json = Headers::new().set("x", f64::NAN).to_json();
        assert_eq!(json, r#"{"x":null}"#);
        assert!(Headers::from_json(&json).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Num(1.5).to_string(), "1.5");
        assert_eq!(Value::Num(1e21).to_string(), "1000000000000000000000");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Str("a".into()).to_string(), "\"a\"");
        assert_eq!(
            Value::Str("\"\\\n\r\t\u{0}\u{1f}\u{7f}é😀".into()).to_string(),
            "\"\\\"\\\\\\n\\r\\t\\u0000\\u001f\u{7f}é😀\""
        );
    }
}
