//! Predicate AST and evaluation.

use crate::headers::{Headers, Value};
use crate::parser::{parse, ParseError};
use std::fmt;

/// A comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=^` — string prefix match.
    Prefix,
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            CompareOp::Eq => "==",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
            CompareOp::Prefix => "=^",
        };
        f.write_str(text)
    }
}

/// A content filter predicate over message [`Headers`].
///
/// Evaluation is total: comparisons against missing fields or mismatched
/// types are `false` (and therefore `!=` against a missing field is also
/// `false` — absence is not inequality).
///
/// Field names are non-empty words over `[A-Za-z0-9_./-]`, the grammar's
/// field token. For every predicate whose field names keep that rule and
/// whose numbers are finite, `Display` writes text that [`Predicate::parse`]
/// reads back as the same predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true — the subscription behaves topic-based.
    True,
    /// Logical conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Logical disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Logical negation.
    Not(Box<Predicate>),
    /// The field is present (any value).
    Exists(String),
    /// `field op literal`.
    Compare {
        /// Header field name.
        field: String,
        /// The operator.
        op: CompareOp,
        /// The literal to compare against.
        value: Value,
    },
}

impl Predicate {
    /// Parses a predicate from its textual form (see the crate docs for
    /// the grammar).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with the offending position.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        parse(text)
    }

    /// Evaluates the predicate against a publication's headers.
    pub fn matches(&self, headers: &Headers) -> bool {
        match self {
            Predicate::True => true,
            Predicate::And(a, b) => a.matches(headers) && b.matches(headers),
            Predicate::Or(a, b) => a.matches(headers) || b.matches(headers),
            Predicate::Not(inner) => !inner.matches(headers),
            Predicate::Exists(field) => headers.get(field).is_some(),
            Predicate::Compare { field, op, value } => match headers.get(field) {
                None => false,
                Some(actual) => compare(actual, *op, value),
            },
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => f.write_str("true"),
            Predicate::And(a, b) => write!(f, "({a} && {b})"),
            Predicate::Or(a, b) => write!(f, "({a} || {b})"),
            Predicate::Not(inner) => write!(f, "!{inner}"),
            Predicate::Exists(field) => write!(f, "exists({field})"),
            Predicate::Compare { field, op, value } => write!(f, "{field} {op} {value}"),
        }
    }
}

fn compare(actual: &Value, op: CompareOp, expected: &Value) -> bool {
    match (actual, expected) {
        (Value::Num(a), Value::Num(b)) => match op {
            CompareOp::Eq => a == b,
            CompareOp::Ne => a != b,
            CompareOp::Lt => a < b,
            CompareOp::Le => a <= b,
            CompareOp::Gt => a > b,
            CompareOp::Ge => a >= b,
            CompareOp::Prefix => false,
        },
        (Value::Str(a), Value::Str(b)) => match op {
            CompareOp::Eq => a == b,
            CompareOp::Ne => a != b,
            CompareOp::Lt => a < b,
            CompareOp::Le => a <= b,
            CompareOp::Gt => a > b,
            CompareOp::Ge => a >= b,
            CompareOp::Prefix => a.starts_with(b.as_str()),
        },
        (Value::Bool(a), Value::Bool(b)) => match op {
            CompareOp::Eq => a == b,
            CompareOp::Ne => a != b,
            _ => false,
        },
        // Type mismatch: never matches.
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quote() -> Headers {
        let mut h = Headers::new();
        h.set("symbol", "AAPL").set("price", 101.5).set("halted", false);
        h
    }

    #[test]
    fn comparisons() {
        let h = quote();
        let cases = [
            ("price == 101.5", true),
            ("price != 101.5", false),
            ("price < 200", true),
            ("price <= 101.5", true),
            ("price > 101.5", false),
            ("price >= 101.5", true),
            (r#"symbol == "AAPL""#, true),
            (r#"symbol =^ "AA""#, true),
            (r#"symbol =^ "MS""#, false),
            ("halted == false", true),
            ("halted != true", true),
        ];
        for (text, expected) in cases {
            let p = Predicate::parse(text).unwrap();
            assert_eq!(p.matches(&h), expected, "{text}");
        }
    }

    #[test]
    fn missing_fields_never_match() {
        let h = quote();
        for text in ["volume > 0", "volume == 0", "volume != 0"] {
            assert!(!Predicate::parse(text).unwrap().matches(&h), "{text}");
        }
        assert!(Predicate::parse("!exists(volume)").unwrap().matches(&h));
        assert!(Predicate::parse("exists(price)").unwrap().matches(&h));
    }

    #[test]
    fn type_mismatch_never_matches() {
        let h = quote();
        assert!(!Predicate::parse(r#"price == "101.5""#).unwrap().matches(&h));
        assert!(!Predicate::parse("symbol < 5").unwrap().matches(&h));
        assert!(!Predicate::parse("halted < true").unwrap().matches(&h));
        assert!(!Predicate::parse("price =^ 10").unwrap().matches(&h));
    }

    #[test]
    fn boolean_combinators() {
        let h = quote();
        let p = Predicate::parse(r#"symbol =^ "AA" && (price < 50 || price > 100)"#).unwrap();
        assert!(p.matches(&h));
        let q = Predicate::parse(r#"!(symbol == "AAPL") || halted == true"#).unwrap();
        assert!(!q.matches(&h));
    }

    #[test]
    fn display_roundtrips_through_parse() {
        let texts = [
            r#"(symbol =^ "AA" && (price < 50 || price > 100))"#,
            "!exists(volume)",
            "price >= 3",
            // The keywords are field names wherever a field name fits.
            "(exists(true) && true == 1)",
            "(exists(exists) || exists != false)",
        ];
        for text in texts {
            let p = Predicate::parse(text).unwrap();
            let reparsed = Predicate::parse(&p.to_string()).unwrap();
            assert_eq!(p, reparsed, "{text}");
        }
    }

    #[test]
    fn true_predicate_matches_everything() {
        assert!(Predicate::True.matches(&Headers::new()));
        assert!(Predicate::True.matches(&quote()));
    }
}
