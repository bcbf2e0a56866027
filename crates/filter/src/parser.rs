//! Recursive-descent parser for the predicate language, and for the JSON
//! object [`Headers::to_json`] writes.

// lint:allow-file(indexing) recursive-descent cursor: `self.pos` only advances by lengths of matched prefixes of `self.text`, so every slice is on a char boundary within bounds

use crate::ast::{CompareOp, Predicate};
use crate::headers::{Headers, Value};
use std::fmt;

/// A parse failure with its byte position in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

pub(crate) fn parse(text: &str) -> Result<Predicate, ParseError> {
    let mut parser = Parser { text, pos: 0 };
    let predicate = parser.or_expr()?;
    parser.finish(predicate)
}

/// Reads `{` then `"field":literal` pairs separated by `,` then `}`, the
/// fields as string literals and the values as predicate literals.
pub(crate) fn parse_headers(text: &str) -> Result<Headers, ParseError> {
    let mut parser = Parser { text, pos: 0 };
    if !parser.eat("{") {
        return Err(parser.error("expected '{'"));
    }
    let mut headers = Headers::new();
    if !parser.eat("}") {
        loop {
            let field = parser.string_literal()?;
            if !parser.eat(":") {
                return Err(parser.error("expected ':'"));
            }
            headers.set(field, parser.literal()?);
            if parser.eat("}") {
                break;
            }
            if !parser.eat(",") {
                return Err(parser.error("expected ',' or '}'"));
            }
        }
    }
    parser.finish(headers)
}

/// The characters of a field name.
fn is_field_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '/' | '-')
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError { position: self.pos, message: message.into() }
    }

    /// Returns `value` if only whitespace is left.
    fn finish<T>(mut self, value: T) -> Result<T, ParseError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(value)
    }

    fn rest(&self) -> &'a str {
        &self.text[self.pos..]
    }

    fn skip_ws(&mut self) {
        while self.rest().starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.rest().starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn or_expr(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat("||") {
            let right = self.and_expr()?;
            left = Predicate::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Predicate, ParseError> {
        let mut left = self.unary()?;
        while self.eat("&&") {
            let right = self.unary()?;
            left = Predicate::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Predicate, ParseError> {
        self.skip_ws();
        if self.eat("!") {
            return Ok(Predicate::Not(Box::new(self.unary()?)));
        }
        if self.eat("(") {
            let inner = self.or_expr()?;
            if !self.eat(")") {
                return Err(self.error("expected ')'"));
            }
            return Ok(inner);
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Predicate, ParseError> {
        self.skip_ws();
        // `exists(field)` and the bare `true` literal are keywords.
        if self.rest().starts_with("exists") {
            let after = &self.rest()["exists".len()..];
            if after.trim_start().starts_with('(') {
                self.pos += "exists".len();
                if !self.eat("(") {
                    return Err(self.error("expected '(' after exists"));
                }
                let field = self.identifier()?;
                if !self.eat(")") {
                    return Err(self.error("expected ')' after field"));
                }
                return Ok(Predicate::Exists(field));
            }
        }
        let field = self.identifier()?;
        if field == "true" && !self.peek_op() {
            return Ok(Predicate::True);
        }
        let op = self.operator()?;
        let value = self.literal()?;
        Ok(Predicate::Compare { field, op, value })
    }

    fn peek_op(&mut self) -> bool {
        self.skip_ws();
        ["==", "!=", "<=", ">=", "=^", "<", ">"].iter().any(|op| self.rest().starts_with(op))
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        let len = rest.find(|c| !is_field_char(c)).unwrap_or(rest.len());
        if len == 0 {
            return Err(self.error("expected a field name"));
        }
        self.pos += len;
        Ok(rest[..len].to_string())
    }

    fn operator(&mut self) -> Result<CompareOp, ParseError> {
        self.skip_ws();
        // Order matters: two-character operators first.
        let table = [
            ("==", CompareOp::Eq),
            ("!=", CompareOp::Ne),
            ("<=", CompareOp::Le),
            (">=", CompareOp::Ge),
            ("=^", CompareOp::Prefix),
            ("<", CompareOp::Lt),
            (">", CompareOp::Gt),
        ];
        for (token, op) in table {
            if self.eat(token) {
                return Ok(op);
            }
        }
        Err(self.error("expected a comparison operator"))
    }

    fn literal(&mut self) -> Result<Value, ParseError> {
        self.skip_ws();
        let rest = self.rest();
        if rest.starts_with('"') {
            return self.string_literal().map(Value::Str);
        }
        if rest.starts_with("true") {
            self.pos += 4;
            return Ok(Value::Bool(true));
        }
        if rest.starts_with("false") {
            self.pos += 5;
            return Ok(Value::Bool(false));
        }
        // Number: optional sign, digits, optional fraction.
        let start = self.pos;
        let mut chars = rest.char_indices().peekable();
        if let Some(&(_, c)) = chars.peek() {
            if c == '-' || c == '+' {
                chars.next();
            }
        }
        let mut end = 0;
        let mut seen_digit = false;
        for (offset, c) in chars {
            if c.is_ascii_digit() {
                seen_digit = true;
                end = offset + c.len_utf8();
            } else if c == '.' && seen_digit {
                end = offset + 1;
            } else {
                break;
            }
        }
        if !seen_digit {
            return Err(self.error("expected a literal (number, string, true or false)"));
        }
        self.pos = start + end;
        let text = &self.text[start..self.pos];
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.error(format!("invalid number {text:?}")))
    }

    /// A double-quoted string with the escapes `\"`, `\\`, `\n`, `\r`,
    /// `\t` and `\uXXXX` (a non-surrogate code point, four hex digits).
    fn string_literal(&mut self) -> Result<String, ParseError> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let rest = self.rest();
        let mut out = String::new();
        let mut chars = rest.char_indices();
        while let Some((offset, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += offset + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, escaped @ ('"' | '\\'))) => out.push(escaped),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 'r')) => out.push('\r'),
                    Some((_, 't')) => out.push('\t'),
                    Some((at, 'u')) => {
                        let hex = rest
                            .get(at + 1..at + 5)
                            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()));
                        let Some(c) = hex
                            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                            .and_then(char::from_u32)
                        else {
                            return Err(self.error("invalid \\u escape"));
                        };
                        out.push(c);
                        // Past the four ASCII digits.
                        chars.nth(3);
                    }
                    Some((_, other)) => return Err(self.error(format!("unknown escape \\{other}"))),
                    None => return Err(self.error("unterminated escape")),
                },
                other => out.push(other),
            }
        }
        Err(self.error("unterminated string literal"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_comparison() {
        let p = parse("price < 100").unwrap();
        assert_eq!(
            p,
            Predicate::Compare {
                field: "price".into(),
                op: CompareOp::Lt,
                value: Value::Num(100.0)
            }
        );
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let p = parse("a == 1 || b == 2 && c == 3").unwrap();
        match p {
            Predicate::Or(_, right) => {
                assert!(matches!(*right, Predicate::And(_, _)));
            }
            other => panic!("expected Or at the top, got {other:?}"),
        }
    }

    #[test]
    fn parentheses_override_precedence() {
        let p = parse("(a == 1 || b == 2) && c == 3").unwrap();
        assert!(matches!(p, Predicate::And(_, _)));
    }

    #[test]
    fn negative_and_fractional_numbers() {
        let p = parse("delta >= -3.5").unwrap();
        assert_eq!(
            p,
            Predicate::Compare {
                field: "delta".into(),
                op: CompareOp::Ge,
                value: Value::Num(-3.5)
            }
        );
    }

    #[test]
    fn string_escapes() {
        let p = parse(r#"name == "a\"b\\c\nd\r\t\u0041\u00e9""#).unwrap();
        assert_eq!(
            p,
            Predicate::Compare {
                field: "name".into(),
                op: CompareOp::Eq,
                value: Value::Str("a\"b\\c\nd\r\tAé".into())
            }
        );
    }

    #[test]
    fn dotted_and_slashed_field_names() {
        assert!(parse("game/zone.x > 0").is_ok());
        assert!(parse("a-b_c.d == 1").is_ok());
    }

    #[test]
    fn bare_true_is_the_match_all_predicate() {
        assert_eq!(parse("true").unwrap(), Predicate::True);
        // But `true == true` is a comparison on a field named "true".
        assert!(matches!(parse("true == true").unwrap(), Predicate::Compare { .. }));
    }

    #[test]
    fn error_positions() {
        let err = parse("price <").unwrap_err();
        assert!(err.message.contains("literal"));
        let err = parse("price < 1 extra").unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = parse("&& x == 1").unwrap_err();
        assert_eq!(err.position, 0);
        assert!(parse(r#"s == "unterminated"#).is_err());
        assert!(parse("(a == 1").is_err());
        assert!(parse("exists(").is_err());
        for bad in [r#"s == "\u12""#, r#"s == "\u+123""#, r#"s == "\ud800""#, r#"s == "\b""#] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn exists_parses() {
        assert_eq!(parse("exists(volume)").unwrap(), Predicate::Exists("volume".into()));
        // A field that merely starts with "exists" is a comparison.
        assert!(matches!(parse("exists_flag == 1").unwrap(), Predicate::Compare { .. }));
    }
}
