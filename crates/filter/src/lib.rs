//! # multipub-filter
//!
//! Content-based subscription filters — the extension the MultiPub paper
//! names as future work (§VII: "extend our model to support content-based
//! pub/sub systems").
//!
//! Publications carry a set of typed **headers** (`symbol = "AAPL"`,
//! `price = 101.5`); subscribers attach a **predicate** to their
//! subscription and receive only matching publications. The predicate
//! language is small and total (evaluation never fails — missing headers
//! make comparisons false):
//!
//! ```text
//! predicate := or
//! or        := and ( "||" and )*
//! and       := unary ( "&&" unary )*
//! unary     := "!" unary | "(" predicate ")" | atom
//! atom      := exists(field) | field op literal
//! field     := [A-Za-z0-9_./-]+
//! op        := == | != | < | <= | > | >= | =^        (=^ is string-prefix)
//! literal   := number | "string" | true | false
//! number    := [+-]? digits [. digits]                (no exponent)
//! string    := escapes \" \\ \n \r \t \uXXXX, any other char as itself
//! ```
//!
//! A literal's text is [`Value`]'s `Display`, and [`Headers::to_json`] is
//! JSON built from the same text, read back by the same parser.
//!
//! ```
//! use multipub_filter::{Headers, Predicate, Value};
//!
//! # fn main() -> Result<(), multipub_filter::ParseError> {
//! let filter = Predicate::parse(r#"symbol =^ "AA" && price < 120 && !halted == true"#)?;
//! let mut quote = Headers::new();
//! quote.set("symbol", "AAPL");
//! quote.set("price", 101.5);
//! quote.set("halted", false);
//! assert!(filter.matches(&quote));
//! quote.set("price", 130.0);
//! assert!(!filter.matches(&quote));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod ast;
mod headers;
mod parser;

pub use ast::{CompareOp, Predicate};
pub use headers::{Headers, Value};
pub use parser::ParseError;
