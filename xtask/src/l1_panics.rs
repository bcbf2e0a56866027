//! Pass L1 — panic-freedom of non-test library code.
//!
//! Flags, outside `#[cfg(test)]`/`#[test]` spans:
//!
//! * `.unwrap()` / `.expect(…)` (and their `_err` variants),
//! * `panic!` / `unreachable!` / `todo!` / `unimplemented!`,
//! * slice/array/map indexing `x[i]` (which can panic on out-of-bounds)
//!   unless the index is the full-range `[..]`.
//!
//! `assert!`/`debug_assert!` are deliberately *not* flagged: stating an
//! invariant loudly is the behaviour we want — silently truncating would
//! be worse. Sites with a justified `// lint:allow(panic) reason` or
//! `// lint:allow(indexing) reason` annotation are accepted; the reason
//! is mandatory (see DESIGN.md §9).

use crate::lexer::{Kind, Token};
use crate::spans::FileFacts;
use crate::Finding;

const PANIC_METHODS: [&str; 4] = ["unwrap", "expect", "unwrap_err", "expect_err"];
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that may directly precede `[` without it being an index
/// operation (array expressions and patterns).
const NON_INDEX_KEYWORDS: [&str; 12] =
    ["return", "break", "let", "in", "as", "mut", "ref", "else", "match", "if", "while", "move"];

/// Runs the pass over one file's tokens.
pub fn check(path: &str, tokens: &[Token], facts: &FileFacts, findings: &mut Vec<Finding>) {
    for (i, token) in tokens.iter().enumerate() {
        if facts.in_test.get(i).copied().unwrap_or(false)
            || facts.in_attr.get(i).copied().unwrap_or(false)
        {
            continue;
        }
        match token.kind {
            Kind::Ident if PANIC_METHODS.contains(&token.text.as_str()) => {
                let after_dot = i > 0 && tokens.get(i - 1).is_some_and(|t| t.is_punct(b'.'));
                let called = tokens.get(i + 1).is_some_and(|t| t.is_punct(b'('));
                if after_dot && called && facts.allowed("panic", token.line).is_none() {
                    findings.push(Finding {
                        file: path.to_string(),
                        line: token.line,
                        pass: "L1",
                        category: "panic",
                        message: format!(
                            "`.{}()` in non-test library code; return a typed error or annotate \
                             `// lint:allow(panic) <reason>`",
                            token.text
                        ),
                    });
                }
            }
            Kind::Ident if PANIC_MACROS.contains(&token.text.as_str()) => {
                let is_macro = tokens.get(i + 1).is_some_and(|t| t.is_punct(b'!'));
                // `core::panic::Location` and similar paths are not macro
                // invocations; the `!` check covers that.
                if is_macro && facts.allowed("panic", token.line).is_none() {
                    findings.push(Finding {
                        file: path.to_string(),
                        line: token.line,
                        pass: "L1",
                        category: "panic",
                        message: format!(
                            "`{}!` in non-test library code; return a typed error or annotate \
                             `// lint:allow(panic) <reason>`",
                            token.text
                        ),
                    });
                }
            }
            Kind::Punct(b'[')
                if is_index_expr(tokens, i) && facts.allowed("indexing", token.line).is_none() =>
            {
                findings.push(Finding {
                    file: path.to_string(),
                    line: token.line,
                    pass: "L1",
                    category: "indexing",
                    message: "indexing can panic out-of-bounds; use `.get(…)` or annotate \
                              `// lint:allow(indexing) <reason>`"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

/// Is the `[` at token `i` an index operation on the preceding
/// expression (as opposed to an array literal, type, pattern or
/// attribute)?
fn is_index_expr(tokens: &[Token], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|p| tokens.get(p)) else {
        return false;
    };
    let prev_is_expr_end = match prev.kind {
        Kind::Ident => !NON_INDEX_KEYWORDS.contains(&prev.text.as_str()),
        Kind::Punct(b')') | Kind::Punct(b']') => true,
        _ => false,
    };
    if !prev_is_expr_end {
        return false;
    }
    // `&x[..]` slices the whole range — cannot panic.
    let full_range = tokens.get(i + 1).is_some_and(|t| t.is_punct(b'.'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(b'.'))
        && tokens.get(i + 3).is_some_and(|t| t.is_punct(b']'));
    !full_range
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::spans::analyze;

    fn run(source: &str) -> Vec<Finding> {
        let lexed = lex(source);
        let facts = analyze(&lexed);
        let mut findings = Vec::new();
        check("test.rs", &lexed.tokens, &facts, &mut findings);
        findings
    }

    #[test]
    fn unwrap_flagged() {
        let findings = run("fn f() { x.unwrap(); }");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings.first().map(|f| f.category), Some("panic"));
    }

    #[test]
    fn unwrap_in_test_mod_exempt() {
        assert!(run("#[cfg(test)] mod tests { fn t() { x.unwrap(); } }").is_empty());
    }

    #[test]
    fn unwrap_or_not_flagged() {
        assert!(run("fn f() { x.unwrap_or(0); x.unwrap_or_default(); }").is_empty());
    }

    #[test]
    fn panic_macro_flagged_but_assert_is_not() {
        assert_eq!(run("fn f() { panic!(\"boom\"); }").len(), 1);
        assert!(run("fn f() { assert!(a == b); debug_assert_eq!(a, b); }").is_empty());
    }

    #[test]
    fn allowed_with_reason_is_accepted() {
        let source = "fn f() {\n// lint:allow(panic) mask validated by the constructor above\nx.unwrap();\n}";
        assert!(run(source).is_empty());
    }

    #[test]
    fn indexing_flagged() {
        assert_eq!(run("fn f() { let y = v[0]; }").len(), 1);
    }

    #[test]
    fn array_literals_types_and_full_range_not_flagged() {
        assert!(run("fn f(a: [u8; 4]) { let b = [0u8; 16]; let c = &v[..]; }").is_empty());
        assert!(run("fn f() -> [f64; 2] { return [0.0, 1.0]; }").is_empty());
    }

    #[test]
    fn vec_macro_not_flagged() {
        assert!(run("fn f() { let v = vec![0; 10]; }").is_empty());
    }

    #[test]
    fn expect_flagged() {
        assert_eq!(run("fn f() { x.expect(\"reason\"); }").len(), 1);
    }
}
