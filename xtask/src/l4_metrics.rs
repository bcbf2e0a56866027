//! Pass L4 — single metric-name catalog, no drift.
//!
//! Every metric name passed to `multipub_obs`'s `counter!` / `gauge!` /
//! `histogram!` / `timer!` macros must come from the catalog in
//! `crates/obs/src/metrics.rs`:
//!
//! * call sites must reference a catalog constant, not a string literal
//!   (string literals drift silently when a metric is renamed),
//! * the referenced constant must exist in the catalog,
//! * catalog values must be unique and follow the
//!   `multipub_<crate>_<name>` convention,
//! * the README metrics table and the catalog must agree in both
//!   directions: no documented-but-gone metric, no shipped-but-
//!   undocumented metric.
//!
//! A metric's *kind* is not checked here: it is the name's suffix
//! (`multipub_obs::metrics::kind_of`), and the macros assert it at
//! compile time at every call site.
//!
//! `event!` is exempt — its second argument is a log target, not a
//! metric name.

use crate::lexer::{Kind, Lexed, Token};
use crate::spans::FileFacts;
use crate::Finding;

const METRIC_MACROS: [&str; 4] = ["counter", "gauge", "histogram", "timer"];

/// The parsed metric catalog.
pub struct Catalog {
    /// `(const name, metric name, line)` triples from `metrics.rs`.
    pub entries: Vec<(String, String, u32)>,
    /// Path of the catalog file, for findings.
    pub path: String,
}

/// Parses the catalog out of `crates/obs/src/metrics.rs` tokens:
/// `pub const NAME: &str = "multipub_…";` items.
pub fn parse_catalog(path: &str, lexed: &Lexed, findings: &mut Vec<Finding>) -> Catalog {
    let tokens = &lexed.tokens;
    let mut entries: Vec<(String, String, u32)> = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens.get(i).is_some_and(|t| t.is_ident("const")) {
            if let Some(name) = tokens.get(i + 1).filter(|t| t.kind == Kind::Ident) {
                // Scan this item for `= "…" ;`.
                let mut j = i + 2;
                while j < tokens.len() {
                    let Some(token) = tokens.get(j) else { break };
                    if token.is_punct(b';') {
                        break;
                    }
                    if token.kind == Kind::Str && token.text.starts_with("multipub_") {
                        entries.push((name.text.clone(), token.text.clone(), name.line));
                        break;
                    }
                    j += 1;
                }
            }
        }
        i += 1;
    }
    for (idx, (const_name, value, line)) in entries.iter().enumerate() {
        if let Some((other, _, _)) = entries.iter().take(idx).find(|(_, v, _)| v == value) {
            findings.push(l4(
                path,
                *line,
                &format!("metric `{value}` declared twice (`{other}` and `{const_name}`)"),
            ));
        }
        let well_formed =
            value.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
                && value.split('_').count() >= 3;
        if !well_formed {
            findings.push(l4(
                path,
                *line,
                &format!("metric `{value}` does not follow `multipub_<crate>_<name>`"),
            ));
        }
    }
    Catalog { entries, path: path.to_string() }
}

/// Checks one workspace file's metric-macro call sites against the
/// catalog.
pub fn check_file(
    path: &str,
    tokens: &[Token],
    facts: &FileFacts,
    catalog: &Catalog,
    findings: &mut Vec<Finding>,
) {
    for (i, token) in tokens.iter().enumerate() {
        if facts.in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        if token.kind != Kind::Ident || !METRIC_MACROS.contains(&token.text.as_str()) {
            continue;
        }
        let is_macro_call = tokens.get(i + 1).is_some_and(|t| t.is_punct(b'!'))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(b'('));
        if !is_macro_call {
            continue;
        }
        let Some(arg) = tokens.get(i + 3) else { continue };
        match arg.kind {
            Kind::Str if facts.allowed("metric", arg.line).is_none() => {
                findings.push(l4(
                    path,
                    arg.line,
                    &format!(
                        "metric name `\"{}\"` is a string literal; use a \
                         `multipub_obs::metrics` catalog const",
                        arg.text
                    ),
                ));
            }
            Kind::Ident => {
                // Resolve `metrics::FOO` / `multipub_obs::metrics::FOO` /
                // bare `FOO` to the final path segment.
                let mut j = i + 3;
                let mut last = arg;
                while tokens.get(j + 1).is_some_and(|t| t.is_punct(b':'))
                    && tokens.get(j + 2).is_some_and(|t| t.is_punct(b':'))
                {
                    let Some(next) = tokens.get(j + 3).filter(|t| t.kind == Kind::Ident) else {
                        break;
                    };
                    last = next;
                    j += 3;
                }
                let declared = catalog.entries.iter().any(|(name, _, _)| *name == last.text);
                if !declared && facts.allowed("metric", arg.line).is_none() {
                    findings.push(l4(
                        path,
                        arg.line,
                        &format!(
                            "`{}` is not declared in the `multipub_obs::metrics` catalog",
                            last.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
}

/// Cross-checks the trace stage list in `crates/obs/src/trace.rs`
/// against the catalog: every stage in `STAGE_NAMES` must have a
/// `multipub_broker_stage_<stage>_ms` histogram, so a stage added to the
/// tracer cannot ship without its per-stage latency metric (and, via
/// [`check_readme`], its README row).
pub fn check_stage_metrics(
    trace_path: &str,
    tokens: &[Token],
    catalog: &Catalog,
    findings: &mut Vec<Finding>,
) {
    let stages = parse_stage_names(tokens);
    if stages.is_empty() {
        findings.push(l4(
            trace_path,
            1,
            "`STAGE_NAMES` not found (expected `pub const STAGE_NAMES: [&str; N] = [\"…\"]`)",
        ));
        return;
    }
    for (stage, line) in &stages {
        let expected = format!("multipub_broker_stage_{stage}_ms");
        if !catalog.entries.iter().any(|(_, value, _)| *value == expected) {
            findings.push(l4(
                trace_path,
                *line,
                &format!("trace stage `{stage}` has no `{expected}` histogram in the catalog"),
            ));
        }
    }
}

/// Extracts the string elements of the `STAGE_NAMES` array literal:
/// every `Kind::Str` token between the `=` after `STAGE_NAMES` and the
/// closing `;`. Scanning starts at the `=` so the `;` inside the
/// `[&str; N]` type annotation does not end the item early.
fn parse_stage_names(tokens: &[Token]) -> Vec<(String, u32)> {
    let mut stages = Vec::new();
    let Some(start) = tokens.iter().position(|t| t.is_ident("STAGE_NAMES")) else {
        return stages;
    };
    let Some(eq) = tokens.iter().skip(start).position(|t| t.is_punct(b'=')) else {
        return stages;
    };
    for token in tokens.iter().skip(start + eq + 1) {
        if token.is_punct(b';') {
            break;
        }
        if token.kind == Kind::Str {
            stages.push((token.text.clone(), token.line));
        }
    }
    stages
}

/// Cross-checks the README metrics documentation against the catalog, in
/// both directions.
pub fn check_readme(
    readme_path: &str,
    readme: &str,
    catalog: &Catalog,
    findings: &mut Vec<Finding>,
) {
    // Words in the README that look like metric names.
    for (offset, line) in readme.lines().enumerate() {
        let line_no = offset as u32 + 1;
        for word in metric_words(line) {
            if !catalog.entries.iter().any(|(_, value, _)| value == word) {
                findings.push(l4(
                    readme_path,
                    line_no,
                    &format!("README documents `{word}` which is not in the metrics catalog"),
                ));
            }
        }
    }
    for (const_name, value, line) in &catalog.entries {
        if !readme.contains(value.as_str()) {
            findings.push(l4(
                &catalog.path,
                *line,
                &format!(
                    "`{const_name}` (`{value}`) is not documented in the README metrics table"
                ),
            ));
        }
    }
}

/// Extracts `multipub_…`-shaped words from a text line.
fn metric_words(line: &str) -> Vec<&str> {
    let mut words = Vec::new();
    let mut rest = line;
    while let Some(pos) = rest.find("multipub_") {
        let tail = rest.get(pos..).unwrap_or_default();
        let end =
            tail.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).unwrap_or(tail.len());
        let word = tail.get(..end).unwrap_or_default();
        // Crate names (`multipub_obs`) and prose mentions with fewer than
        // three segments are not metric names.
        if word.split('_').count() >= 3 {
            words.push(word);
        }
        rest = tail.get(end.max(1)..).unwrap_or_default();
    }
    words
}

fn l4(path: &str, line: u32, message: &str) -> Finding {
    Finding {
        file: path.to_string(),
        line,
        pass: "L4",
        category: "metric",
        message: message.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::spans::analyze;

    const CATALOG_SRC: &str = r#"
pub const BROKER_PUBLISHES_TOTAL: &str = "multipub_broker_publishes_total";
pub const CORE_SOLVE_MS: &str = "multipub_core_solve_ms";
"#;

    fn catalog(findings: &mut Vec<Finding>) -> Catalog {
        parse_catalog("metrics.rs", &lex(CATALOG_SRC), findings)
    }

    #[test]
    fn catalog_parses() {
        let mut findings = Vec::new();
        let cat = catalog(&mut findings);
        assert!(findings.is_empty());
        assert_eq!(cat.entries.len(), 2);
    }

    #[test]
    fn duplicate_value_flagged() {
        let source = r#"
pub const A: &str = "multipub_x_y_total";
pub const B: &str = "multipub_x_y_total";
"#;
        let mut findings = Vec::new();
        parse_catalog("metrics.rs", &lex(source), &mut findings);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn malformed_name_flagged() {
        let source = r#"pub const A: &str = "multipub_total";"#;
        let mut findings = Vec::new();
        parse_catalog("metrics.rs", &lex(source), &mut findings);
        assert_eq!(findings.len(), 1);
    }

    fn run_file(source: &str) -> Vec<Finding> {
        let mut findings = Vec::new();
        let cat = catalog(&mut findings);
        let lexed = lex(source);
        let facts = analyze(&lexed);
        check_file("caller.rs", &lexed.tokens, &facts, &cat, &mut findings);
        findings
    }

    #[test]
    fn string_literal_call_site_flagged() {
        let source =
            r#"fn f() { multipub_obs::counter!("multipub_broker_publishes_total").inc(); }"#;
        assert_eq!(run_file(source).len(), 1);
    }

    #[test]
    fn catalog_const_call_site_ok() {
        let source = "fn f() { multipub_obs::counter!(multipub_obs::metrics::BROKER_PUBLISHES_TOTAL).inc(); }";
        assert!(run_file(source).is_empty());
        let bare = "fn f() { multipub_obs::timer!(CORE_SOLVE_MS); }";
        assert!(run_file(bare).is_empty());
    }

    #[test]
    fn unknown_const_flagged() {
        let source = "fn f() { multipub_obs::counter!(metrics::NOT_A_METRIC).inc(); }";
        assert_eq!(run_file(source).len(), 1);
    }

    #[test]
    fn test_code_exempt() {
        let source = r#"#[cfg(test)] mod tests { fn t() { multipub_obs::counter!("multipub_test_adhoc_total").inc(); } }"#;
        assert!(run_file(source).is_empty());
    }

    #[test]
    fn event_macro_ignored() {
        let source = r#"fn f() { multipub_obs::event!(Info, "broker", msg = "x"); }"#;
        assert!(run_file(source).is_empty());
    }

    const STAGE_CATALOG_SRC: &str = r#"
pub const BROKER_STAGE_ADMISSION_MS: &str = "multipub_broker_stage_admission_ms";
pub const BROKER_STAGE_MATCH_MS: &str = "multipub_broker_stage_match_ms";
"#;

    #[test]
    fn stage_names_all_covered_ok() {
        let mut findings = Vec::new();
        let cat = parse_catalog("metrics.rs", &lex(STAGE_CATALOG_SRC), &mut findings);
        let trace = r#"pub const STAGE_NAMES: [&str; 2] = ["admission", "match"];"#;
        check_stage_metrics("trace.rs", &lex(trace).tokens, &cat, &mut findings);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn missing_stage_metric_flagged() {
        let mut findings = Vec::new();
        let cat = parse_catalog("metrics.rs", &lex(STAGE_CATALOG_SRC), &mut findings);
        let trace = r#"pub const STAGE_NAMES: [&str; 3] = ["admission", "match", "teleport"];"#;
        check_stage_metrics("trace.rs", &lex(trace).tokens, &cat, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("multipub_broker_stage_teleport_ms"));
    }

    #[test]
    fn absent_stage_names_flagged() {
        let mut findings = Vec::new();
        let cat = parse_catalog("metrics.rs", &lex(STAGE_CATALOG_SRC), &mut findings);
        check_stage_metrics("trace.rs", &lex("pub fn unrelated() {}").tokens, &cat, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("STAGE_NAMES"));
    }

    #[test]
    fn readme_drift_both_directions() {
        let mut findings = Vec::new();
        let cat = catalog(&mut findings);
        let readme = "| `multipub_broker_publishes_total` | publishes |\n| `multipub_gone_metric_total` | stale |\n";
        check_readme("README.md", readme, &cat, &mut findings);
        assert!(findings.iter().any(|f| f.message.contains("multipub_gone_metric_total")));
        assert!(findings.iter().any(|f| f.message.contains("CORE_SOLVE_MS")));
        assert_eq!(findings.len(), 2);
    }
}
