//! The MultiPub-specific static analysis passes over every library crate
//! (see DESIGN.md §9). `cargo test` at the workspace root runs them over
//! the tree (`tests/golden.rs`, `the_workspace_is_lint_clean`):
//!
//! * **L1** panic-freedom: no `unwrap`/`expect`/`panic!`/indexing in
//!   non-test library code without a justified annotation,
//! * **L2** no blocking calls inside async fns (executor stalls),
//! * **L4** metric-name catalog: every name passed to `multipub_obs`
//!   comes from `crates/obs/src/metrics.rs`, and the README table
//!   matches it,
//! * **L5** bounded channels: no `unbounded_channel` in non-test
//!   library code (slow consumers must hit backpressure, not OOM),
//! * **L6** lock-order discipline: every `Mutex`/`RwLock` declaration
//!   carries a `// lock:rank(name, N)` annotation, and no lexically
//!   visible nested acquisition takes a rank ≤ one already held
//!   (DESIGN.md §14; the `MULTIPUB_LOCK_WITNESS` runtime witness covers
//!   the call-graph nestings this pass cannot see).
//!
//! Escape hatch: `// lint:allow(<category>) <reason>` on the same or
//! previous line (`panic`, `indexing`, `blocking`, `metric`, `channel`,
//! `lockorder`), or `// lint:allow-file(<category>) <reason>` for a
//! whole file. The reason is mandatory; empty justifications are
//! themselves findings.
//!
//! The per-file sweep (lex → analyze → L1/L2/L5/L4/L6-scan) runs file by
//! file; the cross-file passes (L4 catalog drift, L6 rank graph) then run
//! once over the gathered facts.

pub mod l1_panics;
pub mod l2_blocking;
pub mod l4_metrics;
pub mod l5_channels;
pub mod l6_lockorder;
pub mod lexer;
pub mod spans;

use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Pass identifier (`L1`…`L6`).
    pub pass: &'static str,
    /// Finding category (matches the `lint:allow` category).
    pub category: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// The categories `lint:allow` / `lint:allow-file` accept.
pub const VALID_ALLOW_CATEGORIES: [&str; 6] =
    ["panic", "indexing", "blocking", "metric", "channel", "lockorder"];

/// Everything one lint run produces.
#[derive(Debug, Default)]
pub struct LintOutcome {
    /// Findings, sorted by `(file, line)`.
    pub findings: Vec<Finding>,
    /// Non-fatal notes (missing inputs, unused annotations).
    pub warnings: Vec<String>,
    /// Number of files analyzed.
    pub checked: usize,
}

/// All `.rs` files under the workspace's library source trees
/// (`crates/*/src/**` and `xtask/src/**`), sorted for stable output.
pub fn source_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            walk_rs(&entry.path().join("src"), &mut files);
        }
    }
    walk_rs(&root.join("xtask").join("src"), &mut files);
    files.sort();
    files
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Per-file results of the sweep.
struct FileReport {
    name: String,
    lexed: lexer::Lexed,
    facts: spans::FileFacts,
    lock_facts: l6_lockorder::FileLockFacts,
    findings: Vec<Finding>,
}

/// Runs every pass over in-memory `(workspace-relative name, source)`
/// pairs. `readme` is the README.md text for the L4 drift check (`None`
/// skips it with a warning). This is the whole linter minus file I/O —
/// the golden corpus drives it with synthetic workspaces.
pub fn run_passes(inputs: &[(String, String)], readme: Option<&str>) -> LintOutcome {
    let mut outcome = LintOutcome { checked: inputs.len(), ..LintOutcome::default() };
    let findings = &mut outcome.findings;

    // The L4 catalog gates the per-file metric checks, so parse it
    // before the sweep.
    let catalog = match inputs.iter().find(|(name, _)| name.ends_with("obs/src/metrics.rs")) {
        Some((name, source)) => {
            Some(l4_metrics::parse_catalog(name, &lexer::lex(source), findings))
        }
        None => {
            findings.push(Finding {
                file: "crates/obs/src/metrics.rs".to_string(),
                line: 1,
                pass: "L4",
                category: "metric",
                message: "metric catalog file is missing".to_string(),
            });
            None
        }
    };

    let mut reports: Vec<FileReport> = inputs
        .iter()
        .map(|(name, source)| check_one_file(name, source, catalog.as_ref()))
        .collect();
    for report in &mut reports {
        findings.append(&mut report.findings);
    }

    // Cross-file passes over the gathered facts.
    let find_tokens = |suffix: &str| {
        reports
            .iter()
            .find(|r| r.name.ends_with(suffix))
            .map(|r| (r.name.as_str(), r.lexed.tokens.as_slice()))
    };
    if let Some(catalog) = &catalog {
        // Trace stages must each have their per-stage latency histogram.
        match find_tokens("obs/src/trace.rs") {
            Some((trace_path, tokens)) => {
                l4_metrics::check_stage_metrics(trace_path, tokens, catalog, findings);
            }
            None => outcome
                .warnings
                .push("obs/src/trace.rs not found; skipping stage check".to_string()),
        }
        match readme {
            Some(readme) => l4_metrics::check_readme("README.md", readme, catalog, findings),
            None => {
                outcome.warnings.push("README.md not readable; skipping drift check".to_string())
            }
        }
    }

    // L6 rank graph across every file. Runs after the per-file sweep so
    // its `lint:allow(lockorder)` lookups are reflected in the unused-
    // annotation warnings below.
    let lock_files: Vec<(String, l6_lockorder::FileLockFacts, &spans::FileFacts)> =
        reports.iter().map(|r| (r.name.clone(), r.lock_facts.clone(), &r.facts)).collect();
    l6_lockorder::check_workspace(&lock_files, findings);

    for report in &reports {
        for allow in report.facts.allows.iter().chain(report.facts.file_allows.iter()) {
            if !allow.used.get() && VALID_ALLOW_CATEGORIES.contains(&allow.category.as_str()) {
                outcome.warnings.push(format!(
                    "{}:{}: unused lint:allow({}) annotation",
                    report.name, allow.line, allow.category
                ));
            }
        }
    }

    outcome.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    outcome
}

/// Everything that only needs one file: lex, structural analysis, the
/// per-file passes, and annotation hygiene.
fn check_one_file(name: &str, source: &str, catalog: Option<&l4_metrics::Catalog>) -> FileReport {
    let lexed = lexer::lex(source);
    let facts = spans::analyze(&lexed);
    let mut findings = Vec::new();

    // Annotation hygiene: unknown categories and missing reasons are
    // findings in their own right.
    for allow in facts.allows.iter().chain(facts.file_allows.iter()) {
        if !VALID_ALLOW_CATEGORIES.contains(&allow.category.as_str()) {
            findings.push(Finding {
                file: name.to_string(),
                line: allow.line,
                pass: "meta",
                category: "annotation",
                message: format!(
                    "unknown lint:allow category `{}` (valid: {})",
                    allow.category,
                    VALID_ALLOW_CATEGORIES.join(", ")
                ),
            });
        }
    }
    for allow in facts.unjustified() {
        findings.push(Finding {
            file: name.to_string(),
            line: allow.line,
            pass: "meta",
            category: "annotation",
            message: format!(
                "lint:allow({}) needs a real justification after the parentheses",
                allow.category
            ),
        });
    }

    l1_panics::check(name, &lexed.tokens, &facts, &mut findings);
    l2_blocking::check(name, &lexed.tokens, &facts, &mut findings);
    l5_channels::check(name, &lexed.tokens, &facts, &mut findings);
    if let Some(catalog) = catalog {
        // The catalog file itself declares, it does not consume.
        if !name.ends_with("obs/src/metrics.rs") {
            l4_metrics::check_file(name, &lexed.tokens, &facts, catalog, &mut findings);
        }
    }
    let lock_facts = l6_lockorder::scan_file(name, &lexed, &facts, &mut findings);

    FileReport { name: name.to_string(), lexed, facts, lock_facts, findings }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_passes_flags_and_sorts() {
        let inputs = vec![
            (
                "crates/z/src/lib.rs".to_string(),
                "fn f(v: &[u8]) { v.iter().next().unwrap(); }".to_string(),
            ),
            ("crates/a/src/lib.rs".to_string(), "struct S { m: Mutex<u32>, }".to_string()),
        ];
        let outcome = run_passes(&inputs, None);
        assert_eq!(outcome.checked, 2);
        let relevant: Vec<_> =
            outcome.findings.iter().filter(|f| f.pass == "L1" || f.pass == "L6").collect();
        assert_eq!(relevant.len(), 2);
        assert_eq!(relevant[0].pass, "L6");
        assert_eq!(relevant[1].pass, "L1");
    }
}
