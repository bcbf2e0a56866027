//! Golden known-bad corpus: every lint pass must fire on its bad
//! fixture, and every `lint:allow` form must suppress it. The fixtures
//! live under `tests/fixtures/` (outside the `src/` trees the real
//! sweep scans) and are fed to [`xtask::run_passes`] as a synthetic
//! workspace, so these tests exercise the same driver that
//! `the_workspace_is_lint_clean` runs over the tree — catalog gating,
//! the per-file sweep, cross-file passes and all.

use std::path::Path;

use xtask::{run_passes, source_files, Finding, LintOutcome};

/// Runs the full pass battery over `(workspace-relative name, source)`
/// pairs.
fn run(files: &[(&str, &str)]) -> LintOutcome {
    let inputs: Vec<(String, String)> =
        files.iter().map(|(name, source)| (name.to_string(), source.to_string())).collect();
    run_passes(&inputs, None)
}

/// The outcome's findings for one pass, ignoring the structural noise a
/// synthetic workspace always produces (a missing metric catalog for the
/// passes under test elsewhere).
fn findings_for<'a>(outcome: &'a LintOutcome, pass: &str) -> Vec<&'a Finding> {
    outcome.findings.iter().filter(|f| f.pass == pass).collect()
}

#[test]
fn l1_fires_on_bad_and_allow_suppresses() {
    let bad = run(&[("crates/fixture/src/lib.rs", include_str!("fixtures/l1_bad.rs"))]);
    let flagged = findings_for(&bad, "L1");
    assert_eq!(flagged.len(), 2, "{flagged:?}");
    assert!(flagged.iter().any(|f| f.category == "indexing"));
    assert!(flagged.iter().any(|f| f.category == "panic"));

    let ok = run(&[("crates/fixture/src/lib.rs", include_str!("fixtures/l1_allowed.rs"))]);
    assert!(findings_for(&ok, "L1").is_empty(), "{:?}", ok.findings);
    assert!(findings_for(&ok, "meta").is_empty(), "allow reasons must be accepted");
}

#[test]
fn l2_fires_on_bad_and_allow_suppresses() {
    let bad = run(&[("crates/fixture/src/lib.rs", include_str!("fixtures/l2_bad.rs"))]);
    let flagged = findings_for(&bad, "L2");
    assert_eq!(flagged.len(), 3, "{flagged:?}");
    assert!(flagged.iter().any(|f| f.message.contains("thread::sleep")));
    assert!(flagged.iter().any(|f| f.message.contains("std::fs")));
    assert!(flagged.iter().any(|f| f.message.contains("across `.await`")));

    let ok = run(&[("crates/fixture/src/lib.rs", include_str!("fixtures/l2_allowed.rs"))]);
    assert!(findings_for(&ok, "L2").is_empty(), "{:?}", ok.findings);
    assert!(findings_for(&ok, "meta").is_empty(), "allow reasons must be accepted");
}

#[test]
fn l4_fires_on_bad_and_allow_suppresses() {
    let catalog = ("crates/obs/src/metrics.rs", include_str!("fixtures/l4_catalog.rs"));
    let bad = run(&[catalog, ("crates/fixture/src/lib.rs", include_str!("fixtures/l4_bad.rs"))]);
    let flagged = findings_for(&bad, "L4");
    assert_eq!(flagged.len(), 2, "{flagged:?}");
    assert!(flagged.iter().any(|f| f.message.contains("string literal")));
    assert!(flagged.iter().any(|f| f.message.contains("UNDECLARED_METRIC")));

    let ok = run(&[catalog, ("crates/fixture/src/lib.rs", include_str!("fixtures/l4_allowed.rs"))]);
    assert!(findings_for(&ok, "L4").is_empty(), "{:?}", ok.findings);
    assert!(findings_for(&ok, "meta").is_empty(), "allow reasons must be accepted");
}

#[test]
fn l5_fires_on_bad_and_allow_file_suppresses() {
    let bad = run(&[("crates/fixture/src/lib.rs", include_str!("fixtures/l5_bad.rs"))]);
    let flagged = findings_for(&bad, "L5");
    assert_eq!(flagged.len(), 1, "{flagged:?}");
    assert!(flagged[0].message.contains("unbounded channel"));

    // `l5_allowed.rs` uses the file-wide `lint:allow-file` form.
    let ok = run(&[("crates/fixture/src/lib.rs", include_str!("fixtures/l5_allowed.rs"))]);
    assert!(findings_for(&ok, "L5").is_empty(), "{:?}", ok.findings);
    assert!(findings_for(&ok, "meta").is_empty(), "allow reasons must be accepted");
}

#[test]
fn l6_fires_on_bad_and_allow_suppresses() {
    let bad = run(&[("crates/fixture/src/lib.rs", include_str!("fixtures/l6_bad.rs"))]);
    let flagged = findings_for(&bad, "L6");
    assert_eq!(flagged.len(), 3, "{flagged:?}");
    assert!(flagged.iter().any(|f| f.message.contains("no `// lock:rank(name, N)` annotation")));
    assert!(flagged
        .iter()
        .any(|f| f.message.contains("`fixture.low` (rank 10) acquired while `fixture.high`")));
    assert!(flagged.iter().any(|f| f.message.contains("constructor ranks `fixture.low` at 15")));

    let ok = run(&[("crates/fixture/src/lib.rs", include_str!("fixtures/l6_allowed.rs"))]);
    assert!(findings_for(&ok, "L6").is_empty(), "{:?}", ok.findings);
    assert!(findings_for(&ok, "meta").is_empty(), "allow reasons must be accepted");
}

#[test]
fn unknown_allow_category_is_a_finding() {
    let outcome = run(&[(
        "crates/fixture/src/lib.rs",
        "// lint:allow(racecondition) not a category the linter knows about\npub fn f() {}\n",
    )]);
    let flagged = findings_for(&outcome, "meta");
    assert_eq!(flagged.len(), 1, "{flagged:?}");
    assert!(flagged[0].message.contains("unknown lint:allow category"));
    assert!(flagged[0].message.contains("lockorder"), "valid-category list must include L6's");
}

#[test]
fn unused_allow_is_warned() {
    let outcome = run(&[(
        "crates/fixture/src/lib.rs",
        "// lint:allow(lockorder) nothing here actually locks anything at all\npub fn f() {}\n",
    )]);
    assert!(
        outcome.warnings.iter().any(|w| w.contains("unused lint:allow(lockorder)")),
        "{:?}",
        outcome.warnings
    );
}

/// The lint over the tree itself: every library source file plus the
/// README's metric table. A finding fails it, and so does an unused
/// `lint:allow` annotation.
#[test]
fn the_workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask sits in the root");
    let inputs: Vec<(String, String)> = source_files(root)
        .iter()
        .map(|path| {
            let name = path.strip_prefix(root).unwrap_or(path).display().to_string();
            let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{name}: {e}"));
            (name, source)
        })
        .collect();
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    let outcome = run_passes(&inputs, Some(&readme));
    let report: Vec<String> = outcome
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}.{}] {}", f.file, f.line, f.pass, f.category, f.message))
        .chain(outcome.warnings.iter().map(|w| format!("warning: {w}")))
        .collect();
    assert!(
        report.is_empty(),
        "lint over {} files (L1 panics, L2 blocking, L4 metrics, L5 channels, L6 lock order):\n{}",
        outcome.checked,
        report.join("\n")
    );
}
