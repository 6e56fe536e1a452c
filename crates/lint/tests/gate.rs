//! The lint gate's own acceptance tests: the real workspace must be clean,
//! and each fixture must trip exactly the rule it was written to violate.

use skipflow_lint::{lint_source, lint_workspace, Rule};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn the_workspace_is_clean() {
    let violations = lint_workspace(&workspace_root()).expect("scan workspace");
    assert!(
        violations.is_empty(),
        "workspace lint violations:\n{}",
        violations.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
}

#[test]
fn fixture_unsafe_outside_allowlist_is_flagged() {
    let v = lint_source("crates/core/src/evil.rs", &fixture("unsafe_outside_allowlist.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::UnsafeOutsideAllowlist);
    assert_eq!(v[0].line, 5);
}

#[test]
fn fixture_missing_safety_comment_is_flagged() {
    // Linted under an allowlisted path so ONLY the safety-comment rule
    // fires.
    let v = lint_source("tests/alloc_counts.rs", &fixture("missing_safety_comment.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::MissingSafetyComment);
    assert_eq!(v[0].line, 4);
}

#[test]
fn fixture_implicit_ordering_is_flagged() {
    let v = lint_source("crates/core/src/evil.rs", &fixture("implicit_ordering.rs"));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::ImplicitOrdering);
    assert_eq!(v[0].line, 8);
}

#[test]
fn the_binary_reports_violations_and_fails() {
    // Run the lint engine the way CI does, against a tree containing one
    // bad file, and check the process-level contract (non-zero exit).
    let dir = std::env::temp_dir().join(format!("skipflow-lint-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("src")).unwrap();
    std::fs::write(dir.join("src/bad.rs"), fixture("unsafe_outside_allowlist.rs")).unwrap();
    let exe = env!("CARGO_BIN_EXE_skipflow-lint");
    let out = std::process::Command::new(exe)
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("run skipflow-lint");
    assert!(!out.status.success(), "lint must fail on a dirty tree");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("unsafe-allowlist"), "stdout: {stdout}");

    // And succeed on a clean tree.
    std::fs::write(dir.join("src/bad.rs"), "pub fn fine() {}\n").unwrap();
    let out = std::process::Command::new(exe)
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("run skipflow-lint");
    assert!(out.status.success(), "lint must pass on a clean tree");
    let _ = std::fs::remove_dir_all(&dir);
}
