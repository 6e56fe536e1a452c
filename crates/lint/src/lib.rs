//! `skipflow-lint`: the workspace's unsafe-code and atomics gate.
//!
//! A source-level scanner (no rustc plumbing, no external deps) enforcing
//! three rules over every `.rs` file in the repository (numbered as they
//! were introduced; number 3 is retired):
//!
//! 1. **Unsafe confinement** — the `unsafe` keyword may appear only in the
//!    files of [`UNSAFE_FILE_ALLOWLIST`]. The allowlist is the review
//!    surface: growing it is a deliberate, diff-visible act.
//! 2. **`SAFETY:` comments** — every line containing `unsafe` must be
//!    preceded by a contiguous `//` comment block containing `SAFETY:`
//!    (or carry one as a trailing comment). The comment is the proof
//!    obligation; code without it doesn't state *why* it is sound.
//! 4. **Explicit orderings** — in files that use atomics, every atomic
//!    operation (`load`/`store`/`swap`/`fetch_*`/`compare_exchange*`) must
//!    name an ordering in its argument list. (The compiler already forces
//!    an `Ordering` argument; this rule keeps it *visible at the call
//!    site* — no helper that hides the ordering away from review.)
//!
//! Comments and string/char literals are stripped (line structure
//! preserved) before token matching, so prose about "unsafe" or atomics
//! never trips the gate. The scanner skips `target/`, VCS directories, and
//! any `fixtures/` directory (the lint's own test corpus deliberately
//! violates every rule).

#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Files allowed to contain the `unsafe` keyword, as `/`-separated paths
/// relative to the workspace root.
///
/// Only the allocation-count test, whose counting `#[global_allocator]`
/// must implement the unsafe `GlobalAlloc` trait; production code holds no
/// `unsafe`.
pub const UNSAFE_FILE_ALLOWLIST: &[&str] = &["tests/alloc_counts.rs"];

/// Atomic-operation method names whose call sites must name an ordering.
const ATOMIC_OPS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Tokens accepted as "names an ordering" inside an atomic op's arguments.
const ORDERING_TOKENS: &[&str] =
    &["SeqCst", "Acquire", "Release", "AcqRel", "Relaxed", "Ordering", "order"];

/// Which rule a [`Violation`] breaks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Rule 1: `unsafe` outside [`UNSAFE_FILE_ALLOWLIST`].
    UnsafeOutsideAllowlist,
    /// Rule 2: `unsafe` without a preceding `// SAFETY:` comment.
    MissingSafetyComment,
    /// Rule 4: an atomic op whose arguments name no ordering.
    ImplicitOrdering,
}

impl Rule {
    /// Short stable identifier, printed in violation lines.
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnsafeOutsideAllowlist => "unsafe-allowlist",
            Rule::MissingSafetyComment => "safety-comment",
            Rule::ImplicitOrdering => "implicit-ordering",
        }
    }
}

/// One rule violation at one source line.
#[derive(Clone, Debug)]
pub struct Violation {
    /// `/`-separated path relative to the linted root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The broken rule.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.code(), self.message)
    }
}

/// Replaces the contents of comments and string/char literals with spaces,
/// preserving line structure exactly (so token positions keep their line
/// numbers). Handles nested block comments, raw strings (`r#"…"#`), byte
/// strings, escapes, and lifetimes-vs-char-literals.
pub fn strip_comments_and_strings(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;

    // Pushes a newline as-is (line structure!), anything else as a space.
    fn blank(out: &mut Vec<u8>, c: u8) {
        out.push(if c == b'\n' { b'\n' } else { b' ' });
    }

    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                blank(&mut out, b[i]);
                i += 1;
            }
            continue;
        }
        // Block comment (nested, per Rust).
        if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1usize;
            blank(&mut out, b[i]);
            blank(&mut out, b[i + 1]);
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Raw (and raw byte) strings: r"…", r#"…"#, br#"…"#…
        let prev_is_ident = !out.is_empty()
            && matches!(out[out.len() - 1], b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'_');
        if !prev_is_ident && (c == b'r' || (c == b'b' && i + 1 < b.len() && b[i + 1] == b'r')) {
            let start = if c == b'b' { i + 2 } else { i + 1 };
            let mut j = start;
            while j < b.len() && b[j] == b'#' {
                j += 1;
            }
            if j < b.len() && b[j] == b'"' {
                let hashes = j - start;
                for &byte in &b[i..=j] {
                    out.push(if byte == b'"' { b'"' } else { b' ' });
                }
                i = j + 1;
                // Scan for `"` followed by `hashes` hashes.
                'raw: while i < b.len() {
                    if b[i] == b'"' {
                        let closes = (0..hashes).all(|h| {
                            i + 1 + h < b.len() && b[i + 1 + h] == b'#'
                        });
                        if closes {
                            out.push(b'"');
                            out.extend(std::iter::repeat_n(b' ', hashes));
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    blank(&mut out, b[i]);
                    i += 1;
                }
                continue;
            }
        }
        // Ordinary (and byte) strings.
        if c == b'"' {
            out.push(b'"');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' && i + 1 < b.len() {
                    blank(&mut out, b[i]);
                    blank(&mut out, b[i + 1]);
                    i += 2;
                } else if b[i] == b'"' {
                    out.push(b'"');
                    i += 1;
                    break;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Char literal vs lifetime: 'x' / '\n' are literals; 'a (no closing
        // quote right after) is a lifetime and passes through untouched.
        if c == b'\'' {
            let is_char = if i + 1 < b.len() && b[i + 1] == b'\\' {
                true
            } else {
                i + 2 < b.len() && b[i + 2] == b'\'' && b[i + 1] != b'\''
            };
            if is_char {
                out.push(b'\'');
                i += 1;
                while i < b.len() {
                    if b[i] == b'\\' && i + 1 < b.len() {
                        blank(&mut out, b[i]);
                        blank(&mut out, b[i + 1]);
                        i += 2;
                    } else if b[i] == b'\'' {
                        out.push(b'\'');
                        i += 1;
                        break;
                    } else {
                        blank(&mut out, b[i]);
                        i += 1;
                    }
                }
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    // Only ASCII bytes were substituted, so the result stays valid UTF-8.
    String::from_utf8(out).expect("stripping preserves UTF-8")
}

/// Whether `line` contains `unsafe` as a standalone word (after stripping).
fn has_unsafe_token(line: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find("unsafe") {
        let start = from + pos;
        let end = start + "unsafe".len();
        let before_ok = start == 0
            || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_');
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Whether the `unsafe` at `idx` (0-based) is justified: a trailing
/// `SAFETY:` on the same original line, or a contiguous block of `//`
/// comment lines directly above (attributes and blank lines are climbed
/// over) containing `SAFETY:` — or, for `unsafe fn` declarations, the
/// conventional `# Safety` rustdoc heading.
fn has_safety_comment(original_lines: &[&str], idx: usize) -> bool {
    fn justifies(line: &str) -> bool {
        line.contains("SAFETY:") || line.contains("# Safety")
    }
    if justifies(original_lines[idx]) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let t = original_lines[j].trim_start();
        if t.starts_with("//") {
            if justifies(t) {
                return true;
            }
        } else if t.starts_with("#[") || t.is_empty() {
            continue;
        } else {
            return false;
        }
    }
    false
}

/// Rule 4: scan `stripped` for `.op(` call sites and check each argument
/// span (to the matching close paren, across lines) for an ordering token.
/// Empty argument lists are skipped — every real atomic op requires an
/// `Ordering` argument to compile at all, so a zero-argument `.load()` is
/// necessarily some other type's method.
fn check_orderings(file: &str, stripped: &str, out: &mut Vec<Violation>) {
    for op in ATOMIC_OPS {
        let needle = format!(".{op}(");
        let mut from = 0;
        while let Some(pos) = stripped[from..].find(&needle) {
            let call = from + pos;
            let args_start = call + needle.len();
            let mut depth = 1usize;
            let mut end = stripped.len();
            for (off, ch) in stripped[args_start..].char_indices() {
                match ch {
                    '(' | '[' | '{' => depth += 1,
                    ')' | ']' | '}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = args_start + off;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let args = &stripped[args_start..end];
            let non_empty = args.chars().any(|c| !c.is_whitespace());
            if non_empty && !ORDERING_TOKENS.iter().any(|t| args.contains(t)) {
                let line = stripped[..call].chars().filter(|&c| c == '\n').count() + 1;
                out.push(Violation {
                    file: file.to_string(),
                    line,
                    rule: Rule::ImplicitOrdering,
                    message: format!(
                        "atomic `{op}` call names no ordering (SeqCst/Acquire/...) in its arguments"
                    ),
                });
            }
            from = args_start;
        }
    }
}

/// Lints one file's source. `file` is the `/`-separated workspace-relative
/// path (it drives the allowlists). Pure — the fixture tests feed it
/// synthetic paths and sources.
pub fn lint_source(file: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let stripped = strip_comments_and_strings(source);
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let original_lines: Vec<&str> = source.lines().collect();

    let unsafe_allowed = UNSAFE_FILE_ALLOWLIST.contains(&file);

    for (idx, line) in stripped_lines.iter().enumerate() {
        if has_unsafe_token(line) {
            if !unsafe_allowed {
                out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: Rule::UnsafeOutsideAllowlist,
                    message: "`unsafe` outside the allowlist (see \
                              skipflow-lint's UNSAFE_FILE_ALLOWLIST)"
                        .to_string(),
                });
            }
            if !has_safety_comment(&original_lines, idx) {
                out.push(Violation {
                    file: file.to_string(),
                    line: idx + 1,
                    rule: Rule::MissingSafetyComment,
                    message: "`unsafe` without a preceding `// SAFETY:` comment".to_string(),
                });
            }
        }
    }

    // Rule 4 is scoped to files that actually traffic in atomics, so
    // `.load()`-style methods of unrelated types elsewhere are never
    // inspected.
    if stripped.contains("sync::atomic") {
        check_orderings(file, &stripped, &mut out);
    }
    out
}

/// Recursively lints every `.rs` file under `root`, skipping `target`,
/// VCS metadata, and `fixtures` directories. Violations carry root-relative
/// `/`-separated paths; the result is sorted by file then line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        out.extend(lint_source(rel, &source));
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == ".jj" || name == "fixtures" {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .expect("walked path is under root")
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripper_preserves_lines_and_removes_prose() {
        let src = "// unsafe in a comment\nlet s = \"unsafe in a string\";\n/* block\nunsafe */\nlet l: &'static str = \"x\";\nlet c = 'u';\n";
        let stripped = strip_comments_and_strings(src);
        assert_eq!(stripped.lines().count(), src.lines().count());
        assert!(!stripped.contains("unsafe"));
        assert!(stripped.contains("let s"));
        assert!(stripped.contains("&'static str"), "lifetime survived: {stripped}");
    }

    #[test]
    fn stripper_handles_raw_strings() {
        let src = "let r = r#\"unsafe \"quoted\" std::sync::atomic\"#;\nlet after = 1;\n";
        let stripped = strip_comments_and_strings(src);
        assert!(!stripped.contains("unsafe"));
        assert!(!stripped.contains("std::sync::atomic"));
        assert!(stripped.contains("let after = 1;"));
    }

    #[test]
    fn unsafe_token_needs_word_boundaries() {
        assert!(has_unsafe_token("unsafe { x }"));
        assert!(has_unsafe_token("pub unsafe fn f()"));
        assert!(!has_unsafe_token("UnsafeSink"));
        assert!(!has_unsafe_token("not_unsafe_here"));
        assert!(!has_unsafe_token("unsafety"));
    }

    #[test]
    fn allowlisted_file_with_safety_comment_is_clean() {
        let src = "// SAFETY: test fixture, pointer is valid.\nunsafe { *p }\n";
        let v = lint_source("tests/alloc_counts.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn safety_comment_climbs_over_attributes() {
        let src = "// SAFETY: justified.\n#[allow(dead_code)]\nunsafe impl Send for X {}\n";
        let v = lint_source("tests/alloc_counts.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ordering_check_skips_zero_arg_loads() {
        let src = "use std::sync::atomic::AtomicU64;\nlet v = cell.load();\n";
        let v = lint_source("crates/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ordering_check_accepts_variables_named_order() {
        let src = "use std::sync::atomic::AtomicU64;\nfn f(a: &AtomicU64, order: Ordering) -> u64 { a.load(order) }\n";
        let v = lint_source("crates/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn multiline_atomic_call_is_spanned() {
        let src = "use std::sync::atomic::AtomicU64;\nlet r = a.compare_exchange(\n    0,\n    1,\n    SeqCst,\n    SeqCst,\n);\n";
        let v = lint_source("crates/x.rs", src);
        assert!(v.is_empty(), "{v:?}");
    }
}
