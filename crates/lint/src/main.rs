//! The `skipflow-lint` binary: lints the workspace and exits non-zero on
//! any violation. Usage: `skipflow-lint [--root <path>]` (default `.`).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("error: --root requires a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: skipflow-lint [--root <path>]");
                println!();
                println!("Enforces the workspace unsafe/atomics rules:");
                println!("  unsafe-allowlist   `unsafe` only in allowlisted files");
                println!("  safety-comment     every `unsafe` preceded by // SAFETY:");
                println!("  implicit-ordering  atomic ops name an explicit Ordering");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    match skipflow_lint::lint_workspace(&root) {
        Ok(violations) if violations.is_empty() => {
            println!("skipflow-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            eprintln!("skipflow-lint: {} violation(s)", violations.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("skipflow-lint: error scanning {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
