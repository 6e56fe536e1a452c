//! The perf-trajectory binary: runs the synth ladder, the fan-out and
//! resume rungs, and the table1 corpus (feature ablation), and writes a
//! `BENCH_PR<n>.json` record (schema `v13`: one sequential and one
//! reference row per SkipFlow workload, no scheduler columns; every row
//! carries `build_ms`,
//! the fragment-build share of its `wall_ms`, and the load layer of its
//! workload — `decode_ms`, the best-of-3 decode of the program encoded
//! once to `SFBC`, and `program_bytes`, the decoded program's heap bytes)
//! for the repository's performance history.
//!
//! ```text
//! cargo run --release -p skipflow-bench --bin trajectory -- \
//!     --out BENCH_PR5.json [--pr PR5] [--skip-table1] [--skip-paired] \
//!     [--check-steps BENCH_PR5.json]
//! ```
//!
//! * `--out` (required) is the document to write; there is no default, so
//!   a bare run never overwrites a committed capture.
//! * `--pr` is the label recorded in the document.
//! * `--skip-table1` skips only the table1 corpus (the step gate never
//!   reads it); the ladder, fan-out, and resume rungs all run and are all
//!   gated.
//! * `--skip-paired` skips the paired wall-time-guard measurements
//!   (sequential-vs-Reference and the cancel-check overhead on the largest
//!   ladder rung) — they cost ~200 extra analyses and only matter for
//!   committed captures; the CI step gate passes this flag.
//! * `--check-steps` compares the current run's `SkipFlow`/`sequential`
//!   step counts per scaling workload against a committed capture and
//!   exits non-zero on a > 20 % regression. Steps are deterministic per
//!   corpus, so the gate is machine-independent (wall time is not).
//!
//! Any other argument prints the usage and exits 2.

use skipflow_bench::trajectory::{
    parse_baseline_steps, parse_baseline_workloads, render_json, run_fanout, run_ladder,
    run_resume, run_table1,
};

/// Maximum tolerated step-count growth versus the committed capture.
const STEP_REGRESSION_TOLERANCE: f64 = 0.20;

const USAGE: &str = "usage: trajectory --out <file> [--pr <label>] [--skip-table1] \
                     [--skip-paired] [--check-steps <capture>]";

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    out: String,
    pr: String,
    skip_table1: bool,
    skip_paired: bool,
    check_steps: Option<String>,
}

/// Parses the arguments after the program name; any unknown flag, missing
/// value or missing `--out` is an error.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = None;
    let mut pr = "PR2".to_string();
    let mut skip_table1 = false;
    let mut skip_paired = false;
    let mut check_steps = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--out" => out = Some(value()?),
            "--pr" => pr = value()?,
            "--check-steps" => check_steps = Some(value()?),
            "--skip-table1" => skip_table1 = true,
            "--skip-paired" => skip_paired = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        out: out.ok_or("--out is required")?,
        pr,
        skip_table1,
        skip_paired,
        check_steps,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let check_steps = args.check_steps.map(|p| {
        let capture =
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read capture {p}: {e}"));
        (p, capture)
    });

    eprintln!("running ladder…");
    let mut workloads = run_ladder(!args.skip_paired);
    eprintln!("running fan-out rungs…");
    workloads.extend(run_fanout());
    eprintln!("running resume rungs…");
    workloads.extend(run_resume());
    if !args.skip_table1 {
        eprintln!("running table1 corpus…");
        workloads.extend(run_table1());
    }

    let out_path = &args.out;
    let json = render_json(&args.pr, &workloads);
    std::fs::write(out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    // Human-readable recap of the scaling families on stdout.
    println!(
        "{:<12} {:>9} {:<10} {:<12} {:>10} {:>10} {:>10} {:>12} {:>9} {:>7}",
        "workload", "methods", "config", "solver", "wall[ms]", "build[ms]", "steps", "joins",
        "reach", "dead"
    );
    for w in workloads.iter().filter(|w| w.kind != "table1") {
        for r in &w.runs {
            println!(
                "{:<12} {:>9} {:<10} {:<12} {:>10.2} {:>10.2} {:>10} {:>12} {:>9} {:>7}",
                w.name,
                w.generated_methods,
                r.config,
                r.solver,
                r.wall_ms,
                r.build_ms,
                r.steps,
                r.state_joins,
                r.reachable_methods,
                r.dead_blocks
            );
        }
    }

    // CI step-count regression gate.
    if let Some((path, capture)) = check_steps {
        let mut failures = Vec::new();
        for name in parse_baseline_workloads(&capture) {
            let Some(committed) = parse_baseline_steps(&capture, &name) else { continue };
            let current = workloads
                .iter()
                .filter(|w| w.name == name)
                .flat_map(|w| &w.runs)
                .find(|r| r.config == "SkipFlow" && r.solver == "sequential");
            let Some(current) = current else {
                // A committed workload that no longer runs means the rung
                // set changed without re-capturing the baseline — fail
                // loudly instead of letting the gate pass vacuously.
                failures.push(format!(
                    "{name}: present in the committed capture but missing from this run \
                     (rung set changed? regenerate the capture)"
                ));
                continue;
            };
            let ratio = current.steps as f64 / committed as f64;
            eprintln!(
                "check-steps: {name}: {} steps vs committed {committed} ({:+.1} %)",
                current.steps,
                (ratio - 1.0) * 100.0
            );
            if ratio > 1.0 + STEP_REGRESSION_TOLERANCE {
                failures.push(format!(
                    "{name}: {} steps vs committed {committed} (+{:.1} % > {:.0} % tolerance)",
                    current.steps,
                    (ratio - 1.0) * 100.0,
                    STEP_REGRESSION_TOLERANCE * 100.0
                ));
            }
        }
        if !failures.is_empty() {
            eprintln!("step-count regression against {path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        eprintln!("check-steps: no regression against {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(command_line: &str) -> Result<Args, String> {
        let args: Vec<String> = command_line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_the_ci_command_and_rejects_everything_else() {
        let ci = parse(
            "--skip-table1 --skip-paired --out /tmp/t.json --pr ci --check-steps BENCH_PR26.json",
        );
        assert_eq!(
            ci,
            Ok(Args {
                out: "/tmp/t.json".to_string(),
                pr: "ci".to_string(),
                skip_table1: true,
                skip_paired: true,
                check_steps: Some("BENCH_PR26.json".to_string()),
            })
        );
        assert_eq!(parse(""), Err("--out is required".to_string()));
        assert_eq!(parse("--out"), Err("--out needs a value".to_string()));
        for stale in [
            "--scheduler fifo",
            "--baseline BENCH_PR2.json",
            "--ladder-only",
        ] {
            let flag = stale.split(' ').next().unwrap();
            assert_eq!(
                parse(&format!("--out t.json {stale}")),
                Err(format!("unknown argument {flag}"))
            );
        }
    }
}
