//! Command-line entry point:
//!
//! ```text
//! skipflow-e2ebench --skipflow <bin> --workload <name> --seed <n>
//!                   --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable notes, then the JSON result as the last line.
//! Exits 1 without a result when the run cannot start; a run whose answers
//! were wrong still exits 0 with `"correct": false`.

use skipflow_e2ebench::inputs::{Scale, Workload};
use skipflow_e2ebench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = value("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (0 or 1)")),
    };
    let skipflow = PathBuf::from(value("--skipflow")?);
    if !skipflow.is_file() {
        return Err(format!("no skipflow binary at {}", skipflow.display()));
    }
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        skipflow,
        out_dir: PathBuf::from("e2ebench/out"),
        scale: Scale::Full,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = parse(&args).and_then(|opts| run(&opts));
    match report {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
