//! # skipflow-bench
//!
//! The evaluation harness: regenerates the paper's **Table 1** (all three
//! benchmark suites × {PTA, SkipFlow} × eight metrics) and **Figure 9**
//! (per-suite normalized metrics), plus the in-process perf trajectory.
//!
//! Binaries:
//!
//! * `cargo run -p skipflow-bench --bin table1 -- --suite all`
//! * `cargo run -p skipflow-bench --bin fig9`
//! * `cargo run --release -p skipflow-bench --bin trajectory -- --out <file>`
//!   — the perf trajectory record (`BENCH_PR<n>.json`; see [`trajectory`]):
//!   the CI step gate, the sequential-vs-reference comparison, the feature
//!   ablation over the table1 corpus, and the paired wall-time guards
//!
//! End-to-end wall times (the CLI and the server, input bytes to answer)
//! are measured by the separate `e2ebench/` workspace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod trajectory;

use skipflow_core::{analyze, AnalysisConfig, Metrics};
use skipflow_synth::{build_benchmark, Benchmark, BenchmarkSpec};
use std::fmt::Write as _;
use std::time::Instant;

/// Simulated compile cost per surviving instruction, standing in for the
/// Native Image compilation phase that follows the analysis (the paper's
/// *Total Time*). The constant is chosen so compilation dominates analysis
/// by roughly the paper's observed factor.
pub const COMPILE_US_PER_INSTRUCTION: f64 = 4.0;

/// One measured cell block of Table 1: a benchmark under one configuration.
#[derive(Clone, Debug)]
pub struct Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Suite name.
    pub suite: &'static str,
    /// Configuration label (`PTA` / `SkipFlow` / ablations).
    pub config: String,
    /// Wall-clock analysis time in milliseconds.
    pub analysis_ms: f64,
    /// Analysis plus simulated compilation, milliseconds.
    pub total_ms: f64,
    /// The counter metrics.
    pub metrics: Metrics,
}

impl Row {
    /// Reachable-method count (convenience accessor).
    pub fn reachable(&self) -> usize {
        self.metrics.reachable_methods
    }
}

/// Runs one benchmark under one configuration and collects a [`Row`].
pub fn measure(bench: &Benchmark, config: &AnalysisConfig) -> Row {
    let config = config
        .clone()
        .with_reflective_roots(bench.reflective_roots.iter().copied());
    let start = Instant::now();
    let result = analyze(&bench.program, &bench.roots, &config);
    let analysis_ms = start.elapsed().as_secs_f64() * 1e3;
    let metrics = result.metrics(&bench.program);
    let compile_ms = metrics.live_instructions as f64 * COMPILE_US_PER_INSTRUCTION / 1e3;
    Row {
        benchmark: bench.spec.name.clone(),
        suite: bench.spec.suite.name(),
        config: config.label().to_string(),
        analysis_ms,
        total_ms: analysis_ms + compile_ms,
        metrics,
    }
}

/// Runs a full suite under both Table 1 configurations; returns
/// `(PTA row, SkipFlow row)` per benchmark.
pub fn run_suite(specs: &[BenchmarkSpec]) -> Vec<(Row, Row)> {
    specs
        .iter()
        .map(|spec| {
            let bench = build_benchmark(spec);
            let pta = measure(&bench, &AnalysisConfig::baseline_pta());
            let skf = measure(&bench, &AnalysisConfig::skipflow());
            (pta, skf)
        })
        .collect()
}

fn delta(pta: f64, skf: f64) -> String {
    if pta == 0.0 {
        return "    -".to_string();
    }
    let d = (skf - pta) / pta * 100.0;
    format!("{d:+6.1}%")
}

fn fmt_k(v: usize) -> String {
    if v >= 10_000 {
        format!("{:.1}k", v as f64 / 1000.0)
    } else {
        v.to_string()
    }
}

/// Renders Table 1 for a set of measured benchmark pairs.
pub fn render_table1(pairs: &[(Row, Row)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:<9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "Benchmark",
        "Config",
        "Analysis",
        "Total",
        "Methods",
        "TypeChk",
        "NullChk",
        "PrimChk",
        "PolyCall",
        "Size[KB]"
    );
    let _ = writeln!(out, "{}", "-".repeat(120));
    for (pta, skf) in pairs {
        let m = &pta.metrics;
        let _ = writeln!(
            out,
            "{:<26} {:<9} {:>9.1}ms {:>9.1}ms {:>9} {:>9} {:>9} {:>9} {:>9} {:>10.1}",
            pta.benchmark,
            pta.config,
            pta.analysis_ms,
            pta.total_ms,
            fmt_k(m.reachable_methods),
            fmt_k(m.type_checks),
            fmt_k(m.null_checks),
            fmt_k(m.prim_checks),
            fmt_k(m.poly_calls),
            m.binary_size_bytes as f64 / 1024.0,
        );
        let s = &skf.metrics;
        let _ = writeln!(
            out,
            "{:<26} {:<9} {:>9.1}ms {:>9.1}ms {:>9} {:>9} {:>9} {:>9} {:>9} {:>10.1}",
            "",
            skf.config,
            skf.analysis_ms,
            skf.total_ms,
            fmt_k(s.reachable_methods),
            fmt_k(s.type_checks),
            fmt_k(s.null_checks),
            fmt_k(s.prim_checks),
            fmt_k(s.poly_calls),
            s.binary_size_bytes as f64 / 1024.0,
        );
        let _ = writeln!(
            out,
            "{:<26} {:<9} {:>11} {:>11} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
            "",
            "  Δ",
            delta(pta.analysis_ms, skf.analysis_ms),
            delta(pta.total_ms, skf.total_ms),
            delta(m.reachable_methods as f64, s.reachable_methods as f64),
            delta(m.type_checks as f64, s.type_checks as f64),
            delta(m.null_checks as f64, s.null_checks as f64),
            delta(m.prim_checks as f64, s.prim_checks as f64),
            delta(m.poly_calls as f64, s.poly_calls as f64),
            delta(
                m.binary_size_bytes as f64,
                s.binary_size_bytes as f64
            ),
        );
    }
    out.push_str(&render_summary(pairs));
    out
}

/// Renders the per-suite averages quoted in the paper's abstract and §6.
pub fn render_summary(pairs: &[(Row, Row)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    let n = pairs.len() as f64;
    let avg = |f: &dyn Fn(&(Row, Row)) -> f64| pairs.iter().map(f).sum::<f64>() / n;
    let red = |pta: f64, skf: f64| (1.0 - skf / pta) * 100.0;
    let methods = avg(&|(p, s)| {
        red(
            p.metrics.reachable_methods as f64,
            s.metrics.reachable_methods as f64,
        )
    });
    let max_red = pairs
        .iter()
        .map(|(p, s)| {
            red(
                p.metrics.reachable_methods as f64,
                s.metrics.reachable_methods as f64,
            )
        })
        .fold(f64::MIN, f64::max);
    let min_red = pairs
        .iter()
        .map(|(p, s)| {
            red(
                p.metrics.reachable_methods as f64,
                s.metrics.reachable_methods as f64,
            )
        })
        .fold(f64::MAX, f64::min);
    // Changes use the Δ-row convention: negative = improvement.
    let change = |pta: f64, skf: f64| (skf / pta - 1.0) * 100.0;
    let analysis = avg(&|(p, s)| change(p.analysis_ms, s.analysis_ms));
    let total = avg(&|(p, s)| change(p.total_ms, s.total_ms));
    let size = avg(&|(p, s)| {
        change(
            p.metrics.binary_size_bytes as f64,
            s.metrics.binary_size_bytes as f64,
        )
    });
    let _ = writeln!(out, "{}", "-".repeat(120));
    let _ = writeln!(
        out,
        "Reachable methods reduced by max {max_red:.1}%, min {min_red:.1}%, avg {methods:.1}%; \
         analysis time {analysis:+.1}%, total time {total:+.1}%, binary size {size:+.1}% (avg)."
    );
    out
}

/// The honest binary-size experiment: shrink each benchmark under both
/// configurations (dropping unreachable methods, stubbing dead code) and
/// compare the *encoded* `SFBC` byte sizes — real bytes instead of the
/// instruction-count proxy of Table 1.
pub fn render_real_sizes(specs: &[BenchmarkSpec]) -> String {
    use skipflow_core::shrink::{encoded_sizes, shrink};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>12} {:>14} {:>8}",
        "Benchmark", "Original[B]", "PTA[B]", "SkipFlow[B]", "Δ"
    );
    let _ = writeln!(out, "{}", "-".repeat(78));
    for spec in specs {
        let bench = build_benchmark(spec);
        let pta = analyze(&bench.program, &bench.roots, &AnalysisConfig::baseline_pta());
        let skf = analyze(&bench.program, &bench.roots, &AnalysisConfig::skipflow());
        let p = shrink(&bench.program, &pta).expect("PTA shrink validates");
        let s = shrink(&bench.program, &skf).expect("SkipFlow shrink validates");
        let (original, pta_bytes) = encoded_sizes(&bench.program, &p);
        let (_, skf_bytes) = encoded_sizes(&bench.program, &s);
        let _ = writeln!(
            out,
            "{:<26} {:>12} {:>12} {:>14} {:>7.1}%",
            spec.name,
            original,
            pta_bytes,
            skf_bytes,
            (skf_bytes as f64 / pta_bytes as f64 - 1.0) * 100.0
        );
    }
    out
}

/// Renders measured pairs as CSV (one line per configuration run) for
/// external plotting.
pub fn render_csv(pairs: &[(Row, Row)]) -> String {
    let mut out = String::from(
        "suite,benchmark,config,analysis_ms,total_ms,reachable_methods,\
         type_checks,null_checks,prim_checks,poly_calls,live_instructions,binary_size_bytes\n",
    );
    for (pta, skf) in pairs {
        for row in [pta, skf] {
            let m = &row.metrics;
            let _ = writeln!(
                out,
                "{},{},{},{:.3},{:.3},{},{},{},{},{},{},{}",
                row.suite,
                row.benchmark,
                row.config,
                row.analysis_ms,
                row.total_ms,
                m.reachable_methods,
                m.type_checks,
                m.null_checks,
                m.prim_checks,
                m.poly_calls,
                m.live_instructions,
                m.binary_size_bytes
            );
        }
    }
    out
}

/// The metric series of Figure 9, normalized to the PTA baseline
/// (values < 1.0 are improvements).
#[derive(Clone, Debug)]
pub struct NormalizedRow {
    /// Benchmark name.
    pub benchmark: String,
    /// `[analysis, total, methods, type, null, prim, poly, size]`, each
    /// SkipFlow / PTA.
    pub series: [f64; 8],
}

/// The metric labels of [`NormalizedRow::series`].
pub const FIG9_METRICS: [&str; 8] = [
    "Analysis Time",
    "Total Time",
    "Reach. Methods",
    "Type Checks",
    "Null Checks",
    "Prim Checks",
    "Poly Calls",
    "Binary Size",
];

/// Normalizes measured pairs into Figure 9 series.
pub fn normalize(pairs: &[(Row, Row)]) -> Vec<NormalizedRow> {
    pairs
        .iter()
        .map(|(p, s)| {
            let r = |a: f64, b: f64| if a == 0.0 { 1.0 } else { b / a };
            NormalizedRow {
                benchmark: p.benchmark.clone(),
                series: [
                    r(p.analysis_ms, s.analysis_ms),
                    r(p.total_ms, s.total_ms),
                    r(
                        p.metrics.reachable_methods as f64,
                        s.metrics.reachable_methods as f64,
                    ),
                    r(p.metrics.type_checks as f64, s.metrics.type_checks as f64),
                    r(p.metrics.null_checks as f64, s.metrics.null_checks as f64),
                    r(p.metrics.prim_checks as f64, s.metrics.prim_checks as f64),
                    r(p.metrics.poly_calls as f64, s.metrics.poly_calls as f64),
                    r(
                        p.metrics.binary_size_bytes as f64,
                        s.metrics.binary_size_bytes as f64,
                    ),
                ],
            }
        })
        .collect()
}

/// Renders one Figure 9 panel (a suite) as a table plus ASCII bars for the
/// reachable-methods series.
pub fn render_fig9(suite: &str, rows: &[NormalizedRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9 — {suite} (SkipFlow / PTA; < 1.0 is an improvement)");
    let _ = write!(out, "{:<26}", "Benchmark");
    for m in FIG9_METRICS {
        let _ = write!(out, " {:>14}", m);
    }
    out.push('\n');
    let _ = writeln!(out, "{}", "-".repeat(26 + 15 * FIG9_METRICS.len()));
    for row in rows {
        let _ = write!(out, "{:<26}", row.benchmark);
        for v in row.series {
            let _ = write!(out, " {v:>14.3}");
        }
        out.push('\n');
    }
    // ASCII bars for the headline metric.
    let _ = writeln!(out, "\nReach. Methods (normalized):");
    for row in rows {
        let v = row.series[2];
        let width = (v * 50.0).round().clamp(0.0, 60.0) as usize;
        let _ = writeln!(out, "{:<26} {:5.3} |{}", row.benchmark, v, "#".repeat(width));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipflow_synth::suites;

    #[test]
    fn measure_produces_consistent_rows() {
        let spec = suites::by_name("lusearch").unwrap();
        let bench = build_benchmark(&spec);
        let pta = measure(&bench, &AnalysisConfig::baseline_pta());
        let skf = measure(&bench, &AnalysisConfig::skipflow());
        assert_eq!(pta.config, "PTA");
        assert_eq!(skf.config, "SkipFlow");
        assert!(skf.reachable() < pta.reachable());
        assert!(skf.total_ms > skf.analysis_ms);
    }

    #[test]
    fn table_renders_all_columns() {
        let pairs = run_suite(&suites::quick()[..1]);
        let table = render_table1(&pairs);
        for col in ["Methods", "TypeChk", "PolyCall", "Size[KB]", "avg"] {
            assert!(table.contains(col), "missing {col} in:\n{table}");
        }
    }

    #[test]
    fn normalization_is_one_for_identical_rows() {
        let spec = suites::by_name("lusearch").unwrap();
        let bench = build_benchmark(&spec);
        let row = measure(&bench, &AnalysisConfig::baseline_pta());
        let rows = normalize(&[(row.clone(), row)]);
        for (i, v) in rows[0].series.iter().enumerate() {
            if i >= 2 {
                // Time columns wobble; metric columns must be exactly 1.
                assert!((v - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fig9_renders_every_benchmark() {
        let pairs = run_suite(&suites::quick()[..2]);
        let rows = normalize(&pairs);
        let text = render_fig9("smoke", &rows);
        assert!(text.contains("lusearch"));
        assert!(text.contains("Reach. Methods"));
    }

    #[test]
    fn csv_has_one_line_per_config_run() {
        let pairs = run_suite(&suites::quick()[..1]);
        let csv = render_csv(&pairs);
        assert_eq!(csv.lines().count(), 3, "header + PTA + SkipFlow:\n{csv}");
        assert!(csv.contains(",PTA,"));
        assert!(csv.contains(",SkipFlow,"));
    }

    #[test]
    fn real_sizes_shrink_under_skipflow() {
        let specs = [suites::by_name("sunflow").unwrap()];
        let table = render_real_sizes(&specs);
        assert!(table.contains("sunflow"), "{table}");
        // The sunflow row must show a large negative delta.
        let line = table.lines().find(|l| l.starts_with("sunflow")).unwrap();
        let delta: f64 = line
            .split_whitespace()
            .last()
            .unwrap()
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(delta < -30.0, "expected a big reduction, got {delta}%");
    }
}
