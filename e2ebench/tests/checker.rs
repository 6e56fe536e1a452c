//! The benchmark checks its own checker: a tampered expected answer must
//! count as a failed operation, and every workload must run clean end to
//! end — untraced and traced — on small inputs with a seed that was not
//! used while the benchmark was tuned.

use skipflow_e2ebench::inputs::{Scale, Workload};
use skipflow_e2ebench::{measure, run, setup, Options};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

const HELD_OUT_SEED: u64 = 90_001;

/// Builds this repository's `skipflow` binary once per test process.
fn skipflow_binary() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let target = here.join("target").join("skipflow-under-test");
        let status = Command::new(option_env!("CARGO").unwrap_or("cargo"))
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "skipflow",
            ])
            .arg("--manifest-path")
            .arg(here.join("..").join("Cargo.toml"))
            .arg("--target-dir")
            .arg(&target)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building skipflow failed");
        target.join("release").join("skipflow")
    })
}

/// Options for one test; `dir` keeps tests that run in parallel apart.
fn options(workload: Workload, trace: bool, dir: &str) -> Options {
    Options {
        workload,
        seed: HELD_OUT_SEED,
        seconds: 2.0,
        trace,
        skipflow: skipflow_binary().to_path_buf(),
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("test-out")
            .join(dir),
        scale: Scale::Small,
    }
}

#[test]
fn a_tampered_analyze_answer_counts_as_failed() {
    let opts = options(Workload::CliLadder, false, "tampered-analyze");
    let (mut inputs, setup_s) = setup(&opts).expect("setup");
    inputs.analyzed.metrics_line.push('0');
    let report = measure(&opts, &inputs, setup_s);
    assert!(!report.correct);
    assert!(
        report.failed > 0,
        "every analyze report should now mismatch"
    );
}

#[test]
fn a_tampered_server_answer_counts_as_failed() {
    let opts = options(Workload::ServeEdits, false, "tampered-server");
    let (mut inputs, setup_s) = setup(&opts).expect("setup");
    assert!(inputs.steps.len() > 1, "the edit cycle has several steps");
    inputs.expects[1].reachable_count += 1;
    let report = measure(&opts, &inputs, setup_s);
    assert!(!report.correct);
    assert!(
        report.failed > 0,
        "the post-flush count after step 1 should mismatch"
    );
}

#[test]
fn every_workload_runs_clean_end_to_end() {
    for workload in Workload::ALL {
        let report = run(&options(workload, false, "clean")).expect("run");
        assert!(
            report.correct && report.failed == 0,
            "{}: {:?}",
            workload.name(),
            report.notes
        );
        assert_eq!(report.metrics.len(), 10);
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }

        let traced = run(&options(workload, true, "clean")).expect("traced run");
        assert!(
            traced.correct,
            "{} traced: {:?}",
            workload.name(),
            traced.notes
        );
        assert_eq!(traced.metrics.len(), 32);
        let layer = |name: &str| {
            traced
                .metric(name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        if workload == Workload::CliLadder {
            // The analyze path adds up: the in-process layers plus the
            // process overhead are the measured analyze median.
            let parts = [
                "ir.read_ms",
                "ir.decode_ms",
                "core.engine.build_ms",
                "core.engine.solve_ms",
                "core.report.metrics_ms",
                "core.report.teardown_ms",
                "cli.overhead_ms",
            ];
            let sum: f64 = parts.iter().map(|p| layer(p)).sum();
            assert!((sum - layer("cli.analyze_p50_ms")).abs() < 1e-6);
        }
        assert!(layer("server.net.ping_p50_us") > 0.0);
    }
}
