//! The perf-trajectory binary: runs the synth ladder, the fan-out rungs,
//! the resume, serve, and edit families, and the table1 corpus, and writes
//! a `BENCH_PR<n>.json` record for the repository's performance history.
//!
//! ```text
//! cargo run --release -p skipflow-bench --bin trajectory -- \
//!     [--out BENCH_PR5.json] [--pr PR5] [--ladder-only] [--skip-table1] \
//!     [--scheduler fifo] [--skip-paired] \
//!     [--baseline BENCH_PR4.json] \
//!     [--check-steps BENCH_PR5.json]
//! ```
//!
//! * `--ladder-only` runs only the ladder family — it now does what its
//!   name says. (It previously *kept* the fan-out and resume rungs and
//!   only skipped table1, which let CI pass the flag believing the full
//!   rung set was gated; CI now runs everything except table1 via
//!   `--skip-table1`, and a capture workload missing from a `--ladder-only`
//!   run fails the step gate loudly instead of passing vacuously.)
//! * `--skip-table1` skips only the table1 corpus (the step gate never
//!   reads it); the ladder, fan-out, and resume rungs all run and are all
//!   gated.
//! * `--scheduler fifo` forces the FIFO worklist on every sequential
//!   solver run — the *pre-change capture* mode, so baseline and change
//!   are measured by the same binary on the same machine.
//! * `--skip-paired` skips the paired wall-time-guard measurements
//!   (adaptive-vs-FIFO per ladder rung, sequential-vs-Reference on the
//!   largest) — they cost ~100 extra analyses per rung and only matter
//!   for committed captures; the CI step gate passes this flag.
//! * `--baseline` points at a previous run of this same harness; the
//!   summary then records wall-time and step-count reductions on the
//!   largest ladder and fan-out rungs against it.
//! * `--check-steps` compares the current run's `SkipFlow`/`sequential`
//!   step counts per scaling workload against a committed capture and
//!   exits non-zero on a > 20 % regression. Steps are deterministic per
//!   corpus, so the gate is machine-independent (wall time is not).

use skipflow_bench::trajectory::{
    parse_baseline_steps, parse_baseline_workloads, render_json_document, run_edits, run_fanout,
    run_ladder, run_resume, run_serve, run_table1,
};

/// Maximum tolerated step-count growth versus the committed capture.
const STEP_REGRESSION_TOLERANCE: f64 = 0.20;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = get("--out").unwrap_or_else(|| "BENCH_PR2.json".to_string());
    let pr = get("--pr").unwrap_or_else(|| "PR2".to_string());
    let ladder_only = args.iter().any(|a| a == "--ladder-only");
    let skip_table1 = args.iter().any(|a| a == "--skip-table1");
    let skip_paired = args.iter().any(|a| a == "--skip-paired");
    let force_fifo = match get("--scheduler").as_deref() {
        Some("fifo") => true,
        Some("scc") | None => false,
        Some(other) => panic!("unknown --scheduler {other} (expected fifo|scc)"),
    };
    let baseline = get("--baseline").map(|p| {
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read baseline {p}: {e}"))
    });
    let check_steps = get("--check-steps").map(|p| {
        (
            p.clone(),
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read capture {p}: {e}")),
        )
    });

    eprintln!("running ladder…");
    let mut workloads = run_ladder(force_fifo, !skip_paired);
    let mut serve = Vec::new();
    let mut edits = Vec::new();
    if !ladder_only {
        eprintln!("running fan-out rungs…");
        workloads.extend(run_fanout(force_fifo));
        eprintln!("running resume rungs…");
        workloads.extend(run_resume(force_fifo));
        // The serve and edit families post-date the pre-change capture
        // mode: a `--scheduler fifo` document emulates the solver before
        // the server and retraction existed, so it carries neither block.
        if !force_fifo {
            eprintln!("running serve family…");
            serve = run_serve();
            eprintln!("running edit family…");
            edits = run_edits();
        }
        if !skip_table1 {
            eprintln!("running table1 corpus…");
            workloads.extend(run_table1());
        }
    }

    let json = render_json_document(&pr, &workloads, &serve, &edits, baseline.as_deref());
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    // Human-readable recap of the serve family on stdout.
    for s in &serve {
        println!(
            "{:<12} {:<5} coalescing {:>5.1} roots/batch, {:>9.0} queries/s during solve, \
             publication latency {:>7.2} ms, {} published bytes, extraction {:>6.3} ms",
            s.name, s.scheduler, s.coalescing_ratio, s.queries_per_sec_during_solve,
            s.publication_latency_ms, s.published_bytes, s.publish_ms
        );
    }

    // Human-readable recap of the edit family on stdout.
    for e in &edits {
        println!(
            "{:<16} {} mutations / {} solves: rebuilds discarded {} methods / {} flows, \
             rebuilt solves {} steps vs fresh {} ({:.2}x), {:.1} ms",
            e.name, e.script_steps, e.solve_points, e.invalidated_methods, e.invalidated_flows,
            e.rederive_steps, e.fresh_steps, e.rederive_fresh_ratio, e.wall_ms
        );
    }

    // Human-readable recap of the scaling families on stdout.
    println!(
        "{:<12} {:>9} {:<10} {:<12} {:<5} {:>10} {:>10} {:>12} {:>9} {:>7}",
        "workload", "methods", "config", "solver", "sched", "wall[ms]", "steps", "joins", "reach",
        "dead"
    );
    for w in workloads.iter().filter(|w| w.kind != "table1") {
        for r in &w.runs {
            println!(
                "{:<12} {:>9} {:<10} {:<12} {:<5} {:>10.2} {:>10} {:>12} {:>9} {:>7}",
                w.name,
                w.generated_methods,
                r.config,
                r.solver,
                r.scheduler,
                r.wall_ms,
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
