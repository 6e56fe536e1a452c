//! # skipflow-e2ebench
//!
//! One end-to-end benchmark for SkipFlow: `skipflow analyze` run as a child
//! process and `skipflow serve` driven over loopback TCP, on seeded
//! `skipflow_synth` programs, with every answer checked against the
//! Reference solver. A separate traced run (`--trace 1`) replays the same
//! operations in-process and reports the time and work of each layer. See
//! `README.md` for the workloads and every metric.

pub mod endtoend;
pub mod inputs;
pub mod stats;
pub mod traced;
pub mod wire;

use endtoend::{EndToEnd, Tally};
use inputs::{Inputs, Scale, Workload};
use stats::{json_str, median, metrics_json, Metric, Summary};
use std::path::PathBuf;
use std::time::Instant;
use traced::Replay;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One benchmark run's parameters.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// The `skipflow` binary under test.
    pub skipflow: PathBuf,
    /// Where inputs, spans and the result record are written.
    pub out_dir: PathBuf,
    /// Input sizes.
    pub scale: Scale,
}

/// One run's result.
#[derive(Debug)]
pub struct Report {
    /// Whether every operation succeeded and matched the oracle.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines: host record, distributions, failures.
    pub notes: Vec<String>,
}

impl Report {
    /// The one-line JSON result, printed last.
    pub fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }

    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Generates the inputs [`SETUP_REPEATS`] times and returns the last set
/// with the median set-up time in seconds.
pub fn setup(opts: &Options) -> Result<(Inputs, f64), String> {
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        inputs = Some(inputs::setup(
            opts.workload,
            opts.scale,
            opts.seed,
            &opts.out_dir,
        )?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((inputs.expect("at least one set-up"), median(&times)))
}

/// Runs the benchmark: set-up, then [`measure`].
pub fn run(opts: &Options) -> Result<Report, String> {
    let (inputs, setup_s) = setup(opts)?;
    Ok(measure(opts, &inputs, setup_s))
}

/// One line describing the host and the client.
fn host_record(opts: &Options) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let processors = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")?
                .split_once(':')
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command_line = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "{{\"nproc\": {processors}, \"available_parallelism\": {parallelism}, \"cpu\": {}, \"rustc\": {}, \
         \"commit\": {}, \"workload\": {}, \"seed\": {}, \"client_threads\": 2, \"connections\": 2}}",
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])),
        json_str(opts.workload.name()),
        opts.seed
    )
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs the end-to-end phases (and, traced, the in-process replay) over
/// prepared `inputs` and assembles the report.
pub fn measure(opts: &Options, inputs: &Inputs, setup_s: f64) -> Report {
    let mut tally = Tally::default();
    tally.record(match inputs.soundness_violations {
        0 => Ok(()),
        n => Err(format!(
            "{n} interpreted methods are not in the oracle's reachable set"
        )),
    });
    // A traced run splits its time between a shorter end-to-end pass (for
    // the per-layer figures that need the binaries) and the replay.
    let e2e_secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let e2e = endtoend::end_to_end(&opts.skipflow, inputs, e2e_secs, opts.trace, &mut tally);

    let analyze = Summary::of(&e2e.analyze_ms);
    let open = Summary::of(&e2e.open_ms);
    let update = Summary::of(&e2e.update_ms);
    let query = Summary::of(&e2e.query_us);
    let mut notes = vec![
        format!("host: {}", host_record(opts)),
        analyze.describe("analyze", "ms"),
        open.describe("open", "ms"),
        update.describe("update", "ms"),
        query.describe("query", "us"),
        format!(
            "cycle: {} steps, reachable after each: {:?}",
            inputs.steps.len(),
            inputs
                .expects
                .iter()
                .map(|e| e.reachable_count)
                .collect::<Vec<_>>()
        ),
    ];

    let metrics = if opts.trace {
        let replay = Replay::run(inputs, opts.seconds / 2.0, &mut tally);
        let layers = per_layer(inputs, &analyze, &e2e, &replay);
        let spans = opts
            .out_dir
            .join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
        match std::fs::write(&spans, replay.tracer.to_json()) {
            Ok(()) => notes.push(format!("spans: {}", spans.display())),
            Err(e) => tally.record(Err(format!("cannot write {}: {e}", spans.display()))),
        }
        layers
    } else {
        vec![
            metric("setup_s", setup_s, "s"),
            metric("analyze_p50_ms", analyze.p50, "ms"),
            metric("analyze_tail_ms", analyze.tail, "ms"),
            metric("open_p50_ms", open.p50, "ms"),
            metric("update_p50_ms", update.p50, "ms"),
            metric("update_tail_ms", update.tail, "ms"),
            metric("query_p50_us", query.p50, "us"),
            metric("query_tail_us", query.tail, "us"),
            metric("server_peak_rss_mb", e2e.peak_rss_kb as f64 / 1024.0, "MB"),
            metric(
                "reachable_methods",
                inputs.analyzed.reachable_count as f64,
                "count",
            ),
        ]
    };
    notes.push(format!(
        "error_rate: {}/{} = {}",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    ));
    notes.extend(tally.failures.iter().map(|f| format!("failure: {f}")));
    Report {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    }
}

/// The per-layer metrics of a traced run (see `README.md`).
fn per_layer(inputs: &Inputs, analyze: &Summary, e2e: &EndToEnd, replay: &Replay) -> Vec<Metric> {
    let tr = &replay.tracer;
    let cli = |name| median(&tr.per_root("cli.replay", name));
    let (read, decode, build, solve, metrics_ms, teardown) = (
        cli("ir.read"),
        cli("ir.decode"),
        cli("core.engine.build"),
        cli("core.engine.solve"),
        cli("core.report.metrics"),
        cli("core.report.teardown"),
    );
    // The engine figures come from the workload's primary path: the
    // analyze replay on cli-ladder, connection A's cycle elsewhere.
    let on_cli = inputs.workload == Workload::CliLadder;
    let (stats, memory_bytes, engine_build, engine_solve) = if on_cli {
        let last = replay.cli.last();
        (
            last.map(|c| c.stats.clone()),
            last.map_or(0, |c| c.memory_bytes),
            build,
            solve,
        )
    } else {
        let last = replay.core.last();
        (
            last.map(|c| c.stats.clone()),
            last.map_or(0, |c| c.memory_bytes),
            median(&tr.per_root("core.replay", "core.engine.build")),
            median(&tr.per_root("core.replay", "core.engine.solve")),
        )
    };
    let stats = stats.unwrap_or_default();
    let inval = replay
        .core
        .last()
        .map(|c| c.stats.invalidation)
        .unwrap_or_default();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let step_ratios: Vec<f64> = replay
        .core
        .iter()
        .map(|c| ratio(c.incremental_steps as f64, c.fresh_steps as f64))
        .collect();
    let wall_ratios: Vec<f64> = replay
        .core
        .iter()
        .map(|c| ratio(c.incremental_wall.as_secs_f64(), c.fresh_wall.as_secs_f64()))
        .collect();
    let query_p50 = median(&e2e.query_us);
    let f = |v: u64| v as f64;
    vec![
        metric("ir.read_ms", read, "ms"),
        metric("ir.decode_ms", decode, "ms"),
        metric("core.engine.build_ms", engine_build, "ms"),
        metric("core.engine.solve_ms", engine_solve, "ms"),
        metric("core.engine.steps", f(stats.steps), "count"),
        metric("core.engine.state_joins", f(stats.state_joins), "count"),
        metric(
            "core.engine.useful_step_ratio",
            ratio(f(stats.state_joins), f(stats.steps)),
            "ratio",
        ),
        metric("core.engine.flows", stats.flows as f64, "count"),
        metric(
            "core.engine.edges",
            (stats.use_edges + stats.pred_edges + stats.obs_edges) as f64,
            "count",
        ),
        metric("core.engine.memory_bytes", memory_bytes as f64, "bytes"),
        metric(
            "core.scheduler.order_repairs",
            f(stats.scheduler.order_repairs),
            "count",
        ),
        metric(
            "core.scheduler.scc_merges",
            f(stats.scheduler.scc_merges),
            "count",
        ),
        metric("core.scheduler.flips", f(stats.scheduler.flips), "count"),
        metric(
            "core.invalidation.edit_ms",
            median(&tr.per_root("core.replay", "core.invalidation.edit")),
            "ms",
        ),
        metric(
            "core.invalidation.invalidated_flows",
            f(inval.invalidated_flows),
            "count",
        ),
        metric(
            "core.invalidation.rederive_steps",
            f(inval.rederive_steps),
            "count",
        ),
        metric(
            "core.invalidation.rederive_fresh_step_ratio",
            median(&step_ratios),
            "ratio",
        ),
        metric(
            "core.invalidation.rederive_fresh_wall_ratio",
            median(&wall_ratios),
            "ratio",
        ),
        metric(
            "core.report.owned_snapshot_ms",
            median(&tr.durations("core.report.owned_snapshot")),
            "ms",
        ),
        metric("core.report.metrics_ms", metrics_ms, "ms"),
        metric("core.report.teardown_ms", teardown, "ms"),
        metric("cli.analyze_p50_ms", analyze.p50, "ms"),
        metric(
            "cli.overhead_ms",
            analyze.p50 - (read + decode + build + solve + metrics_ms + teardown),
            "ms",
        ),
        metric(
            "server.registry.open_ms",
            median(&tr.durations("server.registry.open")),
            "ms",
        ),
        metric(
            "server.registry.batch_ms",
            median(&tr.durations("server.step")),
            "ms",
        ),
        metric(
            "server.registry.coalescing_ratio",
            median(
                &replay
                    .registry
                    .iter()
                    .map(|c| c.coalescing_ratio)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
        ),
        metric(
            "server.registry.epochs_published",
            median(
                &replay
                    .registry
                    .iter()
                    .map(|c| c.epochs_published as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
        metric("server.publish.load_ns", median(&replay.load_ns), "ns"),
        metric("server.net.ping_p50_us", median(&e2e.ping_us), "us"),
        metric("server.net.query_p50_us", query_p50, "us"),
        metric(
            "server.net.overhead_us",
            query_p50 - median(&replay.handle_us),
            "us",
        ),
        metric(
            "server.accounting_ratio",
            ratio(e2e.registry_memory_bytes as f64, e2e.rss_kb as f64 * 1024.0),
            "ratio",
        ),
    ]
}
