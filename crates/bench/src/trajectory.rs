//! The perf-trajectory harness: a fixed workload set measured the same way
//! in every PR, so the repository accumulates a comparable record
//! (`BENCH_PR<n>.json` at the repo root). Its job is the deterministic
//! step gate and the in-process precision rows; end-to-end wall times
//! (CLI and server, load to answer) are measured by `e2ebench/`.
//!
//! Four workload families:
//!
//! * **ladder** — synthetic programs of doubling size at fixed shape
//!   (fanout 8, 20% guarded-dead), stressing solver scaling; the largest
//!   rung is the headline number.
//! * **fanout** — shared-field fan-out programs of doubling reader count
//!   (one field sink feeding hundreds of readers), the regime where the
//!   sequential solver's tiered queue beats the reference solver's FIFO
//!   order by an order of magnitude in steps.
//! * **resume** — the session API's incremental-root workload: solve a
//!   benchmark's own roots, then `add_roots` a spread of extra entry points
//!   and re-solve. Each record carries the *fresh* union fixpoint
//!   (`SkipFlow`/`sequential`, the row the step gate checks) next to the
//!   *incremental* re-solve (`SkipFlow-resume`): same results, far fewer
//!   steps.
//! * **table1** — the full 35-benchmark corpus under the feature ablation
//!   (PTA, predicates only, primitives only, full SkipFlow), sequential
//!   solver, mirroring the paper's evaluation. Ungated.
//!
//! Per run the harness records the load layer (`decode_ms`: the best-of-3
//! decode of the workload's program, encoded once to `SFBC`, and
//! `program_bytes`: the decoded program's `Program::heap_bytes`), wall time
//! and the fragment-build part of it (`build_ms`, so each row splits into
//! build and propagation), worklist
//! steps, state joins (the propagation volume), the peak flow count, and
//! the precision outcomes (reachable methods, dead blocks) so perf changes
//! that silently alter results are caught immediately. The sequential
//! solver (the primary row) is measured next to the full-join reference
//! solver and the PTA baseline. The wall-time guards (sequential vs
//! reference, armed vs unarmed interrupt checks) are paired ratios within
//! one run, never comparisons across captures.

use skipflow_core::{
    analyze, AnalysisConfig, AnalysisResult, AnalysisSession, CancelToken, SolverKind,
};
use skipflow_ir::encode::{decode, encode};
use skipflow_ir::MethodId;
use skipflow_synth::{build_benchmark, Benchmark, BenchmarkSpec, Suite};
use std::fmt::Write as _;
use std::time::Instant;

/// One measured (workload × config × solver) cell.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Configuration label (`PTA` / `SkipFlow`).
    pub config: String,
    /// Solver label (`sequential` / `reference`).
    pub solver: String,
    /// Wall-clock analysis time in milliseconds.
    pub wall_ms: f64,
    /// The part of `wall_ms` spent building PVPG fragments
    /// ([`skipflow_core::SolveStats::build`]), from the same run; the rest
    /// is propagation. Ungated: it is a wall time.
    pub build_ms: f64,
    /// Best-of-3 wall time to decode the workload's program from its
    /// `SFBC` encoding (the load layer; the same for every row of a
    /// workload). Ungated: it is a wall time.
    pub decode_ms: f64,
    /// Heap bytes of the decoded program ([`skipflow_ir::Program::heap_bytes`]).
    pub program_bytes: usize,
    /// Worklist steps executed.
    pub steps: u64,
    /// Input-state joins that changed a state.
    pub state_joins: u64,
    /// Peak flow count (the PVPG arena only grows).
    pub flows: usize,
    /// Use edges in the final PVPG.
    pub use_edges: usize,
    /// Reachable methods (precision guard).
    pub reachable_methods: usize,
    /// Dead blocks across reachable methods (precision guard).
    pub dead_blocks: usize,
}

/// All runs of one workload.
#[derive(Clone, Debug)]
pub struct WorkloadRecord {
    /// Workload name (`rung-8000`, `fanout-400`, `sunflow`, …).
    pub name: String,
    /// Workload family (`ladder` / `fanout` / `resume` / `table1`).
    pub kind: &'static str,
    /// Concrete methods the generator emitted.
    pub generated_methods: usize,
    /// The measured runs.
    pub runs: Vec<RunRecord>,
    /// Sequential vs Reference wall-time ratio from a *paired* measurement
    /// (largest ladder rung of a full capture only): the two
    /// configurations alternate back-to-back with the order swapped each
    /// pair, so machine drift cancels. The "the scheduled solver is not
    /// slower than its oracle" guard.
    pub sequential_reference_wall_ratio: Option<f64>,
    /// Armed-guard vs unarmed solve wall-time ratio from the same paired
    /// protocol (largest ladder rung of a full capture only): a
    /// `solve_interruptible` run carrying a never-tripped cancel token
    /// against the identical solve with no guard. The PR 6 interrupt
    /// machinery promises the strided poll costs ≤ 1 % wall time — this is
    /// the number that guard is judged on.
    pub interrupt_overhead_wall_ratio: Option<f64>,
}

/// The ladder rungs: doubling method counts at fixed shape. The largest
/// rung is the one the acceptance criteria quote.
pub fn ladder_specs() -> Vec<BenchmarkSpec> {
    [2000usize, 4000, 8000, 16000, 32000]
        .into_iter()
        .map(|n| {
            BenchmarkSpec::new(&format!("rung-{n}"), Suite::DaCapo, n, 0.2).with_fanout(8)
        })
        .collect()
}

/// The fan-out rungs: one shared field sink feeding a doubling number of
/// readers (writers double alongside, so the sink's state width grows
/// too). Reader wiring precedes the writes, so every stored type is an
/// incremental update that must fan out to every reader.
pub fn fanout_specs() -> Vec<BenchmarkSpec> {
    [(100usize, 64usize), (200, 128), (400, 256)]
        .into_iter()
        .map(|(readers, writers)| {
            BenchmarkSpec::new(&format!("fanout-{readers}"), Suite::DaCapo, 60, 0.0)
                .with_shared_sink(readers, writers)
        })
        .collect()
}

/// The resume rungs: one ladder-shaped and one fan-out-shaped workload at
/// moderate size, solved from their own roots and then resumed with
/// [`RESUME_EXTRA_ROOTS`] added entry points.
pub fn resume_specs() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::new("resume-rung-2000", Suite::DaCapo, 2000, 0.2).with_fanout(8),
        BenchmarkSpec::new("resume-fanout-200", Suite::DaCapo, 60, 0.0).with_shared_sink(200, 128),
    ]
}

/// Extra entry points added to each resume rung before the re-solve.
pub const RESUME_EXTRA_ROOTS: usize = 16;

/// Measures one resume rung under `config`: the fresh fixpoint over the
/// union of the benchmark roots and `extra`, and the incremental re-solve
/// that reaches the same fixpoint by resuming a session already saturated
/// over the benchmark roots. Returns `(fresh, incremental)` records; the
/// incremental record's wall time and steps cover *only* the `add_roots` +
/// re-solve. Panics if the two fixpoints disagree on the precision guards —
/// the bit-level identity is enforced by `tests/session_resume.rs`, but a
/// perf document must never be produced from diverging runs.
pub fn measure_resume(
    bench: &Benchmark,
    extra: &[MethodId],
    config: &AnalysisConfig,
    iters: usize,
) -> (RunRecord, RunRecord) {
    let config = config
        .clone()
        .with_reflective_roots(bench.reflective_roots.iter().copied());
    let union_roots: Vec<MethodId> = bench.roots.iter().chain(extra).copied().collect();

    // Fresh union runs: warm-up, then the best (minimum-wall) iteration —
    // wall time *and* result are taken from the same iteration, so the row
    // is internally consistent.
    let _warmup = analyze(&bench.program, &union_roots, &config);
    let mut fresh_best: Option<(f64, AnalysisResult)> = None;
    for _ in 0..iters.max(1) {
        let start = Instant::now();
        let r = analyze(&bench.program, &union_roots, &config);
        let wall = start.elapsed().as_secs_f64() * 1e3;
        if fresh_best.as_ref().is_none_or(|(w, _)| wall < *w) {
            fresh_best = Some((wall, r));
        }
    }
    let (fresh_wall, fresh_result) = fresh_best.expect("at least one fresh run");

    // Incremental runs: the session solves the benchmark roots to fixpoint,
    // then the timed region is add_roots(extra) + re-solve. All row fields
    // (wall, steps, joins, result) come from the single minimum-wall
    // iteration — previously the wall was the min while steps/joins came
    // from whichever iteration ran last, leaving rows internally
    // inconsistent whenever the minimum was not the final iteration.
    let mut resume_best: Option<(f64, f64, u64, u64, AnalysisResult)> = None;
    for _ in 0..iters.max(1) {
        let mut session = AnalysisSession::builder(&bench.program)
            .config(config.clone())
            .roots(bench.roots.iter().copied())
            .build()
            .expect("benchmark roots are valid");
        session.solve();
        let before = session.snapshot().stats().clone();
        let start = Instant::now();
        session.add_roots(extra.iter().copied()).expect("extra roots are valid");
        session.solve();
        let wall = start.elapsed().as_secs_f64() * 1e3;
        let steps = session.last_solve_steps();
        let after = session.snapshot().stats().clone();
        let joins = after.state_joins - before.state_joins;
        let build = (after.build - before.build).as_secs_f64() * 1e3;
        if resume_best.as_ref().is_none_or(|(w, ..)| wall < *w) {
            resume_best = Some((wall, build, steps, joins, session.into_result()));
        }
    }
    let (resume_wall, resume_build, resume_steps, resume_joins, resumed_result) =
        resume_best.expect("at least one incremental run");

    assert_eq!(
        fresh_result.reachable_methods(),
        resumed_result.reachable_methods(),
        "resume diverged from the fresh union fixpoint"
    );
    let fresh_dead = dead_block_total(&fresh_result);
    let resumed_dead = dead_block_total(&resumed_result);
    assert_eq!(fresh_dead, resumed_dead, "resume dead-block totals diverged");

    let (decode_ms, program_bytes) = measure_load(bench);
    let record = |label: &str, result: &AnalysisResult, wall_ms, build_ms, steps, joins| RunRecord {
        config: label.to_string(),
        solver: solver_label(config.solver()),
        wall_ms,
        build_ms,
        decode_ms,
        program_bytes,
        steps,
        state_joins: joins,
        flows: result.stats().flows,
        use_edges: result.stats().use_edges,
        reachable_methods: result.reachable_methods().len(),
        dead_blocks: dead_block_total(result),
    };
    let fresh_stats = fresh_result.stats().clone();
    (
        record(
            "SkipFlow",
            &fresh_result,
            fresh_wall,
            fresh_stats.build.as_secs_f64() * 1e3,
            fresh_stats.steps,
            fresh_stats.state_joins,
        ),
        record(
            "SkipFlow-resume",
            &resumed_result,
            resume_wall,
            resume_build,
            resume_steps,
            resume_joins,
        ),
    )
}

/// Runs the resume rungs (fresh union vs incremental re-solve per spec).
pub fn run_resume() -> Vec<WorkloadRecord> {
    let config = AnalysisConfig::skipflow();
    resume_specs()
        .iter()
        .map(|spec| {
            let bench = build_benchmark(spec);
            let extra =
                skipflow_synth::pick_spread_roots(&bench.program, &bench.roots, RESUME_EXTRA_ROOTS);
            let (fresh, incremental) = measure_resume(&bench, &extra, &config, 3);
            WorkloadRecord {
                name: spec.name.clone(),
                kind: "resume",
                generated_methods: bench.total_methods(),
                runs: vec![fresh, incremental],
                sequential_reference_wall_ratio: None,
                interrupt_overhead_wall_ratio: None,
            }
        })
        .collect()
}

fn dead_block_total(result: &AnalysisResult) -> usize {
    result
        .reachable_methods()
        .iter()
        .map(|&m| result.dead_blocks(m).len())
        .sum()
}

fn solver_label(kind: SolverKind) -> String {
    match kind {
        SolverKind::Sequential => "sequential".to_string(),
        SolverKind::Reference => "reference".to_string(),
    }
}

/// The load layer of `bench`: its program is encoded once, then decoded
/// three times; returns the best decode wall time in milliseconds and the
/// decoded program's heap bytes.
pub fn measure_load(bench: &Benchmark) -> (f64, usize) {
    let bytes = encode(&bench.program);
    let mut best = f64::INFINITY;
    let mut program_bytes = 0;
    for _ in 0..3 {
        let start = Instant::now();
        let program = decode(&bytes).expect("an encoded benchmark decodes");
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        program_bytes = program.heap_bytes();
    }
    (best, program_bytes)
}

/// Measures one benchmark under one configuration: one untimed warm-up run
/// (page faults, allocator growth), then the best of `iters` timed runs.
/// The analysis is deterministic, so only wall time varies between runs.
pub fn measure_run(bench: &Benchmark, config: &AnalysisConfig, iters: usize) -> RunRecord {
    measure_group(bench, std::slice::from_ref(config), iters)
        .pop()
        .expect("one config, one record")
}

/// Measures several configurations over the same benchmark with the timed
/// iterations *interleaved* round-robin (warm-ups first), so heap warm-up
/// and machine drift hit every configuration equally instead of biasing
/// whichever happens to run first. Records the best iteration per config
/// (its wall time, fragment-build time and result together).
pub fn measure_group(
    bench: &Benchmark,
    configs: &[AnalysisConfig],
    iters: usize,
) -> Vec<RunRecord> {
    let configs: Vec<AnalysisConfig> = configs
        .iter()
        .map(|c| {
            c.clone()
                .with_reflective_roots(bench.reflective_roots.iter().copied())
        })
        .collect();
    for config in &configs {
        let _warmup = analyze(&bench.program, &bench.roots, config);
    }
    let (decode_ms, program_bytes) = measure_load(bench);
    let mut walls = vec![f64::INFINITY; configs.len()];
    let mut results: Vec<Option<AnalysisResult>> = configs.iter().map(|_| None).collect();
    for _ in 0..iters.max(1) {
        for (i, config) in configs.iter().enumerate() {
            let start = Instant::now();
            let r = analyze(&bench.program, &bench.roots, config);
            let wall = start.elapsed().as_secs_f64() * 1e3;
            if wall < walls[i] {
                walls[i] = wall;
                results[i] = Some(r);
            }
        }
    }
    configs
        .iter()
        .zip(walls)
        .zip(results)
        .map(|((config, wall_ms), result)| {
            let result = result.expect("at least one timed run");
            let stats = result.stats();
            RunRecord {
                config: config.label().to_string(),
                solver: solver_label(config.solver()),
                wall_ms,
                build_ms: stats.build.as_secs_f64() * 1e3,
                decode_ms,
                program_bytes,
                steps: stats.steps,
                state_joins: stats.state_joins,
                flows: stats.flows,
                use_edges: stats.use_edges,
                reachable_methods: result.reachable_methods().len(),
                dead_blocks: dead_block_total(&result),
            }
        })
        .collect()
}

/// The configuration set measured per ladder/fanout workload: SkipFlow
/// under the sequential solver (the primary row) and its reference oracle,
/// plus the PTA baseline.
fn scaling_configs() -> Vec<AnalysisConfig> {
    vec![
        AnalysisConfig::skipflow(),
        AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
        AnalysisConfig::baseline_pta(),
    ]
}

/// Median per-pair ratio of `a`'s wall time to `b`'s, each side a closure
/// returning one run's wall time in milliseconds: one untimed warm-up per
/// side, then `pairs` pairs run back-to-back with the order swapped every
/// pair, one `a/b` ratio per pair, and the median over all pairs. Pairing
/// cancels drift slower than a pair (thermal windows, noisy neighbours);
/// the median discards pairs a noise burst split down the middle.
fn paired_median_ratio(
    pairs: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> f64 {
    let _ = a();
    let _ = b();
    let mut ratios: Vec<f64> = (0..pairs.max(1))
        .map(|i| {
            if i % 2 == 0 {
                let wall_a = a();
                let wall_b = b();
                wall_a / wall_b
            } else {
                let wall_b = b();
                let wall_a = a();
                wall_a / wall_b
            }
        })
        .collect();
    ratios.sort_by(|x, y| x.total_cmp(y));
    let n = ratios.len();
    if n % 2 == 1 {
        ratios[n / 2]
    } else {
        (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0
    }
}

/// Median per-pair wall-time ratio of analyzing `bench` under `a` to
/// analyzing it under `b` (`paired_median_ratio`). This is what the
/// sequential-vs-reference guard is judged on — independently measured
/// best-of rows swing far more on a shared machine.
pub fn measure_paired_wall_ratio(
    bench: &Benchmark,
    a: &AnalysisConfig,
    b: &AnalysisConfig,
    pairs: usize,
) -> f64 {
    let timed = |c: &AnalysisConfig| {
        let c = c
            .clone()
            .with_reflective_roots(bench.reflective_roots.iter().copied());
        move || {
            let start = Instant::now();
            let _ = analyze(&bench.program, &bench.roots, &c);
            start.elapsed().as_secs_f64() * 1e3
        }
    };
    paired_median_ratio(pairs, timed(a), timed(b))
}

/// Median per-pair wall-time ratio of an *armed* interruptible solve to an
/// unarmed one (`paired_median_ratio`): both sides build a fresh session
/// over the benchmark roots and drive it with `solve_interruptible`, but
/// side A passes a cancel token that never trips (arming the per-step
/// interrupt guard) while side B passes `None` (the guard stays a single
/// `Option` test per step). The ratio therefore isolates exactly the cost
/// of the strided cancel/budget polling, which must stay ≤ 1 % wall on the
/// largest ladder rung.
pub fn measure_paired_interrupt_overhead(
    bench: &Benchmark,
    config: &AnalysisConfig,
    pairs: usize,
) -> f64 {
    let config = config
        .clone()
        .with_reflective_roots(bench.reflective_roots.iter().copied());
    let token = CancelToken::new();
    let timed = |cancel: Option<&CancelToken>| {
        let mut session = AnalysisSession::builder(&bench.program)
            .config(config.clone())
            .roots(bench.roots.iter().copied())
            .build()
            .expect("benchmark roots are valid");
        let start = Instant::now();
        let outcome = session
            .solve_interruptible(cancel)
            .expect("no capacity error on a benchmark corpus");
        let wall = start.elapsed().as_secs_f64() * 1e3;
        assert!(
            !outcome.is_interrupted(),
            "a never-tripped token must not interrupt"
        );
        wall
    };
    paired_median_ratio(pairs, || timed(Some(&token)), || timed(None))
}

fn run_scaling_family(
    specs: &[BenchmarkSpec],
    kind: &'static str,
    paired: bool,
) -> Vec<WorkloadRecord> {
    specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let bench = build_benchmark(spec);
            let runs = measure_group(&bench, &scaling_configs(), 9);
            // Both wall-time guards come from drift-cancelling paired
            // measurements on the largest ladder rung (full captures only;
            // skipped for CI step-gate runs, which never read the ratios).
            let largest = paired && kind == "ladder" && i + 1 == specs.len();
            let sequential_reference_wall_ratio = largest.then(|| {
                measure_paired_wall_ratio(
                    &bench,
                    &AnalysisConfig::skipflow(),
                    &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
                    48,
                )
            });
            let interrupt_overhead_wall_ratio = largest.then(|| {
                measure_paired_interrupt_overhead(&bench, &AnalysisConfig::skipflow(), 48)
            });
            WorkloadRecord {
                name: spec.name.clone(),
                kind,
                generated_methods: bench.total_methods(),
                runs,
                sequential_reference_wall_ratio,
                interrupt_overhead_wall_ratio,
            }
        })
        .collect()
}

/// Runs the ladder: each rung under SkipFlow (the sequential solver and the
/// reference full-join solver) plus the PTA baseline.
/// With `paired`, the wall-time-guard ratios are also measured (expensive;
/// full captures only — CI's step gate passes `false`).
pub fn run_ladder(paired: bool) -> Vec<WorkloadRecord> {
    run_scaling_family(&ladder_specs(), "ladder", paired)
}

/// Runs the fan-out rungs under the same configuration set as the ladder.
pub fn run_fanout() -> Vec<WorkloadRecord> {
    run_scaling_family(&fanout_specs(), "fanout", false)
}

/// Runs the full table1 corpus under the feature ablation — PTA, predicate
/// edges only, primitive tracking only, and full SkipFlow — with the
/// sequential solver, one interleaved [`measure_group`] per benchmark.
pub fn run_table1() -> Vec<WorkloadRecord> {
    let configs = [
        AnalysisConfig::baseline_pta(),
        AnalysisConfig::predicates_only(),
        AnalysisConfig::primitives_only(),
        AnalysisConfig::skipflow(),
    ];
    skipflow_synth::suites::all()
        .iter()
        .map(|spec| {
            let bench = build_benchmark(spec);
            WorkloadRecord {
                name: spec.name.clone(),
                kind: "table1",
                generated_methods: bench.total_methods(),
                runs: measure_group(&bench, &configs, 1),
                sequential_reference_wall_ratio: None,
                interrupt_overhead_wall_ratio: None,
            }
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders a tri-state guard outcome: `null` when the guard never compared
/// anything (it must not read as a pass).
fn json_opt_bool(v: Option<bool>) -> &'static str {
    match v {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    }
}

/// The worklist step count of `workload`'s *first* `SkipFlow`/`sequential`
/// run line in a previously written trajectory document (line-oriented
/// parse of this module's own format — no JSON dependency available
/// offline). Documents up to schema `v12` carried one such row per
/// scheduler, the first being the default's, the document's primary
/// configuration. Steps are deterministic per corpus,
/// so they make a machine-independent CI regression gate.
pub fn parse_baseline_steps(doc: &str, workload: &str) -> Option<u64> {
    let needle = format!("\"name\": \"{workload}\"");
    let mut in_workload = false;
    for line in doc.lines() {
        if line.contains(&needle) {
            in_workload = true;
        }
        if in_workload && line.contains("\"config\": \"SkipFlow\", \"solver\": \"sequential\"") {
            let i = line.find("\"steps\": ")? + "\"steps\": ".len();
            let rest = &line[i..];
            let end = rest.find([',', '}'])?;
            return rest[..end].trim().parse().ok();
        }
    }
    None
}

/// The workload names of every ladder/fanout record in a baseline document.
pub fn parse_baseline_workloads(doc: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in doc.lines() {
        if let Some(i) = line.find("\"name\": \"") {
            let rest = &line[i + 9..];
            if let Some(end) = rest.find('"') {
                let name = &rest[..end];
                if name.starts_with("rung-")
                    || name.starts_with("fanout-")
                    || name.starts_with("resume-")
                {
                    names.push(name.to_string());
                }
            }
        }
    }
    names
}

/// Renders the records as the `BENCH_PR<n>.json` document.
pub fn render_json(pr: &str, workloads: &[WorkloadRecord]) -> String {
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"skipflow-bench-trajectory/v13\",");
    let _ = writeln!(out, "  \"pr\": \"{}\",", json_escape(pr));
    let _ = writeln!(out, "  \"created_unix\": {unix},");
    let _ = writeln!(out, "  \"host_threads\": {threads},");
    let _ = writeln!(out, "  \"workloads\": [");
    for (wi, w) in workloads.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", json_escape(&w.name));
        let _ = writeln!(out, "      \"kind\": \"{}\",", w.kind);
        let _ = writeln!(out, "      \"generated_methods\": {},", w.generated_methods);
        let _ = writeln!(out, "      \"runs\": [");
        for (ri, r) in w.runs.iter().enumerate() {
            let comma = if ri + 1 < w.runs.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "        {{\"config\": \"{}\", \"solver\": \"{}\", \
                 \"wall_ms\": {:.3}, \"build_ms\": {:.3}, \
                 \"decode_ms\": {:.3}, \"program_bytes\": {}, \
                 \"steps\": {}, \"state_joins\": {}, \"flows\": {}, \
                 \"use_edges\": {}, \
                 \"reachable_methods\": {}, \"dead_blocks\": {}}}{comma}",
                json_escape(&r.config),
                json_escape(&r.solver),
                r.wall_ms,
                r.build_ms,
                r.decode_ms,
                r.program_bytes,
                r.steps,
                r.state_joins,
                r.flows,
                r.use_edges,
                r.reachable_methods,
                r.dead_blocks,
            );
        }
        let _ = writeln!(out, "      ]");
        let comma = if wi + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    out.push_str(&render_summary_json(workloads));
    let _ = writeln!(out, "}}");
    out
}

/// The headline summary object: wall-time reductions on the largest ladder
/// and fanout rungs versus the in-tree full-join reference solver, with
/// precision-identity guards across every solver measured.
fn render_summary_json(workloads: &[WorkloadRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "  \"summary\": {{");
    // Precision identity on every scaling workload: the sequential run and
    // the full-join reference must agree on reachable methods and dead
    // blocks everywhere, not just on the headline rung. `None` (rendered as
    // JSON null) means the guard never compared anything — a guard that did
    // not run must not read as a guard that passed.
    let mut identical_ref: Option<bool> = None;
    for w in workloads.iter().filter(|w| w.kind != "table1") {
        let seq = w
            .runs
            .iter()
            .find(|r| r.config == "SkipFlow" && r.solver == "sequential");
        let reference = w
            .runs
            .iter()
            .find(|r| r.config == "SkipFlow" && r.solver == "reference");
        if let (Some(seq), Some(reference)) = (seq, reference) {
            let same = seq.reachable_methods == reference.reachable_methods
                && seq.dead_blocks == reference.dead_blocks;
            identical_ref = Some(identical_ref.unwrap_or(true) && same);
        }
    }
    for kind in ["ladder", "fanout"] {
        let largest = workloads
            .iter()
            .filter(|w| w.kind == kind)
            .max_by_key(|w| w.generated_methods);
        let Some(w) = largest else {
            let _ = writeln!(out, "    \"largest_{kind}_rung\": null,");
            continue;
        };
        let seq = w
            .runs
            .iter()
            .find(|r| r.config == "SkipFlow" && r.solver == "sequential");
        let reference = w
            .runs
            .iter()
            .find(|r| r.config == "SkipFlow" && r.solver == "reference");
        let _ = writeln!(
            out,
            "    \"largest_{kind}_rung\": \"{}\",",
            json_escape(&w.name)
        );
        let Some(seq) = seq else { continue };
        if let Some(reference) = reference {
            let reduction = 1.0 - seq.wall_ms / reference.wall_ms;
            let _ = writeln!(
                out,
                "    \"largest_{kind}_rung_wall_ms\": {{\"sequential\": {:.3}, \"reference\": {:.3}}},",
                seq.wall_ms, reference.wall_ms
            );
            let _ = writeln!(
                out,
                "    \"largest_{kind}_rung_wall_reduction_vs_reference\": {reduction:.4},"
            );
        }
    }
    // Oracle guard: on the largest ladder rung the primary sequential run
    // must not be slower than the full-join reference loop it is checked
    // against. Judged on the paired measurement.
    let sequential_vs_reference = workloads
        .iter()
        .filter(|w| w.kind == "ladder")
        .max_by_key(|w| w.generated_methods)
        .and_then(|w| {
            let ratio = w.sequential_reference_wall_ratio?;
            let _ = writeln!(
                out,
                "    \"largest_ladder_rung_sequential_vs_reference_wall\": {ratio:.4},"
            );
            Some(ratio <= 1.0)
        });
    let _ = writeln!(
        out,
        "    \"sequential_not_slower_than_reference\": {},",
        json_opt_bool(sequential_vs_reference)
    );
    // Interrupt-machinery guard (PR 6): arming the per-step interrupt
    // guard with a never-tripped cancel token must cost at most 1 % wall
    // time on the largest ladder rung — the strided poll is the only
    // difference between the two sides of the paired measurement.
    let interrupt_overhead_ok = workloads
        .iter()
        .filter(|w| w.kind == "ladder")
        .max_by_key(|w| w.generated_methods)
        .and_then(|w| {
            let ratio = w.interrupt_overhead_wall_ratio?;
            let _ = writeln!(
                out,
                "    \"largest_ladder_rung_interrupt_check_overhead_wall\": {ratio:.4},"
            );
            Some(ratio <= 1.01)
        });
    let _ = writeln!(
        out,
        "    \"cancel_check_overhead_within_1pct\": {},",
        json_opt_bool(interrupt_overhead_ok)
    );
    // Resume rungs: the incremental re-solve must reach the same fixpoint
    // with fewer steps than the fresh union run it extends. Tri-state like
    // the other guards: null when no resume workload was measured.
    let mut resume_fewer: Option<bool> = None;
    let mut resume_identical: Option<bool> = None;
    for w in workloads.iter().filter(|w| w.kind == "resume") {
        let fresh = w.runs.iter().find(|r| r.config == "SkipFlow");
        let inc = w.runs.iter().find(|r| r.config == "SkipFlow-resume");
        let (Some(fresh), Some(inc)) = (fresh, inc) else { continue };
        resume_fewer = Some(resume_fewer.unwrap_or(true) && inc.steps < fresh.steps);
        let same = inc.reachable_methods == fresh.reachable_methods
            && inc.dead_blocks == fresh.dead_blocks;
        resume_identical = Some(resume_identical.unwrap_or(true) && same);
        let ratio = inc.steps as f64 / fresh.steps.max(1) as f64;
        let _ = writeln!(
            out,
            "    \"resume_{}\": {{\"steps_fresh\": {}, \"steps_incremental\": {}, \
             \"step_ratio\": {:.4}, \"wall_ms_fresh\": {:.3}, \"wall_ms_incremental\": {:.3}}},",
            json_escape(&w.name.replace('-', "_")),
            fresh.steps,
            inc.steps,
            ratio,
            fresh.wall_ms,
            inc.wall_ms,
        );
    }
    let _ = writeln!(
        out,
        "    \"resume_incremental_fewer_steps\": {},",
        json_opt_bool(resume_fewer)
    );
    let _ = writeln!(
        out,
        "    \"resume_results_identical\": {},",
        json_opt_bool(resume_identical)
    );
    let _ = writeln!(
        out,
        "    \"results_identical_to_reference\": {}",
        json_opt_bool(identical_ref)
    );
    let _ = writeln!(out, "  }}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipflow_core::AnalysisConfig;

    fn tiny_workload() -> WorkloadRecord {
        let spec = BenchmarkSpec::new("rung-tiny", Suite::DaCapo, 60, 0.2);
        let bench = build_benchmark(&spec);
        WorkloadRecord {
            name: spec.name.clone(),
            kind: "ladder",
            generated_methods: bench.total_methods(),
            sequential_reference_wall_ratio: Some(measure_paired_wall_ratio(
                &bench,
                &AnalysisConfig::skipflow(),
                &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
                2,
            )),
            interrupt_overhead_wall_ratio: Some(measure_paired_interrupt_overhead(
                &bench,
                &AnalysisConfig::skipflow(),
                2,
            )),
            runs: vec![
                measure_run(&bench, &AnalysisConfig::skipflow(), 1),
                measure_run(
                    &bench,
                    &AnalysisConfig::skipflow().with_solver(SolverKind::Reference),
                    1,
                ),
            ],
        }
    }

    #[test]
    fn measure_run_records_precision_and_volume() {
        let w = tiny_workload();
        let seq = &w.runs[0];
        let reference = &w.runs[1];
        assert_eq!(seq.solver, "sequential");
        assert_eq!(reference.solver, "reference");
        assert!(seq.steps > 0 && seq.state_joins > 0 && seq.flows > 0);
        // Every row's fragment-build time is a part of its own wall time,
        // and every row carries the workload's load layer.
        for r in &w.runs {
            assert!(r.build_ms > 0.0 && r.build_ms <= r.wall_ms, "{r:?}");
            assert!(r.decode_ms > 0.0 && r.program_bytes > 0, "{r:?}");
            assert_eq!(r.program_bytes, seq.program_bytes);
        }
        // The precision guards must agree between the solvers.
        assert_eq!(seq.reachable_methods, reference.reachable_methods);
        assert_eq!(seq.dead_blocks, reference.dead_blocks);
    }

    #[test]
    fn rendered_json_roundtrips_through_the_baseline_parser() {
        let w = tiny_workload();
        let steps = w.runs[0].steps;
        let doc = render_json("test", &[w]);
        assert!(doc.contains("\"schema\": \"skipflow-bench-trajectory/v13\""));
        assert!(doc.contains("\"build_ms\": "), "{doc}");
        assert!(doc.contains("\"decode_ms\": "), "{doc}");
        assert!(doc.contains("\"program_bytes\": "), "{doc}");
        assert!(doc.contains("\"largest_ladder_rung_sequential_vs_reference_wall\""), "{doc}");
        assert!(doc.contains("\"largest_ladder_rung\": \"rung-tiny\""));
        // The PR 6 overhead guard renders its measured ratio and verdict…
        assert!(doc.contains("\"largest_ladder_rung_interrupt_check_overhead_wall\""), "{doc}");
        assert!(!doc.contains("\"cancel_check_overhead_within_1pct\": null"), "{doc}");
        assert!(doc.contains("\"results_identical_to_reference\": true"));
        for gone in ["\"scheduler\"", "\"flips\"", "vs_fifo", "adaptive"] {
            assert!(!doc.contains(gone), "{gone} in {doc}");
        }
        // The sequential row is the document's primary configuration, and
        // steps parse exactly.
        assert_eq!(parse_baseline_steps(&doc, "rung-tiny"), Some(steps));
        assert_eq!(parse_baseline_workloads(&doc), vec!["rung-tiny".to_string()]);
    }

    #[test]
    fn resume_measurement_records_fewer_incremental_steps() {
        let spec = BenchmarkSpec::new("resume-tiny", Suite::DaCapo, 80, 0.2);
        let bench = build_benchmark(&spec);
        let extra = skipflow_synth::pick_spread_roots(&bench.program, &bench.roots, 6);
        assert!(!extra.is_empty());
        let (fresh, inc) = measure_resume(&bench, &extra, &AnalysisConfig::skipflow(), 1);
        assert_eq!(fresh.config, "SkipFlow");
        assert_eq!(inc.config, "SkipFlow-resume");
        assert_eq!(fresh.solver, "sequential");
        assert!(
            inc.steps < fresh.steps,
            "incremental {} vs fresh {}",
            inc.steps,
            fresh.steps
        );
        assert_eq!(fresh.reachable_methods, inc.reachable_methods);
        assert_eq!(fresh.dead_blocks, inc.dead_blocks);
        let w = WorkloadRecord {
            name: spec.name.clone(),
            kind: "resume",
            generated_methods: bench.total_methods(),
            runs: vec![fresh, inc],
            sequential_reference_wall_ratio: None,
            interrupt_overhead_wall_ratio: None,
        };
        let doc = render_json("test", &[w]);
        assert!(doc.contains("\"resume_incremental_fewer_steps\": true"), "{doc}");
        // …and renders as an unjudged (null) guard when never measured.
        assert!(doc.contains("\"cancel_check_overhead_within_1pct\": null"), "{doc}");
        assert!(doc.contains("\"resume_results_identical\": true"), "{doc}");
        assert!(doc.contains("\"resume_resume_tiny\""), "{doc}");
        // The step gate covers resume rungs through their fresh-union row.
        assert_eq!(parse_baseline_workloads(&doc), vec!["resume-tiny".to_string()]);
        assert!(parse_baseline_steps(&doc, "resume-tiny").is_some());
    }

    #[test]
    fn ladder_specs_double_and_name_consistently() {
        let specs = ladder_specs();
        assert!(specs.len() >= 4);
        for pair in specs.windows(2) {
            assert_eq!(pair[1].total_methods, pair[0].total_methods * 2);
        }
        assert!(specs.iter().all(|s| s.name.starts_with("rung-")));
    }

    #[test]
    fn fanout_specs_double_readers_and_writers() {
        let specs = fanout_specs();
        assert!(specs.len() >= 3);
        for pair in specs.windows(2) {
            assert_eq!(
                pair[1].shared_sink_readers,
                pair[0].shared_sink_readers * 2
            );
            assert_eq!(
                pair[1].shared_sink_writers,
                pair[0].shared_sink_writers * 2
            );
        }
        assert!(specs.iter().all(|s| s.name.starts_with("fanout-")));
    }
}
