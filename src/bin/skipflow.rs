//! The `skipflow` command-line tool: compile, analyze, interpret, and
//! visualize base-language programs.
//!
//! ```text
//! skipflow compile  <src.sf> -o <out.sfbc>          # frontend → binary format
//! skipflow analyze  <src.sf|prog.sfbc> [options]    # run the analysis, print a report
//! skipflow run      <src.sf|prog.sfbc> [--seed N]   # interpret the program
//! skipflow dot      <src.sf|prog.sfbc> --method Cls.m
//! skipflow print    <src.sf|prog.sfbc>              # SSA dump
//! skipflow serve    [--addr HOST:PORT]              # analysis-as-a-service
//! ```
//!
//! `analyze` options:
//!   --config skipflow|pta|predicates-only|primitives-only   (default skipflow)
//!   --root Cls.m          (repeatable; default: every static `main`)
//!   --compare             also run the PTA baseline and print deltas
//!   --metrics             print the Table 1 counter metrics
//!   --dead-code           print per-method dead-code reports
//!   --budget-steps N      stop after N worklist steps, report the partial state
//!   --budget-ms N         stop after N milliseconds, report the partial state
//!
//! A budgeted `analyze` that runs out prints the checkpoint tagged
//! `[partial]` and exits 0 — the partial state is a sound
//! under-approximation, not a failure.

use skipflow::analysis::{
    AnalysisConfig, AnalysisSession, AnalysisSnapshot, CallGraphQuery, Completeness,
};
use skipflow::ir::{self, encode, printer, MethodId, Program};
use std::process::ExitCode;
use std::time::Duration;

/// CLI failure modes: *usage* errors (bad subcommand / malformed
/// invocation) get the usage text; *run* errors — bad input files, unknown
/// root/method names, [`skipflow::analysis::AnalysisError`]s from the
/// session builder — are reported as exactly one `error:` line on stderr
/// with a non-zero exit, never a `Debug`-formatted panic and never a
/// usage dump the user did not ask for.
enum CliError {
    Usage(String),
    Run(String),
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

const USAGE: &str = "usage:
  skipflow compile <src> -o <out.sfbc>
  skipflow analyze <src|sfbc> [--config skipflow|pta|predicates-only|primitives-only]
                              [--root Cls.m]... [--compare] [--metrics] [--dead-code]
                              [--budget-steps N] [--budget-ms N]
  skipflow shrink  <src|sfbc> -o <out.sfbc> [--root Cls.m]...
  skipflow run      <src|sfbc> [--seed N] [--max-steps N]
  skipflow dot      <src|sfbc> --method Cls.m
  skipflow callgraph <src|sfbc> [--root Cls.m]...
  skipflow print    <src|sfbc>
  skipflow serve    [--addr HOST:PORT] [--max-sessions N] [--memory-budget-mb N]
                    [--batch-steps N] [--batch-ms N]";

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| CliError::Usage("missing subcommand".to_string()))?;
    let run = match cmd.as_str() {
        "compile" => cmd_compile(rest),
        "analyze" => cmd_analyze(rest),
        "shrink" => cmd_shrink(rest),
        "run" => cmd_run(rest),
        "dot" => cmd_dot(rest),
        "callgraph" => cmd_callgraph(rest),
        "print" => cmd_print(rest),
        "serve" => cmd_serve(rest),
        other => return Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    };
    run.map_err(CliError::Run)
}

fn cmd_callgraph(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("callgraph: missing input path")?;
    let program = load_program(input)?;
    let roots = resolve_roots(&program, &flag_values(args, "--root"))?;
    let mut session = session_for(&program, AnalysisConfig::skipflow(), &roots)?;
    let result = solve_cli(&mut session)?;
    println!("{}", result.call_graph_dot(&program));
    Ok(())
}

/// Runs a session's solver, mapping mid-solve capacity exhaustion
/// (`AnalysisError::TooManyFlows`) into a one-line CLI error instead of
/// the panicking `solve()` path.
fn solve_cli<'s>(session: &'s mut AnalysisSession<'_>) -> Result<AnalysisSnapshot<'s>, String> {
    session.try_solve().map_err(|e| format!("analysis failed: {e}"))
}

/// Builds a session over `program` with the given configuration and roots,
/// mapping builder validation failures into CLI errors.
fn session_for<'p>(
    program: &'p Program,
    config: AnalysisConfig,
    roots: &[MethodId],
) -> Result<AnalysisSession<'p>, String> {
    AnalysisSession::builder(program)
        .config(config)
        .roots(roots.iter().copied())
        .build()
        .map_err(|e| format!("invalid analysis input: {e}"))
}

/// Loads a program from either surface syntax (by extension or content
/// sniffing) or the binary `SFBC` format.
fn load_program(path: &str) -> Result<Program, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    ir::load_program(&bytes).map_err(|e| format!("{path}: {e}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_values<'a>(args: &'a [String], flag: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.as_str());
                i += 1;
            }
        }
        i += 1;
    }
    out
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Resolves `Cls.method` names; with no names given, collects every static
/// method called `main`.
fn resolve_roots(program: &Program, names: &[&str]) -> Result<Vec<MethodId>, String> {
    if names.is_empty() {
        let mains: Vec<MethodId> = program
            .iter_methods()
            .filter(|&m| {
                let md = program.method(m);
                md.is_static && md.name == "main"
            })
            .collect();
        if mains.is_empty() {
            return Err("no static `main` method found; pass --root Cls.m".to_string());
        }
        return Ok(mains);
    }
    names
        .iter()
        .map(|n| {
            let (cls, m) = n
                .split_once('.')
                .ok_or_else(|| format!("root {n:?} must be Cls.method"))?;
            let c = program
                .type_by_name(cls)
                .ok_or_else(|| format!("unknown class {cls:?}"))?;
            program
                .method_by_name(c, m)
                .ok_or_else(|| format!("unknown method {n:?}"))
        })
        .collect()
}

fn cmd_compile(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("compile: missing input path")?;
    let output = flag_value(args, "-o").ok_or("compile: missing -o <out>")?;
    let program = load_program(input)?;
    let bytes = encode::encode(&program);
    std::fs::write(output, &bytes).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "wrote {output}: {} bytes, {} types, {} methods",
        bytes.len(),
        program.type_count(),
        program.method_count()
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("analyze: missing input path")?;
    let program = load_program(input)?;
    let roots = resolve_roots(&program, &flag_values(args, "--root"))?;

    let mut config = match flag_value(args, "--config").unwrap_or("skipflow") {
        "skipflow" => AnalysisConfig::skipflow(),
        "pta" => AnalysisConfig::baseline_pta(),
        "predicates-only" => AnalysisConfig::predicates_only(),
        "primitives-only" => AnalysisConfig::primitives_only(),
        other => return Err(format!("unknown config {other:?}")),
    };
    if let Some(n) = flag_value(args, "--budget-steps") {
        let n = n.parse::<u64>().map_err(|_| "bad --budget-steps (expected a step count)")?;
        config = config.with_step_budget(n);
    }
    if let Some(ms) = flag_value(args, "--budget-ms") {
        let ms = ms.parse::<u64>().map_err(|_| "bad --budget-ms (expected milliseconds)")?;
        config = config.with_wall_budget(Duration::from_millis(ms));
    }

    let mut session = session_for(&program, config.clone(), &roots)?;
    // Budgets stop the solve at a checkpoint; that is a reportable partial
    // state (exit 0), not a failure.
    let outcome = session
        .solve_interruptible(None)
        .map_err(|e| format!("analysis failed: {e}"))?;
    if let Some(reason) = outcome.interrupt_reason() {
        println!("analysis interrupted: {reason}; reporting the partial state");
    }
    let result = outcome.snapshot();
    print_analysis(&program, &result, args);

    if has_flag(args, "--compare") && config.label() != "PTA" {
        let mut baseline_session = session_for(&program, AnalysisConfig::baseline_pta(), &roots)?;
        let baseline = solve_cli(&mut baseline_session)?;
        let b = baseline.reachable_count();
        let s = result.reachable_count();
        println!();
        println!(
            "baseline PTA reaches {b} methods; {} reaches {s} ({:+.1}%)",
            config.label(),
            (s as f64 / b as f64 - 1.0) * 100.0
        );
        // The unified call-graph interface computes the difference directly.
        let delta = baseline.reachable_delta(&result);
        for m in delta.only_in_self {
            println!("  removed: {}", program.method_label(m));
        }
    }
    // The process exits next, and the OS reclaims its memory at once.
    // Dropping would first walk and free every flow, edge and body one by
    // one: on a 32k-method program that takes about half as long as the
    // solve itself. Compiler drivers skip this teardown for the same reason
    // (clang's `-disable-free`).
    std::mem::forget(session);
    std::mem::forget(program);
    Ok(())
}

fn print_analysis(program: &Program, result: &AnalysisSnapshot<'_>, args: &[String]) {
    let stats = result.stats();
    let partial = match result.completeness() {
        Completeness::Partial => " [partial]",
        Completeness::Complete => "",
    };
    println!(
        "{}{partial}: {} reachable methods ({} flows, {} use / {} pred / {} observe edges, {} steps, {:?})",
        result.config().label(),
        result.reachable_methods().len(),
        stats.flows,
        stats.use_edges,
        stats.pred_edges,
        stats.obs_edges,
        stats.steps,
        stats.duration
    );
    if has_flag(args, "--metrics") {
        println!("metrics: {}", result.metrics(program));
    }
    if has_flag(args, "--dead-code") {
        for &m in result.reachable_methods() {
            if !result.dead_blocks(m).is_empty() {
                print!("{}", result.dead_code_report(program, m));
            }
        }
    }
}

fn cmd_shrink(args: &[String]) -> Result<(), String> {
    use skipflow::analysis::shrink::{encoded_sizes, shrink};
    let input = args.first().ok_or("shrink: missing input path")?;
    let output = flag_value(args, "-o").ok_or("shrink: missing -o <out>")?;
    let program = load_program(input)?;
    let roots = resolve_roots(&program, &flag_values(args, "--root"))?;
    // The session builder reports invalid inputs as one-line errors; the
    // `analyze` free function would panic with a Debug dump instead.
    let mut session = session_for(&program, AnalysisConfig::skipflow(), &roots)?;
    solve_cli(&mut session)?;
    let result = session.into_result();
    let shrunk = shrink(&program, &result).map_err(|e| format!("shrink produced invalid IR: {e}"))?;
    let (before, after) = encoded_sizes(&program, &shrunk);
    let bytes = skipflow::ir::encode::encode(&shrunk.program);
    std::fs::write(output, &bytes).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!(
        "wrote {output}: methods {} -> {}, blocks stubbed {}, bytes {} -> {} ({:+.1}%)",
        shrunk.stats.methods_before,
        shrunk.stats.methods_after,
        shrunk.stats.blocks_stubbed,
        before,
        after,
        (after as f64 / before as f64 - 1.0) * 100.0
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    use skipflow::ir::interp::{run, InterpConfig};
    let input = args.first().ok_or("run: missing input path")?;
    let program = load_program(input)?;
    let roots = resolve_roots(&program, &flag_values(args, "--root"))?;
    let seed = flag_value(args, "--seed")
        .map(|s| s.parse::<u64>().map_err(|_| "bad --seed"))
        .transpose()?
        .unwrap_or(0);
    let max_steps = flag_value(args, "--max-steps")
        .map(|s| s.parse::<u64>().map_err(|_| "bad --max-steps"))
        .transpose()?
        .unwrap_or(1_000_000);

    let root = roots[0];
    if program.method(root).param_count() != 0 {
        return Err("run: the root method must take no parameters".to_string());
    }
    let config = InterpConfig {
        seed,
        max_steps,
        ..Default::default()
    };
    let trace = run(&program, root, &[], &config);
    println!(
        "outcome: {:?} ({} steps, {} methods executed, {} types instantiated)",
        trace.outcome,
        trace.steps,
        trace.executed_methods.len(),
        trace.instantiated.len()
    );
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("dot: missing input path")?;
    let program = load_program(input)?;
    let method_name = flag_value(args, "--method").ok_or("dot: missing --method Cls.m")?;
    let roots = resolve_roots(&program, &flag_values(args, "--root"))?;
    let target = resolve_roots(&program, &[method_name])?[0];
    let mut session = session_for(&program, AnalysisConfig::skipflow(), &roots)?;
    let result = solve_cli(&mut session)?;
    match skipflow::analysis::dot::method_pvpg_dot(&result, &program, target) {
        Some(dot) => {
            println!("{dot}");
            Ok(())
        }
        None => Err(format!("{method_name} is not reachable; no PVPG fragment exists")),
    }
}

/// `skipflow serve`: run the analysis server until a client sends
/// `shutdown` (or the process is killed). Prints the bound address on
/// stdout — with `--addr host:0` the kernel picks the port, so scripted
/// clients read the `listening on <addr>` line to find it.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use skipflow::server::{Server, ServerConfig};
    use std::io::Write as _;

    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7411");
    let mut cfg = ServerConfig::default();
    if let Some(n) = flag_value(args, "--max-sessions") {
        cfg.max_sessions = n.parse().map_err(|_| "bad --max-sessions (expected a count)")?;
    }
    if let Some(mb) = flag_value(args, "--memory-budget-mb") {
        let mb: usize = mb.parse().map_err(|_| "bad --memory-budget-mb (expected megabytes)")?;
        cfg.memory_budget_bytes = mb << 20;
    }
    if let Some(n) = flag_value(args, "--batch-steps") {
        cfg.batch_step_budget =
            Some(n.parse().map_err(|_| "bad --batch-steps (expected a step count)")?);
    }
    if let Some(ms) = flag_value(args, "--batch-ms") {
        let ms: u64 = ms.parse().map_err(|_| "bad --batch-ms (expected milliseconds)")?;
        cfg.batch_wall_budget = Some(Duration::from_millis(ms));
    }

    let server = Server::bind(addr, cfg).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
    // Stdout is block-buffered when piped; flush so wrappers that spawn the
    // server and scrape the port see this line before the first connection.
    println!("listening on {bound}");
    std::io::stdout().flush().map_err(|e| format!("cannot flush stdout: {e}"))?;
    server.run().map_err(|e| format!("server failed: {e}"))
}

fn cmd_print(args: &[String]) -> Result<(), String> {
    let input = args.first().ok_or("print: missing input path")?;
    let program = load_program(input)?;
    print!("{}", printer::print_program(&program));
    Ok(())
}
