//! The three workloads, their seeded inputs, and the Reference oracle every
//! answer is checked against.
//!
//! Inputs are generated with `skipflow_synth`, written as `.sfbc`, and
//! decoded back; the oracle runs on the decoded program under exactly the
//! configuration the binaries use for a file (`analyze <file>` and
//! `open <path>`): full SkipFlow, the roots the client sends, the bodies the
//! client masked, and **no reflective roots**.

use skipflow_core::{analyze, AnalysisConfig, CallGraphQuery, MethodEdit, SolverKind};
use skipflow_ir::interp::{run, InterpConfig};
use skipflow_ir::{encode, MethodId, Program};
use skipflow_synth::{
    build_benchmark, build_edit_script, pick_spread_roots, Benchmark, BenchmarkSpec, EditOp, Suite,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// A benchmark workload (see `BENCHMARK.json` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `analyze` on a ~32k-method ladder, one process at a time.
    CliLadder,
    /// Root batches and queries against the shared-sink fan-out program.
    ServeFanout,
    /// A seeded retract/edit stream through one ladder-shaped session.
    ServeEdits,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CliLadder,
        Workload::ServeFanout,
        Workload::ServeEdits,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CliLadder => "cli-ladder",
            Workload::ServeFanout => "serve-fanout",
            Workload::ServeEdits => "serve-edits",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Share of the measured time spent on the `analyze` loop; the rest
    /// drives the server.
    pub fn cli_share(self) -> f64 {
        match self {
            Workload::CliLadder => 0.5,
            Workload::ServeFanout | Workload::ServeEdits => 1.0 / 6.0,
        }
    }

    /// Whether connection B queries connection A's session (checked after
    /// the fact, by epoch) instead of a long-lived session of its own.
    pub fn b_follows_a(self) -> bool {
        self == Workload::ServeEdits
    }
}

/// Input sizes: `Full` is what the benchmark measures; `Small` keeps the
/// benchmark's own tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Tiny programs for tests.
    Small,
}

/// One session mutation, sent as one protocol request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// `roots <s> #id...`
    Roots(Vec<MethodId>),
    /// `retract <s> #id...`
    Retract(Vec<MethodId>),
    /// `edit <s> #id disable|restore`
    Edit(MethodId, MethodEdit),
}

impl Mutation {
    /// The request line for session `session`.
    pub fn line(&self, session: &str) -> String {
        let ids =
            |ms: &[MethodId]| -> String { ms.iter().map(|m| format!(" #{}", m.index())).collect() };
        match self {
            Mutation::Roots(ms) => format!("roots {session}{}", ids(ms)),
            Mutation::Retract(ms) => format!("retract {session}{}", ids(ms)),
            Mutation::Edit(m, MethodEdit::DisableBody) => {
                format!("edit {session} #{} disable", m.index())
            }
            Mutation::Edit(m, MethodEdit::RestoreBody) => {
                format!("edit {session} #{} restore", m.index())
            }
        }
    }
}

/// One update step: mutations, then a flush. After the flush the session
/// is at configuration `Inputs::expects[i]` for step `i`.
#[derive(Clone, Debug)]
pub struct Step {
    /// The mutations, in order.
    pub mutations: Vec<Mutation>,
}

/// A configuration: roots plus masked bodies.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Config {
    /// Roots, sorted.
    pub roots: Vec<MethodId>,
    /// Masked bodies, sorted.
    pub masked: Vec<MethodId>,
}

/// The Reference solver's answers for one configuration.
#[derive(Clone, Debug)]
pub struct Expect {
    /// The configuration.
    pub config: Config,
    /// Reachability by method index.
    pub reachable: Vec<bool>,
    /// Reachable methods.
    pub reachable_count: usize,
    /// Call edges.
    pub call_edges: usize,
    /// Virtual call sites with two or more targets.
    pub poly_calls: usize,
    /// The `metrics: …` line `analyze --metrics` prints for it.
    pub metrics_line: String,
}

/// Everything one run needs, built by [`setup`].
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The `.sfbc` file the binaries read.
    pub path: PathBuf,
    /// The decoded program (what the oracle ran on).
    pub program: Program,
    /// `Main.main`.
    pub main: MethodId,
    /// Connection A's cycle: open, these steps, evict.
    pub steps: Vec<Step>,
    /// The oracle after each step (`expects[i]` follows `steps[i]`).
    pub expects: Vec<Expect>,
    /// The oracle of `Main.main` alone: what `analyze --root Main.main`
    /// reports, what connection B's own session answers, and what
    /// `reachable_methods` counts.
    pub analyzed: Expect,
    /// Method ids connection B asks `reachable #id` about.
    pub probes: Vec<MethodId>,
    /// Interpreted methods the oracle did not call reachable (must be 0).
    pub soundness_violations: u64,
}

/// SplitMix64 finalizer: spreads a small seed over all 64 bits.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn spec(workload: Workload, scale: Scale, seed: u64) -> BenchmarkSpec {
    let small = scale == Scale::Small;
    let mut spec = match workload {
        Workload::CliLadder => {
            let n = if small { 2000 } else { 32000 };
            BenchmarkSpec::new("cli-ladder", Suite::DaCapo, n, 0.2).with_fanout(8)
        }
        Workload::ServeFanout => {
            let (readers, writers) = if small { (100, 64) } else { (400, 256) };
            BenchmarkSpec::new("serve-fanout", Suite::DaCapo, 60, 0.0)
                .with_shared_sink(readers, writers)
        }
        Workload::ServeEdits => {
            let n = if small { 1000 } else { 8000 };
            BenchmarkSpec::new("serve-edits", Suite::DaCapo, n, 0.2).with_fanout(8)
        }
    };
    spec.seed ^= mix(seed);
    spec
}

/// Spread-root batches added after `Main.main` on the ladder and fan-out
/// cycles, and roots per batch.
const SPREAD_BATCHES: usize = 2;
const SPREAD_BATCH_ROOTS: usize = 2;

/// Edit-script mutations per cycle, and roots moved per add/retract.
const EDIT_STEPS_FULL: usize = 48;
const EDIT_STEPS_SMALL: usize = 12;
const EDIT_CHURN: usize = 4;

/// The ladder and fan-out cycle: `Main.main`, then batches of spread roots.
fn spread_steps(program: &Program, main: MethodId) -> Vec<Step> {
    let spread = pick_spread_roots(program, &[main], SPREAD_BATCHES * SPREAD_BATCH_ROOTS);
    std::iter::once(vec![main])
        .chain(spread.chunks(SPREAD_BATCH_ROOTS).map(<[MethodId]>::to_vec))
        .map(|roots| Step {
            mutations: vec![Mutation::Roots(roots)],
        })
        .collect()
}

/// The edit cycle. Step 0 registers the edit script's root pool
/// (`Main.main` plus spread roots); every later step applies one of the
/// script's non-monotone mutations and its inverse — retract roots and
/// re-add them, or disable a body and restore it — then flushes.
///
/// Each step therefore pays one DRed over-delete and re-derive, and every
/// settled epoch is back at the step-0 configuration. Left to accumulate,
/// a disabled method on the ladder's spine would cut most of the program
/// off for as long as the script left it masked, so the share of cheap
/// steps — and the step median — would swing from seed to seed.
/// Disables only target methods reachable at step 0 (disabling dead code
/// invalidates nothing), and `Main.main` is never retracted or disabled.
fn edit_steps(
    bench: &Benchmark,
    scale: Scale,
    seed: u64,
    pool: &[MethodId],
    live: &[bool],
) -> Vec<Step> {
    let n = if scale == Scale::Small {
        EDIT_STEPS_SMALL
    } else {
        EDIT_STEPS_FULL
    };
    let main = bench.roots[0];
    let script = build_edit_script(bench, mix(seed), n, EDIT_CHURN);
    let toggles = script.ops.into_iter().filter_map(|op| match op {
        EditOp::AddRoots(ms) | EditOp::RetractRoots(ms) => {
            let ms: Vec<MethodId> = ms.into_iter().filter(|&m| m != main).collect();
            (!ms.is_empty()).then(|| vec![Mutation::Retract(ms.clone()), Mutation::Roots(ms)])
        }
        EditOp::DisableMethod(m) if m != main && live[m.index()] => Some(vec![
            Mutation::Edit(m, MethodEdit::DisableBody),
            Mutation::Edit(m, MethodEdit::RestoreBody),
        ]),
        _ => None,
    });
    std::iter::once(vec![Mutation::Roots(pool.to_vec())])
        .chain(toggles)
        .map(|mutations| Step { mutations })
        .collect()
}

/// The configuration after each step, replaying the session model.
fn step_configs(steps: &[Step]) -> Vec<Config> {
    let mut roots: Vec<MethodId> = Vec::new();
    let mut masked: Vec<MethodId> = Vec::new();
    steps
        .iter()
        .map(|step| {
            for m in &step.mutations {
                match m {
                    Mutation::Roots(ms) => {
                        for &r in ms {
                            if !roots.contains(&r) {
                                roots.push(r);
                            }
                        }
                    }
                    Mutation::Retract(ms) => roots.retain(|r| !ms.contains(r)),
                    Mutation::Edit(m, MethodEdit::DisableBody) => {
                        if !masked.contains(m) {
                            masked.push(*m);
                        }
                    }
                    Mutation::Edit(m, MethodEdit::RestoreBody) => masked.retain(|x| x != m),
                }
            }
            let mut sorted_roots = roots.clone();
            sorted_roots.sort();
            let mut sorted_masked = masked.clone();
            sorted_masked.sort();
            Config {
                roots: sorted_roots,
                masked: sorted_masked,
            }
        })
        .collect()
}

/// The Reference solver's answers for `config`.
fn oracle(program: &Program, config: &Config) -> Expect {
    let analysis = AnalysisConfig::skipflow()
        .with_solver(SolverKind::Reference)
        .with_masked_methods(config.masked.iter().copied());
    let result = analyze(program, &config.roots, &analysis);
    let mut reachable = vec![false; program.method_count()];
    for &m in result.reachable_methods().iter() {
        reachable[m.index()] = true;
    }
    Expect {
        config: config.clone(),
        reachable,
        reachable_count: result.reachable_count(),
        call_edges: result.call_edge_count(),
        poly_calls: result.poly_call_count(),
        metrics_line: format!("metrics: {}", result.metrics(program)),
    }
}

/// Interpreter seeds run per setup for the dynamic soundness check.
const INTERP_RUNS: u64 = 3;

/// Generates the workload's inputs from `seed`, writes the program to
/// `out_dir`, and computes the oracle. Deterministic in `seed`.
pub fn setup(
    workload: Workload,
    scale: Scale,
    seed: u64,
    out_dir: &Path,
) -> Result<Inputs, String> {
    let bench = build_benchmark(&spec(workload, scale, seed));
    let bytes = encode::encode(&bench.program);
    let path = out_dir.join(format!("{}-{seed}.sfbc", workload.name()));
    std::fs::write(&path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let program =
        encode::decode(&bytes).map_err(|e| format!("decode of generated program: {e}"))?;
    let main = program
        .type_by_name("Main")
        .and_then(|c| program.method_by_name(c, "main"))
        .ok_or("generated program has no Main.main")?;
    if bench.roots != [main] {
        return Err(format!(
            "generated roots {:?} are not Main.main",
            bench.roots
        ));
    }

    let mut cache: HashMap<Config, Expect> = HashMap::new();
    let mut expect = |config: Config| -> Expect {
        cache
            .entry(config.clone())
            .or_insert_with(|| oracle(&program, &config))
            .clone()
    };
    let analyzed = expect(Config {
        roots: vec![main],
        masked: Vec::new(),
    });
    let steps = match workload {
        Workload::ServeEdits => {
            let pool: Vec<MethodId> = std::iter::once(main)
                .chain(pick_spread_roots(&program, &[main], 4 * EDIT_CHURN))
                .collect();
            let mut roots = pool.clone();
            roots.sort();
            let live = expect(Config {
                roots,
                masked: Vec::new(),
            })
            .reachable;
            edit_steps(&bench, scale, seed, &pool, &live)
        }
        _ => spread_steps(&program, main),
    };
    let expects: Vec<Expect> = step_configs(&steps).into_iter().map(&mut expect).collect();

    let mut soundness_violations = 0;
    for i in 0..INTERP_RUNS {
        let config = InterpConfig {
            seed: mix(seed ^ i),
            max_steps: 200_000,
            ..Default::default()
        };
        let trace = run(&program, main, &[], &config);
        soundness_violations += trace
            .executed_methods
            .iter()
            .filter(|m| !analyzed.reachable[m.index()])
            .count() as u64;
    }

    let n = program.method_count();
    let probes = (0..16).map(|i| MethodId::from_index(i * n / 16)).collect();
    Ok(Inputs {
        workload,
        path,
        program,
        main,
        steps,
        expects,
        analyzed,
        probes,
        soundness_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_configs_replay_adds_retracts_and_masks() {
        let m = MethodId::from_index;
        let steps = vec![
            Step {
                mutations: vec![Mutation::Roots(vec![m(1), m(2)])],
            },
            Step {
                mutations: vec![
                    Mutation::Retract(vec![m(1)]),
                    Mutation::Edit(m(5), MethodEdit::DisableBody),
                    Mutation::Edit(m(3), MethodEdit::DisableBody),
                ],
            },
            Step {
                mutations: vec![Mutation::Edit(m(5), MethodEdit::RestoreBody)],
            },
        ];
        let configs = step_configs(&steps);
        assert_eq!(
            configs[0],
            Config {
                roots: vec![m(1), m(2)],
                masked: vec![]
            }
        );
        assert_eq!(
            configs[1],
            Config {
                roots: vec![m(2)],
                masked: vec![m(3), m(5)]
            }
        );
        assert_eq!(
            configs[2],
            Config {
                roots: vec![m(2)],
                masked: vec![m(3)]
            }
        );
        assert_eq!(steps[1].mutations[1].line("a1"), "edit a1 #5 disable");
        assert_eq!(steps[0].mutations[0].line("a1"), "roots a1 #1 #2");
    }
}
