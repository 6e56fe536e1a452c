//! The traced run: replays the workload's operations in-process and times
//! each call into a layer's public functions as a span (name, start, end,
//! parent), kept in memory and written out at the end.
//!
//! Three replays, each repeated until the time runs out:
//!
//! * `cli.replay` — what `analyze <file>` does: read, `encode::decode`,
//!   `AnalysisSession::build`, `solve`, `snapshot().metrics`, and the drops
//!   of the session and the program.
//! * `core.replay` — connection A's cycle on one `AnalysisSession`:
//!   `add_roots`, `retract_roots`, `apply_edit`, `solve`, `owned_snapshot`
//!   per step, plus a fresh solve of exactly the step's configuration
//!   after every step but the first (the re-derive-vs-fresh comparison).
//! * `server.replay` — the same cycle through `Registry::{open, add_roots,
//!   flush}`, with a second thread timing `SessionHandle::published` while
//!   the first step's solve is in flight.

use crate::endtoend::{complete_answer, QueryKind, Tally};
use crate::inputs::{Inputs, Mutation};
use crate::stats::json_str;
use skipflow_core::{AnalysisConfig, AnalysisSession, CallGraphQuery, SolveStats};
use skipflow_ir::encode;
use skipflow_modelcheck::sync::atomic::{AtomicBool, Ordering::SeqCst};
use skipflow_server::{handle_request, parse_request, Registry, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Layer and function, e.g. `core.engine.solve`.
    pub name: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one).
    pub fn end(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    fn ms(span: &Span) -> f64 {
        (span.end_ns - span.start_ns) as f64 / 1e6
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Tracer::ms)
            .collect()
    }

    /// For every span named `root`, the summed duration (ms) of the spans
    /// named `name` beneath it.
    pub fn per_root(&self, root: &str, name: &str) -> Vec<f64> {
        let mut sums: Vec<(usize, f64)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, _)| (i, 0.0))
            .collect();
        for span in self.spans.iter().filter(|s| s.name == name) {
            let mut up = span.parent;
            while let Some(p) = up {
                if self.spans[p].name == root {
                    if let Some(entry) = sums.iter_mut().find(|(i, _)| *i == p) {
                        entry.1 += Tracer::ms(span);
                    }
                    break;
                }
                up = self.spans[p].parent;
            }
        }
        sums.into_iter().map(|(_, ms)| ms).collect()
    }

    /// The spans as a JSON array of `{id, parent, name, start_ns, end_ns}`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                    json_str(s.name),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

/// Counters of one `cli.replay` iteration.
pub struct CliIter {
    /// The solve's statistics.
    pub stats: SolveStats,
    /// The engine's memory estimate after the solve.
    pub memory_bytes: usize,
}

/// Counters of one `core.replay` cycle.
pub struct CoreCycle {
    /// The session's cumulative statistics at the end of the cycle.
    pub stats: SolveStats,
    /// The engine's memory estimate at the end of the cycle.
    pub memory_bytes: usize,
    /// Worklist steps of the incremental solves after the first step.
    pub incremental_steps: u64,
    /// Worklist steps of fresh solves of the same configurations.
    pub fresh_steps: u64,
    /// Mutation plus solve wall of those incremental steps.
    pub incremental_wall: Duration,
    /// Build plus solve wall of the fresh solves.
    pub fresh_wall: Duration,
}

/// Counters of one `server.replay` cycle.
pub struct RegistryCycle {
    /// Mutations per coalesced batch.
    pub coalescing_ratio: f64,
    /// Epochs the session published.
    pub epochs_published: u64,
}

/// Everything the replays measured.
#[derive(Default)]
pub struct Replay {
    /// The spans.
    pub tracer: Tracer,
    /// One entry per `cli.replay`.
    pub cli: Vec<CliIter>,
    /// One entry per `core.replay`.
    pub core: Vec<CoreCycle>,
    /// One entry per `server.replay`.
    pub registry: Vec<RegistryCycle>,
    /// `SessionHandle::published` latencies during an in-flight solve (ns).
    pub load_ns: Vec<f64>,
    /// In-process `parse_request` + `handle_request` latencies (µs).
    pub handle_us: Vec<f64>,
}

fn check_count(what: &str, got: usize, want: usize) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {got} reachable methods, oracle says {want}"
        ))
    }
}

/// Loads published epochs kept per solve, at most.
const MAX_LOAD_SAMPLES: usize = 100_000;

/// In-process requests timed per run.
const HANDLE_REQUESTS: usize = 2_000;

impl Replay {
    /// Replays the workload until `secs` have passed (each replay at least
    /// once), then times the in-process request path.
    pub fn run(inputs: &Inputs, secs: f64, tally: &mut Tally) -> Replay {
        let mut replay = Replay::default();
        let registry = Registry::new(ServerConfig::default());
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut generation = 0;
        loop {
            generation += 1;
            replay.cli_once(inputs, tally);
            replay.core_once(inputs, tally);
            replay.registry_once(&registry, &format!("r{generation}"), inputs, tally);
            if Instant::now() >= deadline {
                break;
            }
        }
        replay.handle_requests(&registry, inputs, tally);
        registry.shutdown_all();
        replay
    }

    fn cli_once(&mut self, inputs: &Inputs, tally: &mut Tally) {
        let tr = &mut self.tracer;
        let root = tr.begin("cli.replay");
        let outcome = (|| -> Result<CliIter, String> {
            let bytes = tr
                .span("ir.read", || std::fs::read(&inputs.path))
                .map_err(|e| e.to_string())?;
            let program = tr
                .span("ir.decode", || encode::decode(&bytes))
                .map_err(|e| e.to_string())?;
            let mut session = tr
                .span("core.engine.build", || {
                    AnalysisSession::builder(&program)
                        .config(AnalysisConfig::skipflow())
                        .roots([inputs.main])
                        .build()
                })
                .map_err(|e| e.to_string())?;
            tr.span("core.engine.solve", || {
                session.solve_interruptible(None).map(|_| ())
            })
            .map_err(|e| e.to_string())?;
            let metrics = tr.span("core.report.metrics", || {
                session.snapshot().metrics(&program)
            });
            let stats = session.snapshot().stats().clone();
            let memory_bytes = session.memory_estimate();
            let teardown = tr.begin("core.report.teardown");
            drop(session);
            drop(program);
            drop(bytes);
            tr.end(teardown);
            let line = format!("metrics: {metrics}");
            if line != inputs.analyzed.metrics_line {
                return Err(format!(
                    "in-process `{line}` vs oracle `{}`",
                    inputs.analyzed.metrics_line
                ));
            }
            Ok(CliIter {
                stats,
                memory_bytes,
            })
        })();
        tr.end(root);
        match outcome {
            Ok(iter) => {
                tally.record(Ok(()));
                self.cli.push(iter);
            }
            Err(e) => tally.record(Err(e)),
        }
    }

    fn core_once(&mut self, inputs: &Inputs, tally: &mut Tally) {
        let tr = &mut self.tracer;
        let program = &inputs.program;
        let root = tr.begin("core.replay");
        let built = tr.span("core.engine.build", || {
            AnalysisSession::builder(program)
                .config(AnalysisConfig::skipflow())
                .build()
        });
        let mut session = match built {
            Ok(s) => s,
            Err(e) => {
                tr.end(root);
                return tally.record(Err(e.to_string()));
            }
        };
        let mut cycle = CoreCycle {
            stats: SolveStats::default(),
            memory_bytes: 0,
            incremental_steps: 0,
            fresh_steps: 0,
            incremental_wall: Duration::ZERO,
            fresh_wall: Duration::ZERO,
        };
        for (i, (step, expect)) in inputs.steps.iter().zip(&inputs.expects).enumerate() {
            let step_span = tr.begin("core.step");
            let start = Instant::now();
            let mut outcome: Result<(), String> = Ok(());
            for m in &step.mutations {
                let applied = match m {
                    Mutation::Roots(ms) => tr.span("core.session.add_roots", || {
                        session.add_roots(ms.iter().copied()).map(|_| ())
                    }),
                    Mutation::Retract(ms) => tr.span("core.invalidation.edit", || {
                        session.retract_roots(ms.iter().copied()).map(|_| ())
                    }),
                    Mutation::Edit(m, edit) => tr.span("core.invalidation.edit", || {
                        session.apply_edit(*m, *edit).map(|_| ())
                    }),
                };
                outcome = outcome.and(applied.map_err(|e| e.to_string()));
            }
            let solved = tr.span("core.engine.solve", || {
                session.solve_interruptible(None).map(|_| ())
            });
            let wall = start.elapsed();
            outcome = outcome.and(solved.map_err(|e| e.to_string()));
            let reached = session.snapshot().reachable_methods().len();
            outcome = outcome.and(check_count("core replay", reached, expect.reachable_count));
            let snapshot = tr.span("core.report.owned_snapshot", || session.owned_snapshot());
            drop(snapshot);
            if i > 0 {
                cycle.incremental_steps += session.last_solve_steps();
                cycle.incremental_wall += wall;
                let fresh_span = tr.begin("core.fresh");
                let start = Instant::now();
                let fresh = AnalysisSession::builder(program)
                    .config(
                        AnalysisConfig::skipflow()
                            .with_masked_methods(expect.config.masked.iter().copied()),
                    )
                    .roots(expect.config.roots.iter().copied())
                    .build()
                    .map_err(|e| e.to_string())
                    .and_then(|mut s| {
                        s.solve_interruptible(None).map_err(|e| e.to_string())?;
                        Ok((
                            start.elapsed(),
                            s.last_solve_steps(),
                            s.snapshot().reachable_methods().len(),
                        ))
                    });
                tr.end(fresh_span);
                match fresh {
                    Ok((wall, steps, reached)) => {
                        cycle.fresh_wall += wall;
                        cycle.fresh_steps += steps;
                        outcome = outcome.and(check_count(
                            "fresh solve",
                            reached,
                            expect.reachable_count,
                        ));
                    }
                    Err(e) => outcome = outcome.and(Err(e)),
                }
            }
            tr.end(step_span);
            tally.record(outcome);
        }
        cycle.stats = session.snapshot().stats().clone();
        cycle.memory_bytes = session.memory_estimate();
        drop(session);
        tr.end(root);
        self.core.push(cycle);
    }

    fn registry_once(
        &mut self,
        registry: &Registry,
        name: &str,
        inputs: &Inputs,
        tally: &mut Tally,
    ) {
        let tr = &mut self.tracer;
        let root = tr.begin("server.replay");
        let open = tr.begin("server.open");
        let opened = tr
            .span("ir.read", || std::fs::read(&inputs.path))
            .map_err(|e| e.to_string())
            .and_then(|bytes| {
                tr.span("ir.decode", || encode::decode(&bytes))
                    .map_err(|e| e.to_string())
            })
            .and_then(|program| {
                tr.span("server.registry.open", || {
                    registry.open(name, Arc::new(program), AnalysisConfig::skipflow())
                })
                .map_err(|e| e.to_string())
            });
        tr.end(open);
        let handle = match opened {
            Ok(h) => h,
            Err(e) => {
                tr.end(root);
                return tally.record(Err(e));
            }
        };
        for (i, (step, expect)) in inputs.steps.iter().zip(&inputs.expects).enumerate() {
            let step_span = tr.begin("server.step");
            let mut outcome: Result<(), String> = Ok(());
            for m in &step.mutations {
                let queued = tr.span("server.registry.enqueue", || match m {
                    Mutation::Roots(ms) => registry.add_roots(name, ms.clone()).map(|_| ()),
                    Mutation::Retract(ms) => registry.retract_roots(name, ms.clone()).map(|_| ()),
                    Mutation::Edit(m, edit) => registry.edit(name, *m, *edit),
                });
                outcome = outcome.and(queued.map_err(|e| e.to_string()));
            }
            let stop = AtomicBool::new(false);
            let (flushed, loads) = std::thread::scope(|scope| {
                // Time lock-free loads while the first step's solve runs.
                let reader = (i == 0).then(|| {
                    scope.spawn(|| {
                        let mut ns = Vec::new();
                        while !stop.load(SeqCst) && ns.len() < MAX_LOAD_SAMPLES {
                            let start = Instant::now();
                            let epoch = handle.published();
                            ns.push(start.elapsed().as_nanos() as f64);
                            drop(epoch);
                            std::thread::yield_now();
                        }
                        ns
                    })
                });
                let flushed = tr.span("server.registry.flush", || {
                    registry.flush(name, Duration::from_secs(60))
                });
                stop.store(true, SeqCst);
                (
                    flushed,
                    reader
                        .map(|r| r.join().expect("load timer panicked"))
                        .unwrap_or_default(),
                )
            });
            self.load_ns.extend(loads);
            tr.end(step_span);
            outcome = outcome.and(flushed.map_err(|e| e.to_string()).and_then(|epoch| {
                check_count(
                    "registry replay",
                    epoch.snapshot.reachable_count(),
                    expect.reachable_count,
                )
            }));
            tally.record(outcome);
        }
        self.registry.push(RegistryCycle {
            coalescing_ratio: handle.batched_roots() as f64 / handle.batches().max(1) as f64,
            epochs_published: handle.epochs_published(),
        });
        drop(handle);
        let evicted = tr.span("server.registry.evict", || registry.evict(name));
        tally.record(evicted.map_err(|e| e.to_string()));
        tr.end(root);
    }

    /// Times `parse_request` + `handle_request` for connection B's query
    /// mix against an in-process session at the base configuration — the
    /// server's per-line work without the socket.
    fn handle_requests(&mut self, registry: &Registry, inputs: &Inputs, tally: &mut Tally) {
        let span = self.tracer.begin("server.handle_requests");
        let base = &inputs.analyzed;
        let ready = registry
            .open(
                "hq",
                Arc::new(inputs.program.clone()),
                AnalysisConfig::skipflow(),
            )
            .and_then(|_| registry.add_roots("hq", vec![inputs.main]))
            .and_then(|_| registry.flush("hq", Duration::from_secs(60)));
        if let Err(e) = ready {
            self.tracer.end(span);
            return tally.record(Err(e.to_string()));
        }
        for i in 0..HANDLE_REQUESTS {
            let kind = QueryKind::nth(i, inputs.probes.len());
            let line = kind.line("hq", inputs);
            let start = Instant::now();
            let response = match parse_request(&line) {
                Ok(req) => handle_request(registry, req),
                Err(e) => format!("err proto: {e}"),
            };
            self.handle_us.push(start.elapsed().as_secs_f64() * 1e6);
            if i % 100 == 0 {
                tally.record(
                    complete_answer(&response).and_then(|answer| kind.check(answer, base, inputs)),
                );
            }
        }
        let _ = registry.evict("hq");
        self.tracer.end(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_root_sums_descendants_of_each_root() {
        let mut tr = Tracer::default();
        for _ in 0..2 {
            let root = tr.begin("root");
            let mid = tr.begin("mid");
            tr.span("leaf", || std::thread::sleep(Duration::from_millis(2)));
            tr.end(mid);
            tr.span("leaf", || ());
            tr.end(root);
        }
        tr.span("leaf", || ());
        let sums = tr.per_root("root", "leaf");
        assert_eq!(sums.len(), 2);
        assert!(sums.iter().all(|&ms| ms >= 2.0));
        assert_eq!(tr.durations("leaf").len(), 5);
        assert!(tr.to_json().contains("\"parent\": null"));
    }
}
