//! The end-to-end run: the `analyze` loop and the two-connection server
//! session, closed loops against the real binaries. Every answer is checked
//! against the oracle; every check that fails, every `err` line, non-zero
//! exit, broken connection or timeout counts as a failed operation.

use crate::inputs::{Expect, Inputs};
use crate::wire::{run_analyze, Conn, ServerProc};
use skipflow_modelcheck::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first failure messages (for the report).
    pub failures: Vec<String>,
}

/// Failure messages a [`Tally`] keeps.
const KEPT_FAILURES: usize = 8;

impl Tally {
    /// Records one operation; `Err` counts it as failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            self.keep(msg);
        }
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        other.failures.into_iter().for_each(|msg| self.keep(msg));
    }

    fn keep(&mut self, msg: String) {
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(msg);
        }
    }
}

fn expect_prefix(resp: &str, prefix: &str) -> Result<(), String> {
    if resp.starts_with(prefix) {
        Ok(())
    } else {
        Err(format!("expected `{prefix}…`, got `{resp}`"))
    }
}

/// Checks one `analyze --metrics` report against the oracle: the summary
/// line's reachable count and the whole `metrics:` line.
fn check_analyze(out: &str, inputs: &Inputs) -> Result<(), String> {
    let summary = format!(
        "SkipFlow: {} reachable methods (",
        inputs.analyzed.reachable_count
    );
    let metrics = &inputs.analyzed.metrics_line;
    if out.lines().any(|l| l.starts_with(&summary)) && out.lines().any(|l| l == metrics) {
        Ok(())
    } else {
        Err(format!(
            "analyze printed {out:?}; expected `{summary}…` and `{metrics}`"
        ))
    }
}

/// Runs `analyze <prog.sfbc> --root Main.main --metrics` once and checks
/// the report; returns the spawn-to-exit wall in ms.
fn analyze_once(skipflow: &Path, inputs: &Inputs, tally: &mut Tally) -> Option<f64> {
    let run = run_analyze(skipflow, &inputs.path);
    let ms = run.as_ref().ok().map(|(wall, _)| wall.as_secs_f64() * 1e3);
    tally.record(run.and_then(|(_, out)| check_analyze(&out, inputs)));
    ms
}

/// The `analyze` loop, interleaved with connection A's steps so that both
/// sample the whole run: before each of A's requests, `analyze` runs (one
/// process at a time) until the loop has had its share of the elapsed
/// time. Load on the host comes and goes within seconds; a contiguous
/// `analyze` phase would see only a few seconds of it.
struct AnalyzeLoop<'a> {
    skipflow: &'a Path,
    inputs: &'a Inputs,
    share: f64,
    start: Instant,
    spent: Duration,
    samples: Vec<f64>,
}

impl AnalyzeLoop<'_> {
    /// Runs `analyze` until the loop's share of the elapsed time is used.
    /// Meanwhile connection A keeps pinging: a connection idle for longer
    /// than the retransmission timeout has its next replies acknowledged at
    /// once, which would lift A's next request off the delayed-ACK floor
    /// its other requests sit on.
    fn catch_up(&mut self, a: &mut Conn, tally: &mut Tally) {
        if self.spent.as_secs_f64() >= self.share * self.start.elapsed().as_secs_f64() {
            return;
        }
        let stop = AtomicBool::new(false);
        let pings = std::thread::scope(|scope| {
            let pinger = scope.spawn(|| {
                let mut pings = Tally::default();
                while !stop.load(SeqCst) {
                    match a.request("ping") {
                        Ok(pong) => pings.record(expect_prefix(&pong, "ok pong")),
                        Err(e) => {
                            pings.record(Err(format!("ping: {e}")));
                            break;
                        }
                    }
                }
                pings
            });
            while self.spent.as_secs_f64() < self.share * self.start.elapsed().as_secs_f64() {
                let start = Instant::now();
                match analyze_once(self.skipflow, self.inputs, tally) {
                    Some(ms) => self.samples.push(ms),
                    None => break, // a failed run; do not spin on it
                }
                self.spent += start.elapsed();
            }
            stop.store(true, SeqCst);
            pinger.join().expect("connection A's pinger panicked")
        });
        tally.merge(pings);
    }
}

/// What the end-to-end run measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// `analyze` spawn → exit (ms).
    pub analyze_ms: Vec<f64>,
    /// `open <path>` round trips (ms).
    pub open_ms: Vec<f64>,
    /// A step's write → its `ok flushed` received (ms).
    pub update_ms: Vec<f64>,
    /// Connection B's query round trips (µs).
    pub query_us: Vec<f64>,
    /// `ping` round trips on connection B after the loop (µs).
    pub ping_us: Vec<f64>,
    /// Server `VmHWM` before shutdown (kB).
    pub peak_rss_kb: u64,
    /// Server `VmRSS` when `stats` was read (kB).
    pub rss_kb: u64,
    /// The registry's `memory_bytes` from `stats`.
    pub registry_memory_bytes: u64,
}

/// Connection B's query rotation.
#[derive(Clone, Copy, Debug)]
pub(crate) enum QueryKind {
    Count,
    Reachable(usize),
    CallEdges,
    PolyCalls,
}

impl QueryKind {
    pub(crate) fn nth(i: usize, probes: usize) -> QueryKind {
        match i % 4 {
            0 => QueryKind::Count,
            1 => QueryKind::Reachable((i / 4) % probes),
            2 => QueryKind::CallEdges,
            _ => QueryKind::PolyCalls,
        }
    }

    pub(crate) fn line(self, session: &str, inputs: &Inputs) -> String {
        match self {
            QueryKind::Count => format!("query {session} reachable-count"),
            QueryKind::Reachable(p) => {
                format!("query {session} reachable #{}", inputs.probes[p].index())
            }
            QueryKind::CallEdges => format!("query {session} call-edges"),
            QueryKind::PolyCalls => format!("query {session} poly-calls"),
        }
    }

    pub(crate) fn check(
        self,
        answer: &str,
        expect: &Expect,
        inputs: &Inputs,
    ) -> Result<(), String> {
        let want = match self {
            QueryKind::Count => expect.reachable_count.to_string(),
            QueryKind::Reachable(p) => expect.reachable[inputs.probes[p].index()].to_string(),
            QueryKind::CallEdges => expect.call_edges.to_string(),
            QueryKind::PolyCalls => expect.poly_calls.to_string(),
        };
        if answer == want {
            Ok(())
        } else {
            Err(format!("{self:?}: answered {answer}, oracle says {want}"))
        }
    }
}

/// Splits `ok <answer> epoch=<e>[ [partial]]` into the answer, the epoch,
/// and whether the epoch is a partial checkpoint.
pub(crate) fn parse_answer(resp: &str) -> Result<(&str, u64, bool), String> {
    let bad = || format!("malformed query answer `{resp}`");
    let rest = resp.strip_prefix("ok ").ok_or_else(bad)?;
    let (rest, partial) = match rest.strip_suffix(" [partial]") {
        Some(rest) => (rest, true),
        None => (rest, false),
    };
    let (answer, epoch) = rest.rsplit_once(" epoch=").ok_or_else(bad)?;
    Ok((answer, epoch.parse().map_err(|_| bad())?, partial))
}

/// [`parse_answer`] for an answer that must come from a complete epoch.
pub(crate) fn complete_answer(resp: &str) -> Result<&str, String> {
    match parse_answer(resp)? {
        (answer, _, false) => Ok(answer),
        _ => Err(format!("expected a complete epoch, got `{resp}`")),
    }
}

/// Parses `ok flushed epoch=<e> roots=<n>`.
fn parse_flushed(resp: &str) -> Result<(u64, usize), String> {
    let bad = || format!("expected `ok flushed epoch=E roots=N`, got `{resp}`");
    let rest = resp.strip_prefix("ok flushed epoch=").ok_or_else(bad)?;
    let (epoch, roots) = rest.split_once(" roots=").ok_or_else(bad)?;
    Ok((
        epoch.parse().map_err(|_| bad())?,
        roots.parse().map_err(|_| bad())?,
    ))
}

/// One connection-B answer kept for the after-the-fact check.
struct Observed {
    generation: u64,
    epoch: u64,
    kind: QueryKind,
    answer: String,
}

/// What connection B hands back when it stops.
struct BOutcome {
    conn: Conn,
    samples: Vec<f64>,
    observed: Vec<Observed>,
    tally: Tally,
}

/// Connection B: queries the current target session until `stop`,
/// checking answers against `fixed` when given (else keeping them for the
/// epoch-keyed check) and that epochs never go backwards.
fn connection_b(
    mut conn: Conn,
    inputs: &Inputs,
    target: &Mutex<(String, u64)>,
    acked: &AtomicU64,
    stop: &AtomicBool,
    fixed: Option<&Expect>,
) -> BOutcome {
    let (mut samples, mut observed, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    let mut last: Option<(u64, u64)> = None;
    let mut i = 0;
    while !stop.load(SeqCst) {
        let (session, generation) = target
            .lock()
            .expect("connection A never panics holding the target")
            .clone();
        if fixed.is_none() && generation == 0 {
            // Following A, which has not opened its first session yet.
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        let kind = QueryKind::nth(i, inputs.probes.len());
        i += 1;
        let (resp, rtt) = match conn.timed(&kind.line(&session, inputs)) {
            Ok(r) => r,
            Err(e) => {
                tally.record(Err(format!("connection B: {e}")));
                break;
            }
        };
        samples.push(rtt.as_secs_f64() * 1e6);
        let checked = parse_answer(&resp).and_then(|(answer, epoch, partial)| {
            if let Some((g, e)) = last {
                if g == generation && epoch < e {
                    return Err(format!(
                        "epoch went backwards on {session}: {e} then {epoch}"
                    ));
                }
            }
            last = Some((generation, epoch));
            match fixed {
                Some(_) if partial => Err(format!("expected a complete epoch, got `{resp}`")),
                Some(expect) => kind.check(answer, expect, inputs),
                // Epoch 0 (before A's first flush) is a partial checkpoint
                // with nothing to check but its order.
                None if partial => Ok(()),
                None => {
                    observed.push(Observed {
                        generation,
                        epoch,
                        kind,
                        answer: answer.to_string(),
                    });
                    Ok(())
                }
            }
        });
        tally.record(checked);
        acked.store(generation, SeqCst);
    }
    BOutcome {
        conn,
        samples,
        observed,
        tally,
    }
}

/// Pings sent on connection B after the loop when the floor is recorded.
const PINGS: usize = 30;

/// Starts `skipflow serve` and, for `secs`, runs connection A's
/// open → steps → evict cycles beside connection B's queries, with the
/// `analyze` loop interleaved (see [`AnalyzeLoop`]); then reads the
/// server's memory and shuts it down.
///
/// A step goes out as one pipelined write: its mutations, `flush`, and a
/// `reachable-count` check. Its update time runs from that write to the
/// arrival of `ok flushed`.
pub fn end_to_end(
    skipflow: &Path,
    inputs: &Inputs,
    secs: f64,
    ping: bool,
    tally: &mut Tally,
) -> EndToEnd {
    let mut result = EndToEnd::default();
    // An untimed warm-up run: page cache, binary, first-touch.
    analyze_once(skipflow, inputs, tally);
    let server = match ServerProc::spawn(skipflow) {
        Ok(s) => s,
        Err(e) => {
            tally.record(Err(e));
            return result;
        }
    };
    let (mut a, mut b) = match (Conn::connect(server.addr), Conn::connect(server.addr)) {
        (Ok(a), Ok(b)) => (a, b),
        _ => {
            tally.record(Err("cannot connect to the server".into()));
            return result;
        }
    };
    // The first reply on a fresh connection is acknowledged at once; warm
    // both up so every timed request sees the steady state.
    for conn in [&mut a, &mut b] {
        let pong = conn.request("ping").map_err(|e| e.to_string());
        tally.record(pong.and_then(|r| expect_prefix(&r, "ok pong")));
    }
    let path = inputs.path.display().to_string();
    let methods = inputs.program.method_count();
    let follow = inputs.workload.b_follows_a();

    // Connection B's long-lived session, at the base configuration.
    if !follow {
        let lines = [
            format!("open q {path}"),
            format!("roots q #{}", inputs.main.index()),
            "flush q".to_string(),
            "query q reachable-count".to_string(),
        ];
        let wants = [
            format!("ok opened q methods={methods} "),
            "ok queued 1".to_string(),
            "ok flushed epoch=1 roots=1".to_string(),
            format!("ok {} epoch=1", inputs.analyzed.reachable_count),
        ];
        for (line, want) in lines.iter().zip(&wants) {
            let resp = a.request(line).map_err(|e| e.to_string());
            tally.record(resp.and_then(|r| expect_prefix(&r, want)));
        }
    }

    // B's target session; in follow mode generation 0 means "none yet".
    let target = Mutex::new(("q".to_string(), 0u64));
    let acked = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let fixed = (!follow).then_some(&inputs.analyzed);
    let mut flushed: HashMap<(u64, u64), usize> = HashMap::new();

    let b_out = std::thread::scope(|scope| {
        let b_thread = scope.spawn(|| connection_b(b, inputs, &target, &acked, &stop, fixed));
        let mut analyze = AnalyzeLoop {
            skipflow,
            inputs,
            share: inputs.workload.cli_share(),
            start: Instant::now(),
            spent: Duration::ZERO,
            samples: Vec::new(),
        };
        let deadline = Instant::now() + Duration::from_secs_f64(secs);
        let mut generation = 0;
        'cycles: while Instant::now() < deadline {
            analyze.catch_up(&mut a, tally);
            generation += 1;
            let name = format!("a{generation}");
            match a.timed(&format!("open {name} {path}")) {
                Ok((resp, rtt)) => {
                    result.open_ms.push(rtt.as_secs_f64() * 1e3);
                    tally.record(expect_prefix(
                        &resp,
                        &format!("ok opened {name} methods={methods} "),
                    ));
                }
                Err(e) => {
                    tally.record(Err(format!("connection A: {e}")));
                    break 'cycles;
                }
            }
            if follow {
                *target
                    .lock()
                    .expect("connection B never panics holding the target") =
                    (name.clone(), generation);
                if generation > 1 {
                    // Evict the previous session only once B has moved on.
                    let wait = Instant::now();
                    while acked.load(SeqCst) < generation
                        && !b_thread.is_finished()
                        && wait.elapsed() < Duration::from_secs(10)
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let resp = a
                        .request(&format!("evict a{}", generation - 1))
                        .map_err(|e| e.to_string());
                    tally.record(resp.and_then(|r| expect_prefix(&r, "ok evicted")));
                }
            }
            for (i, (step, expect)) in inputs.steps.iter().zip(&inputs.expects).enumerate() {
                if i > 0 && Instant::now() >= deadline {
                    break;
                }
                analyze.catch_up(&mut a, tally);
                let mut lines: Vec<String> = step.mutations.iter().map(|m| m.line(&name)).collect();
                lines.push(format!("flush {name}"));
                lines.push(format!("query {name} reachable-count"));
                let responses = match a.pipeline(&lines) {
                    Ok(r) => r,
                    Err(e) => {
                        tally.record(Err(format!("connection A: {e}")));
                        break 'cycles;
                    }
                };
                let (mutations, rest) = responses.split_at(step.mutations.len());
                for (resp, _) in mutations {
                    tally.record(expect_prefix(resp, "ok queued"));
                }
                let (flush, arrived) = &rest[0];
                result.update_ms.push(arrived.as_secs_f64() * 1e3);
                tally.record(parse_flushed(flush).and_then(|(epoch, roots)| {
                    flushed.insert((generation, epoch), i);
                    if roots == expect.config.roots.len() {
                        Ok(())
                    } else {
                        Err(format!(
                            "flush covered {roots} roots, oracle has {}",
                            expect.config.roots.len()
                        ))
                    }
                }));
                tally.record(
                    complete_answer(&rest[1].0)
                        .and_then(|answer| QueryKind::Count.check(answer, expect, inputs)),
                );
            }
            if !follow {
                let resp = a
                    .request(&format!("evict {name}"))
                    .map_err(|e| e.to_string());
                tally.record(resp.and_then(|r| expect_prefix(&r, "ok evicted")));
            }
        }
        result.analyze_ms = analyze.samples;
        stop.store(true, SeqCst);
        b_thread.join().expect("connection B panicked")
    });

    let BOutcome {
        conn: mut b,
        samples,
        observed,
        tally: b_tally,
    } = b_out;
    result.query_us = samples;
    tally.merge(b_tally);
    // Answers at epochs A saw settle are checked against that step's
    // oracle; the rest were checked for epoch order only.
    for o in &observed {
        if let Some(&i) = flushed.get(&(o.generation, o.epoch)) {
            tally.record(o.kind.check(&o.answer, &inputs.expects[i], inputs));
        }
    }
    if ping {
        for _ in 0..PINGS {
            match b.timed("ping") {
                Ok((resp, rtt)) => {
                    result.ping_us.push(rtt.as_secs_f64() * 1e6);
                    tally.record(expect_prefix(&resp, "ok pong"));
                }
                Err(e) => {
                    tally.record(Err(format!("ping: {e}")));
                    break;
                }
            }
        }
    }
    let stats = a.request("stats").map_err(|e| e.to_string());
    result.rss_kb = server.status_kb("VmRSS").unwrap_or(0);
    tally.record(stats.and_then(|r| {
        let bytes = r
            .split_whitespace()
            .find_map(|w| w.strip_prefix("memory_bytes="))
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("stats without memory_bytes: `{r}`"))?;
        result.registry_memory_bytes = bytes;
        Ok(())
    }));
    result.peak_rss_kb = server.status_kb("VmHWM").unwrap_or(0);
    drop((a, b));
    let clean = server.shutdown();
    tally.record(if clean {
        Ok(())
    } else {
        Err("server did not shut down cleanly".into())
    });
    result
}
