//! The TCP front end: one thread per connection, one response line per
//! request line, all state behind the [`Registry`].

use crate::protocol::{parse_request, Query, Request};
use crate::registry::{require_nonzero_budgets, Registry, ServerConfig, ServerError, SessionHandle};
use skipflow_core::{AnalysisConfig, CallGraphQuery, Completeness, MethodEdit, SchedulerKind};
use skipflow_ir::{MethodId, Program};
use skipflow_modelcheck::sync::atomic::{AtomicBool, Ordering::SeqCst};
use skipflow_modelcheck::sync::Arc;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// How long a `flush` request waits before answering `err timeout`.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(60);

/// Upper bound on one request line. Longer lines are answered with
/// `err proto:` (and the oversized tail discarded) instead of buffering
/// attacker-controlled amounts of memory; the connection stays usable.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// A bound-but-not-yet-running server. [`Server::run`] blocks until a
/// client sends `shutdown`.
pub struct Server {
    registry: Arc<Registry>,
    listener: TcpListener,
    running: Arc<AtomicBool>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port, then read it back
    /// with [`Server::local_addr`]).
    pub fn bind(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        Ok(Server {
            registry: Arc::new(Registry::new(cfg)),
            listener: TcpListener::bind(addr)?,
            running: Arc::new(AtomicBool::new(true)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The registry behind this server (for in-process callers and tests).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Accepts connections until a client sends `shutdown`, then stops every
    /// session and returns. Each connection gets its own thread; queries on
    /// one connection are never blocked by solves triggered on another.
    pub fn run(self) -> io::Result<()> {
        let addr = self.local_addr()?;
        while self.running.load(SeqCst) {
            let (stream, _) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) => {
                    if self.running.load(SeqCst) {
                        return Err(e);
                    }
                    break;
                }
            };
            if !self.running.load(SeqCst) {
                break;
            }
            let registry = self.registry.clone();
            let running = self.running.clone();
            let listener_addr = addr;
            std::thread::spawn(move || {
                let _ = serve_connection(stream, &registry, &running, listener_addr);
            });
        }
        self.registry.shutdown_all();
        Ok(())
    }
}

fn serve_connection(
    stream: TcpStream,
    registry: &Registry,
    running: &AtomicBool,
    listener_addr: SocketAddr,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::with_capacity(256);
    loop {
        buf.clear();
        // Read one line with a hard cap: `read_until` on an unbounded
        // reader would buffer an arbitrarily long malicious line in memory
        // before we ever saw it.
        let n = reader
            .by_ref()
            .take((MAX_LINE_BYTES + 1) as u64)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            // Clean EOF (an unterminated final line was handled on the
            // previous iteration).
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_LINE_BYTES {
            // Oversized request: skip to the end of the line so the next
            // request parses from a clean boundary, answer structurally,
            // and keep serving.
            discard_to_newline(&mut reader)?;
            writer.write_all(
                format!("err proto: request line exceeds {MAX_LINE_BYTES} bytes\n").as_bytes(),
            )?;
            writer.flush()?;
            continue;
        }
        // else: truncated input (EOF without a newline) — serve what
        // arrived; the next iteration returns on the EOF.
        let line = match std::str::from_utf8(&buf) {
            Ok(line) => line,
            Err(_) => {
                writer.write_all(b"err proto: request is not valid UTF-8\n")?;
                writer.flush()?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(line) {
            Err(msg) => format!("err proto: {msg}"),
            Ok(Request::Shutdown) => {
                writer.write_all(b"ok bye\n")?;
                writer.flush()?;
                running.store(false, SeqCst);
                // Unblock the accept loop so `run` observes the flag.
                let _ = TcpStream::connect(listener_addr);
                return Ok(());
            }
            Ok(req) => handle_request(registry, req),
        };
        writer.write_all(response.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
    }
}

/// Consumes input through the next `\n` (or EOF) without buffering it —
/// the tail of an oversized line is discarded in `fill_buf`-sized chunks.
fn discard_to_newline<R: BufRead>(reader: &mut R) -> io::Result<()> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok(());
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let len = available.len();
                reader.consume(len);
            }
        }
    }
}

/// Executes one parsed request and renders the response line. Split from the
/// socket loop so in-process tests and the example can drive the protocol
/// without a TCP round trip.
pub fn handle_request(registry: &Registry, req: Request) -> String {
    match execute(registry, req) {
        Ok(line) => line,
        Err(e) => render_error(&e),
    }
}

fn render_error(e: &ServerError) -> String {
    let kind = match e {
        ServerError::UnknownSession(_) => "unknown-session",
        ServerError::DuplicateSession(_) => "duplicate-session",
        ServerError::Overloaded(_) => "overloaded",
        ServerError::InvalidRoot { .. } => "invalid-root",
        ServerError::SessionFailed(_) => "failed",
        ServerError::Timeout(_) => "timeout",
        ServerError::Analysis(_) => "analysis",
    };
    format!("err {kind}: {e}")
}

/// The `[partial]` tag every response answering from a checkpoint carries.
fn completeness_tag(c: Completeness) -> &'static str {
    match c {
        Completeness::Complete => "",
        Completeness::Partial => " [partial]",
    }
}

fn execute(registry: &Registry, req: Request) -> Result<String, ServerError> {
    match req {
        Request::Ping => Ok("ok pong".to_string()),
        // Handled in the connection loop; answered here only for in-process
        // callers that have no socket to shut down.
        Request::Shutdown => Ok("ok bye".to_string()),
        Request::Sessions => {
            let names = registry.session_names();
            Ok(format!("ok sessions={} {}", names.len(), names.join(" ")).trim_end().to_string())
        }
        Request::Stats { session: None } => {
            let s = registry.stats();
            Ok(format!(
                "ok sessions_live={} sessions_opened={} sessions_evicted={} \
                 epochs_published={} queries_served={} batches={} batched_roots={} \
                 sheds={} memory_bytes={} memory_budget_bytes={} programs={}",
                s.sessions_live,
                s.sessions_opened,
                s.sessions_evicted,
                s.epochs_published,
                s.queries_served,
                s.batches,
                s.batched_roots,
                s.sheds,
                s.memory_bytes,
                s.memory_budget_bytes,
                s.programs,
            ))
        }
        Request::Stats { session: Some(name) } => {
            let s = registry.session_stats(&name)?;
            let mut line = format!(
                "ok session={} epoch={} roots={} queued={} memory_bytes={} \
                 published_bytes={} steps={} flows={} solves={} batches={} \
                 batched_roots={} epochs_published={} partial_epochs={} queries={} sheds={} \
                 scheduler_flips={} order_repairs={} interrupts={} resumed={} \
                 retractions={} edits={} invalidated_flows={} rederive_steps={}",
                s.name,
                s.epoch,
                s.roots_covered,
                s.queued_roots,
                s.memory_bytes,
                s.published_bytes,
                s.solve.steps,
                s.solve.flows,
                s.solve.solves,
                s.batches,
                s.batched_roots,
                s.epochs_published,
                s.partial_epochs,
                s.queries_served,
                s.sheds,
                s.solve.scheduler.flips,
                s.solve.scheduler.order_repairs,
                s.solve.interrupt.interrupts,
                s.solve.interrupt.resumed_after_interrupt,
                s.solve.invalidation.retractions,
                s.solve.invalidation.edits,
                s.solve.invalidation.invalidated_flows,
                s.solve.invalidation.rederive_steps,
            );
            if let Some(msg) = &s.failed {
                line.push_str(&format!(" failed=\"{msg}\""));
            }
            line.push_str(completeness_tag(s.completeness));
            Ok(line)
        }
        Request::Open { session, source, opts } => {
            // Refuse duplicate names before paying for source loading; the
            // registry re-checks under its lock when actually inserting.
            if registry.contains(&session) {
                return Err(ServerError::DuplicateSession(session));
            }
            let (program, config) = load_source(registry, &source)?;
            let config = apply_opts(config, &opts)?;
            let handle = registry.open(&session, program, config)?;
            Ok(format!(
                "ok opened {} methods={} epoch=0",
                session,
                handle.program().method_count()
            ))
        }
        Request::Roots { session, roots } => {
            let handle = registry.get(&session)?;
            let ids = roots
                .iter()
                .map(|spec| resolve_method(handle.program(), spec))
                .collect::<Result<Vec<MethodId>, ServerError>>()?;
            let n = registry.add_roots(&session, ids)?;
            Ok(format!("ok queued {n} epoch={}", handle.epoch()))
        }
        Request::Retract { session, roots } => {
            let handle = registry.get(&session)?;
            let ids = roots
                .iter()
                .map(|spec| resolve_method(handle.program(), spec))
                .collect::<Result<Vec<MethodId>, ServerError>>()?;
            let n = registry.retract_roots(&session, ids)?;
            Ok(format!("ok queued-retract {n} epoch={}", handle.epoch()))
        }
        Request::Edit { session, method, edit } => {
            let handle = registry.get(&session)?;
            let m = resolve_method(handle.program(), &method)?;
            registry.edit(&session, m, edit)?;
            let verb = match edit {
                MethodEdit::DisableBody => "disable",
                MethodEdit::RestoreBody => "restore",
            };
            Ok(format!("ok queued-edit {verb} m{} epoch={}", m.index(), handle.epoch()))
        }
        Request::Flush { session } => {
            let epoch = registry.flush(&session, FLUSH_TIMEOUT)?;
            Ok(format!(
                "ok flushed epoch={} roots={}{}",
                epoch.epoch,
                epoch.roots.len(),
                completeness_tag(epoch.snapshot.completeness())
            ))
        }
        Request::Cancel { session } => {
            registry.cancel(&session)?;
            Ok("ok cancelled".to_string())
        }
        Request::Evict { session } => {
            registry.evict(&session)?;
            Ok("ok evicted".to_string())
        }
        Request::Query { session, query } => {
            let handle = registry.get(&session)?;
            let epoch = handle.published();
            let snapshot = &epoch.snapshot;
            let tag = completeness_tag(snapshot.completeness());
            let e = epoch.epoch;
            let answer = match query {
                Query::Reachable(spec) => {
                    let m = resolve_method(handle.program(), &spec)?;
                    format!("{}", snapshot.is_reachable(m))
                }
                Query::ReachableCount => format!("{}", snapshot.reachable_count()),
                Query::CallEdges => format!("{}", snapshot.call_edge_count()),
                Query::PolyCalls => format!("{}", snapshot.poly_call_count()),
                Query::Completeness => match snapshot.completeness() {
                    Completeness::Complete => "complete".to_string(),
                    Completeness::Partial => "partial".to_string(),
                },
                Query::Epoch => format!("{e}"),
            };
            Ok(format!("ok {answer} epoch={e}{tag}"))
        }
    }
}

/// Resolves `Cls.m` labels and `#<id>` raw indices against a program.
fn resolve_method(program: &Program, spec: &str) -> Result<MethodId, ServerError> {
    if let Some(idx) = spec.strip_prefix('#') {
        let idx: usize = idx
            .parse()
            .map_err(|_| ServerError::Analysis(format!("malformed method index `{spec}`")))?;
        let m = MethodId::from_index(idx);
        if idx >= program.method_count() {
            return Err(ServerError::InvalidRoot { method: m, method_count: program.method_count() });
        }
        return Ok(m);
    }
    let (cls, name) = spec
        .split_once('.')
        .ok_or_else(|| ServerError::Analysis(format!("root `{spec}` must be Cls.method or #id")))?;
    let c = program
        .type_by_name(cls)
        .ok_or_else(|| ServerError::Analysis(format!("unknown class `{cls}`")))?;
    program
        .method_by_name(c, name)
        .ok_or_else(|| ServerError::Analysis(format!("unknown method `{spec}`")))
}

/// Loads `synth:<benchmark>` (a generated suite program, reflective roots
/// pre-wired into the config; never cached) or a filesystem path (`SFBC`
/// bytecode or `.sf` source). A path is re-read on every call, so edits to
/// the file are always seen, and its bytes go through the registry's
/// program table, so identical bytes share one decoded program.
fn load_source(
    registry: &Registry,
    source: &str,
) -> Result<(Arc<Program>, AnalysisConfig), ServerError> {
    if let Some(name) = source.strip_prefix("synth:") {
        let spec = skipflow_synth::suites::by_name(name).ok_or_else(|| {
            ServerError::Analysis(format!("unknown synth benchmark `{name}`"))
        })?;
        let bench = skipflow_synth::build_benchmark(&spec);
        let config = AnalysisConfig::skipflow().with_reflective_roots(bench.reflective_roots);
        return Ok((Arc::new(bench.program), config));
    }
    let bytes = read_source(source, registry.config().memory_budget_bytes)?;
    let program = registry
        .load_program(bytes)
        .map_err(|e| ServerError::Analysis(format!("{source}: {e}")))?;
    Ok((program, AnalysisConfig::skipflow()))
}

/// Reads the file at `path`, refusing one larger than `limit` bytes: a
/// regular file by its length, before reading it; anything else (a pipe, a
/// device) once `limit + 1` bytes have arrived.
fn read_source(path: &str, limit: usize) -> Result<Vec<u8>, ServerError> {
    let cannot_read = |e: io::Error| ServerError::Analysis(format!("cannot read {path}: {e}"));
    let too_large = || {
        ServerError::Analysis(format!(
            "{path}: source is larger than the memory budget ({limit} bytes)"
        ))
    };
    let file = std::fs::File::open(path).map_err(cannot_read)?;
    let meta = file.metadata().map_err(cannot_read)?;
    let mut bytes = Vec::new();
    if meta.is_file() {
        if meta.len() > limit as u64 {
            return Err(too_large());
        }
        bytes.reserve_exact(meta.len() as usize);
    }
    file.take((limit as u64).saturating_add(1)).read_to_end(&mut bytes).map_err(cannot_read)?;
    if bytes.len() > limit {
        return Err(too_large());
    }
    Ok(bytes)
}

fn apply_opts(
    config: AnalysisConfig,
    opts: &[(String, String)],
) -> Result<AnalysisConfig, ServerError> {
    let mut config = config;
    for (key, value) in opts {
        config = match key.as_str() {
            "scheduler" => {
                // Forced SCC is never the best choice (adaptive flips to it
                // when re-processing shows), so it stays library-only.
                let kind = match value.as_str() {
                    "fifo" => SchedulerKind::Fifo,
                    "adaptive" => SchedulerKind::Adaptive,
                    other => {
                        return Err(ServerError::Analysis(format!(
                            "unknown scheduler `{other}` (fifo|adaptive)"
                        )))
                    }
                };
                config.with_scheduler(kind)
            }
            "steps" => {
                let n: u64 = value.parse().map_err(|_| {
                    ServerError::Analysis(format!("malformed steps budget `{value}`"))
                })?;
                config.with_step_budget(n)
            }
            "ms" => {
                let n: u64 = value.parse().map_err(|_| {
                    ServerError::Analysis(format!("malformed ms budget `{value}`"))
                })?;
                config.with_wall_budget(Duration::from_millis(n))
            }
            other => {
                return Err(ServerError::Analysis(format!("unknown option `{other}`")));
            }
        };
    }
    require_nonzero_budgets(&config)?;
    Ok(config)
}

/// A blocking line-oriented client for tests, the bench harness, and the
/// example: sends one request, reads one response.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: &SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Client { writer, reader: BufReader::new(stream) })
    }

    /// Sends one request line and returns the response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        Ok(response.trim_end().to_string())
    }
}

/// Convenience for in-process benchmarking: opens a handle-level view
/// alongside the protocol surface.
pub fn session_handle(registry: &Registry, name: &str) -> Result<Arc<SessionHandle>, ServerError> {
    registry.get(name)
}
