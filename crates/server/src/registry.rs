//! The session registry: many concurrent [`AnalysisSession`]s behind one
//! admission-controlled, memory-budgeted front door.
//!
//! Each open session gets a dedicated **writer thread** that owns the
//! `AnalysisSession` (sessions borrow their `Program`, so the thread moves
//! the `Arc<Program>` in and builds the session on its own stack). Clients
//! never touch the session directly:
//!
//! * **Queries** read the last published [`PublishedEpoch`] through the
//!   lock-free [`EpochCell`] — never blocked by
//!   an in-flight solve.
//! * **Mutations** — root registrations, root *retractions*, and
//!   method-body *edits* ([`SessionOp`]) — land in a handle-level queue; the
//!   writer drains the whole queue into *one* ordered batch (request
//!   coalescing: maximal runs of same-kind root ops collapse into a single
//!   `add_roots`/`retract_roots` call), applies it, runs one budgeted,
//!   cancellable [`solve_interruptible`](AnalysisSession::solve_interruptible),
//!   then publishes a new epoch — exactly one epoch per batch. A tripped
//!   budget publishes a [`Completeness::Partial`] epoch and the writer
//!   immediately resumes with a fresh budget, so publication latency stays
//!   bounded while the fixpoint still completes.
//!
//!   Because retraction and edits are non-monotone, **epochs are not
//!   monotone either**: a later epoch may cover fewer roots and reach fewer
//!   methods than an earlier one. Each epoch is internally consistent — a
//!   `Complete` epoch publishes the same answers as a fresh solve of
//!   exactly [`PublishedEpoch::roots`] under [`PublishedEpoch::masked`] — but
//!   clients comparing answers *across* epochs must key them by
//!   [`PublishedEpoch::epoch`], never assume set inclusion.
//! * **Admission control**: a session cap, a per-session queued-root shed
//!   threshold, and a global memory budget enforced by evicting idle
//!   sessions in least-recently-used order. A session's memory figure is
//!   the engine's estimate plus the heap bytes of its published answers.
//!   When nothing can be evicted the request is shed with
//!   [`ServerError::Overloaded`] instead of degrading every session.
//!
//! **Programs are decoded once per byte string.** The registry keeps a
//! table of decoded programs keyed by their exact source bytes, which
//! `open <path>` loads through. Opening a second session from identical
//! bytes — same length, every byte equal, never just a hash — reuses the
//! first session's `Arc<Program>` instead of decoding and validating a
//! second copy; loading is a pure function of the bytes, so a hit is
//! exactly the program a fresh load would give, with every check already
//! run. A miss loads outside the table lock, and when two loads of the
//! same bytes race, the first insert wins and the loser drops its copy.
//! An entry lives only as long as some session (or other caller) holds its
//! program: entries the table alone holds are pruned on every lookup,
//! after every retired session, and before `stats` counts them. Programs
//! handed straight to [`Registry::open`] never enter the table.
//!
//! Because the writer drains the queue *before* solving, the session's own
//! pending-root list is empty at publish time: the completeness tag of every
//! published epoch is exact for the roots it covers, which is what lets the
//! stress test assert that each `Complete` epoch's answers equal those of a
//! fresh union solve of [`PublishedEpoch::roots`].

use crate::gate::{SessionGate, Settle, WriterStep};
use crate::publish::EpochCell;
use skipflow_core::{
    AnalysisConfig, AnalysisError, AnalysisSession, Completeness, InterruptReason, MethodEdit,
    OwnedSnapshot, SolveStats,
};
use skipflow_ir::{LoadError, MethodId, Program};
use std::collections::HashMap;
use std::fmt;

use skipflow_modelcheck::sync::atomic::{AtomicU64, Ordering::SeqCst};
use skipflow_modelcheck::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-side limits and per-batch solve budgets.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently open sessions; further `open`s are shed.
    pub max_sessions: usize,
    /// Global memory budget (session memory estimates — engine plus
    /// published answers — summed across sessions).
    /// Exceeding it evicts idle sessions LRU-first; if nothing is evictable
    /// the triggering request is shed. It also caps the bytes one `open`
    /// reads from a source file.
    pub memory_budget_bytes: usize,
    /// Per-session queued-root shed threshold: `roots` requests beyond this
    /// many not-yet-batched roots are refused.
    pub max_queued_roots: usize,
    /// Step budget applied to each coalesced batch solve (`None` = run each
    /// batch to the fixpoint).
    pub batch_step_budget: Option<u64>,
    /// Wall-clock budget applied to each coalesced batch solve.
    pub batch_wall_budget: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            memory_budget_bytes: 512 << 20,
            max_queued_roots: 4096,
            batch_step_budget: None,
            batch_wall_budget: None,
        }
    }
}

/// Why a registry request was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// No session with that name is open.
    UnknownSession(String),
    /// A session with that name is already open.
    DuplicateSession(String),
    /// Admission control shed the request (session cap, root-queue cap, or
    /// memory budget with nothing evictable).
    Overloaded(String),
    /// A root id is out of range for the session's program.
    InvalidRoot {
        /// The offending id.
        method: MethodId,
        /// Methods in the program.
        method_count: usize,
    },
    /// The session hit an unrecoverable analysis error (e.g. flow-capacity
    /// exhaustion); its last published epoch stays queryable.
    SessionFailed(String),
    /// A `flush` wait exceeded its deadline.
    Timeout(String),
    /// Session construction was rejected by the analysis layer.
    Analysis(String),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::UnknownSession(name) => write!(f, "unknown session `{name}`"),
            ServerError::DuplicateSession(name) => write!(f, "session `{name}` already open"),
            ServerError::Overloaded(what) => write!(f, "overloaded: {what}"),
            ServerError::InvalidRoot { method, method_count } => write!(
                f,
                "root method m{} does not exist (program has {method_count} methods)",
                method.index()
            ),
            ServerError::SessionFailed(msg) => write!(f, "session failed: {msg}"),
            ServerError::Timeout(what) => write!(f, "timed out waiting for {what}"),
            ServerError::Analysis(msg) => write!(f, "analysis rejected: {msg}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Refuses a zero step or wall budget. Every batch of such a session would
/// interrupt before its first step and the writer would resume at once, so
/// the session would spin forever without making progress.
pub(crate) fn require_nonzero_budgets(config: &AnalysisConfig) -> Result<(), ServerError> {
    if config.step_budget() == Some(0) {
        return Err(ServerError::Analysis("step budget must be at least 1".into()));
    }
    if config.wall_budget() == Some(Duration::ZERO) {
        return Err(ServerError::Analysis("wall budget must be at least 1 ms".into()));
    }
    Ok(())
}

/// One queued session mutation, applied by the writer in arrival order.
/// Runs of same-kind root ops are coalesced into one session call; the
/// relative order of adds, retracts, and edits is preserved exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionOp {
    /// Register an entry point ([`AnalysisSession::add_roots`]).
    AddRoot(MethodId),
    /// Remove an entry point ([`AnalysisSession::retract_roots`]).
    RetractRoot(MethodId),
    /// Apply a method-body edit ([`AnalysisSession::apply_edit`]).
    Edit(MethodId, MethodEdit),
}

/// One published fixpoint: the epoch number, the configuration it covers
/// (roots + masked bodies), and the answers readers query. The answers are
/// an [`OwnedSnapshot`] — reachable set, instantiated types, call-edge CSR
/// and counts — never a copy of the graph. `Arc`-published through the
/// epoch cell, so handing an epoch to a reader is a reference-count bump.
///
/// Epochs are **not monotone** across retractions and edits — see the
/// module docs. A `Complete` epoch is the exact fixpoint of
/// (`roots`, `masked`); nothing relates it to the previous epoch's sets.
#[derive(Clone, Debug)]
pub struct PublishedEpoch {
    /// Publication sequence number (0 = the empty pre-solve epoch).
    pub epoch: u64,
    /// The session roots this fixpoint covers, in acceptance order.
    pub roots: Vec<MethodId>,
    /// The method bodies masked out by edits when this fixpoint was
    /// published, in id order — the mask a fresh oracle needs
    /// ([`AnalysisConfig::with_masked_methods`]) to reproduce it.
    pub masked: Vec<MethodId>,
    /// The published answers of the fixpoint (or checkpoint, when
    /// [`PublishedEpoch::is_complete`] is false).
    pub snapshot: OwnedSnapshot,
}

impl PublishedEpoch {
    /// Whether the answers are a reached fixpoint over
    /// [`PublishedEpoch::roots`] (vs. a budget/cancel checkpoint).
    pub fn is_complete(&self) -> bool {
        self.snapshot.completeness() == Completeness::Complete
    }
}

#[derive(Default)]
struct Counters {
    epochs_published: AtomicU64,
    partial_epochs: AtomicU64,
    queries_served: AtomicU64,
    batches: AtomicU64,
    batched_roots: AtomicU64,
    sheds: AtomicU64,
}

/// A live session: the publication cell, the root queue, and counters.
/// Obtained from [`Registry::open`] / [`Registry::get`]; all methods are
/// safe to call from any thread.
pub struct SessionHandle {
    name: String,
    program: Arc<Program>,
    cell: EpochCell<PublishedEpoch>,
    /// The client/writer handshake — queue, pause/resume/cancel/shutdown
    /// flags, wake and settle condvars (see `gate.rs` for the lock
    /// discipline).
    gate: SessionGate<SessionOp>,
    counters: Counters,
    /// Milliseconds since registry start of the last client request naming
    /// this session (the LRU clock for eviction).
    last_touch_ms: AtomicU64,
}

impl SessionHandle {
    /// The session name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program under analysis (shared with the writer thread).
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The last published epoch — the lock-free read path. Counts as a
    /// served query.
    pub fn published(&self) -> Arc<PublishedEpoch> {
        self.counters.queries_served.fetch_add(1, SeqCst);
        self.cell.load()
    }

    /// The current publication epoch number without loading the epoch.
    pub fn epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// Epochs published by the writer (excluding the initial empty epoch).
    pub fn epochs_published(&self) -> u64 {
        self.counters.epochs_published.load(SeqCst)
    }

    /// Of [`SessionHandle::epochs_published`], how many carried a partial
    /// (budget- or cancel-checkpointed) fixpoint.
    pub fn partial_epochs(&self) -> u64 {
        self.counters.partial_epochs.load(SeqCst)
    }

    /// Queries served from published epochs.
    pub fn queries_served(&self) -> u64 {
        self.counters.queries_served.load(SeqCst)
    }

    /// Coalesced batch solves the writer has run.
    pub fn batches(&self) -> u64 {
        self.counters.batches.load(SeqCst)
    }

    /// Mutations (root adds, retractions, edits) that arrived through those
    /// batches (so `batched_roots / batches` is the coalescing ratio).
    pub fn batched_roots(&self) -> u64 {
        self.counters.batched_roots.load(SeqCst)
    }

    /// Requests shed at this session's root-queue cap.
    pub fn sheds(&self) -> u64 {
        self.counters.sheds.load(SeqCst)
    }

    /// The bytes this session holds: the engine estimate after the last
    /// batch plus [`SessionHandle::published_bytes`]. The memory budget,
    /// eviction and `stats` all read this figure.
    pub fn memory_estimate(&self) -> usize {
        self.gate.memory_estimate() + self.published_bytes()
    }

    /// Heap bytes of the currently published epoch's answers
    /// ([`OwnedSnapshot::heap_bytes`]).
    pub fn published_bytes(&self) -> usize {
        self.cell.load().snapshot.heap_bytes()
    }

    /// Queued mutations (root adds, retractions, edits) not yet picked up
    /// by the writer.
    pub fn queued_roots(&self) -> usize {
        self.gate.queued_len()
    }

    /// Trips the cancel token: an in-flight batch checkpoints within one
    /// stride and the session pauses until new roots or a flush arrive.
    pub fn cancel(&self) {
        self.gate.cancel();
    }

    /// Whether the session is idle: nothing queued, nothing mid-batch,
    /// nothing awaiting resume. Idle sessions are eviction candidates.
    pub fn is_idle(&self) -> bool {
        self.gate.is_idle()
    }

    /// Sticky failure message, if the session hit an unrecoverable error.
    pub fn failure(&self) -> Option<String> {
        self.gate.failure()
    }

    fn touch(&self, clock: &Instant) {
        let ms = clock.elapsed().as_millis() as u64;
        self.last_touch_ms.store(ms, SeqCst);
    }

    /// Blocks until every queued root has been solved in and the resulting
    /// epoch published, or the timeout passes. Returns the settled epoch.
    fn wait_settled(&self, timeout: Duration) -> Result<Arc<PublishedEpoch>, ServerError> {
        match self.gate.wait_settled(timeout) {
            Settle::Idle => Ok(self.cell.load()),
            Settle::Failed(msg) => Err(ServerError::SessionFailed(msg)),
            Settle::TimedOut => Err(ServerError::Timeout("flush".into())),
        }
    }
}

/// A point-in-time copy of one session's observable state, for the `stats`
/// endpoint.
#[derive(Clone, Debug)]
pub struct SessionStats {
    /// Session name.
    pub name: String,
    /// Last published epoch number.
    pub epoch: u64,
    /// Completeness of that epoch.
    pub completeness: Completeness,
    /// Roots covered by that epoch.
    pub roots_covered: usize,
    /// Roots queued but not yet batched.
    pub queued_roots: usize,
    /// Memory estimate in bytes: the engine estimate plus
    /// [`SessionStats::published_bytes`].
    pub memory_bytes: usize,
    /// Heap bytes of the published epoch's answers.
    pub published_bytes: usize,
    /// Solver statistics of the published fixpoint (steps, joins, scheduler
    /// and interrupt counters).
    pub solve: SolveStats,
    /// Coalesced batches run.
    pub batches: u64,
    /// Roots those batches carried.
    pub batched_roots: u64,
    /// Epochs published (excluding the initial empty epoch).
    pub epochs_published: u64,
    /// Published epochs that were partial checkpoints.
    pub partial_epochs: u64,
    /// Queries served.
    pub queries_served: u64,
    /// Requests shed at the root-queue cap.
    pub sheds: u64,
    /// Sticky failure, if any.
    pub failed: Option<String>,
}

/// Registry-wide counters for the `stats` endpoint.
#[derive(Clone, Debug, Default)]
pub struct RegistryStats {
    /// Sessions currently open.
    pub sessions_live: usize,
    /// Sessions opened since start.
    pub sessions_opened: u64,
    /// Sessions evicted (explicitly or by the memory budget).
    pub sessions_evicted: u64,
    /// Epochs published across all sessions (excluding initial epochs).
    pub epochs_published: u64,
    /// Queries served across all sessions.
    pub queries_served: u64,
    /// Coalesced batches run across all sessions.
    pub batches: u64,
    /// Roots carried by those batches.
    pub batched_roots: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
    /// Summed session memory estimates (engine plus published answers), in
    /// bytes.
    pub memory_bytes: usize,
    /// The configured memory budget, in bytes.
    pub memory_budget_bytes: usize,
    /// Decoded programs in the table, each shared by every live session
    /// opened from its bytes.
    pub programs: usize,
}

struct Entry {
    handle: Arc<SessionHandle>,
    writer: Option<JoinHandle<()>>,
}

/// A decoded program and the exact bytes it was loaded from.
struct CachedProgram {
    bytes: Vec<u8>,
    program: Arc<Program>,
}

/// The program loaded from exactly `bytes`, if the table holds one.
fn find<'a>(programs: &'a [CachedProgram], bytes: &[u8]) -> Option<&'a Arc<Program>> {
    programs.iter().find(|e| e.bytes == bytes).map(|e| &e.program)
}

/// The multi-session front door: opens sessions, routes roots and queries,
/// and enforces the admission/eviction policy of its [`ServerConfig`].
pub struct Registry {
    cfg: ServerConfig,
    start: Instant,
    sessions: Mutex<HashMap<String, Entry>>,
    /// The program table (see the module docs). Never locked together with
    /// `sessions`.
    programs: Mutex<Vec<CachedProgram>>,
    opened: AtomicU64,
    evicted: AtomicU64,
    shed_total: AtomicU64,
    /// Evicted sessions' final counters, folded in so registry totals don't
    /// regress when a session dies.
    retired_queries: AtomicU64,
    retired_epochs: AtomicU64,
    retired_batches: AtomicU64,
    retired_batched_roots: AtomicU64,
}

impl Registry {
    /// A registry with the given limits.
    pub fn new(cfg: ServerConfig) -> Self {
        Registry {
            cfg,
            start: Instant::now(),
            sessions: Mutex::new(HashMap::new()),
            programs: Mutex::new(Vec::new()),
            opened: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            retired_queries: AtomicU64::new(0),
            retired_epochs: AtomicU64::new(0),
            retired_batches: AtomicU64::new(0),
            retired_batched_roots: AtomicU64::new(0),
        }
    }

    /// The configured limits.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// Opens a session named `name` analyzing `program` under `config`
    /// (per-batch budgets from the [`ServerConfig`] are applied on top, and
    /// a resulting zero step or wall budget is refused).
    /// Publishes the empty epoch 0 immediately, spawns the writer thread,
    /// and returns the handle.
    pub fn open(
        &self,
        name: &str,
        program: Arc<Program>,
        config: AnalysisConfig,
    ) -> Result<Arc<SessionHandle>, ServerError> {
        let config = self.apply_budgets(config);
        require_nonzero_budgets(&config)?;
        // Validate eagerly on the caller's thread (and produce the initial
        // empty answers) so `open` reports builder errors synchronously.
        let initial_session = AnalysisSession::builder(&program)
            .config(config.clone())
            .build()
            .map_err(|e| ServerError::Analysis(e.to_string()))?;
        let initial_masked = initial_session.masked_methods();
        let initial = initial_session.owned_snapshot();

        let mut sessions = self.sessions.lock().unwrap();
        if sessions.contains_key(name) {
            return Err(ServerError::DuplicateSession(name.to_string()));
        }
        if sessions.len() >= self.cfg.max_sessions {
            self.shed_total.fetch_add(1, SeqCst);
            return Err(ServerError::Overloaded(format!(
                "session cap reached ({} open)",
                sessions.len()
            )));
        }
        let handle = Arc::new(SessionHandle {
            name: name.to_string(),
            program: program.clone(),
            cell: EpochCell::new(Arc::new(PublishedEpoch {
                epoch: 0,
                roots: Vec::new(),
                masked: initial_masked,
                snapshot: initial,
            })),
            gate: SessionGate::new(),
            counters: Counters::default(),
            last_touch_ms: AtomicU64::new(0),
        });
        handle.touch(&self.start);
        let writer = {
            let handle = handle.clone();
            std::thread::Builder::new()
                .name(format!("skipflow-writer-{name}"))
                .spawn(move || writer_loop(&handle, &program, config))
                .expect("spawn writer thread")
        };
        self.opened.fetch_add(1, SeqCst);
        sessions.insert(
            name.to_string(),
            Entry { handle: handle.clone(), writer: Some(writer) },
        );
        drop(sessions);
        // Opening a session may push the fleet over the memory budget once
        // it starts solving; check eagerly so pressure from *existing*
        // sessions is relieved before this one grows.
        let _ = self.relieve_memory_pressure(name);
        Ok(handle)
    }

    /// The program loaded from `bytes` ([`skipflow_ir::load_program`]),
    /// shared with every live session opened from identical bytes. A miss
    /// loads outside the table lock; if another load of the same bytes
    /// inserted first, its program is returned and this copy dropped.
    pub(crate) fn load_program(&self, bytes: Vec<u8>) -> Result<Arc<Program>, LoadError> {
        let hit = find(&self.live_programs(), &bytes).cloned();
        if let Some(program) = hit {
            return Ok(program);
        }
        let program = Arc::new(skipflow_ir::load_program(&bytes)?);
        let mut programs = self.live_programs();
        if let Some(first) = find(&programs, &bytes) {
            return Ok(first.clone());
        }
        programs.push(CachedProgram { bytes, program: program.clone() });
        Ok(program)
    }

    /// The program table, locked, after dropping the entries no one but
    /// the table holds.
    fn live_programs(&self) -> MutexGuard<'_, Vec<CachedProgram>> {
        let mut programs = self.programs.lock().expect("program table lock poisoned");
        programs.retain(|e| Arc::strong_count(&e.program) > 1);
        programs
    }

    /// The handle for `name`, refreshing its LRU clock.
    pub fn get(&self, name: &str) -> Result<Arc<SessionHandle>, ServerError> {
        let sessions = self.sessions.lock().unwrap();
        let entry = sessions
            .get(name)
            .ok_or_else(|| ServerError::UnknownSession(name.to_string()))?;
        entry.handle.touch(&self.start);
        Ok(entry.handle.clone())
    }

    /// Validates and queues roots for `name`'s next coalesced batch,
    /// shedding at the queue cap and relieving memory pressure afterwards.
    /// Returns the number of roots queued.
    pub fn add_roots(&self, name: &str, roots: Vec<MethodId>) -> Result<usize, ServerError> {
        self.enqueue_ops(name, roots, SessionOp::AddRoot)
    }

    /// Validates and queues root retractions for `name`'s next batch — the
    /// non-monotone inverse of [`Registry::add_roots`]; same shed policy.
    /// Returns the number of retractions queued.
    pub fn retract_roots(&self, name: &str, roots: Vec<MethodId>) -> Result<usize, ServerError> {
        self.enqueue_ops(name, roots, SessionOp::RetractRoot)
    }

    /// Validates and queues a method-body edit for `name`'s next batch.
    pub fn edit(&self, name: &str, method: MethodId, edit: MethodEdit) -> Result<(), ServerError> {
        self.enqueue_ops(name, vec![method], |m| SessionOp::Edit(m, edit))?;
        Ok(())
    }

    /// Shared mutation path: validates method ids, applies the queue-cap
    /// shed policy, relieves memory pressure, and enqueues one op per
    /// method (the writer preserves arrival order across op kinds).
    fn enqueue_ops(
        &self,
        name: &str,
        methods: Vec<MethodId>,
        to_op: impl Fn(MethodId) -> SessionOp,
    ) -> Result<usize, ServerError> {
        let handle = self.get(name)?;
        if let Some(msg) = handle.failure() {
            return Err(ServerError::SessionFailed(msg));
        }
        let method_count = handle.program.method_count();
        for &m in &methods {
            if m.index() >= method_count {
                return Err(ServerError::InvalidRoot { method: m, method_count });
            }
        }
        let queued = handle.queued_roots();
        if queued + methods.len() > self.cfg.max_queued_roots {
            handle.counters.sheds.fetch_add(1, SeqCst);
            self.shed_total.fetch_add(1, SeqCst);
            return Err(ServerError::Overloaded(format!(
                "mutation queue full ({queued} queued, cap {})",
                self.cfg.max_queued_roots
            )));
        }
        // Relieve pressure *before* enqueueing: if the budget cannot be met
        // even by evicting idle sessions, the request is shed whole instead
        // of queueing work the fleet has no room to solve.
        self.relieve_memory_pressure(name)?;
        let n = methods.len();
        // Validation and shedding above; the gate just queues and wakes.
        handle.gate.enqueue(methods.into_iter().map(to_op).collect());
        Ok(n)
    }

    /// Waits until `name` has no queued or in-flight work and returns its
    /// settled (complete unless failed/shedding) published epoch.
    pub fn flush(&self, name: &str, timeout: Duration) -> Result<Arc<PublishedEpoch>, ServerError> {
        let handle = self.get(name)?;
        handle.wait_settled(timeout)
    }

    /// Trips `name`'s cancel token: the in-flight batch (if any) checkpoints
    /// and publishes a partial epoch; the session pauses until new roots or
    /// a flush arrive.
    pub fn cancel(&self, name: &str) -> Result<(), ServerError> {
        let handle = self.get(name)?;
        handle.cancel();
        Ok(())
    }

    /// Evicts `name`: stops its writer (cancelling any in-flight batch) and
    /// drops the session. Published epochs held by readers stay valid.
    pub fn evict(&self, name: &str) -> Result<(), ServerError> {
        let entry = {
            let mut sessions = self.sessions.lock().unwrap();
            sessions
                .remove(name)
                .ok_or_else(|| ServerError::UnknownSession(name.to_string()))?
        };
        self.retire(entry);
        Ok(())
    }

    /// Stops every session (used at server shutdown).
    pub fn shutdown_all(&self) {
        let entries: Vec<Entry> = {
            let mut sessions = self.sessions.lock().unwrap();
            sessions.drain().map(|(_, e)| e).collect()
        };
        for entry in entries {
            self.retire(entry);
        }
    }

    /// Point-in-time registry counters.
    pub fn stats(&self) -> RegistryStats {
        let programs = self.live_programs().len();
        let sessions = self.sessions.lock().unwrap();
        let mut s = RegistryStats {
            sessions_live: sessions.len(),
            sessions_opened: self.opened.load(SeqCst),
            sessions_evicted: self.evicted.load(SeqCst),
            epochs_published: self.retired_epochs.load(SeqCst),
            queries_served: self.retired_queries.load(SeqCst),
            batches: self.retired_batches.load(SeqCst),
            batched_roots: self.retired_batched_roots.load(SeqCst),
            sheds: self.shed_total.load(SeqCst),
            memory_bytes: 0,
            memory_budget_bytes: self.cfg.memory_budget_bytes,
            programs,
        };
        for entry in sessions.values() {
            let h = &entry.handle;
            s.epochs_published += h.epochs_published();
            s.queries_served += h.queries_served();
            s.batches += h.batches();
            s.batched_roots += h.batched_roots();
            s.memory_bytes += h.memory_estimate();
        }
        s
    }

    /// Point-in-time stats for one session.
    pub fn session_stats(&self, name: &str) -> Result<SessionStats, ServerError> {
        let handle = self.get(name)?;
        // One load, so the memory figure describes the same epoch as the
        // rest of the line.
        let published = handle.cell.load();
        let published_bytes = published.snapshot.heap_bytes();
        Ok(SessionStats {
            name: handle.name.clone(),
            epoch: published.epoch,
            completeness: published.snapshot.completeness(),
            roots_covered: published.roots.len(),
            queued_roots: handle.queued_roots(),
            memory_bytes: handle.gate.memory_estimate() + published_bytes,
            published_bytes,
            solve: published.snapshot.stats().clone(),
            batches: handle.batches(),
            batched_roots: handle.batched_roots(),
            epochs_published: handle.epochs_published(),
            partial_epochs: handle.partial_epochs(),
            queries_served: handle.queries_served(),
            sheds: handle.sheds(),
            failed: handle.failure(),
        })
    }

    /// Whether a session with this name is currently open. Advisory only —
    /// another client may open or evict the name between this check and a
    /// follow-up request; `open` re-checks authoritatively.
    pub fn contains(&self, name: &str) -> bool {
        self.sessions.lock().unwrap().contains_key(name)
    }

    /// Names of the open sessions, sorted.
    pub fn session_names(&self) -> Vec<String> {
        let sessions = self.sessions.lock().unwrap();
        let mut names: Vec<String> = sessions.keys().cloned().collect();
        names.sort();
        names
    }

    fn apply_budgets(&self, config: AnalysisConfig) -> AnalysisConfig {
        let mut config = config;
        if let Some(steps) = self.cfg.batch_step_budget {
            config = config.with_step_budget(steps);
        }
        if let Some(wall) = self.cfg.batch_wall_budget {
            config = config.with_wall_budget(wall);
        }
        config
    }

    /// While the summed memory estimate exceeds the budget, evict idle
    /// sessions LRU-first (never `exempt`, the session serving the current
    /// request). Sheds with [`ServerError::Overloaded`] if pressure remains
    /// and nothing is evictable.
    fn relieve_memory_pressure(&self, exempt: &str) -> Result<(), ServerError> {
        loop {
            let victim = {
                let sessions = self.sessions.lock().unwrap();
                let total: usize = sessions.values().map(|e| e.handle.memory_estimate()).sum();
                if total <= self.cfg.memory_budget_bytes {
                    return Ok(());
                }
                let name = sessions
                    .values()
                    .filter(|e| e.handle.name() != exempt && e.handle.is_idle())
                    .min_by_key(|e| e.handle.last_touch_ms.load(SeqCst))
                    .map(|e| e.handle.name.clone());
                match name {
                    Some(name) => name,
                    None => {
                        self.shed_total.fetch_add(1, SeqCst);
                        return Err(ServerError::Overloaded(format!(
                            "memory budget exceeded ({total} > {} bytes) with no idle session to evict",
                            self.cfg.memory_budget_bytes
                        )));
                    }
                }
            };
            // Re-acquires the lock per round so concurrent requests are not
            // starved while a victim's writer thread winds down.
            let _ = self.evict(&victim);
        }
    }

    /// Stops `entry`'s writer, folds its counters into the registry totals,
    /// and prunes its program from the table if no other session holds it.
    fn retire(&self, mut entry: Entry) {
        entry.handle.gate.signal_shutdown();
        if let Some(writer) = entry.writer.take() {
            let _ = writer.join();
        }
        let h = &entry.handle;
        self.evicted.fetch_add(1, SeqCst);
        self.retired_queries.fetch_add(h.queries_served(), SeqCst);
        self.retired_epochs.fetch_add(h.epochs_published(), SeqCst);
        self.retired_batches.fetch_add(h.batches(), SeqCst);
        self.retired_batched_roots.fetch_add(h.batched_roots(), SeqCst);
        drop(entry);
        drop(self.live_programs());
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.shutdown_all();
    }
}

/// The per-session writer loop: wait for work, drain the queue into one
/// batch, run a budgeted cancellable solve, publish the epoch.
fn writer_loop(handle: &SessionHandle, program: &Arc<Program>, config: AnalysisConfig) {
    let mut session = match AnalysisSession::builder(program).config(config).build() {
        Ok(s) => s,
        Err(e) => {
            // `open` already validated this exact build; record defensively.
            handle.gate.fail(e.to_string());
            return;
        }
    };
    loop {
        // Extract the next batch (and reset the cancel token) under the
        // gate lock — see the lock-discipline note in `gate.rs`.
        let batch = match handle.gate.next_batch() {
            WriterStep::Shutdown => return,
            WriterStep::Batch(batch) => batch,
        };

        if !batch.is_empty() {
            let n = batch.len() as u64;
            // Ids were validated against this program at enqueue time.
            if let Err(e) = apply_batch(&mut session, batch) {
                finish_batch(handle, &session, Some(e.to_string()), false);
                continue;
            }
            handle.counters.batched_roots.fetch_add(n, SeqCst);
        }
        handle.counters.batches.fetch_add(1, SeqCst);

        // Mapping to the (Copy) reason releases the outcome's borrow of the
        // session before the publication below re-borrows it.
        match session
            .solve_interruptible(Some(handle.gate.token()))
            .map(|outcome| outcome.interrupt_reason())
        {
            Ok(reason) => {
                publish_from(handle, &session);
                match reason {
                    None => finish_batch(handle, &session, None, false),
                    Some(InterruptReason::Cancelled) => {
                        // Stay paused (set by `cancel`) with `resume`
                        // pending; a flush or new roots pick it back up.
                        finish_batch(handle, &session, None, false)
                    }
                    Some(_) => {
                        // A tripped budget bounds publication latency, not
                        // total work: resume immediately with the next
                        // batch's fresh budget.
                        finish_batch(handle, &session, None, true)
                    }
                }
            }
            Err(e) => {
                // Still publish the consistent checkpoint so queries see the
                // latest sound state.
                publish_from(handle, &session);
                finish_batch(handle, &session, Some(e.to_string()), false)
            }
        }
    }
}

/// Applies one drained queue as an ordered batch: maximal runs of same-kind
/// root ops collapse into one `add_roots`/`retract_roots` call, edits apply
/// in place. Order across kinds is preserved exactly — `add a, retract a`
/// and `retract a, add a` are different programs.
fn apply_batch(
    session: &mut AnalysisSession<'_>,
    ops: Vec<SessionOp>,
) -> Result<(), AnalysisError> {
    let mut i = 0;
    while i < ops.len() {
        match ops[i] {
            SessionOp::AddRoot(_) => {
                let run: Vec<MethodId> = ops[i..]
                    .iter()
                    .map_while(|op| match op {
                        SessionOp::AddRoot(m) => Some(*m),
                        _ => None,
                    })
                    .collect();
                i += run.len();
                session.add_roots(run)?;
            }
            SessionOp::RetractRoot(_) => {
                let run: Vec<MethodId> = ops[i..]
                    .iter()
                    .map_while(|op| match op {
                        SessionOp::RetractRoot(m) => Some(*m),
                        _ => None,
                    })
                    .collect();
                i += run.len();
                session.retract_roots(run)?;
            }
            SessionOp::Edit(m, edit) => {
                i += 1;
                session.apply_edit(m, edit)?;
            }
        }
    }
    Ok(())
}

fn publish_from(handle: &SessionHandle, session: &AnalysisSession<'_>) {
    let snapshot = session.owned_snapshot();
    if snapshot.completeness() == Completeness::Partial {
        handle.counters.partial_epochs.fetch_add(1, SeqCst);
    }
    handle.counters.epochs_published.fetch_add(1, SeqCst);
    let epoch = handle.cell.epoch() + 1;
    handle.cell.publish(Arc::new(PublishedEpoch {
        epoch,
        roots: session.roots().to_vec(),
        masked: session.masked_methods(),
        snapshot,
    }));
}

fn finish_batch(
    handle: &SessionHandle,
    session: &AnalysisSession<'_>,
    failed: Option<String>,
    resume: bool,
) {
    handle.gate.finish_batch(session.memory_estimate(), failed, resume);
}
