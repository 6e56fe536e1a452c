//! The cooperative exhaustive scheduler behind `--features model-check`.
//!
//! # How exploration works
//!
//! A *model run* executes the user's scenario closure many times. Each
//! execution runs every logical thread on a real OS thread, but a baton
//! (one `current` thread id guarded by a mutex/condvar pair) ensures that
//! exactly one logical thread makes progress at any instant: every visible
//! operation (atomic access, mutex acquire/release, condvar wait/notify,
//! spawn/join) first calls [`Sched::schedule_point`], which consults the
//! *decision stack* to decide which thread runs next.
//!
//! The decision stack is the schedule-replay tree serialized as a DFS
//! path: each entry records the thread chosen at a branch point (a point
//! with more than one eligible thread) plus the alternatives not yet
//! explored. After an execution finishes, the driver backtracks to the
//! deepest entry with an untried alternative and replays the prefix, so
//! successive executions enumerate *distinct* schedules and the run is
//! exhaustive (up to the preemption bound) when the stack empties.
//!
//! # Preemption bound
//!
//! Switching away from a thread that could have continued costs one
//! *preemption*; switches forced by blocking (mutex contention, join,
//! condvar wait, thread exit) are free. When an execution has spent its
//! bound, the only eligible thread at a branch point is the running one,
//! and the pruned alternatives are tallied in the report. Most real bugs
//! surface within two preemptions (the classic CHESS observation), which
//! keeps the tree tractable while staying systematic.
//!
//! # Failure classes (all hard failures, under *every* explored schedule)
//!
//! * a logical thread panics (assertion failures in scenarios);
//! * deadlock: no thread is runnable but not all have finished;
//! * livelock suspicion: an execution exceeding the depth cap.
//!
//! Because the scheduler serializes threads, every explored interleaving
//! is sequentially consistent. That models `SeqCst` exactly — which is
//! what the server uses throughout — and explores a sound subset of the
//! behaviors of weaker orderings.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc as StdArc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

thread_local! {
    static SCHED: RefCell<Option<StdArc<Sched>>> = const { RefCell::new(None) };
    static TID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Panic payload used to unwind logical threads at teardown. Swallowed by
/// the per-thread wrapper; never observed by user code.
pub(crate) struct ModelAbort;

/// Runs `f` with the active scheduler (and the calling logical thread's id)
/// if the current OS thread belongs to a model run; returns `None` (and the
/// caller falls through to plain `std` behavior) otherwise.
pub(crate) fn with_sched<R>(f: impl FnOnce(&StdArc<Sched>, usize) -> R) -> Option<R> {
    SCHED.with(|s| {
        let b = s.borrow();
        b.as_ref().map(|sched| f(sched, TID.with(|t| t.get())))
    })
}

/// Whether the calling OS thread is a logical thread of an active model run.
pub(crate) fn model_active() -> bool {
    SCHED.with(|s| s.borrow().is_some())
}

/// Binds the calling OS thread to logical thread `tid` of `sched`.
pub(crate) fn install(sched: StdArc<Sched>, tid: usize) {
    SCHED.with(|s| *s.borrow_mut() = Some(sched));
    TID.with(|c| c.set(tid));
}

/// Unwinds the calling logical thread at teardown — unless it is already
/// unwinding (a shim op in a destructor during abort), in which case it
/// returns and the op proceeds; panicking while panicking would abort the
/// process.
pub(crate) fn teardown_panic() {
    if !std::thread::panicking() {
        std::panic::panic_any(ModelAbort);
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ThreadState {
    Runnable,
    BlockedJoin(usize),
    BlockedMutex(usize),
    BlockedCondvar(usize),
    Finished,
}

/// One branch point on the DFS path: the thread chosen this descent and the
/// alternatives not yet explored.
pub(crate) struct StackEntry {
    pub chosen: usize,
    pub untried: Vec<usize>,
}

pub(crate) struct Inner {
    threads: Vec<ThreadState>,
    current: usize,
    /// Cross-execution DFS stack (installed by the driver, harvested after
    /// the execution).
    stack: Vec<StackEntry>,
    /// Branch points consumed so far this execution (index into `stack`).
    bp: usize,
    depth: usize,
    preemptions: usize,
    pruned: u64,
    discovered: u64,
    failure: Option<String>,
    abort: bool,
    all_done: bool,
    /// Mutex address -> holder thread. Absent = free.
    mutexes: HashMap<usize, usize>,
    /// Condvar address -> waiters in arrival order.
    cv_waiters: HashMap<usize, Vec<usize>>,
    real_handles: Vec<std::thread::JoinHandle<()>>,
    /// Ring of the most recent (thread, op) pairs for failure diagnostics.
    ops: Vec<(usize, &'static str)>,
    ops_next: usize,
}

const OPS_RING: usize = 48;

pub(crate) struct Sched {
    opts: Options,
    inner: StdMutex<Inner>,
    cv: StdCondvar,
    done_cv: StdCondvar,
}

/// Exploration limits.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Maximum preemptive context switches per execution (`None` =
    /// unbounded, truly exhaustive). Defaults to 2.
    pub preemption_bound: Option<usize>,
    /// Stop after this many schedules even if the tree is not exhausted
    /// (reported via [`Report::capped`]).
    pub max_schedules: u64,
    /// Per-execution schedule-point cap; exceeding it is reported as a
    /// failure (livelock suspicion).
    pub max_depth: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options { preemption_bound: Some(2), max_schedules: 500_000, max_depth: 20_000 }
    }
}

/// What an exploration did: how many distinct schedules ran, how bushy and
/// deep the replay tree was, and how much the preemption bound pruned.
#[derive(Clone, Copy, Debug, Default)]
pub struct Report {
    /// Distinct complete schedules executed.
    pub schedules: u64,
    /// Branch points discovered (decision-stack pushes across the run).
    pub branch_points: u64,
    /// Deepest execution, in schedule points.
    pub max_depth: usize,
    /// Eligible choices suppressed by the preemption bound.
    pub pruned_by_bound: u64,
    /// The run stopped at [`Options::max_schedules`] before exhausting the
    /// tree.
    pub capped: bool,
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model-check: {} schedules, {} branch points, max depth {}, {} choices pruned by bound{}",
            self.schedules,
            self.branch_points,
            self.max_depth,
            self.pruned_by_bound,
            if self.capped { " (capped)" } else { "" }
        )
    }
}

/// A schedule under which the scenario failed, with diagnostics.
#[derive(Debug)]
pub struct Failure {
    /// What went wrong, the recent-op tail, and the decision prefix.
    pub message: String,
    /// Schedules executed up to and including the failing one.
    pub schedules: u64,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model-check failure after {} schedules: {}", self.schedules, self.message)
    }
}

impl std::error::Error for Failure {}

impl Sched {
    fn new(opts: Options, stack: Vec<StackEntry>) -> Self {
        Sched {
            opts,
            inner: StdMutex::new(Inner {
                threads: Vec::new(),
                current: 0,
                stack,
                bp: 0,
                depth: 0,
                preemptions: 0,
                pruned: 0,
                discovered: 0,
                failure: None,
                abort: false,
                all_done: false,
                mutexes: HashMap::new(),
                cv_waiters: HashMap::new(),
                real_handles: Vec::new(),
                ops: Vec::new(),
                ops_next: 0,
            }),
            cv: StdCondvar::new(),
            done_cv: StdCondvar::new(),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    fn push_op(g: &mut Inner, t: usize, label: &'static str) {
        if g.ops.len() < OPS_RING {
            g.ops.push((t, label));
        } else {
            let i = g.ops_next;
            g.ops[i] = (t, label);
        }
        g.ops_next = (g.ops_next + 1) % OPS_RING;
    }

    /// Records a failure (first one wins), wakes everyone, and flags the
    /// teardown. Does not unwind by itself — callers decide.
    fn fail_locked(&self, g: &mut Inner, msg: String) {
        if g.failure.is_none() {
            let mut tail: Vec<String> = Vec::new();
            for i in 0..g.ops.len() {
                let (t, op) = g.ops[(g.ops_next + i) % g.ops.len()];
                tail.push(format!("t{t}:{op}"));
            }
            let prefix: Vec<usize> = g.stack[..g.bp.min(g.stack.len())]
                .iter()
                .map(|e| e.chosen)
                .collect();
            g.failure = Some(format!(
                "{msg}\n  recent ops: {}\n  decision prefix: {prefix:?}",
                tail.join(" ")
            ));
        }
        g.abort = true;
        self.cv.notify_all();
        self.done_cv.notify_all();
    }

    /// Records a user panic from a logical thread (the thread is already
    /// unwinding; no further unwind needed).
    pub(crate) fn record_user_panic(&self, t: usize, msg: String) {
        let mut g = self.lock();
        self.fail_locked(&mut g, format!("logical thread {t} panicked: {msg}"));
    }

    /// Picks the next thread to run. Must be called with the lock held and
    /// the thread states up to date. Returns `false` if the execution is
    /// over or aborting (caller should not park on the baton).
    fn pick_next(&self, g: &mut Inner) -> bool {
        if g.abort {
            return false;
        }
        let enabled: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, ThreadState::Runnable))
            .map(|(i, _)| i)
            .collect();
        if enabled.is_empty() {
            if g.threads.iter().all(|s| matches!(s, ThreadState::Finished)) {
                g.all_done = true;
                self.done_cv.notify_all();
                return false;
            }
            let states: Vec<String> = g
                .threads
                .iter()
                .enumerate()
                .map(|(i, s)| format!("t{i}:{s:?}"))
                .collect();
            self.fail_locked(g, format!("deadlock: no runnable thread ({})", states.join(" ")));
            return false;
        }
        let cur = g.current;
        let cur_enabled = matches!(g.threads[cur], ThreadState::Runnable);
        let candidates: Vec<usize> = if cur_enabled
            && self.opts.preemption_bound.is_some_and(|b| g.preemptions >= b)
        {
            g.pruned += (enabled.len() - 1) as u64;
            vec![cur]
        } else {
            // Current thread first (the non-preemptive descent), then the
            // rest in ascending id order — deterministic, so replay works.
            let mut c = Vec::with_capacity(enabled.len());
            if cur_enabled {
                c.push(cur);
            }
            c.extend(enabled.iter().copied().filter(|&i| i != cur));
            c
        };
        let chosen = if candidates.len() == 1 {
            candidates[0]
        } else if g.bp < g.stack.len() {
            let c = g.stack[g.bp].chosen;
            debug_assert!(candidates.contains(&c), "replay diverged: schedule not deterministic");
            g.bp += 1;
            c
        } else {
            let c = candidates[0];
            g.stack.push(StackEntry { chosen: c, untried: candidates[1..].to_vec() });
            g.bp += 1;
            g.discovered += 1;
            c
        };
        if chosen != cur && cur_enabled {
            g.preemptions += 1;
        }
        g.current = chosen;
        self.cv.notify_all();
        true
    }

    /// Parks the calling logical thread until the baton names it (or the
    /// run aborts, in which case the thread unwinds).
    fn park_until_current(&self, mut g: StdMutexGuard<'_, Inner>, t: usize) {
        while g.current != t && !g.abort {
            g = self.cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
        let abort = g.abort;
        drop(g);
        if abort {
            teardown_panic();
        }
    }

    /// One visible operation boundary: decide who runs next, then wait for
    /// the baton. Called by the running thread *before* each shim op.
    pub(crate) fn schedule_point(self: &StdArc<Self>, label: &'static str) {
        let t = TID.with(|c| c.get());
        let mut g = self.lock();
        if g.abort {
            drop(g);
            teardown_panic();
            return;
        }
        debug_assert_eq!(g.current, t, "schedule point from a descheduled thread");
        g.depth += 1;
        Self::push_op(&mut g, t, label);
        if g.depth > self.opts.max_depth {
            self.fail_locked(
                &mut g,
                format!("execution exceeded {} schedule points (livelock?)", self.opts.max_depth),
            );
            drop(g);
            teardown_panic();
            return;
        }
        if !self.pick_next(&mut g) {
            drop(g);
            teardown_panic();
            return;
        }
        self.park_until_current(g, t);
    }

    // ---- mutex ----

    pub(crate) fn mutex_lock(self: &StdArc<Self>, addr: usize) {
        let t = TID.with(|c| c.get());
        loop {
            self.schedule_point("mutex-lock");
            let mut g = self.lock();
            if g.abort {
                drop(g);
                teardown_panic();
                return;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = g.mutexes.entry(addr) {
                e.insert(t);
                return;
            }
            g.threads[t] = ThreadState::BlockedMutex(addr);
            if !self.pick_next(&mut g) {
                drop(g);
                teardown_panic();
                return;
            }
            self.park_until_current(g, t);
        }
    }

    pub(crate) fn mutex_unlock(self: &StdArc<Self>, addr: usize) {
        let t = TID.with(|c| c.get());
        self.schedule_point("mutex-unlock");
        let mut g = self.lock();
        let prev = g.mutexes.remove(&addr);
        debug_assert_eq!(prev, Some(t), "unlock of a mutex not held by this thread");
        for s in g.threads.iter_mut() {
            if *s == ThreadState::BlockedMutex(addr) {
                *s = ThreadState::Runnable;
            }
        }
    }

    // ---- condvar ----

    /// Atomically releases `mx_addr` and blocks on `cv_addr`. The caller
    /// re-acquires the mutex (via [`Sched::mutex_lock`]) after this returns.
    pub(crate) fn condvar_wait(self: &StdArc<Self>, cv_addr: usize, mx_addr: usize) {
        let t = TID.with(|c| c.get());
        let mut g = self.lock();
        if g.abort {
            drop(g);
            teardown_panic();
            return;
        }
        g.depth += 1;
        Self::push_op(&mut g, t, "condvar-wait");
        let prev = g.mutexes.remove(&mx_addr);
        debug_assert_eq!(prev, Some(t), "condvar wait with a mutex not held by this thread");
        for s in g.threads.iter_mut() {
            if *s == ThreadState::BlockedMutex(mx_addr) {
                *s = ThreadState::Runnable;
            }
        }
        g.cv_waiters.entry(cv_addr).or_default().push(t);
        g.threads[t] = ThreadState::BlockedCondvar(cv_addr);
        if !self.pick_next(&mut g) {
            drop(g);
            teardown_panic();
            return;
        }
        self.park_until_current(g, t);
    }

    pub(crate) fn condvar_notify(self: &StdArc<Self>, cv_addr: usize, all: bool) {
        self.schedule_point(if all { "notify-all" } else { "notify-one" });
        let mut g = self.lock();
        let woken: Vec<usize> = match g.cv_waiters.get_mut(&cv_addr) {
            Some(ws) if all => std::mem::take(ws),
            Some(ws) if !ws.is_empty() => vec![ws.remove(0)],
            _ => Vec::new(),
        };
        for w in woken {
            debug_assert_eq!(g.threads[w], ThreadState::BlockedCondvar(cv_addr));
            g.threads[w] = ThreadState::Runnable;
        }
    }

    // ---- threads ----

    /// Registers a new logical thread (spawn is a schedule point on the
    /// parent). Returns the child id.
    pub(crate) fn spawn_thread(self: &StdArc<Self>) -> usize {
        self.schedule_point("spawn");
        let mut g = self.lock();
        let id = g.threads.len();
        g.threads.push(ThreadState::Runnable);
        id
    }

    pub(crate) fn register_real(&self, h: std::thread::JoinHandle<()>) {
        self.lock().real_handles.push(h);
    }

    /// First park of a freshly spawned logical thread.
    pub(crate) fn thread_started(self: &StdArc<Self>, t: usize) {
        let g = self.lock();
        self.park_until_current(g, t);
    }

    pub(crate) fn finish_thread(self: &StdArc<Self>, t: usize) {
        let mut g = self.lock();
        g.threads[t] = ThreadState::Finished;
        for s in g.threads.iter_mut() {
            if *s == ThreadState::BlockedJoin(t) {
                *s = ThreadState::Runnable;
            }
        }
        if g.abort {
            if g.threads.iter().all(|s| matches!(s, ThreadState::Finished)) {
                g.all_done = true;
                self.done_cv.notify_all();
            }
            self.cv.notify_all();
            return;
        }
        // Thread exit forfeits the baton; never a preemption.
        let _ = self.pick_next(&mut g);
    }

    pub(crate) fn join_thread(self: &StdArc<Self>, child: usize) {
        let t = TID.with(|c| c.get());
        self.schedule_point("join");
        let mut g = self.lock();
        if g.abort {
            drop(g);
            teardown_panic();
            return;
        }
        if matches!(g.threads[child], ThreadState::Finished) {
            return;
        }
        g.threads[t] = ThreadState::BlockedJoin(child);
        if !self.pick_next(&mut g) {
            drop(g);
            teardown_panic();
            return;
        }
        self.park_until_current(g, t);
    }
}

// ---- driver ----

struct ExecOutcome {
    failure: Option<String>,
    stack: Vec<StackEntry>,
    depth: usize,
    discovered: u64,
    pruned: u64,
}

fn run_one(opts: Options, stack: Vec<StackEntry>, f: StdArc<dyn Fn() + Send + Sync>) -> ExecOutcome {
    let sched = StdArc::new(Sched::new(opts, stack));
    {
        let mut g = sched.lock();
        g.threads.push(ThreadState::Runnable);
        g.current = 0;
    }
    let s2 = sched.clone();
    let root = std::thread::Builder::new()
        .name("mc-0".into())
        .spawn(move || {
            install(s2.clone(), 0);
            let r = catch_unwind(AssertUnwindSafe(|| f()));
            if let Err(p) = r {
                if !p.is::<ModelAbort>() {
                    s2.record_user_panic(0, panic_message(&*p));
                }
            }
            s2.finish_thread(0);
        })
        .expect("spawn model root thread");

    // Wait until every logical thread has finished (normally or by abort).
    {
        let mut g = sched.lock();
        while !g.all_done {
            g = sched.done_cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }
    let _ = root.join();
    let handles = std::mem::take(&mut sched.lock().real_handles);
    for h in handles {
        let _ = h.join();
    }

    let mut g = sched.lock();
    ExecOutcome {
        failure: g.failure.take(),
        stack: std::mem::take(&mut g.stack),
        depth: g.depth,
        discovered: g.discovered,
        pruned: g.pruned,
    }
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Exhaustively explores the interleavings of `scenario` (up to the
/// preemption bound) and returns the exploration [`Report`], or the first
/// [`Failure`] with its schedule diagnostics.
pub fn try_explore<F>(opts: Options, scenario: F) -> Result<Report, Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    let f: StdArc<dyn Fn() + Send + Sync> = StdArc::new(scenario);
    let mut stack: Vec<StackEntry> = Vec::new();
    let mut report = Report::default();
    loop {
        report.schedules += 1;
        let out = run_one(opts, stack, f.clone());
        report.max_depth = report.max_depth.max(out.depth);
        report.branch_points += out.discovered;
        report.pruned_by_bound += out.pruned;
        if let Some(message) = out.failure {
            return Err(Failure { message, schedules: report.schedules });
        }
        stack = out.stack;
        // Backtrack to the deepest branch point with an untried choice.
        loop {
            match stack.last_mut() {
                None => return Ok(report),
                Some(e) => {
                    if let Some(next) = e.untried.pop() {
                        e.chosen = next;
                        break;
                    }
                    stack.pop();
                }
            }
        }
        if report.schedules >= opts.max_schedules {
            report.capped = true;
            return Ok(report);
        }
    }
}

/// [`try_explore`], but panics with the failure rendering — the convenient
/// form for `#[test]`s that expect the scenario to hold.
pub fn explore<F>(opts: Options, scenario: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    match try_explore(opts, scenario) {
        Ok(report) => report,
        Err(failure) => panic!("{failure}"),
    }
}
