//! The writer-thread handshake, extracted: queue, pause, resume, cancel,
//! shutdown, and settle signalling behind one small state machine.
//!
//! [`SessionGate`] is the synchronization half of a registry session — the
//! part that coordinates *client* threads (enqueue work, cancel, flush,
//! evict) with the single *writer* thread that drains the queue into
//! coalesced batches. It is generic over the work-item type so its tests
//! can drive the handshake with small integers instead of the whole
//! analysis engine; the registry instantiates it with
//! [`MethodId`](skipflow_ir::MethodId).
//!
//! # Lock discipline
//!
//! One mutex guards all gate state, including the cancel token of the batch
//! in flight. [`SessionGate::next_batch`] creates a fresh token for every
//! batch under the same lock it uses to extract the batch, and
//! [`SessionGate::cancel`] and [`SessionGate::signal_shutdown`] trip the
//! in-flight token under that lock. A cancel therefore reaches exactly the
//! batch that was extracted before it: one that takes the lock *after*
//! extraction trips the running solve, and one that takes it *before* finds
//! no batch in flight and is observed as `paused`. No token is ever reset,
//! so no cancel can be lost to one. Two condvars hang off the mutex: `wake`
//! (writer side — new work, unpause, shutdown) and `settled` (client
//! side — a batch finished or the session paused, failed or shut down;
//! flush waiters should re-check).
//!
//! # Writer contract
//!
//! The writer thread loops on [`SessionGate::next_batch`]. Every
//! [`WriterStep::Batch`] (even an empty one — a resume) MUST be answered by
//! exactly one [`SessionGate::finish_batch`], or the batch stays in flight
//! and flush waiters hang until their deadline. The writer passes the
//! batch's `cancel` token to its interruptible solve and reports `resume`
//! for *every* interrupted solve, a cancelled one included: the gate alone
//! decides when that leftover work runs (at once after a budget trip; after
//! a cancel, once the pause lifts). [`WriterStep::Shutdown`] ends the loop.

use skipflow_core::CancelToken;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Gate-level mutable state; see the module docs for the lock discipline.
struct GateState<T> {
    /// Work queued by clients, drained wholesale into the next batch.
    queue: Vec<T>,
    /// An interrupted batch left work behind; run again even if the queue
    /// stays empty.
    resume: bool,
    /// A client cancel paused the session; don't run until new work or a
    /// flush arrives.
    paused: bool,
    /// The cancel token of the batch between extraction and
    /// [`SessionGate::finish_batch`]; `None` while no batch is in flight.
    in_flight: Option<CancelToken>,
    /// Eviction/shutdown requested; the writer exits at its next
    /// [`SessionGate::next_batch`].
    shutdown: bool,
    /// Engine memory estimate reported by the last `finish_batch`.
    mem_estimate: usize,
    /// Sticky unrecoverable error; the writer stops batching but the
    /// session keeps serving its last published state.
    failed: Option<String>,
}

/// What the writer thread should do next, from [`SessionGate::next_batch`].
pub enum WriterStep<T> {
    /// Exit the writer loop; the session is being evicted or the server is
    /// shutting down.
    Shutdown,
    /// Run one coalesced batch. Must be answered by one
    /// [`SessionGate::finish_batch`].
    Batch {
        /// The queued items (empty when only a resume was pending).
        items: Vec<T>,
        /// This batch's own cancel token, for the interruptible solve.
        cancel: CancelToken,
    },
}

/// How a [`SessionGate::wait_settled`] ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Settle {
    /// No queued or in-flight work remains, or the session shut down with
    /// no batch in flight; either way the published state is final.
    Idle,
    /// The session latched a sticky failure (message attached).
    Failed(String),
    /// The deadline passed first.
    TimedOut,
}

/// The client/writer handshake for one session: a work queue plus the
/// pause/resume/cancel/shutdown flags, the in-flight batch's cancel token,
/// and the wake and settle condvars, all behind one mutex.
pub struct SessionGate<T> {
    shared: Mutex<GateState<T>>,
    /// Wakes the writer (new work, unpause, shutdown).
    wake: Condvar,
    /// Wakes flush waiters after each batch (and on pause, failure and
    /// shutdown).
    settled: Condvar,
}

impl<T> Default for SessionGate<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SessionGate<T> {
    /// A fresh gate: empty queue, running (not paused), no failure.
    pub fn new() -> Self {
        SessionGate {
            shared: Mutex::new(GateState {
                queue: Vec::new(),
                resume: false,
                paused: false,
                in_flight: None,
                shutdown: false,
                mem_estimate: 0,
                failed: None,
            }),
            wake: Condvar::new(),
            settled: Condvar::new(),
        }
    }

    /// Queues work for the next coalesced batch and un-pauses the session.
    pub fn enqueue(&self, items: Vec<T>) {
        let mut st = self.shared.lock().unwrap();
        st.queue.extend(items);
        st.paused = false;
        drop(st);
        self.wake.notify_all();
    }

    /// Work queued but not yet extracted into a batch.
    pub fn queued_len(&self) -> usize {
        self.shared.lock().unwrap().queue.len()
    }

    /// Pauses the session and trips the in-flight batch's cancel token: the
    /// batch checkpoints within one solver stride, and its leftover work
    /// stays parked until new work or a flush un-pauses the session. Flush
    /// waiters are woken so a flush already waiting lifts the pause again.
    pub fn cancel(&self) {
        let mut st = self.shared.lock().unwrap();
        st.paused = true;
        if let Some(token) = &st.in_flight {
            token.cancel();
        }
        drop(st);
        self.settled.notify_all();
    }

    /// Whether the session is idle: nothing queued, nothing mid-batch,
    /// nothing awaiting an un-paused resume. Idle sessions are eviction
    /// candidates.
    pub fn is_idle(&self) -> bool {
        let st = self.shared.lock().unwrap();
        st.queue.is_empty() && st.in_flight.is_none() && (!st.resume || st.paused)
    }

    /// The sticky failure message, if the session failed.
    pub fn failure(&self) -> Option<String> {
        self.shared.lock().unwrap().failed.clone()
    }

    /// Latches a sticky failure from outside the batch cycle (e.g. the
    /// writer failing to construct its session) and wakes flush waiters so
    /// they observe it.
    pub fn fail(&self, msg: String) {
        let mut st = self.shared.lock().unwrap();
        st.failed = Some(msg);
        drop(st);
        self.settled.notify_all();
    }

    /// The memory estimate reported by the last finished batch, in bytes.
    pub fn memory_estimate(&self) -> usize {
        self.shared.lock().unwrap().mem_estimate
    }

    /// Writer side: block until there is runnable work (or shutdown), then
    /// extract the whole queue as one batch with a fresh cancel token — all
    /// under the gate lock, per the module-level discipline. Returns
    /// [`WriterStep::Shutdown`] when the session is being torn down.
    pub fn next_batch(&self) -> WriterStep<T> {
        let mut st = self.shared.lock().unwrap();
        loop {
            if st.shutdown {
                return WriterStep::Shutdown;
            }
            let has_work = !st.queue.is_empty() || st.resume;
            if has_work && !st.paused && st.failed.is_none() {
                break;
            }
            st = self.wake.wait(st).unwrap();
        }
        st.resume = false;
        let cancel = CancelToken::new();
        st.in_flight = Some(cancel.clone());
        WriterStep::Batch {
            items: std::mem::take(&mut st.queue),
            cancel,
        }
    }

    /// Writer side: close out the batch opened by the last
    /// [`WriterStep::Batch`]. `resume` re-arms the gate (the interrupted
    /// batch left work behind), `failed` latches the sticky error; flush
    /// waiters are woken either way.
    pub fn finish_batch(&self, mem_estimate: usize, failed: Option<String>, resume: bool) {
        let mut st = self.shared.lock().unwrap();
        st.in_flight = None;
        st.mem_estimate = mem_estimate;
        if resume {
            st.resume = true;
        }
        if failed.is_some() {
            st.failed = failed;
        }
        drop(st);
        self.settled.notify_all();
    }

    /// Client side: block until the gate is idle (un-pausing it — the
    /// caller explicitly wants the work finished), the session shuts down
    /// with no batch in flight, the session fails, or `timeout` passes.
    pub fn wait_settled(&self, timeout: Duration) -> Settle {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock().unwrap();
        loop {
            // Un-pause every round so a concurrent cancel cannot stall the
            // wait.
            if st.paused {
                st.paused = false;
                self.wake.notify_all();
            }
            if let Some(msg) = &st.failed {
                return Settle::Failed(msg.clone());
            }
            // A shut-down writer runs no further batch, so once none is in
            // flight the published state is final, leftover work or not.
            let final_state = st.shutdown && st.in_flight.is_none();
            if final_state || (st.queue.is_empty() && st.in_flight.is_none() && !st.resume) {
                return Settle::Idle;
            }
            let now = Instant::now();
            if now >= deadline {
                return Settle::TimedOut;
            }
            let (guard, _) = self.settled.wait_timeout(st, deadline - now).unwrap();
            st = guard;
        }
    }

    /// Requests writer exit: trips the in-flight batch's cancel token (so it
    /// checkpoints promptly) and wakes both sides.
    pub fn signal_shutdown(&self) {
        let mut st = self.shared.lock().unwrap();
        st.shutdown = true;
        if let Some(token) = &st.in_flight {
            token.cancel();
        }
        drop(st);
        self.wake.notify_all();
        self.settled.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, Receiver};
    use std::sync::Arc;
    use std::thread;

    /// How long a wake-up that must happen may take. Generous: the correct
    /// gate wakes within microseconds, so only a lost wake-up reaches it.
    const WAKE: Duration = Duration::from_secs(5);
    /// How long a step that must *not* happen is watched for.
    const QUIET: Duration = Duration::from_millis(150);
    /// A flush deadline that outlives every test; a flush that only
    /// returns at it has missed its wake-up.
    const DEADLINE: Duration = Duration::from_secs(120);

    type Gate = Arc<SessionGate<u32>>;

    fn gate() -> Gate {
        Arc::new(SessionGate::new())
    }

    fn batch(step: WriterStep<u32>) -> (Vec<u32>, CancelToken) {
        match step {
            WriterStep::Batch { items, cancel } => (items, cancel),
            WriterStep::Shutdown => panic!("expected a batch, got shutdown"),
        }
    }

    /// Runs one `next_batch` on its own thread; the receiver yields the
    /// step. The thread is not joined: under a gate that wrongly blocks it
    /// never returns, and a panic in it shows as a disconnected channel.
    fn spawn_next_batch(gate: &Gate) -> Receiver<WriterStep<u32>> {
        let (tx, rx) = mpsc::channel();
        let gate = gate.clone();
        thread::spawn(move || {
            let _ = tx.send(gate.next_batch());
        });
        rx
    }

    /// The next batch, which must already be runnable. Taken on its own
    /// thread so a gate that wrongly blocks fails the test instead of
    /// hanging it.
    fn ready_batch(gate: &Gate) -> (Vec<u32>, CancelToken) {
        batch(spawn_next_batch(gate).recv_timeout(WAKE).expect("a runnable batch"))
    }

    /// Runs one `wait_settled(DEADLINE)` on its own thread, unjoined like
    /// [`spawn_next_batch`]'s.
    fn spawn_flush(gate: &Gate) -> Receiver<Settle> {
        let (tx, rx) = mpsc::channel();
        let gate = gate.clone();
        thread::spawn(move || {
            let _ = tx.send(gate.wait_settled(DEADLINE));
        });
        rx
    }

    /// Opens a batch over `[1]`, cancels it and closes it the way the
    /// writer does after a cancelled solve: with `resume` reported.
    fn cancelled_batch_with_leftover_work(gate: &Gate) {
        gate.enqueue(vec![1]);
        let (items, cancel) = ready_batch(gate);
        assert_eq!(items, vec![1]);
        gate.cancel();
        assert!(cancel.is_cancelled(), "cancel trips the batch in flight");
        gate.finish_batch(0, None, true);
    }

    // ---- state-machine cases: client and writer steps in a fixed order ----

    #[test]
    fn a_batch_takes_the_whole_queue_and_stays_in_flight_until_finished() {
        let gate = gate();
        assert!(gate.is_idle());
        gate.enqueue(vec![1, 2]);
        gate.enqueue(vec![3]);
        assert_eq!(gate.queued_len(), 3);
        assert!(!gate.is_idle(), "queued work is not idle");

        let (items, cancel) = ready_batch(&gate);
        assert_eq!(items, vec![1, 2, 3]);
        assert!(!cancel.is_cancelled());
        assert_eq!(gate.queued_len(), 0);
        assert!(!gate.is_idle(), "a batch in flight is not idle");
        assert_eq!(gate.wait_settled(Duration::ZERO), Settle::TimedOut);

        gate.finish_batch(7, None, false);
        assert!(gate.is_idle());
        assert_eq!(gate.memory_estimate(), 7);
        assert_eq!(gate.wait_settled(Duration::ZERO), Settle::Idle);
    }

    #[test]
    fn an_interrupted_batch_rearms_the_gate() {
        let gate = gate();
        gate.enqueue(vec![1]);
        ready_batch(&gate);
        gate.finish_batch(0, None, true);
        assert!(!gate.is_idle(), "leftover work awaits a resume");
        assert_eq!(gate.wait_settled(Duration::ZERO), Settle::TimedOut);

        let (items, _) = ready_batch(&gate);
        assert!(items.is_empty(), "a resume batch carries no new items");
        gate.finish_batch(0, None, false);
        assert_eq!(gate.wait_settled(Duration::ZERO), Settle::Idle);
    }

    #[test]
    fn every_batch_gets_a_fresh_token() {
        let gate = gate();
        // A cancel with no batch in flight reaches no later batch.
        gate.cancel();
        gate.enqueue(vec![1]);
        let (_, first) = ready_batch(&gate);
        assert!(!first.is_cancelled());
        gate.cancel();
        assert!(first.is_cancelled());
        gate.finish_batch(0, None, true);

        gate.enqueue(vec![2]);
        let (items, second) = ready_batch(&gate);
        assert_eq!(items, vec![2]);
        assert!(!second.is_cancelled(), "a tripped token stays with its batch");
        gate.finish_batch(0, None, false);
        // Cancelling after the batch finished trips nothing in flight.
        gate.cancel();
        assert!(!second.is_cancelled());
        assert!(gate.is_idle());
    }

    #[test]
    fn a_paused_session_with_leftover_work_is_idle() {
        let gate = gate();
        cancelled_batch_with_leftover_work(&gate);
        assert!(gate.is_idle(), "paused leftover work may be evicted");
        assert_eq!(gate.queued_len(), 0);
    }

    #[test]
    fn shutdown_trips_the_batch_in_flight_and_ends_the_writer() {
        let gate = gate();
        gate.enqueue(vec![1]);
        let (_, cancel) = ready_batch(&gate);
        gate.signal_shutdown();
        assert!(cancel.is_cancelled());
        gate.finish_batch(0, None, true);
        let step = spawn_next_batch(&gate).recv_timeout(WAKE).expect("shutdown is runnable");
        assert!(matches!(step, WriterStep::Shutdown));
    }

    #[test]
    fn a_shutdown_settles_a_flush_waiting_on_the_interrupted_batch() {
        let gate = gate();
        gate.enqueue(vec![1]);
        ready_batch(&gate);
        let flush = spawn_flush(&gate);
        assert!(flush.recv_timeout(QUIET).is_err(), "flush waits for the batch");
        gate.signal_shutdown();
        assert!(flush.recv_timeout(QUIET).is_err(), "the batch is still in flight");
        // The writer reports the tripped batch's leftover work, then exits.
        gate.finish_batch(0, None, true);
        assert_eq!(flush.recv_timeout(WAKE).expect("flush woken"), Settle::Idle);

        // Work queued but never taken does not hold a flush either.
        let gate = self::gate();
        gate.enqueue(vec![1]);
        gate.signal_shutdown();
        assert_eq!(gate.wait_settled(Duration::ZERO), Settle::Idle);
    }

    #[test]
    fn a_failure_is_sticky() {
        let gate = gate();
        gate.enqueue(vec![1]);
        ready_batch(&gate);
        gate.finish_batch(0, Some("capacity exhausted".into()), false);
        assert_eq!(gate.failure().as_deref(), Some("capacity exhausted"));
        assert_eq!(
            gate.wait_settled(Duration::ZERO),
            Settle::Failed("capacity exhausted".into())
        );
        // A later clean batch report does not clear it.
        gate.finish_batch(0, None, false);
        assert!(gate.failure().is_some());
    }

    // ---- real threads: the blocking paths and their wake-ups --------------

    #[test]
    fn a_cancel_pauses_leftover_work_until_new_work_arrives() {
        let gate = gate();
        cancelled_batch_with_leftover_work(&gate);
        let writer = spawn_next_batch(&gate);
        assert!(
            writer.recv_timeout(QUIET).is_err(),
            "a paused session must not resume on its own"
        );

        gate.enqueue(vec![2]);
        let (items, cancel) = batch(writer.recv_timeout(WAKE).expect("new work un-pauses"));
        assert_eq!(items, vec![2]);
        assert!(!cancel.is_cancelled());
        gate.finish_batch(0, None, false);
        assert_eq!(gate.wait_settled(Duration::ZERO), Settle::Idle);
    }

    #[test]
    fn a_flush_lifts_the_pause_and_drains_leftover_work() {
        let gate = gate();
        cancelled_batch_with_leftover_work(&gate);
        let writer = spawn_next_batch(&gate);
        assert!(writer.recv_timeout(QUIET).is_err(), "paused");

        let flush = spawn_flush(&gate);
        let (items, _) = batch(writer.recv_timeout(WAKE).expect("a flush un-pauses"));
        assert!(items.is_empty(), "the resume batch");
        assert!(flush.recv_timeout(QUIET).is_err(), "flush waits for the resume batch");
        gate.finish_batch(0, None, false);
        assert_eq!(flush.recv_timeout(WAKE).expect("flush woken"), Settle::Idle);
    }

    #[test]
    fn a_finished_batch_wakes_a_waiting_flush() {
        let gate = gate();
        gate.enqueue(vec![1]);
        ready_batch(&gate);
        let flush = spawn_flush(&gate);
        assert!(flush.recv_timeout(QUIET).is_err(), "flush waits for the batch");
        gate.finish_batch(0, None, false);
        assert_eq!(flush.recv_timeout(WAKE).expect("flush woken"), Settle::Idle);
    }

    #[test]
    fn a_cancel_cannot_stall_a_flush_already_waiting() {
        let gate = gate();
        // Queued work the writer has not picked up yet.
        gate.enqueue(vec![1]);
        let flush = spawn_flush(&gate);
        assert!(flush.recv_timeout(QUIET).is_err(), "flush waits for the work");
        gate.cancel();
        // The flush must lift the pause, or the writer never takes the work.
        let (items, _) =
            batch(spawn_next_batch(&gate).recv_timeout(WAKE).expect("flush un-pauses"));
        assert_eq!(items, vec![1]);
        gate.finish_batch(0, None, false);
        assert_eq!(flush.recv_timeout(WAKE).expect("flush woken"), Settle::Idle);
    }

    #[test]
    fn shutdown_and_failure_release_their_waiters() {
        let gate = gate();
        let writer = spawn_next_batch(&gate);
        assert!(writer.recv_timeout(QUIET).is_err(), "no work, no batch");
        gate.signal_shutdown();
        let step = writer.recv_timeout(WAKE).expect("shutdown wakes the writer");
        assert!(matches!(step, WriterStep::Shutdown));

        let gate = self::gate();
        gate.enqueue(vec![1]);
        ready_batch(&gate);
        let flush = spawn_flush(&gate);
        assert!(flush.recv_timeout(QUIET).is_err());
        gate.fail("writer died".into());
        assert_eq!(
            flush.recv_timeout(WAKE).expect("failure wakes the flush"),
            Settle::Failed("writer died".into())
        );
    }

    // ---- interleaving scenarios, repeated on real threads -----------------

    const ROUNDS: usize = 300;

    /// A writer loop over `gate` that logs every drained item. It stands
    /// in for the registry's writer with the solve elided: a batch whose
    /// token was tripped reports `resume`, as a cancelled solve does.
    fn spawn_writer(gate: &Gate, drained: &Arc<Mutex<Vec<u32>>>) -> Receiver<()> {
        let (done, exited) = mpsc::channel();
        let gate = gate.clone();
        let drained = drained.clone();
        thread::spawn(move || {
            while let WriterStep::Batch { items, cancel } = gate.next_batch() {
                drained.lock().unwrap().extend(items);
                gate.finish_batch(0, None, cancel.is_cancelled());
            }
            let _ = done.send(());
        });
        exited
    }

    /// A flush, which must settle long before its deadline: one that
    /// returns only at the deadline has missed its wake-up.
    fn flushed(gate: &Gate) -> Settle {
        spawn_flush(gate).recv_timeout(WAKE).expect("the flush settles")
    }

    fn shut_down(gate: &Gate, writer: Receiver<()>) {
        gate.signal_shutdown();
        writer.recv_timeout(WAKE).expect("the writer exits on shutdown");
    }

    fn sorted(drained: &Mutex<Vec<u32>>) -> Vec<u32> {
        let mut seen = drained.lock().unwrap().clone();
        seen.sort_unstable();
        seen
    }

    #[test]
    fn every_enqueued_item_is_drained_exactly_once() {
        for _ in 0..ROUNDS {
            let gate = gate();
            let drained = Arc::new(Mutex::new(Vec::new()));
            let writer = spawn_writer(&gate, &drained);
            let client = {
                let gate = gate.clone();
                thread::spawn(move || gate.enqueue(vec![3]))
            };
            gate.enqueue(vec![1, 2]);
            client.join().unwrap();
            assert_eq!(flushed(&gate), Settle::Idle);
            shut_down(&gate, writer);
            assert_eq!(sorted(&drained), vec![1, 2, 3], "items lost or duplicated");
        }
    }

    #[test]
    fn a_racing_cancel_loses_no_work_once_flushed() {
        for _ in 0..ROUNDS {
            let gate = gate();
            let drained = Arc::new(Mutex::new(Vec::new()));
            let writer = spawn_writer(&gate, &drained);
            gate.enqueue(vec![1]);
            // The cancel may land before, during or after the first batch;
            // the flush (which un-pauses) must leave nothing behind.
            let canceller = {
                let gate = gate.clone();
                thread::spawn(move || gate.cancel())
            };
            gate.enqueue(vec![2]);
            canceller.join().unwrap();
            assert_eq!(flushed(&gate), Settle::Idle);
            assert!(gate.is_idle(), "a settled gate is idle");
            assert_eq!(gate.queued_len(), 0);
            shut_down(&gate, writer);
            assert_eq!(sorted(&drained), vec![1, 2], "cancel lost or duplicated work");
        }
    }

    #[test]
    fn a_shutdown_racing_an_enqueue_never_hangs_the_writer() {
        for _ in 0..ROUNDS {
            let gate = gate();
            let drained = Arc::new(Mutex::new(Vec::new()));
            let writer = spawn_writer(&gate, &drained);
            let client = {
                let gate = gate.clone();
                thread::spawn(move || gate.enqueue(vec![1]))
            };
            // Work may be left queued, but never half-drained.
            shut_down(&gate, writer);
            client.join().unwrap();
            let seen = sorted(&drained);
            assert!(seen.is_empty() || seen == vec![1], "half-drained batch: {seen:?}");
        }
    }

    #[test]
    fn a_flush_racing_a_shutdown_settles() {
        for _ in 0..ROUNDS {
            let gate = gate();
            let drained = Arc::new(Mutex::new(Vec::new()));
            let writer = spawn_writer(&gate, &drained);
            gate.enqueue(vec![1]);
            // The shutdown may land before, during or after the batch.
            let flush = spawn_flush(&gate);
            shut_down(&gate, writer);
            assert_eq!(flush.recv_timeout(WAKE).expect("the flush settles"), Settle::Idle);
        }
    }

    #[test]
    fn a_failure_from_another_thread_is_observed_by_a_flush() {
        for _ in 0..ROUNDS {
            let gate = gate();
            gate.enqueue(vec![1]);
            let flush = spawn_flush(&gate);
            let failer = {
                let gate = gate.clone();
                thread::spawn(move || gate.fail("capacity exhausted".to_string()))
            };
            failer.join().unwrap();
            match flush.recv_timeout(WAKE).expect("failure wakes the flush") {
                Settle::Failed(msg) => assert!(msg.contains("capacity")),
                other => panic!("expected the sticky failure, got {other:?}"),
            }
            assert!(gate.failure().is_some());
        }
    }
}
