//! Exhaustive interleaving exploration of the server's concurrency layer:
//! the [`SessionGate`] writer handshake, driven by the `skipflow-modelcheck`
//! explorer (`--features model-check`).
//!
//! Each scenario is run under *every* schedule up to the preemption bound;
//! a pass means no schedule produced a lost or duplicated work item,
//! deadlock, or assertion failure. The registry's epoch publication is a
//! plain `Mutex<Arc<_>>` and needs no scenario of its own.
#![cfg(feature = "model-check")]

use skipflow_modelcheck::sync::{Arc, Mutex};
use skipflow_modelcheck::{explore, thread, Options};
use skipflow_server::gate::{SessionGate, Settle, WriterStep};
use std::time::Duration;

/// A long-enough flush deadline that no model execution ever times out (a
/// timeout would make assertions schedule-dependent).
const FOREVER: Duration = Duration::from_secs(3600);

/// Spawns a writer-loop thread over `gate` that drains batches into the
/// returned log, simulating the registry's writer (solve elided — the
/// handshake is what's under test).
fn spawn_writer(
    gate: &Arc<SessionGate<u32>>,
    drained: &Arc<Mutex<Vec<u32>>>,
) -> thread::JoinHandle<()> {
    let gate = gate.clone();
    let drained = drained.clone();
    thread::spawn(move || loop {
        match gate.next_batch() {
            WriterStep::Shutdown => return,
            WriterStep::Batch(items) => {
                drained.lock().unwrap().extend(items);
                gate.finish_batch(0, None, false);
            }
        }
    })
}

#[test]
fn gate_drains_every_enqueued_item_exactly_once() {
    explore(Options::default(), || {
        let gate = Arc::new(SessionGate::<u32>::new());
        let drained = Arc::new(Mutex::new(Vec::new()));
        let writer = spawn_writer(&gate, &drained);
        let client = {
            let gate = gate.clone();
            thread::spawn(move || gate.enqueue(vec![3]))
        };
        gate.enqueue(vec![1, 2]);
        client.join().unwrap();
        assert_eq!(gate.wait_settled(FOREVER), Settle::Idle);
        gate.signal_shutdown();
        writer.join().unwrap();
        let mut seen = drained.lock().unwrap().clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3], "items lost or duplicated");
    });
}

#[test]
fn gate_cancel_pauses_and_flush_resumes_without_losing_work() {
    explore(Options::default(), || {
        let gate = Arc::new(SessionGate::<u32>::new());
        let drained = Arc::new(Mutex::new(Vec::new()));
        let writer = spawn_writer(&gate, &drained);
        gate.enqueue(vec![1]);
        // Cancel races the writer: the batch may be drained already, mid
        // extraction, or still queued-and-now-paused. In every case the
        // settle below (which un-pauses, per the flush contract) must leave
        // nothing behind.
        let canceller = {
            let gate = gate.clone();
            thread::spawn(move || gate.cancel())
        };
        gate.enqueue(vec![2]);
        canceller.join().unwrap();
        assert_eq!(gate.wait_settled(FOREVER), Settle::Idle);
        assert!(gate.is_idle(), "settled gate must be idle");
        assert_eq!(gate.queued_len(), 0);
        gate.signal_shutdown();
        writer.join().unwrap();
        let mut seen = drained.lock().unwrap().clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, vec![1, 2], "cancel lost or duplicated queued work");
    });
}

#[test]
fn gate_shutdown_during_enqueue_never_hangs_the_writer() {
    explore(Options::default(), || {
        let gate = Arc::new(SessionGate::<u32>::new());
        let drained = Arc::new(Mutex::new(Vec::new()));
        let writer = spawn_writer(&gate, &drained);
        let client = {
            let gate = gate.clone();
            thread::spawn(move || gate.enqueue(vec![1]))
        };
        // Shutdown races the enqueue: the writer must exit either way (a
        // hang here is reported as deadlock by the explorer), and work is
        // allowed to be left queued but never half-drained.
        gate.signal_shutdown();
        client.join().unwrap();
        writer.join().unwrap();
        let seen = drained.lock().unwrap().clone();
        assert!(seen == vec![] || seen == vec![1], "half-drained batch: {seen:?}");
    });
}

#[test]
fn gate_failure_is_sticky_and_observed_by_flush() {
    explore(Options::default(), || {
        let gate = Arc::new(SessionGate::<u32>::new());
        let failer = {
            let gate = gate.clone();
            thread::spawn(move || gate.fail("capacity exhausted".to_string()))
        };
        failer.join().unwrap();
        match gate.wait_settled(FOREVER) {
            Settle::Failed(msg) => assert!(msg.contains("capacity")),
            other => panic!("expected sticky failure, got {other:?}"),
        }
        assert!(gate.failure().is_some());
    });
}
