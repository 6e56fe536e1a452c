//! Self-tests for the model checker: the explorer must (a) pass correct
//! concurrent code under every schedule, (b) *find* the classic bug classes
//! it exists for — lost updates, deadlock, livelock — and (c) report
//! exploration statistics that prove the tree is actually walked.
#![cfg(feature = "model-check")]

use skipflow_modelcheck::sync::atomic::{AtomicU64, Ordering::SeqCst};
use skipflow_modelcheck::sync::{Arc, Condvar, Mutex};
use skipflow_modelcheck::{explore, thread, try_explore, Options};

#[test]
fn atomic_counter_is_correct_under_every_schedule() {
    let report = explore(Options::default(), || {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = n.clone();
                thread::spawn(move || {
                    n.fetch_add(1, SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(SeqCst), 2);
    });
    // Two extra threads interleaving a handful of ops each: the tree must
    // branch (exact count is an implementation detail; >1 proves search).
    assert!(report.schedules > 10, "expected real exploration, got {report}");
    assert!(report.branch_points > 0);
}

#[test]
fn lost_update_bug_is_found() {
    // Classic racy read-modify-write: load then store. Some schedule loses
    // an update, and the final assertion turns it into a model failure.
    let failure = try_explore(Options::default(), || {
        let n = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = n.clone();
                thread::spawn(move || {
                    let v = n.load(SeqCst);
                    n.store(v + 1, SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(n.load(SeqCst), 2, "lost update");
    })
    .expect_err("the explorer must find the lost-update schedule");
    assert!(failure.message.contains("lost update"), "unexpected: {failure}");
}

#[test]
fn mutex_guarantees_exclusion() {
    let report = explore(Options::default(), || {
        let n = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let n = n.clone();
                thread::spawn(move || {
                    let mut g = n.lock().unwrap();
                    let v = *g;
                    // A racy gap between read and write — made safe by the
                    // lock; the explorer proves no schedule breaks it.
                    skipflow_modelcheck::yield_now();
                    *g = v + 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*n.lock().unwrap(), 2);
    });
    assert!(report.schedules > 1);
}

#[test]
fn condvar_handshake_never_hangs() {
    let report = explore(Options::default(), || {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let setter = {
            let pair = pair.clone();
            thread::spawn(move || {
                let (m, cv) = &*pair;
                *m.lock().unwrap() = true;
                cv.notify_one();
            })
        };
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        setter.join().unwrap();
    });
    assert!(report.schedules > 1);
}

#[test]
fn lock_order_inversion_deadlocks_and_is_detected() {
    let failure = try_explore(Options::default(), || {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let t = {
            let a = a.clone();
            let b = b.clone();
            thread::spawn(move || {
                let _gb = b.lock().unwrap();
                let _ga = a.lock().unwrap();
            })
        };
        let _ga = a.lock().unwrap();
        let _gb = b.lock().unwrap();
        drop((_ga, _gb));
        let _ = t.join();
    })
    .expect_err("AB/BA lock order must deadlock under some schedule");
    assert!(failure.message.contains("deadlock"), "unexpected: {failure}");
}

#[test]
fn user_panic_is_reported_with_schedule_diagnostics() {
    let failure = try_explore(Options::default(), || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        let t = thread::spawn(move || {
            n2.store(1, SeqCst);
        });
        t.join().unwrap();
        assert_ne!(n.load(SeqCst), 1, "saw the store");
    })
    .expect_err("the assertion must fail on some schedule");
    assert!(failure.message.contains("saw the store"), "unexpected: {failure}");
    assert!(failure.message.contains("recent ops"), "missing diagnostics: {failure}");
}

#[test]
fn preemption_bound_prunes_and_unbounded_explores_more() {
    let scenario = || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = n.clone();
        let t = thread::spawn(move || {
            n2.fetch_add(1, SeqCst);
            n2.fetch_add(1, SeqCst);
        });
        n.fetch_add(1, SeqCst);
        n.fetch_add(1, SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(SeqCst), 4);
    };
    let bounded = explore(
        Options { preemption_bound: Some(0), ..Options::default() },
        scenario,
    );
    let unbounded = explore(
        Options { preemption_bound: None, ..Options::default() },
        scenario,
    );
    assert!(bounded.pruned_by_bound > 0, "bound 0 must prune: {bounded}");
    assert!(
        unbounded.schedules > bounded.schedules,
        "unbounded ({unbounded}) must beat bound-0 ({bounded})"
    );
    assert_eq!(unbounded.pruned_by_bound, 0);
}

#[test]
fn unbounded_spin_is_reported_as_livelock() {
    let failure = try_explore(
        Options { max_depth: 500, ..Options::default() },
        || {
            let flag = Arc::new(AtomicU64::new(0));
            // No writer ever sets the flag; the spin must trip the depth cap
            // (this is exactly why production spin loops must be bounded to
            // be model-checkable).
            while flag.load(SeqCst) == 0 {
                std::hint::spin_loop();
            }
        },
    )
    .expect_err("an unbounded spin must trip the depth cap");
    assert!(failure.message.contains("livelock"), "unexpected: {failure}");
}

#[test]
fn schedule_cap_reports_capped() {
    let report = explore(
        Options { max_schedules: 3, preemption_bound: None, ..Options::default() },
        || {
            let n = Arc::new(AtomicU64::new(0));
            let n2 = n.clone();
            let t = thread::spawn(move || {
                n2.fetch_add(1, SeqCst);
                n2.fetch_add(1, SeqCst);
            });
            n.fetch_add(1, SeqCst);
            t.join().unwrap();
        },
    );
    assert!(report.capped);
    assert_eq!(report.schedules, 3);
}
