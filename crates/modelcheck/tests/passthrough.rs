//! The shim must be `std`-equivalent whenever no model run is active — in
//! BOTH feature configurations. This file compiles and passes with and
//! without `--features model-check`; CI runs it both ways.

use skipflow_modelcheck::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use skipflow_modelcheck::sync::{Arc, Condvar, Mutex};
use skipflow_modelcheck::thread;
use std::time::Duration;

#[test]
fn atomics_and_arc_behave_like_std() {
    let n = Arc::new(AtomicU64::new(1));
    assert_eq!(n.fetch_add(2, SeqCst), 1);
    assert_eq!(n.load(SeqCst), 3);
    assert_eq!(n.swap(9, SeqCst), 3);
    assert!(n.compare_exchange(9, 10, SeqCst, SeqCst).is_ok());
    assert!(n.compare_exchange(9, 11, SeqCst, SeqCst).is_err());

    let m = n.clone();
    assert!(Arc::ptr_eq(&n, &m));
    assert_eq!(Arc::strong_count(&n), 2);
    drop(m);
    assert_eq!(Arc::strong_count(&n), 1);

    let b = AtomicBool::new(false);
    assert!(!b.swap(true, SeqCst));
    assert!(b.load(SeqCst));
}

#[test]
fn mutex_condvar_and_threads_behave_like_std() {
    let state = Arc::new((Mutex::new(0u64), Condvar::new()));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let state = state.clone();
            thread::spawn(move || {
                let (m, cv) = &*state;
                let mut g = m.lock().unwrap();
                *g += 1;
                cv.notify_all();
            })
        })
        .collect();
    let (m, cv) = &*state;
    let mut g = m.lock().unwrap();
    while *g < 4 {
        let (guard, timeout) = cv.wait_timeout(g, Duration::from_secs(30)).unwrap();
        assert!(!timeout.timed_out(), "workers must finish well within 30s");
        g = guard;
    }
    drop(g);
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*m.lock().unwrap(), 4);
}

#[test]
fn guard_contents_drop_normally() {
    struct Bump(Arc<AtomicU64>);
    impl Drop for Bump {
        fn drop(&mut self) {
            self.0.fetch_add(1, SeqCst);
        }
    }
    let drops = Arc::new(AtomicU64::new(0));
    let m = Mutex::new(Some(Bump(drops.clone())));
    m.lock().unwrap().take();
    assert_eq!(drops.load(SeqCst), 1);
    drop(m);
    assert_eq!(drops.load(SeqCst), 1);
}

#[test]
fn yield_now_is_a_no_op_outside_a_model_run() {
    skipflow_modelcheck::yield_now();
    thread::yield_now();
}
