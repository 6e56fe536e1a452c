//! Model-checked replacements for the `std::sync` types (feature-on only).
//!
//! Every type here has the same surface as its `std` namesake (the subset
//! the workspace uses) and behaves identically when no model run is active
//! on the calling thread. Inside a model run, each visible operation calls
//! into the scheduler first, making it an interleaving point. `Arc` is not
//! shimmed: `crate::sync` re-exports `std::sync::Arc` under both feature
//! settings.

use crate::sched::{with_sched, ModelAbort, Sched};
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex as StdMutex;
use std::time::Duration;

/// Interleaving point: consults the scheduler if the calling thread belongs
/// to a model run, no-op otherwise.
pub(crate) fn sched_point(label: &'static str) {
    with_sched(|s, _| s.schedule_point(label));
}

// ---------------------------------------------------------------------------
// atomics
// ---------------------------------------------------------------------------

/// Shimmed `std::sync::atomic`: same types and signatures, but every access
/// is a schedule point inside a model run.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    use super::sched_point;

    macro_rules! shim_int_atomic {
        ($name:ident, $std:ty, $int:ty) => {
            /// Model-checked wrapper around the `std` atomic of the same
            /// name; every access is an interleaving point in a model run.
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates the atomic (not an interleaving point).
                pub const fn new(v: $int) -> Self {
                    Self { inner: <$std>::new(v) }
                }

                /// As `std`'s `load`.
                pub fn load(&self, order: Ordering) -> $int {
                    sched_point("atomic-load");
                    self.inner.load(order)
                }

                /// As `std`'s `store`.
                pub fn store(&self, val: $int, order: Ordering) {
                    sched_point("atomic-store");
                    self.inner.store(val, order)
                }

                /// As `std`'s `swap`.
                pub fn swap(&self, val: $int, order: Ordering) -> $int {
                    sched_point("atomic-rmw");
                    self.inner.swap(val, order)
                }

                /// As `std`'s `compare_exchange`.
                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    success_order: Ordering,
                    failure_order: Ordering,
                ) -> Result<$int, $int> {
                    sched_point("atomic-cas");
                    self.inner.compare_exchange(current, new, success_order, failure_order)
                }

                /// As `std`'s `compare_exchange_weak` (never fails spuriously
                /// in-model; the serialized scheduler has no contention).
                pub fn compare_exchange_weak(
                    &self,
                    current: $int,
                    new: $int,
                    success_order: Ordering,
                    failure_order: Ordering,
                ) -> Result<$int, $int> {
                    sched_point("atomic-cas");
                    self.inner.compare_exchange(current, new, success_order, failure_order)
                }

                /// As `std`'s `fetch_add`.
                pub fn fetch_add(&self, val: $int, order: Ordering) -> $int {
                    sched_point("atomic-rmw");
                    self.inner.fetch_add(val, order)
                }

                /// As `std`'s `fetch_sub`.
                pub fn fetch_sub(&self, val: $int, order: Ordering) -> $int {
                    sched_point("atomic-rmw");
                    self.inner.fetch_sub(val, order)
                }

                /// As `std`'s `fetch_max`.
                pub fn fetch_max(&self, val: $int, order: Ordering) -> $int {
                    sched_point("atomic-rmw");
                    self.inner.fetch_max(val, order)
                }
            }
        };
    }

    shim_int_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    shim_int_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    shim_int_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);

    /// Model-checked `AtomicBool`.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
    }

    impl AtomicBool {
        /// Creates the atomic (not an interleaving point).
        pub const fn new(v: bool) -> Self {
            Self { inner: std::sync::atomic::AtomicBool::new(v) }
        }

        /// As `std`'s `load`.
        pub fn load(&self, order: Ordering) -> bool {
            sched_point("atomic-load");
            self.inner.load(order)
        }

        /// As `std`'s `store`.
        pub fn store(&self, val: bool, order: Ordering) {
            sched_point("atomic-store");
            self.inner.store(val, order)
        }

        /// As `std`'s `swap`.
        pub fn swap(&self, val: bool, order: Ordering) -> bool {
            sched_point("atomic-rmw");
            self.inner.swap(val, order)
        }

        /// As `std`'s `compare_exchange`.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success_order: Ordering,
            failure_order: Ordering,
        ) -> Result<bool, bool> {
            sched_point("atomic-cas");
            self.inner.compare_exchange(current, new, success_order, failure_order)
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------------

/// Uninhabited stand-in for `std::sync::PoisonError`, so `.lock().unwrap()`
/// keeps compiling against the shim. The shim swallows poisoning (a panicked
/// logical thread is already a model failure; outside a run, poison is
/// recovered with `into_inner`), so this error is never constructed.
pub struct PoisonError<T> {
    never: std::convert::Infallible,
    _marker: PhantomData<T>,
}

impl<T> fmt::Debug for PoisonError<T> {
    fn fmt(&self, _f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.never {}
    }
}

impl<T> fmt::Display for PoisonError<T> {
    fn fmt(&self, _f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.never {}
    }
}

/// Shim counterpart of `std::sync::LockResult`; always `Ok`.
pub type LockResult<T> = Result<T, PoisonError<T>>;

/// Model-checked `Mutex`: acquisition order is decided by the scheduler
/// inside a model run (contention blocks the logical thread, never the OS
/// thread); a plain `std::sync::Mutex` otherwise.
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T> Mutex<T> {
    /// Creates the mutex (not an interleaving point).
    pub const fn new(t: T) -> Self {
        Mutex { inner: StdMutex::new(t) }
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// As `std`'s `Mutex::lock` (never returns `Err`; poisoning is
    /// swallowed — see [`PoisonError`]).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let model = with_sched(|s, _| {
            s.mutex_lock(self.addr());
        })
        .is_some();
        // In-model the scheduler has granted exclusive ownership, so the std
        // lock is free (the teardown fallback below tolerates unwinding
        // threads racing their guard drops); outside a run this is a plain
        // blocking acquire.
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => {
                self.inner.lock().unwrap_or_else(|p| p.into_inner())
            }
        };
        Ok(MutexGuard { lock: self, guard: Some(guard), model })
    }

    /// As `std`'s `Mutex::get_mut`.
    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self.inner.get_mut().unwrap_or_else(|p| p.into_inner()))
    }

    /// As `std`'s `Mutex::into_inner`.
    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.inner.into_inner().unwrap_or_else(|p| p.into_inner()))
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

/// Guard for [`Mutex`]. Dropping it releases the `std` lock *first*, then
/// the model-level ownership — the order matters: a logical thread must
/// never be descheduled while holding the OS-level lock another granted
/// thread is about to take.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    guard: Option<std::sync::MutexGuard<'a, T>>,
    model: bool,
}

impl<T> MutexGuard<'_, T> {
    /// Drops the `std` guard and disarms model-level release (used by
    /// condvar wait, which hands the model mutex to the scheduler itself).
    fn forget_for_wait(mut self) {
        self.guard.take();
        self.model = false;
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        drop(self.guard.take());
        if self.model {
            with_sched(|s, _| s.mutex_unlock(self.lock.addr()));
        }
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.guard.as_deref().expect("guard accessed after release")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_deref_mut().expect("guard accessed after release")
    }
}

/// Shim counterpart of `std::sync::WaitTimeoutResult`. In-model waits never
/// time out (the scheduler explores only schedules where a wake arrives, and
/// a missing wake is reported as a deadlock), so `timed_out` is then always
/// false.
#[derive(Clone, Copy, Debug)]
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// Whether the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// Model-checked `Condvar`: waiters are parked logical threads; notify picks
/// them up in arrival order under the explored schedule.
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Creates the condvar (not an interleaving point).
    pub const fn new() -> Self {
        Condvar { inner: std::sync::Condvar::new() }
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    /// As `std`'s `Condvar::wait` (never returns `Err`).
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        if guard.model {
            let lock = guard.lock;
            let cv_addr = self.addr();
            let mx_addr = lock.addr();
            guard.forget_for_wait();
            with_sched(|s, _| s.condvar_wait(cv_addr, mx_addr))
                .expect("model-held guard waited on outside its model run");
            lock.lock()
        } else {
            let lock = guard.lock;
            let mut guard = guard;
            let std_guard = guard.guard.take().expect("guard accessed after release");
            std::mem::forget(guard);
            let g = self.inner.wait(std_guard).unwrap_or_else(|p| p.into_inner());
            Ok(MutexGuard { lock, guard: Some(g), model: false })
        }
    }

    /// As `std`'s `Condvar::wait_timeout`. In-model this is a plain
    /// [`Condvar::wait`]: the model has no clock, a missed wake surfaces as
    /// a detected deadlock rather than a timeout.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if guard.model {
            let g = match self.wait(guard) {
                Ok(g) => g,
                Err(e) => match e.never {},
            };
            Ok((g, WaitTimeoutResult { timed_out: false }))
        } else {
            let lock = guard.lock;
            let mut guard = guard;
            let std_guard = guard.guard.take().expect("guard accessed after release");
            std::mem::forget(guard);
            let (g, t) = self
                .inner
                .wait_timeout(std_guard, dur)
                .unwrap_or_else(|p| p.into_inner());
            Ok((
                MutexGuard { lock, guard: Some(g), model: false },
                WaitTimeoutResult { timed_out: t.timed_out() },
            ))
        }
    }

    /// As `std`'s `Condvar::notify_one`.
    pub fn notify_one(&self) {
        if with_sched(|s, _| s.condvar_notify(self.addr(), false)).is_none() {
            self.inner.notify_one();
        }
    }

    /// As `std`'s `Condvar::notify_all`.
    pub fn notify_all(&self) {
        if with_sched(|s, _| s.condvar_notify(self.addr(), true)).is_none() {
            self.inner.notify_all();
        }
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------------

/// Model-checked `std::thread` subset: `spawn` creates a *logical* thread
/// inside a model run (scheduled cooperatively, joined through the model),
/// and a plain OS thread otherwise.
pub mod thread {
    pub use std::thread::{panicking, sleep, Result};

    use super::{ModelAbort, Sched};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc as StdArc;
    use std::sync::Mutex as StdMutex;

    struct ModelJoin<T> {
        sched: StdArc<Sched>,
        id: usize,
        slot: StdArc<StdMutex<Option<Result<T>>>>,
    }

    /// Join handle covering both modes (see [`spawn`]).
    pub struct JoinHandle<T> {
        model: Option<ModelJoin<T>>,
        real: Option<std::thread::JoinHandle<T>>,
    }

    impl<T> JoinHandle<T> {
        /// As `std`'s `JoinHandle::join`. In-model, joining an unfinished
        /// logical thread blocks the *logical* caller — a schedule point,
        /// not an OS-level wait.
        pub fn join(self) -> Result<T> {
            match self.model {
                None => self.real.expect("join handle in neither mode").join(),
                Some(m) => {
                    m.sched.join_thread(m.id);
                    m.slot
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .take()
                        .expect("joined logical thread left no result")
                }
            }
        }
    }

    /// As `std`'s `thread::spawn`, but inside a model run the new thread is
    /// a logical thread under the scheduler.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let sched = match crate::sched::with_sched(|s, _| s.clone()) {
            None => {
                return JoinHandle { model: None, real: Some(std::thread::spawn(f)) };
            }
            Some(s) => s,
        };
        let id = sched.spawn_thread();
        let slot: StdArc<StdMutex<Option<Result<T>>>> = StdArc::new(StdMutex::new(None));
        let slot2 = slot.clone();
        let sched2 = sched.clone();
        let real = std::thread::Builder::new()
            .name(format!("mc-{id}"))
            .spawn(move || {
                crate::sched::install(sched2.clone(), id);
                sched2.thread_started(id);
                match catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => {
                        *slot2.lock().unwrap_or_else(|p| p.into_inner()) = Some(Ok(v));
                    }
                    Err(p) => {
                        if !p.is::<ModelAbort>() {
                            sched2.record_user_panic(id, crate::sched::panic_message(&*p));
                        }
                        *slot2.lock().unwrap_or_else(|p| p.into_inner()) = Some(Err(p));
                    }
                }
                sched2.finish_thread(id);
            })
            .expect("spawn model logical thread");
        sched.register_real(real);
        JoinHandle { model: Some(ModelJoin { sched, id, slot }), real: None }
    }

    /// As `std`'s `thread::yield_now`; in-model, a pure interleaving point.
    pub fn yield_now() {
        if crate::sched::model_active() {
            super::sched_point("yield");
        } else {
            std::thread::yield_now();
        }
    }
}
