//! Lock-free epoch-based snapshot publication.
//!
//! [`EpochCell`] is the primitive behind "readers are never blocked by an
//! in-flight solve": a writer thread *publishes* each new fixpoint by
//! swapping an atomic pointer and bumping an epoch counter, while any number
//! of reader threads *load* the current value without ever taking a lock —
//! the reader fast path is one CAS on a private pin slot plus three atomic
//! loads, all wait-free with respect to the writer.
//!
//! # Protocol
//!
//! The cell owns the current value through a raw pointer produced by
//! [`Arc::into_raw`]. Readers pin the epoch they observed into one of the
//! cell's pin slots (claimed by CAS from `IDLE`), re-validate that the
//! epoch did not move, clone the `Arc` out via
//! [`Arc::increment_strong_count`], and release the slot. Writers swap the
//! pointer, record the displaced pointer on a retired list stamped with the
//! pre-publish epoch, bump the epoch, and then reclaim every retired pointer
//! whose stamp is not covered by any pinned slot (a pin at epoch `e` blocks
//! reclamation of pointers retired at epochs `>= e`).
//!
//! # Safety argument
//!
//! A retired pointer `P` stamped `e_r` is freed only when no slot holds a
//! pin `<= e_r`. A reader that obtained `P` from `current` did so while its
//! slot was pinned at some validated epoch `e` with `e <= e_r` (the epoch is
//! monotone and was `e` no later than the pointer load; `P` was retired at
//! `e_r >= e`), so the writer's scan observes the pin and keeps `P` alive
//! until the reader has taken its own strong count and released the slot.
//! Conversely a reader whose pin was invalidated by a concurrent publish
//! re-pins at the newer epoch before loading, so it can never hold a
//! pointer older than its published pin.
//!
//! # Memory-ordering contract
//!
//! Every atomic in this module uses `SeqCst`, deliberately. The safety
//! argument above is stated in terms of a single *total order* over the
//! writer's swap → bump → pin-scan and the reader's pin → validate →
//! pointer-load sequences ("the epoch was `e` no later than the pointer
//! load", "the scan observes the pin"). `SeqCst` gives exactly that total
//! order; proving the same claims from acquire/release pairs would have to
//! rule out the IRIW-style reordering where the writer's scan and the
//! reader's pin each miss the other — a fence-placement argument that is
//! easy to get subtly wrong and impossible for the serialized model checker
//! (which explores sequentially consistent interleavings, see
//! `crates/modelcheck`) to distinguish from the weaker code it would
//! actually be running. Publication is orders of magnitude rarer than the
//! solver work that produces a snapshot, so the stronger fences cost
//! nothing measurable; the `serve-` bench family gates that claim.
//!
//! Two orderings are load-bearing enough to call out:
//!
//! * The reader's **pin/validate/clone dance**: the slot store (pin) must be
//!   ordered *before* the epoch re-load (validate), which must be ordered
//!   before the pointer load and the strong-count increment. If the pin
//!   could drift after the validate, a writer could scan, see no pin, and
//!   reclaim the pointer the reader is about to clone.
//! * The writer's **reclamation invariant**: the pointer swap must be
//!   ordered before the epoch bump, and both before the pin scan. A reader
//!   that pins the *old* epoch after the bump would re-validate and re-pin;
//!   one that pinned before the swap is seen by the scan. Note the entire
//!   writer sequence runs under the `retired` mutex — that lock serializes
//!   publishers with each other *and* is what makes the reader slow path
//!   below sound.
//!
//! # Slot exhaustion
//!
//! More simultaneous readers than pin slots is not a spin-forever: a reader
//! hunts for an idle slot for two passes over the array and then falls back
//! to `EpochCell::load_slow`, which takes the `retired` mutex — excluding
//! the whole publisher sequence — and clones `current` under it. The slow
//! path is lock-based (readers momentarily block publishers) but safe,
//! bounded, and counted ([`EpochCell::slow_path_loads`]); with the default
//! 64 slots it is effectively never taken in production. Bounding the hunt
//! is also what makes `load` model-checkable: an unbounded retry loop has
//! unbounded interleavings.
//!
//! # Model checking
//!
//! The `sync` types come from `skipflow-modelcheck`: plain `std::sync`
//! re-exports in every production build, and cooperative shim types under
//! `--features model-check`, where `crates/server/tests/model_check.rs`
//! exhaustively explores reader/writer interleavings of this cell (and
//! proves the explorer would catch a reclamation that skipped the pin scan
//! — see `EpochCell::publish_skipping_pin_check`).

use skipflow_modelcheck::sync::atomic::{AtomicPtr, AtomicU64, Ordering::SeqCst};
use skipflow_modelcheck::sync::{Arc, Mutex};

/// Default number of concurrent reader pin slots; far above any realistic
/// simultaneous-reader count for one published cell. See the module docs
/// for what happens when all slots are busy.
pub const READER_SLOTS: usize = 64;

/// Slot value meaning "unclaimed".
const IDLE: u64 = u64::MAX;

struct Retired<T> {
    ptr: *const T,
    /// The epoch under which this pointer was still current (the counter
    /// value *before* the publish that displaced it).
    epoch: u64,
}

/// A lock-free publication cell: one writer (or several, serialized by the
/// internal retire list) publishes `Arc<T>` values; many readers load the
/// current value without blocking.
pub struct EpochCell<T> {
    current: AtomicPtr<T>,
    epoch: AtomicU64,
    slots: Box<[AtomicU64]>,
    /// Times a load fell back to the lock-based slow path because every pin
    /// slot was busy across two hunting passes.
    slow_loads: AtomicU64,
    /// Displaced pointers awaiting a grace period. Publishers hold this
    /// across their whole swap/bump/reclaim sequence; readers take it only
    /// on the slot-exhaustion slow path.
    retired: Mutex<Vec<Retired<T>>>,
}

// SAFETY: sending the cell to another thread hands over `Arc<T>` clones and
// the raw pointers they were leaked from, which is sound exactly when
// `T: Send + Sync` (the same bound `Arc` itself requires to be `Send`). The
// raw pointers are only ever created from and returned to `Arc`.
unsafe impl<T: Send + Sync> Send for EpochCell<T> {}
// SAFETY: shared access is the design: readers run `load` concurrently with
// a publisher, and every shared-state access goes through atomics or the
// `retired` mutex under the protocol in the module docs; the `T: Send +
// Sync` bound is what lets the resulting `Arc<T>` clones cross threads.
unsafe impl<T: Send + Sync> Sync for EpochCell<T> {}

impl<T> EpochCell<T> {
    /// A cell initially publishing `initial` at epoch 0, with the default
    /// [`READER_SLOTS`] pin slots.
    pub fn new(initial: Arc<T>) -> Self {
        Self::with_slots(initial, READER_SLOTS)
    }

    /// A cell with an explicit pin-slot count. `slots == 0` is allowed and
    /// forces every load onto the slow path — useful for pinning the
    /// fallback behavior in tests.
    pub fn with_slots(initial: Arc<T>, slots: usize) -> Self {
        EpochCell {
            current: AtomicPtr::new(Arc::into_raw(initial) as *mut T),
            epoch: AtomicU64::new(0),
            slots: (0..slots).map(|_| AtomicU64::new(IDLE)).collect(),
            slow_loads: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The current epoch: 0 at construction, +1 per publish.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(SeqCst)
    }

    /// Loads the currently published value: claim a pin slot, validate,
    /// clone the `Arc`, release. Wait-free with respect to publishers on
    /// the fast path; if every slot stays busy for two passes, falls back
    /// to the bounded lock-based slow path (see the module docs).
    pub fn load(&self) -> Arc<T> {
        let attempts = 2 * self.slots.len();
        let mut i = 0usize;
        while i < attempts {
            let slot = &self.slots[i % self.slots.len()];
            let mut pinned = self.epoch.load(SeqCst);
            if slot.compare_exchange(IDLE, pinned, SeqCst, SeqCst).is_ok() {
                // Chase concurrent publishes until the pin matches the
                // epoch; each iteration raises the pin, so retired pointers
                // older than what we will read stay blocked throughout.
                // Bounded: every iteration requires a publisher to have
                // moved the epoch, so a reader only loops while writers
                // make progress.
                loop {
                    let now = self.epoch.load(SeqCst);
                    if now == pinned {
                        break;
                    }
                    pinned = now;
                    slot.store(pinned, SeqCst);
                }
                let ptr = self.current.load(SeqCst);
                // SAFETY: `ptr` came from `Arc::into_raw` and our pin (at an
                // epoch <= any epoch it could be retired under) prevents the
                // publisher from releasing its strong count until the slot
                // goes idle below — see the module-level safety argument.
                let value = unsafe {
                    Arc::increment_strong_count(ptr);
                    Arc::from_raw(ptr)
                };
                slot.store(IDLE, SeqCst);
                return value;
            }
            i += 1;
            std::hint::spin_loop();
        }
        self.load_slow()
    }

    /// Slot-exhaustion fallback: serialize with publishers instead of
    /// pinning. Taking the `retired` mutex excludes the entire publisher
    /// sequence (swap, bump, retire, reclaim all run under it), so between
    /// our pointer load and the strong-count increment nothing can retire —
    /// let alone reclaim — the current value.
    fn load_slow(&self) -> Arc<T> {
        let _publishers_excluded = self.retired.lock().unwrap();
        self.slow_loads.fetch_add(1, SeqCst);
        let ptr = self.current.load(SeqCst);
        // SAFETY: `ptr` came from `Arc::into_raw` and still carries the
        // strong count leaked at publish (reclaiming it requires the
        // `retired` lock we hold), so incrementing and re-materializing one
        // clone is sound.
        unsafe {
            Arc::increment_strong_count(ptr);
            Arc::from_raw(ptr)
        }
    }

    /// Times [`EpochCell::load`] fell back to the lock-based slow path
    /// (diagnostics; 0 in any healthy configuration with slots available).
    pub fn slow_path_loads(&self) -> u64 {
        self.slow_loads.load(SeqCst)
    }

    /// Publishes `next`, making it visible to all subsequent [`EpochCell::load`]
    /// calls, and reclaims every previously displaced value no reader can
    /// still be pinning. Returns the new epoch.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let new_ptr = Arc::into_raw(next) as *mut T;
        // The lock serializes publishers (and excludes slow-path readers);
        // fast-path readers never touch it.
        let mut retired = self.retired.lock().unwrap();
        let old = self.current.swap(new_ptr, SeqCst);
        let retire_epoch = self.epoch.fetch_add(1, SeqCst);
        retired.push(Retired { ptr: old, epoch: retire_epoch });
        let slots = &self.slots;
        retired.retain(|r| {
            let pinned = slots.iter().any(|s| {
                let v = s.load(SeqCst);
                v != IDLE && v <= r.epoch
            });
            if !pinned {
                // SAFETY: this is the strong count `Arc::into_raw` leaked
                // when the pointer was published, and no reader can still
                // reach the pointer (no covering pin exists, `current` no
                // longer holds it, and slow-path readers are excluded by
                // the `retired` lock we hold).
                unsafe { drop(Arc::from_raw(r.ptr)) };
            }
            pinned
        });
        retire_epoch + 1
    }

    /// A deliberately broken publish that reclaims every retired pointer
    /// WITHOUT scanning the pin slots — the exact bug class the epoch
    /// protocol exists to prevent, seeded so the model checker can prove it
    /// would catch a real regression (`tests/model_check.rs` asserts the
    /// explorer reports use-after-free under some interleaving).
    ///
    /// Compiled only under `model-check`, where the shim `Arc` quarantines
    /// reclaimed allocations and intercepts stale touches before any real
    /// dereference — which is the only reason this can exist at all.
    #[cfg(feature = "model-check")]
    pub fn publish_skipping_pin_check(&self, next: Arc<T>) -> u64 {
        let new_ptr = Arc::into_raw(next) as *mut T;
        let mut retired = self.retired.lock().unwrap();
        let old = self.current.swap(new_ptr, SeqCst);
        let retire_epoch = self.epoch.fetch_add(1, SeqCst);
        retired.push(Retired { ptr: old, epoch: retire_epoch });
        for r in retired.drain(..) {
            // SAFETY: NOT SOUND — this drops the published strong count
            // while a pinned reader may still be about to clone it. Only
            // reachable under the model-check shim, whose allocation
            // quarantine turns the resulting use-after-free into a reported
            // model failure instead of undefined behavior.
            unsafe { drop(Arc::from_raw(r.ptr)) };
        }
        retire_epoch + 1
    }

    /// Retired values still awaiting a grace period (diagnostics/tests).
    pub fn retired_len(&self) -> usize {
        self.retired.lock().unwrap().len()
    }
}

impl<T> Drop for EpochCell<T> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no readers or publishers remain, so
        // the strong count leaked for `current` at the last publish can be
        // reclaimed unconditionally.
        unsafe { drop(Arc::from_raw(self.current.load(SeqCst))) };
        for r in self.retired.get_mut().unwrap().drain(..) {
            // SAFETY: as above — each retired entry still owns the strong
            // count leaked when its pointer was published, and no reader
            // can exist to pin it.
            unsafe { drop(Arc::from_raw(r.ptr)) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skipflow_modelcheck::sync::atomic::{AtomicBool, AtomicUsize};
    use std::thread;

    /// Counts drops so leak/double-free bugs show up as plain assertion
    /// failures even without sanitizers.
    struct Tally {
        value: u64,
        drops: Arc<AtomicUsize>,
    }

    impl Drop for Tally {
        fn drop(&mut self) {
            self.drops.fetch_add(1, SeqCst);
        }
    }

    #[test]
    fn load_returns_latest_publish_and_epoch_advances() {
        let cell = EpochCell::new(Arc::new(10u64));
        assert_eq!(*cell.load(), 10);
        assert_eq!(cell.epoch(), 0);
        assert_eq!(cell.publish(Arc::new(11)), 1);
        assert_eq!(*cell.load(), 11);
        assert_eq!(cell.epoch(), 1);
        // Loads are repeatable and independent.
        assert_eq!(*cell.load(), 11);
        assert_eq!(cell.slow_path_loads(), 0, "fast path with free slots");
    }

    #[test]
    fn every_value_is_dropped_exactly_once() {
        let drops = Arc::new(AtomicUsize::new(0));
        let mk = |v| Arc::new(Tally { value: v, drops: drops.clone() });
        let held;
        {
            let cell = EpochCell::new(mk(0));
            for v in 1..=5 {
                cell.publish(mk(v));
            }
            held = cell.load();
            assert_eq!(held.value, 5);
            // With no pinned readers, everything but the current value has
            // been reclaimed during publishes.
            assert_eq!(cell.retired_len(), 0);
            assert_eq!(drops.load(SeqCst), 5);
        }
        // Dropping the cell releases the published count; our clone still
        // keeps the value alive.
        assert_eq!(drops.load(SeqCst), 5);
        drop(held);
        assert_eq!(drops.load(SeqCst), 6);
    }

    #[test]
    fn zero_slots_degrades_to_the_slow_path_and_stays_correct() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = EpochCell::with_slots(
            Arc::new(Tally { value: 0, drops: drops.clone() }),
            0,
        );
        // Every load must fall back (no slots exist), still returning the
        // latest value and keeping reclamation exact.
        for v in 1..=4 {
            assert_eq!(cell.load().value, v - 1);
            cell.publish(Arc::new(Tally { value: v, drops: drops.clone() }));
        }
        assert_eq!(cell.load().value, 4);
        assert_eq!(cell.slow_path_loads(), 5);
        assert_eq!(cell.retired_len(), 0, "slow-path loads never block reclamation");
        assert_eq!(drops.load(SeqCst), 4);
        drop(cell);
        assert_eq!(drops.load(SeqCst), 5);
    }

    #[test]
    fn slow_path_readers_race_publishers_without_leaks() {
        const PUBLISHES: u64 = 500;
        const READERS: usize = 4;
        let drops = Arc::new(AtomicUsize::new(0));
        // One slot + several readers: the hunt regularly loses and the slow
        // path takes over under real contention.
        let cell = Arc::new(EpochCell::with_slots(
            Arc::new(Tally { value: 0, drops: drops.clone() }),
            1,
        ));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                thread::spawn(move || {
                    let mut last = 0u64;
                    while !stop.load(SeqCst) {
                        let v = cell.load();
                        assert!(v.value >= last, "monotone publishes");
                        last = v.value;
                    }
                })
            })
            .collect();
        for v in 1..=PUBLISHES {
            cell.publish(Arc::new(Tally { value: v, drops: drops.clone() }));
        }
        stop.store(true, SeqCst);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(cell.load().value, PUBLISHES);
        drop(cell);
        assert_eq!(drops.load(SeqCst), PUBLISHES as usize + 1);
    }

    #[test]
    fn hammer_concurrent_readers_see_monotone_values_and_nothing_leaks() {
        const PUBLISHES: u64 = 2_000;
        const READERS: usize = 6;

        let drops = Arc::new(AtomicUsize::new(0));
        let cell = Arc::new(EpochCell::new(Arc::new(Tally {
            value: 0,
            drops: drops.clone(),
        })));
        let stop = Arc::new(AtomicBool::new(false));
        // Every reader loads once and is running before the writer starts,
        // so progress does not depend on how the host schedules threads.
        let ready = Arc::new(std::sync::Barrier::new(READERS + 1));

        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let cell = cell.clone();
                let stop = stop.clone();
                let ready = ready.clone();
                thread::spawn(move || {
                    let mut last = cell.load().value;
                    let mut seen = 1u64;
                    ready.wait();
                    while !stop.load(SeqCst) {
                        let v = cell.load();
                        assert!(
                            v.value >= last,
                            "publication went backwards: {} after {}",
                            v.value,
                            last
                        );
                        last = v.value;
                        seen += 1;
                    }
                    seen
                })
            })
            .collect();

        let writer = {
            let cell = cell.clone();
            let drops = drops.clone();
            let ready = ready.clone();
            thread::spawn(move || {
                ready.wait();
                for v in 1..=PUBLISHES {
                    cell.publish(Arc::new(Tally { value: v, drops: drops.clone() }));
                }
            })
        };
        writer.join().unwrap();
        stop.store(true, SeqCst);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made progress");
        }

        assert_eq!(cell.load().value, PUBLISHES);
        assert_eq!(cell.epoch(), PUBLISHES);
        drop(cell);
        // Every published value (initial + PUBLISHES) has been reclaimed.
        assert_eq!(drops.load(SeqCst), PUBLISHES as usize + 1);
    }

    #[test]
    fn pinned_reader_keeps_its_value_alive_across_publishes() {
        let drops = Arc::new(AtomicUsize::new(0));
        let cell = EpochCell::new(Arc::new(Tally { value: 0, drops: drops.clone() }));
        let held = cell.load();
        for v in 1..=3 {
            cell.publish(Arc::new(Tally { value: v, drops: drops.clone() }));
        }
        // The held clone owns its own strong count, so reclamation of the
        // displaced values cannot touch it.
        assert_eq!(held.value, 0);
        assert_eq!(cell.load().value, 3);
    }
}
