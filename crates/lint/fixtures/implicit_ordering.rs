// Fixture: violates rule 4 only. It imports atomics but calls an op whose
// arguments name no ordering. It does not compile against the real API,
// which is the point: the lint must flag it at the source level, before
// the compiler would.
use std::sync::atomic::AtomicU64;

pub fn bump(n: &AtomicU64) -> u64 {
    n.fetch_add(1)
}
