//! The serving stress test: reader threads query published snapshots while
//! the writer solves coalesced root batches and other sessions are opened
//! and evicted, with and without a per-batch step budget.
//!
//! The correctness contract checked here is the one the server's epoch
//! publication promises. An epoch publishes answers, not the graph (an
//! [`OwnedSnapshot`]), so the oracle compares answers:
//!
//! * every published `Complete` epoch equals, field by field, the answers
//!   of a fresh solve of exactly the configuration it covers — its roots
//!   under its mask (the checkpoint invariant, observed through the
//!   publication seam; the retraction and edit streams make successive
//!   epochs non-monotone): the reachable set, the instantiated types, the
//!   call-edge CSR (targets per `(caller, site)`) and the edge and PolyCalls
//!   counts;
//! * every published `Partial` epoch (budget/cancel checkpoint) refines
//!   that fresh solve: its reachable methods, instantiated types and call
//!   edges are subsets;
//! * epochs observed by concurrent readers are monotone — publication never
//!   goes backwards, and readers are never handed a torn epoch.
//!
//! Per-method and per-statement state identity (value states, liveness,
//! metrics) is not published, so it is checked at the session seam instead:
//! `tests/edit_scripts.rs` and the differential suites compare full results
//! after every solve point, and `tests/owned_snapshot.rs` checks that the
//! extracted answers match the graph they came from.

use skipflow_core::{
    AnalysisConfig, AnalysisSession, CallGraphQuery, Completeness, OwnedSnapshot,
};
use skipflow_ir::{MethodId, Program, TypeId};
use skipflow_server::{PublishedEpoch, Registry, ServerConfig};
use skipflow_synth::{build_benchmark, pick_spread_roots, suites};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// The answers of a fresh, unbudgeted solve of `roots` under `config`.
fn fresh_answers(program: &Program, roots: &[MethodId], config: &AnalysisConfig) -> OwnedSnapshot {
    let mut session = AnalysisSession::builder(program)
        .config(config.clone())
        .roots(roots.iter().copied())
        .build()
        .expect("valid oracle configuration");
    session.solve();
    session.owned_snapshot()
}

/// A published epoch's answers equal the fixpoint's on every field.
fn assert_answers_identical(program: &Program, expect: &OwnedSnapshot, got: &OwnedSnapshot, label: &str) {
    assert_eq!(expect.completeness(), got.completeness(), "{label}: completeness differs");
    assert_eq!(expect.reachable_methods(), got.reachable_methods(), "{label}: reachable sets differ");
    for t in 0..program.type_count() {
        let t = TypeId::from_index(t);
        assert_eq!(expect.is_instantiated(t), got.is_instantiated(t), "{label}: instantiated({t:?}) differs");
    }
    assert_eq!(
        expect.sites().collect::<Vec<_>>(),
        got.sites().collect::<Vec<_>>(),
        "{label}: call-edge CSRs differ"
    );
    assert_eq!(expect.call_edge_count(), got.call_edge_count(), "{label}: call-edge counts differ");
    assert_eq!(expect.poly_call_count(), got.poly_call_count(), "{label}: PolyCalls counts differ");
}

/// A partial epoch is sound w.r.t. the fresh fixpoint over its
/// configuration: every published fact is a fact of the fixpoint.
fn assert_partial_refines(program: &Program, partial: &OwnedSnapshot, full: &OwnedSnapshot, label: &str) {
    assert!(
        partial.reachable_methods().is_subset(full.reachable_methods()),
        "{label}: partial epoch reaches methods the fixpoint does not"
    );
    for t in 0..program.type_count() {
        let t = TypeId::from_index(t);
        if partial.is_instantiated(t) {
            assert!(full.is_instantiated(t), "{label}: partial epoch instantiates {t:?}, fixpoint does not");
        }
    }
    let full_sites: BTreeMap<_, _> = full.sites().map(|s| ((s.caller, s.ordinal), s)).collect();
    for site in partial.sites() {
        let key = (site.caller, site.ordinal);
        let Some(fixpoint) = full_sites.get(&key) else {
            panic!("{label}: partial epoch has call site {key:?}, fixpoint does not");
        };
        assert_eq!(site.kind, fixpoint.kind, "{label}: site {key:?} kind differs");
        assert!(
            site.targets.iter().all(|t| fixpoint.targets.binary_search(t).is_ok()),
            "{label}: partial epoch links {key:?} to targets the fixpoint does not"
        );
    }
}

const CHURN_SRC: &str = "
    class Util { static method id(x: int): int { return x; } }
    class Main { static method main(): void { Util.id(1); return; } }
";

fn stress(batch_step_budget: Option<u64>) {
    let spec = suites::by_name("lusearch").expect("suite benchmark");
    let bench = build_benchmark(&spec);
    let mut to_feed = bench.roots.clone();
    to_feed.extend(pick_spread_roots(&bench.program, &bench.roots, 32));
    // Concrete non-root methods for the edit stream (disabled/restored
    // while roots are still being fed).
    let edit_victims = pick_spread_roots(&bench.program, &to_feed, 2);
    assert_eq!(edit_victims.len(), 2, "need two editable methods");
    let program = Arc::new(bench.program);
    let config = AnalysisConfig::skipflow().with_reflective_roots(bench.reflective_roots.clone());

    let registry = Arc::new(Registry::new(ServerConfig {
        batch_step_budget,
        ..ServerConfig::default()
    }));
    let handle = registry.open("main", program.clone(), config.clone()).expect("open");

    // Readers: record every distinct epoch they observe and assert epochs
    // never go backwards while queries stay answerable mid-solve.
    let stop = Arc::new(AtomicBool::new(false));
    let observed: Arc<Mutex<BTreeMap<u64, Arc<PublishedEpoch>>>> =
        Arc::new(Mutex::new(BTreeMap::new()));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let handle = handle.clone();
            let stop = stop.clone();
            let observed = observed.clone();
            thread::spawn(move || {
                let mut last = 0u64;
                while !stop.load(SeqCst) {
                    let ep = handle.published();
                    assert!(ep.epoch >= last, "epoch went backwards: {} after {last}", ep.epoch);
                    last = ep.epoch;
                    // The answers must be queryable and self-consistent
                    // regardless of what the writer is doing right now.
                    let answers = &ep.snapshot;
                    let edges: usize = answers.sites().map(|site| site.targets.len()).sum();
                    assert_eq!(edges, answers.call_edge_count());
                    assert_eq!(answers.reachable_count(), answers.reachable_methods().len());
                    observed.lock().unwrap().entry(ep.epoch).or_insert(ep);
                    thread::yield_now();
                }
            })
        })
        .collect();

    // Churn: concurrently open, solve, and evict an unrelated session so
    // registry mutations overlap the main session's solves and queries.
    let churn = {
        let registry = registry.clone();
        thread::spawn(move || {
            let churn_program =
                Arc::new(skipflow_ir::frontend::compile(CHURN_SRC).expect("churn source"));
            for i in 0..5 {
                let name = format!("victim-{i}");
                let h = registry
                    .open(&name, churn_program.clone(), AnalysisConfig::skipflow())
                    .expect("open churn session");
                let main = h.program().iter_methods().next().expect("method");
                registry.add_roots(&name, vec![main]).expect("churn roots");
                let _ = registry.flush(&name, Duration::from_secs(10));
                registry.evict(&name).expect("evict churn session");
            }
        })
    };

    // Writer-facing load: feed roots in small bursts (coalesced by the
    // writer into batches), with flushes interleaved so settled epochs are
    // reliably observed; exercise cancel once mid-stream, plus a
    // non-monotone stream of retractions and method edits riding along.
    let mut fed: Vec<skipflow_ir::MethodId> = Vec::new();
    for (i, chunk) in to_feed.chunks(4).enumerate() {
        fed.extend_from_slice(chunk);
        registry.add_roots("main", chunk.to_vec()).expect("roots");
        if i == 2 {
            // Retract the very first fed root: later epochs cover fewer
            // roots than earlier ones — publication is non-monotone.
            let retracted = fed.remove(0);
            registry.retract_roots("main", vec![retracted]).expect("retract");
        }
        if i == 3 {
            registry.cancel("main").expect("cancel");
        }
        if i == 4 {
            registry
                .edit("main", edit_victims[0], skipflow_core::MethodEdit::DisableBody)
                .expect("disable edit");
        }
        if i == 6 {
            registry
                .edit("main", edit_victims[0], skipflow_core::MethodEdit::RestoreBody)
                .expect("restore edit");
            // The second victim stays disabled through the final epoch.
            registry
                .edit("main", edit_victims[1], skipflow_core::MethodEdit::DisableBody)
                .expect("disable edit 2");
        }
        if i % 3 == 2 {
            let ep = registry.flush("main", Duration::from_secs(30)).expect("flush");
            assert!(ep.is_complete(), "flushed epoch must be complete");
        }
        thread::sleep(Duration::from_millis(2));
    }
    let final_epoch = registry.flush("main", Duration::from_secs(30)).expect("final flush");
    assert!(final_epoch.is_complete());
    assert_eq!(final_epoch.roots.len(), fed.len(), "final epoch covers every surviving root");
    assert_eq!(
        final_epoch.masked,
        vec![edit_victims[1]],
        "final epoch carries the still-disabled body"
    );

    stop.store(true, SeqCst);
    for r in readers {
        r.join().expect("reader");
    }
    churn.join().expect("churn");
    observed.lock().unwrap().entry(final_epoch.epoch).or_insert(final_epoch);

    let stats = registry.stats();
    assert!(stats.sessions_evicted >= 5, "churn sessions were evicted");
    assert!(stats.epochs_published >= 1);
    assert!(stats.queries_served > 0);
    registry.shutdown_all();

    // Verify every observed epoch against a fresh solve of exactly the
    // configuration it covered — its roots *and* its masked bodies: each
    // epoch is the fixpoint of the edit prefix it absorbed, nothing more.
    // The verification config carries no budgets: `Complete` epochs must
    // publish identical answers, `Partial` epochs must refine them.
    let observed = Arc::try_unwrap(observed).expect("readers joined").into_inner().unwrap();
    let mut complete_epochs = 0u64;
    let mut partial_epochs = 0u64;
    for (n, ep) in &observed {
        if *n == 0 {
            // Epoch 0 is the empty pre-solve publication.
            assert!(ep.roots.is_empty());
            continue;
        }
        let oracle_config = config.clone().with_masked_methods(ep.masked.iter().copied());
        let fresh = fresh_answers(&program, &ep.roots, &oracle_config);
        let label = format!("budget {batch_step_budget:?} epoch {n}");
        match ep.snapshot.completeness() {
            Completeness::Complete => {
                complete_epochs += 1;
                assert_answers_identical(&program, &fresh, &ep.snapshot, &label);
            }
            Completeness::Partial => {
                partial_epochs += 1;
                assert_partial_refines(&program, &ep.snapshot, &fresh, &label);
            }
        }
    }
    assert!(complete_epochs >= 1, "at least the settled epochs must be complete");
    if batch_step_budget.is_some() {
        assert!(
            partial_epochs >= 1,
            "a tight step budget must surface partial epochs (saw {complete_epochs} complete)"
        );
    }
}

/// Without a step budget the writer solves every batch to its fixpoint.
#[test]
fn stress_without_budget() {
    stress(None);
}

/// A tight per-batch step budget forces the writer through many
/// partial-epoch publications on the way to each settled fixpoint; the
/// partial epochs must refine, and the settled ones stay identical.
#[test]
fn stress_with_step_budget() {
    stress(Some(96));
}
