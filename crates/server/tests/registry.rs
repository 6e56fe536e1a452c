//! Registry behavior: admission control, memory-budget eviction, cancel /
//! flush semantics, and the protocol layer driven in-process.

use skipflow_core::{AnalysisConfig, CallGraphQuery, Completeness};
use skipflow_ir::frontend::compile;
use skipflow_server::{handle_request, parse_request, Registry, ServerConfig, ServerError};
use skipflow_modelcheck::sync::Arc;
use skipflow_synth::{build_benchmark, BenchmarkSpec, Suite};
use std::time::Duration;

const SRC: &str = "
    class Config { static method flag(): int { return 0; } }
    class App {
      static method used(): void { return; }
      static method dead(): void { return; }
      static method main(): void {
        if (Config.flag()) { App.dead(); } else { App.used(); }
      }
      static method other(): void { App.used(); }
    }
";

fn program() -> Arc<skipflow_ir::Program> {
    Arc::new(compile(SRC).expect("test source"))
}

fn main_root(p: &skipflow_ir::Program) -> skipflow_ir::MethodId {
    let app = p.type_by_name("App").unwrap();
    p.method_by_name(app, "main").unwrap()
}

#[test]
fn open_roots_flush_query_round_trip() {
    let registry = Registry::new(ServerConfig::default());
    let p = program();
    let handle = registry.open("s", p.clone(), AnalysisConfig::skipflow()).unwrap();

    // Epoch 0 is the empty pre-solve publication, tagged partial.
    let ep0 = handle.published();
    assert_eq!(ep0.epoch, 0);
    assert!(ep0.roots.is_empty());
    assert_eq!(ep0.snapshot.completeness(), Completeness::Partial);

    registry.add_roots("s", vec![main_root(&p)]).unwrap();
    let settled = registry.flush("s", Duration::from_secs(10)).unwrap();
    assert!(settled.is_complete());
    assert_eq!(settled.roots, vec![main_root(&p)]);

    // SkipFlow proves the dead branch dead through the published snapshot.
    let app = p.type_by_name("App").unwrap();
    let dead = p.method_by_name(app, "dead").unwrap();
    let used = p.method_by_name(app, "used").unwrap();
    assert!(!settled.snapshot.is_reachable(dead));
    assert!(settled.snapshot.is_reachable(used));
    assert!(handle.epochs_published() >= 1);
}

#[test]
fn duplicate_unknown_and_invalid_root_errors() {
    let registry = Registry::new(ServerConfig::default());
    let p = program();
    registry.open("s", p.clone(), AnalysisConfig::skipflow()).unwrap();
    assert!(matches!(
        registry.open("s", p.clone(), AnalysisConfig::skipflow()),
        Err(ServerError::DuplicateSession(_))
    ));
    assert!(matches!(registry.get("nope"), Err(ServerError::UnknownSession(_))));
    let bogus = skipflow_ir::MethodId::from_index(10_000);
    assert!(matches!(
        registry.add_roots("s", vec![bogus]),
        Err(ServerError::InvalidRoot { .. })
    ));
    assert!(matches!(
        registry.flush("missing", Duration::from_secs(1)),
        Err(ServerError::UnknownSession(_))
    ));
}

#[test]
fn session_cap_and_queue_cap_shed() {
    let registry = Registry::new(ServerConfig {
        max_sessions: 1,
        max_queued_roots: 0,
        ..ServerConfig::default()
    });
    let p = program();
    registry.open("a", p.clone(), AnalysisConfig::skipflow()).unwrap();
    assert!(matches!(
        registry.open("b", p.clone(), AnalysisConfig::skipflow()),
        Err(ServerError::Overloaded(_))
    ));
    // With a zero queue cap every root registration sheds.
    assert!(matches!(
        registry.add_roots("a", vec![main_root(&p)]),
        Err(ServerError::Overloaded(_))
    ));
    assert!(registry.stats().sheds >= 2);
}

#[test]
fn memory_budget_evicts_idle_lru_sessions() {
    // A 1-byte budget guarantees pressure as soon as any session has a
    // non-zero engine estimate.
    let registry = Registry::new(ServerConfig {
        memory_budget_bytes: 1,
        ..ServerConfig::default()
    });
    let p = program();
    registry.open("old", p.clone(), AnalysisConfig::skipflow()).unwrap();
    registry.add_roots("old", vec![main_root(&p)]).unwrap();
    registry.flush("old", Duration::from_secs(10)).unwrap();
    assert!(registry.get("old").unwrap().memory_estimate() > 1);

    // Opening a new session relieves pressure by evicting the idle one.
    registry.open("new", p.clone(), AnalysisConfig::skipflow()).unwrap();
    assert!(
        matches!(registry.get("old"), Err(ServerError::UnknownSession(_))),
        "idle LRU session evicted under memory pressure"
    );
    assert!(registry.stats().sessions_evicted >= 1);

    // Once the surviving session itself exceeds the budget and nothing else
    // is evictable, requests naming it shed instead.
    registry.add_roots("new", vec![main_root(&p)]).unwrap();
    registry.flush("new", Duration::from_secs(10)).unwrap();
    assert!(matches!(
        registry.add_roots("new", vec![main_root(&p)]),
        Err(ServerError::Overloaded(_))
    ));
}

#[test]
fn cancel_pauses_and_flush_resumes_to_complete() {
    let registry = Registry::new(ServerConfig::default());
    let p = program();
    registry.open("s", p.clone(), AnalysisConfig::skipflow()).unwrap();
    registry.add_roots("s", vec![main_root(&p)]).unwrap();
    registry.cancel("s").unwrap();
    // Whatever state the cancel left behind, an explicit flush drains it.
    let settled = registry.flush("s", Duration::from_secs(10)).unwrap();
    assert!(settled.is_complete());
    assert_eq!(settled.snapshot.completeness(), Completeness::Complete);
}

#[test]
fn eviction_keeps_published_epochs_valid_for_holders() {
    let registry = Registry::new(ServerConfig::default());
    let p = program();
    let handle = registry.open("s", p.clone(), AnalysisConfig::skipflow()).unwrap();
    registry.add_roots("s", vec![main_root(&p)]).unwrap();
    let settled = registry.flush("s", Duration::from_secs(10)).unwrap();
    let held = handle.published();
    registry.evict("s").unwrap();
    // The registry no longer knows the session, but snapshots already
    // handed out stay fully queryable.
    assert!(registry.get("s").is_err());
    assert_eq!(held.epoch, settled.epoch);
    assert!(held.snapshot.reachable_count() > 0);
}

/// The memory figure the budget, eviction and `stats` read counts the
/// published answers, and those answers are small next to the engine:
/// reachable set, instantiated types and call-edge CSR, not a graph copy.
#[test]
fn memory_estimate_counts_published_answers_without_a_graph_copy() {
    let spec = BenchmarkSpec::new("ladder-8000", Suite::DaCapo, 8000, 0.2).with_fanout(8);
    let bench = build_benchmark(&spec);
    assert!(bench.program.method_count() >= 8000, "an 8k-method ladder");
    let config = AnalysisConfig::skipflow().with_reflective_roots(bench.reflective_roots.clone());
    let registry = Registry::new(ServerConfig::default());
    let handle = registry.open("ladder", Arc::new(bench.program), config).unwrap();
    registry.add_roots("ladder", bench.roots.clone()).unwrap();
    let settled = registry.flush("ladder", Duration::from_secs(60)).unwrap();
    assert!(settled.is_complete());

    let stats = registry.session_stats("ladder").unwrap();
    let engine = stats.memory_bytes - stats.published_bytes;
    assert!(stats.published_bytes > 0, "published answers hold heap bytes");
    assert_eq!(stats.published_bytes, settled.snapshot.heap_bytes());
    assert!(
        stats.published_bytes * 10 <= engine,
        "published answers ({} bytes) exceed 10 % of the engine estimate ({engine} bytes)",
        stats.published_bytes
    );
    assert_eq!(handle.memory_estimate(), stats.memory_bytes);
    assert_eq!(registry.stats().memory_bytes, stats.memory_bytes);
    let line = handle_request(&registry, parse_request("stats ladder").unwrap());
    assert!(
        line.contains(&format!(" published_bytes={} ", stats.published_bytes)),
        "{line}"
    );
}

#[test]
fn zero_budgets_are_refused_at_open() {
    let registry = Registry::new(ServerConfig::default());
    let run = |line: &str| handle_request(&registry, parse_request(line).unwrap());

    // A zero budget would interrupt every batch before its first step, and
    // the writer would resume at once, forever.
    for (opt, what) in [("steps=0", "step budget"), ("ms=0", "wall budget")] {
        let resp = run(&format!("open z synth:luindex {opt}"));
        assert!(
            resp.starts_with("err analysis:") && resp.contains(&format!("{what} must be at least 1")),
            "{opt}: {resp}"
        );
        assert_eq!(run("sessions"), "ok sessions=0", "{opt}");
    }
    // The library path refuses it too, including a zero server-wide budget.
    let zero = AnalysisConfig::skipflow().with_step_budget(0);
    assert!(matches!(registry.open("z", program(), zero), Err(ServerError::Analysis(_))));
    let zero_wall = Registry::new(ServerConfig {
        batch_wall_budget: Some(Duration::ZERO),
        ..ServerConfig::default()
    });
    assert!(matches!(
        zero_wall.open("z", program(), AnalysisConfig::skipflow()),
        Err(ServerError::Analysis(_))
    ));

    // The smallest accepted budget still makes progress: one step per
    // batch, and a flush settles on the complete fixpoint.
    let opened = run("open one synth:luindex steps=1");
    assert!(opened.starts_with("ok opened one"), "{opened}");
    assert!(run("roots one #0").starts_with("ok queued 1"));
    let flushed = run("flush one");
    assert!(flushed.starts_with("ok flushed epoch=") && !flushed.contains("[partial]"), "{flushed}");
    assert_eq!(run("evict one"), "ok evicted");
}

#[test]
fn protocol_layer_in_process() {
    let registry = Registry::new(ServerConfig::default());
    let dir = std::env::temp_dir().join(format!("skipflow-registry-proto-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let src_path = dir.join("app.sf");
    std::fs::write(&src_path, SRC).unwrap();

    let run = |line: &str| handle_request(&registry, parse_request(line).unwrap());

    assert_eq!(run("ping"), "ok pong");
    let opened = run(&format!("open s {} scheduler=adaptive", src_path.display()));
    assert!(opened.starts_with("ok opened s methods="), "{opened}");
    assert_eq!(run("sessions"), "ok sessions=1 s");

    // Before any roots: epoch 0, partial.
    let q = run("query s completeness");
    assert_eq!(q, "ok partial epoch=0 [partial]");

    // The epoch tag races the writer (the enqueued root may already have
    // been solved and published by the time the response is rendered), so
    // only the queued count is exact.
    let queued = run("roots s App.main");
    assert!(queued.starts_with("ok queued 1 epoch="), "{queued}");
    let flushed = run("flush s");
    assert!(flushed.starts_with("ok flushed epoch=") && !flushed.contains("[partial]"), "{flushed}");

    assert!(run("query s reachable App.used").starts_with("ok true epoch="));
    assert!(run("query s reachable App.dead").starts_with("ok false epoch="));
    assert!(run("query s reachable-count").starts_with("ok "));
    assert!(run("query s poly-calls").starts_with("ok "));
    assert!(run("query s call-edges").starts_with("ok "));

    let stats = run("stats s");
    assert!(stats.contains("epochs_published=") && stats.contains("steps="), "{stats}");
    let rstats = run("stats");
    assert!(rstats.contains("sessions_live=1"), "{rstats}");

    assert!(run("query s reachable Nope.m").starts_with("err analysis:"));
    assert!(run("roots missing App.main").starts_with("err unknown-session:"));
    assert_eq!(run("evict s"), "ok evicted");
    assert!(run("query s epoch").starts_with("err unknown-session:"));

    let _ = std::fs::remove_dir_all(&dir);
}
