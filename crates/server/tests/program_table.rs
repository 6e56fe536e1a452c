//! The registry's program table, driven through the protocol layer: opens
//! of identical bytes share one decoded program, a changed file is decoded
//! afresh, a program lives exactly as long as its sessions, and `open`
//! reads at most the memory budget.

use skipflow_ir::frontend::compile;
use skipflow_server::{handle_request, parse_request, Registry, ServerConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SRC: &str = "
    class Config { static method flag(): int { return 0; } }
    class App {
      static method used(): void { return; }
      static method dead(): void { return; }
      static method main(): void {
        if (Config.flag()) { App.dead(); } else { App.used(); }
      }
    }
";

/// `SRC` plus one method, so its decode reports a different `methods=`.
const SRC_GROWN: &str = "
    class Config { static method flag(): int { return 0; } }
    class App {
      static method used(): void { return; }
      static method dead(): void { return; }
      static method extra(): void { return; }
      static method main(): void {
        if (Config.flag()) { App.dead(); } else { App.used(); }
      }
    }
";

/// A fresh scratch directory per test (tests run in parallel).
fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "skipflow-program-table-{name}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(registry: &Registry, line: &str) -> String {
    handle_request(registry, parse_request(line).unwrap())
}

fn open(registry: &Registry, session: &str, path: &Path) -> String {
    run(registry, &format!("open {session} {}", path.display()))
}

/// A numeric field of the registry-wide `stats` line.
fn stat(registry: &Registry, key: &str) -> usize {
    let line = run(registry, "stats");
    let field = line
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= field: {line}"));
    field.parse().unwrap()
}

/// The `programs=` field of the registry-wide `stats` line.
fn programs(registry: &Registry) -> usize {
    stat(registry, "programs")
}

fn same_program(registry: &Registry, a: &str, b: &str) -> bool {
    Arc::ptr_eq(
        registry.get(a).unwrap().program(),
        registry.get(b).unwrap().program(),
    )
}

#[test]
fn opens_of_identical_bytes_share_one_program() {
    let dir = tmpdir("share");
    let path = dir.join("app.sf");
    std::fs::write(&path, SRC).unwrap();
    let registry = Registry::new(ServerConfig::default());

    assert_eq!(programs(&registry), 0);
    assert_eq!(stat(&registry, "program_bytes"), 0);
    assert_eq!(open(&registry, "a", &path), "ok opened a methods=4 epoch=0");
    let one_program = stat(&registry, "program_bytes");
    assert_eq!(one_program, registry.get("a").unwrap().program().heap_bytes());
    assert_eq!(open(&registry, "b", &path), "ok opened b methods=4 epoch=0");
    assert!(
        same_program(&registry, "a", "b"),
        "identical bytes decoded twice"
    );
    assert_eq!(programs(&registry), 1);
    // The shared program is counted once.
    assert_eq!(stat(&registry, "program_bytes"), one_program);

    // Sharing a program shares nothing else: each session solves alone.
    assert!(run(&registry, "roots a App.main").starts_with("ok queued 1 "));
    assert!(run(&registry, "flush a").starts_with("ok flushed epoch=1 roots=1"));
    assert!(run(&registry, "query a reachable App.used").starts_with("ok true epoch=1"));
    assert_eq!(
        run(&registry, "query b reachable-count"),
        "ok 0 epoch=0 [partial]"
    );

    // The same bytes at another path are the same program.
    let copy = dir.join("copy.sf");
    std::fs::write(&copy, SRC).unwrap();
    open(&registry, "c", &copy);
    assert!(same_program(&registry, "a", "c"));
    assert_eq!(programs(&registry), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rewritten_file_is_decoded_afresh_and_old_sessions_keep_their_program() {
    let dir = tmpdir("rewrite");
    let path = dir.join("app.sf");
    std::fs::write(&path, SRC).unwrap();
    let registry = Registry::new(ServerConfig::default());

    assert_eq!(
        open(&registry, "old", &path),
        "ok opened old methods=4 epoch=0"
    );
    std::fs::write(&path, SRC_GROWN).unwrap();
    assert_eq!(
        open(&registry, "new", &path),
        "ok opened new methods=5 epoch=0"
    );
    assert!(!same_program(&registry, "old", "new"));
    assert_eq!(programs(&registry), 2);

    // `old` still resolves and solves against the program it opened with.
    assert!(run(&registry, "query old reachable App.extra").starts_with("err analysis:"));
    assert!(run(&registry, "query new reachable App.extra").starts_with("ok false "));
    assert!(run(&registry, "roots old #4").starts_with("err invalid-root:"));
    assert!(run(&registry, "roots old App.main").starts_with("ok queued 1 "));
    assert!(run(&registry, "flush old").starts_with("ok flushed epoch=1 roots=1"));
    assert!(run(&registry, "query old reachable App.used").starts_with("ok true epoch=1"));
    assert_eq!(registry.get("old").unwrap().program().method_count(), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_corrupt_file_is_rejected_after_its_path_was_cached() {
    let dir = tmpdir("corrupt");
    let path = dir.join("app.sfbc");
    let bytes = skipflow_ir::encode::encode(&compile(SRC).unwrap());
    std::fs::write(&path, &bytes).unwrap();
    let registry = Registry::new(ServerConfig::default());
    assert_eq!(
        open(&registry, "good", &path),
        "ok opened good methods=4 epoch=0"
    );

    // Truncated bytecode, then a file that is neither bytecode nor UTF-8:
    // both fail their checks although a valid program from this very path
    // sits in the table.
    std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
    let truncated = open(&registry, "bad", &path);
    assert!(
        truncated.starts_with("err analysis:") && truncated.contains("truncated"),
        "{truncated}"
    );
    std::fs::write(&path, [0xff, 0xfe, 0x00]).unwrap();
    let garbage = open(&registry, "bad", &path);
    assert!(garbage.ends_with(": not UTF-8 source"), "{garbage}");
    assert_eq!(run(&registry, "sessions"), "ok sessions=1 good");
    assert_eq!(programs(&registry), 1);

    // Restoring the bytes hits the cached program again.
    std::fs::write(&path, &bytes).unwrap();
    open(&registry, "again", &path);
    assert!(same_program(&registry, "good", "again"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_program_is_freed_with_its_last_session() {
    let dir = tmpdir("evict");
    let path = dir.join("app.sf");
    std::fs::write(&path, SRC).unwrap();
    let registry = Registry::new(ServerConfig::default());
    open(&registry, "a", &path);
    open(&registry, "b", &path);
    assert_eq!(programs(&registry), 1);

    assert_eq!(run(&registry, "evict a"), "ok evicted");
    assert_eq!(programs(&registry), 1, "b still holds the program");
    assert_eq!(run(&registry, "evict b"), "ok evicted");
    assert_eq!(programs(&registry), 0);

    // A later open decodes again and caches again.
    assert_eq!(open(&registry, "c", &path), "ok opened c methods=4 epoch=0");
    assert_eq!(programs(&registry), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_opens_of_one_file_end_with_one_program() {
    let dir = tmpdir("race");
    let path = dir.join("app.sf");
    std::fs::write(&path, SRC).unwrap();
    let registry = Registry::new(ServerConfig::default());
    std::thread::scope(|scope| {
        for i in 0..8 {
            let (registry, path) = (&registry, &path);
            scope.spawn(move || {
                let opened = open(registry, &format!("s{i}"), path);
                assert_eq!(opened, format!("ok opened s{i} methods=4 epoch=0"));
            });
        }
    });
    assert_eq!(programs(&registry), 1);
    for i in 1..8 {
        assert!(same_program(&registry, "s0", &format!("s{i}")));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn open_refuses_a_source_larger_than_the_memory_budget() {
    let dir = tmpdir("budget");
    let path = dir.join("big.sf");
    // Valid source padded past the budget: unbounded, it would open.
    let big = format!("{SRC}{}", " ".repeat(8 * 1024 - SRC.len()));
    std::fs::write(&path, &big).unwrap();
    let registry = Registry::new(ServerConfig {
        memory_budget_bytes: 4 * 1024,
        ..ServerConfig::default()
    });

    let refused = open(&registry, "big", &path);
    assert_eq!(
        refused,
        format!(
            "err analysis: analysis rejected: {}: source is larger than the memory budget (4096 bytes)",
            path.display()
        )
    );
    // A stream with no length is cut off at the budget, not read to the end.
    if Path::new("/dev/zero").exists() {
        let endless = run(&registry, "open zero /dev/zero");
        assert!(
            endless.ends_with("source is larger than the memory budget (4096 bytes)"),
            "{endless}"
        );
    }
    // The server keeps serving, and a source within the budget opens.
    assert_eq!(run(&registry, "ping"), "ok pong");
    let small = dir.join("small.sf");
    std::fs::write(&small, SRC).unwrap();
    assert_eq!(
        open(&registry, "small", &small),
        "ok opened small methods=4 epoch=0"
    );
    assert_eq!(run(&registry, "sessions"), "ok sessions=1 small");
    let _ = std::fs::remove_dir_all(&dir);
}
