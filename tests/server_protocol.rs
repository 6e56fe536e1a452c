//! End-to-end smoke test of `skipflow serve`: spawn the real binary on an
//! ephemeral loopback port, drive the line protocol over TCP, and check the
//! server exits cleanly on `shutdown`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

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

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skipflow-serve-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let writer = stream.try_clone().unwrap();
        Conn { reader: BufReader::new(stream), writer }
    }

    fn request(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().unwrap();
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("read response");
        resp.trim_end().to_string()
    }
}

/// Spawns `skipflow serve` on an ephemeral port (port 0 → the kernel
/// picks; the server prints the bound address) and returns it with that
/// address.
fn spawn_server() -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_skipflow"))
        .args(["serve", "--addr", "127.0.0.1:0", "--max-sessions", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn skipflow serve");
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn serve_loopback_round_trip() {
    let dir = tmpdir("roundtrip");
    let src_path = dir.join("app.sf");
    std::fs::write(&src_path, SRC).unwrap();
    let (mut child, addr) = spawn_server();

    let mut conn = Conn::connect(&addr);
    assert_eq!(conn.request("ping"), "ok pong");

    // Open from a source file, register a root, settle, query.
    let opened = conn.request(&format!("open app {}", src_path.display()));
    assert!(opened.starts_with("ok opened app methods="), "{opened}");
    assert_eq!(conn.request("roots app App.main"), "ok queued 1 epoch=0");
    let flushed = conn.request("flush app");
    assert!(flushed.starts_with("ok flushed epoch="), "{flushed}");
    assert!(!flushed.contains("[partial]"), "{flushed}");
    assert!(conn.request("query app reachable App.used").starts_with("ok true epoch="), "reachable");
    assert!(conn.request("query app reachable App.dead").starts_with("ok false epoch="), "dead");
    assert!(conn.request("query app completeness").starts_with("ok complete epoch="));

    // A second session from the generated corpus, sharing the server.
    let opened = conn.request("open bench synth:luindex scheduler=adaptive");
    assert!(opened.starts_with("ok opened bench methods="), "{opened}");
    let sessions = conn.request("sessions");
    assert!(sessions.starts_with("ok sessions=2"), "{sessions}");

    // Errors come back as single `err` lines, never by dropping the
    // connection.
    assert!(conn.request("open app {}").starts_with("err duplicate-session:"));
    assert!(conn.request("roots nope App.main").starts_with("err unknown-session:"));
    assert!(conn.request("bogus-verb").starts_with("err proto:"));

    // Stats render for the registry and per session.
    let stats = conn.request("stats");
    assert!(stats.contains("sessions_live=2") && stats.contains("memory_bytes="), "{stats}");
    let sstats = conn.request("stats app");
    assert!(sstats.contains("epochs_published=") && sstats.contains("queries="), "{sstats}");

    // A second client sees the same published state (epoch publication is
    // per-session, not per-connection).
    let mut conn2 = Conn::connect(&addr);
    assert!(conn2.request("query app reachable-count").starts_with("ok "), "second client");

    assert_eq!(conn.request("evict bench"), "ok evicted");
    assert!(conn.request("sessions").starts_with("ok sessions=1"), "bench evicted");

    assert_eq!(conn.request("shutdown"), "ok bye");
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited with {status:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two connections opening the same file share one decoded program, which
/// the server frees with the last session on it.
#[test]
fn serve_shares_one_program_across_connections() {
    let dir = tmpdir("shared");
    let src_path = dir.join("app.sf");
    std::fs::write(&src_path, SRC).unwrap();
    let (mut child, addr) = spawn_server();
    let programs = |conn: &mut Conn| {
        let stats = conn.request("stats");
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("programs="))
            .unwrap_or_else(|| panic!("no programs= field: {stats}"))
            .to_string()
    };

    let mut a = Conn::connect(&addr);
    let mut b = Conn::connect(&addr);
    let opened_a = a.request(&format!("open a {}", src_path.display()));
    let opened_b = b.request(&format!("open b {}", src_path.display()));
    assert!(opened_a.starts_with("ok opened a methods="), "{opened_a}");
    assert_eq!(opened_b, opened_a.replacen(" a ", " b ", 1));
    assert_eq!(programs(&mut a), "1");

    assert_eq!(a.request("evict a"), "ok evicted");
    assert_eq!(programs(&mut b), "1", "b still holds the program");
    assert_eq!(b.request("evict b"), "ok evicted");
    assert_eq!(programs(&mut a), "0");

    assert_eq!(a.request("shutdown"), "ok bye");
    let status = child.wait().expect("server exit");
    assert!(status.success(), "server exited with {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
