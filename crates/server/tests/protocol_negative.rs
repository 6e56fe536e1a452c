//! Negative-path protocol tests over a real TCP connection: malformed
//! commands, oversized request lines, invalid UTF-8, and truncated input
//! must each produce a structured `err ...` response (or a clean close for
//! mid-line EOF) without panicking the connection thread, and the
//! connection must stay usable afterwards.

use skipflow_server::{Client, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

/// One request line longer than this is rejected with `err proto:` — keep
/// in sync with `net::MAX_LINE_BYTES`.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Starts a server on an ephemeral port and returns its address plus the
/// join handle for the accept loop (joined after `shutdown`).
fn start_server() -> (SocketAddr, thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn stop_server(addr: &SocketAddr, handle: thread::JoinHandle<()>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    let resp = client.request("shutdown").expect("shutdown");
    assert_eq!(resp, "ok bye");
    handle.join().expect("server thread");
}

/// Sends raw bytes (no trailing newline added) and reads back one response
/// line from the same stream.
fn raw_roundtrip(stream: &mut TcpStream, bytes: &[u8]) -> String {
    stream.write_all(bytes).expect("write");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    line.trim_end().to_string()
}

#[test]
fn malformed_commands_get_structured_errors_and_the_connection_survives() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).expect("connect");

    for (request, needle) in [
        ("bogus", "unknown request"),
        ("open s1", "usage"),
        ("open s1 x.sf badopt", "key=value"),
        ("roots s1", "usage"),
        ("query s1 reachable", "usage"),
        ("query s1 nope App.main", "unknown query"),
        ("flush no-such-session", "unknown session"),
        ("query no-such-session reachable App.main", "unknown session"),
    ] {
        let resp = client.request(request).expect("request");
        assert!(resp.starts_with("err "), "{request:?} -> {resp:?}");
        assert!(resp.contains(needle), "{request:?} -> {resp:?}");
    }

    // Blank lines are tolerated silently (no response at all), so a blank
    // followed by a ping earns exactly one response: the pong.
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    let resp = raw_roundtrip(&mut stream, b"\n   \nping\n");
    assert_eq!(resp, "ok pong");

    // The same connection still serves well-formed traffic.
    assert_eq!(client.request("ping").expect("ping"), "ok pong");
    stop_server(&addr, handle);
}

#[test]
fn oversized_request_lines_are_rejected_without_buffering_them() {
    let (addr, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");

    // Well past the cap: the server must answer with a proto error after
    // reading at most MAX_LINE_BYTES + 1 bytes, discarding the rest.
    let mut huge = vec![b'a'; 4 * MAX_LINE_BYTES];
    huge.push(b'\n');
    let resp = raw_roundtrip(&mut stream, &huge);
    assert!(
        resp.starts_with("err proto: request line exceeds"),
        "oversized line -> {resp:?}"
    );

    // The tail was discarded up to the newline, so the connection is
    // back in line-sync and still usable.
    let resp = raw_roundtrip(&mut stream, b"ping\n");
    assert_eq!(resp, "ok pong");

    // Exactly at the cap (including nothing but payload) is still served:
    // the limit is a bound, not an off-by-one trap. An unknown request of
    // that length earns a parse error, not a proto-size error.
    let mut at_cap = vec![b'z'; MAX_LINE_BYTES - 1];
    at_cap.push(b'\n');
    let resp = raw_roundtrip(&mut stream, &at_cap);
    assert!(resp.contains("unknown request"), "at-cap line -> {resp:?}");

    stop_server(&addr, handle);
}

#[test]
fn invalid_utf8_is_rejected_and_the_connection_survives() {
    let (addr, handle) = start_server();
    let mut stream = TcpStream::connect(addr).expect("connect");

    let resp = raw_roundtrip(&mut stream, b"ping \xff\xfe\xfd\n");
    assert_eq!(resp, "err proto: request is not valid UTF-8");

    // A lone continuation byte embedded mid-command is caught too.
    let resp = raw_roundtrip(&mut stream, b"stats\x80\n");
    assert_eq!(resp, "err proto: request is not valid UTF-8");

    let resp = raw_roundtrip(&mut stream, b"ping\n");
    assert_eq!(resp, "ok pong");
    stop_server(&addr, handle);
}

#[test]
fn truncated_final_line_is_still_served_before_eof() {
    let (addr, handle) = start_server();

    // A request with no trailing newline followed by EOF (client shutdown
    // of the write half) must still be answered, then the server closes.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    writer.write_all(b"ping").expect("write");
    writer.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert_eq!(line.trim_end(), "ok pong");
    // After answering the truncated line the server sees EOF and closes.
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("eof"), 0);

    stop_server(&addr, handle);
}

#[test]
fn abrupt_disconnects_do_not_poison_the_server() {
    let (addr, handle) = start_server();

    // Drop connections at every awkward point: before writing, mid-line
    // without a newline, and right after a huge partial line.
    drop(TcpStream::connect(addr).expect("connect"));
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(b"que").expect("write");
    }
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&vec![b'x'; MAX_LINE_BYTES / 2]).expect("write");
    }
    // Give the per-connection threads a moment to observe the hangups.
    thread::sleep(Duration::from_millis(50));

    // A fresh client gets normal service.
    let mut client = Client::connect(&addr).expect("connect");
    assert_eq!(client.request("ping").expect("ping"), "ok pong");
    assert_eq!(client.request("sessions").expect("sessions"), "ok sessions=0");
    stop_server(&addr, handle);
}

#[test]
fn session_level_errors_after_real_traffic_are_structured() {
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).expect("connect");

    // Forced SCC is library-only: the protocol refuses it, structured.
    let resp = client
        .request("open s synth:luindex scheduler=scc")
        .expect("open scc");
    assert!(resp.starts_with("err analysis:"), "{resp:?}");
    let resp = client
        .request("open s synth:luindex scheduler=fifo")
        .expect("open");
    assert!(resp.starts_with("ok opened"), "{resp:?}");

    // Duplicate open, bad method spec, and post-evict use all come back as
    // structured errors on a connection that keeps working.
    let resp = client.request("open s synth:luindex").expect("reopen");
    assert!(resp.starts_with("err "), "{resp:?}");
    let resp = client.request("roots s NoSuch.method").expect("bad root");
    assert!(resp.starts_with("err "), "{resp:?}");
    let resp = client.request("evict s").expect("evict");
    assert!(resp.starts_with("ok "), "{resp:?}");
    let resp = client.request("flush s").expect("flush after evict");
    assert!(resp.starts_with("err "), "{resp:?}");
    assert_eq!(client.request("ping").expect("ping"), "ok pong");

    stop_server(&addr, handle);
}
