//! Analysis-as-a-service, end to end in one process: bind the server on an
//! ephemeral loopback port, run it on a background thread, and drive a
//! scripted client conversation over the line protocol — open a session
//! from the generated corpus, register roots, flush, query the published
//! snapshot, and read the observability counters.
//!
//! ```text
//! cargo run --release --example serve
//! ```
//!
//! The same protocol is reachable from any TCP client once the standalone
//! server is up (`skipflow serve --addr 127.0.0.1:7411`).

use skipflow::server::{Client, Server, ServerConfig};
use std::thread;

fn main() {
    // Port 0: the kernel picks a free port, so the example never collides
    // with a real server.
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr().expect("bound address");
    let running = thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("connect");
    let script = [
        "ping",
        "open app synth:luindex",
        "roots app Main.main",
        "flush app",
        "query app reachable-count",
        "query app call-edges",
        "query app completeness",
        "stats app",
        "stats",
        "evict app",
        "shutdown",
    ];
    for line in script {
        let resp = client.request(line).expect("request");
        println!("> {line}");
        println!("< {resp}");
    }

    running.join().expect("server thread").expect("clean shutdown");
}
