//! The real binaries, driven from outside: `skipflow analyze` as a child
//! process, and `skipflow serve` over loopback TCP with the benchmark's own
//! client.
//!
//! The client sends each request as **one** write on a `TCP_NODELAY`
//! socket (an update step's requests go out together in one write), so any
//! per-request delay it measures is the server's own.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long one protocol request may take before it counts as failed.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(90);

/// How long one `analyze` process may run before it is killed.
pub const ANALYZE_TIMEOUT: Duration = Duration::from_secs(60);

/// A line-protocol connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr` with `TCP_NODELAY` and a read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        let writer = stream.try_clone()?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Sends `line` plus its newline in one write and reads one response
    /// line (without the newline).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.writer.write_all(&bytes)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Sends `lines` in one write (pipelined) and reads one response per
    /// line, each with the time from the write to its arrival.
    pub fn pipeline(&mut self, lines: &[String]) -> io::Result<Vec<(String, Duration)>> {
        let mut bytes = Vec::new();
        for line in lines {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
        let start = Instant::now();
        self.writer.write_all(&bytes)?;
        let mut out = Vec::with_capacity(lines.len());
        for _ in lines {
            let mut response = String::new();
            if self.reader.read_line(&mut response)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            out.push((response.trim_end().to_string(), start.elapsed()));
        }
        Ok(out)
    }

    /// [`Conn::request`], also returning the round trip.
    pub fn timed(&mut self, line: &str) -> io::Result<(String, Duration)> {
        let start = Instant::now();
        let response = self.request(line)?;
        Ok((response, start.elapsed()))
    }
}

/// A running `skipflow serve` child. Dropping it kills the process and
/// waits for it.
pub struct ServerProc {
    child: Option<Child>,
    /// The address the server bound.
    pub addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawns `skipflow serve --addr 127.0.0.1:0` and reads back the port.
    pub fn spawn(skipflow: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(skipflow)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", skipflow.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child: Some(child),
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("server did not report its address (got {line:?})"))
            }
        }
    }

    /// A field of `/proc/<pid>/status` in kB (`VmHWM`, `VmRSS`).
    pub fn status_kb(&self, field: &str) -> Option<u64> {
        let pid = self.child.as_ref()?.id();
        proc_status_kb(pid, field)
    }

    /// Sends `shutdown` on a fresh connection and waits for the process to
    /// exit, killing it if it does not within 30 s. Returns whether it
    /// answered `ok bye` and exited cleanly.
    pub fn shutdown(mut self) -> bool {
        let said_bye = Conn::connect(self.addr)
            .and_then(|mut c| c.request("shutdown"))
            .map(|r| r == "ok bye")
            .unwrap_or(false);
        let mut child = self.child.take().expect("child present until shutdown");
        let exited = wait_with_deadline(&mut child, Duration::from_secs(30));
        said_bye && matches!(exited, Some(status) if status.success())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Reads one `kB` field of `/proc/<pid>/status`.
fn proc_status_kb(pid: u32, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Polls `child` until it exits or `deadline` passes (then kills it).
/// Returns the exit status if it exited on its own.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> Option<std::process::ExitStatus> {
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) if start.elapsed() < deadline => {
                std::thread::sleep(Duration::from_micros(100))
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
        }
    }
}

/// Runs `skipflow analyze <path> --root Main.main --metrics` and returns
/// the spawn-to-exit wall time and its stdout. A non-zero exit or a
/// timeout is an error.
pub fn run_analyze(skipflow: &Path, program: &Path) -> Result<(Duration, String), String> {
    let start = Instant::now();
    let mut child = Command::new(skipflow)
        .arg("analyze")
        .arg(program)
        .args(["--root", "Main.main", "--metrics"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", skipflow.display()))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        stdout.read_to_string(&mut out).map(|_| out)
    });
    let status = wait_with_deadline(&mut child, ANALYZE_TIMEOUT);
    let wall = start.elapsed();
    let out = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    match status {
        None => Err(format!("analyze timed out after {ANALYZE_TIMEOUT:?}")),
        Some(s) if !s.success() => Err(format!("analyze exited with {s}")),
        Some(_) => Ok((
            wall,
            out.map_err(|e| format!("cannot read analyze output: {e}"))?,
        )),
    }
}
