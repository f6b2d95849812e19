//! End-to-end coverage of `busytime-cli listen`: a real child process
//! bound to an ephemeral TCP port, a raw-socket NDJSON client, deadline
//! enforcement over the wire, and a clean SIGINT drain — the same flow the
//! CI `listen-smoke` job runs at fixture scale.
//!
//! Unix-only: the drain assertions shell out to `kill -INT`, and signal
//! handling is a documented no-op off unix.
#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_busytime-cli"))
}

/// Spawns `listen --tcp 127.0.0.1:0` and reads the bound address off the
/// child's stderr `listening on tcp://...` line.
fn spawn_listener(extra: &[&str]) -> (Child, String, BufReader<std::process::ChildStderr>) {
    let mut child = cli()
        .args(["listen", "--tcp", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    // the banner is `listening on tcp://ADDR (N workers process-wide)`;
    // the address is the first token after the scheme
    let addr = banner
        .trim()
        .strip_prefix("listening on tcp://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    assert!(
        banner.contains("workers process-wide"),
        "banner must report the honest process budget: {banner:?}"
    );
    (child, addr, stderr)
}

fn sigint(child: &Child) {
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill -INT failed");
}

#[test]
fn listen_serves_a_connection_and_drains_on_sigint() {
    let (mut child, addr, mut stderr) = spawn_listener(&[]);

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(
            concat!(
                r#"{"id": "one", "instance": {"g": 2, "jobs": [[0, 4], [1, 5]]}}"#,
                "\n",
                r#"{"id": "cut", "instance": {"g": 2, "jobs": [[0, 4]]}, "deadline_ms": 0}"#,
                "\n",
                r#"{"id": "two", "generator": {"family": "uniform", "n": 20, "seed": 7}}"#,
                "\n",
            )
            .as_bytes(),
        )
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let lines: Vec<&str> = response.lines().collect();
    assert_eq!(lines.len(), 4, "3 responses + summary: {response}");
    for (i, (line, id)) in lines.iter().zip(["one", "cut", "two"]).enumerate() {
        assert!(line.contains(&format!("\"line\": {}", i + 1)), "{line}");
        assert!(line.contains(&format!("\"id\": \"{id}\"")), "{line}");
        assert!(line.contains("\"ok\": true"), "{line}");
    }
    assert!(lines[1].contains("\"deadline_hit\": true"), "{}", lines[1]);
    assert!(lines[3].contains("\"records\": 3"), "{}", lines[3]);
    assert!(lines[3].contains("\"deadline_hits\": 1"), "{}", lines[3]);

    // SIGINT must drain and exit zero, reporting the served connection
    sigint(&child);
    let status = child.wait().unwrap();
    assert!(status.success(), "listen exited {status:?} on SIGINT");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).unwrap();
    assert!(
        rest.contains("listener: 1 connections"),
        "missing final report in stderr: {rest:?}"
    );
}

#[test]
fn listen_requires_exactly_one_endpoint() {
    let out = cli().arg("listen").output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exactly one of"), "{stderr}");

    let out = cli()
        .args(["listen", "--tcp", "127.0.0.1:0", "--http", "127.0.0.1:0"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
}

#[test]
fn listen_idle_timeout_exits_cleanly_without_signals() {
    let (mut child, addr, _stderr) = spawn_listener(&["--idle-timeout-ms", "200", "--quiet"]);
    // one quick round trip, then the listener should wind itself down
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"{\"instance\": {\"g\": 2, \"jobs\": [[0, 3]]}}\n")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert_eq!(response.lines().count(), 2);

    // generous deadline for a loaded CI box; the idle timer is 200 ms
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            assert!(status.success(), "idle-timeout exit was {status:?}");
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "listener did not exit on idle timeout"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn listen_drains_a_sigint_sent_right_after_the_banner() {
    // the signal handlers must be in place before the banner is printed:
    // a supervisor that signals as soon as it reads the endpoint must get
    // a clean drain (exit 0), not a death by signal
    let (mut child, _addr, _stderr) = spawn_listener(&["--quiet"]);
    sigint(&child);
    let status = child.wait().unwrap();
    assert_eq!(
        status.code(),
        Some(0),
        "listen must drain a SIGINT sent right after its banner: {status:?}"
    );
}
