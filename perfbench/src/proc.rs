//! The server under test as a process tree: spawn to ready, CPU time and
//! peak memory from `/proc`, and a SIGINT drain that fails on any
//! survivor or non-zero exit.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
}
const SIGINT: i32 = 2;
const SIGKILL: i32 = 9;
const SC_CLK_TCK: i32 = 2;

/// How long a server may take to print its banner or to drain.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

fn signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes plain integers and touches no memory of ours.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// `(ppid, utime + stime in ticks, state)` of `pid`, if it exists.
fn stat(pid: u32) -> Option<(u32, u64, char)> {
    let raw = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // the command name is parenthesized and may hold spaces
    let rest = &raw[raw.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let state = fields.first()?.chars().next()?;
    let ppid = fields.get(1)?.parse().ok()?;
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((ppid, utime + stime, state))
}

/// `pid` and every live descendant.
pub fn tree(pid: u32) -> Vec<u32> {
    let mut parents: Vec<(u32, u32)> = Vec::new();
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            if let Some(p) = entry.file_name().to_str().and_then(|s| s.parse().ok()) {
                if let Some((ppid, _, _)) = stat(p) {
                    parents.push((p, ppid));
                }
            }
        }
    }
    let mut out = vec![pid];
    let mut i = 0;
    while i < out.len() {
        let me = out[i];
        out.extend(parents.iter().filter(|(_, pp)| *pp == me).map(|(p, _)| *p));
        i += 1;
    }
    out
}

/// CPU time (user + system) of the whole tree so far.
pub fn cpu_seconds(pids: &[u32]) -> f64 {
    // SAFETY: sysconf only reads a configuration value.
    let ticks = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    pids.iter()
        .filter_map(|&p| stat(p))
        .map(|s| s.1 as f64)
        .sum::<f64>()
        / ticks
}

/// Σ VmHWM (peak resident set) over the tree, in MiB.
pub fn peak_rss_mib(pids: &[u32]) -> f64 {
    pids.iter()
        .filter_map(|p| std::fs::read_to_string(format!("/proc/{p}/status")).ok())
        .filter_map(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .sum::<f64>()
        / 1024.0
}

/// A running `busytime-cli` and its stderr collector.
pub struct Server {
    child: Child,
    pub stdin: Option<ChildStdin>,
    pub stdout: Option<ChildStdout>,
    stderr: Arc<Mutex<Vec<String>>>,
    collector: Option<JoinHandle<()>>,
    /// The bound address for socket shapes.
    pub addr: String,
}

impl Server {
    /// Spawns `cli args…`; for socket shapes, waits for the banner that
    /// starts with `banner` and reads the address from it.
    pub fn spawn(cli: &str, args: &[String], banner: Option<&str>) -> Result<Server, String> {
        let mut child = Command::new(cli)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(if banner.is_some() {
                Stdio::null()
            } else {
                Stdio::piped()
            })
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {cli}: {e}"))?;
        let stderr = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let pipe = child.stderr.take().expect("stderr is piped");
        let lines = Arc::clone(&stderr);
        let want = banner.map(str::to_string);
        let collector = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = want.as_deref().and_then(|w| line.strip_prefix(w)) {
                    let addr = rest.split_whitespace().next().unwrap_or("");
                    let _ = tx.send(addr.trim_start_matches("tcp://").to_string());
                }
                lines.lock().expect("stderr collector poisoned").push(line);
            }
        });
        let mut server = Server {
            stdin: child.stdin.take(),
            stdout: child.stdout.take(),
            child,
            stderr,
            collector: Some(collector),
            addr: String::new(),
        };
        if banner.is_some() {
            match rx.recv_timeout(READY_TIMEOUT) {
                Ok(addr) => server.addr = addr,
                Err(_) => {
                    let log = server.stderr_text();
                    server.kill();
                    return Err(format!("no banner from {}: {log}", args.join(" ")));
                }
            }
        }
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn stderr_text(&self) -> String {
        self.stderr
            .lock()
            .expect("stderr collector poisoned")
            .join("\n")
    }

    fn kill(&mut self) {
        for pid in tree(self.pid()).into_iter().rev() {
            signal(pid, SIGKILL);
        }
        let _ = self.child.wait();
    }

    /// Ends the server: closes stdin (the stdin shape exits on EOF),
    /// SIGINTs socket shapes, then waits for the whole tree. Fails on a
    /// non-zero exit, a drain timeout, or a descendant that outlives it.
    pub fn drain(mut self, interrupt: bool) -> Result<String, String> {
        let family = tree(self.pid());
        drop(self.stdin.take());
        if interrupt {
            signal(self.pid(), SIGINT);
        }
        let started = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if started.elapsed() < DRAIN_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                _ => {
                    self.kill();
                    return Err(format!("server did not drain within {DRAIN_TIMEOUT:?}"));
                }
            }
        };
        if let Some(collector) = self.collector.take() {
            collector.join().map_err(|_| "stderr collector panicked")?;
        }
        let log = self.stderr_text();
        if !status.success() {
            return Err(format!("server exited with {status}: {log}"));
        }
        // children are reaped by the server itself; give stragglers a
        // moment, then call any live one a leak
        let settle = Instant::now();
        loop {
            let alive: Vec<u32> = family[1..]
                .iter()
                .copied()
                .filter(|&p| stat(p).is_some_and(|s| s.2 != 'Z'))
                .collect();
            if alive.is_empty() {
                return Ok(log);
            }
            if settle.elapsed() > Duration::from_secs(5) {
                for &p in &alive {
                    signal(p, SIGKILL);
                }
                return Err(format!("children {alive:?} survived the drain"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // an error path that never drained: leave no process behind
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
    }
}
