//! The untraced run: spawn the release `busytime-cli` in the workload's
//! serving shape, time its set-up, drive the seeded traffic closed-loop
//! for the run length, read the server tree's CPU and peak memory, and
//! drain it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use busytime_instances::json::{self, Value};
use busytime_server::http::read_http_response;

use crate::config::{Shape, Traffic, Workload};
use crate::gen::Generator;
use crate::proc::{self, Server};

/// Set-ups timed per run; the reported figure is their median.
const SETUP_REPS: usize = 5;
/// Whatever the floors ask for, a timed phase ends by then.
const MAX_TIMED: Duration = Duration::from_secs(100);
/// Warm-up requests use indices from here on, apart from timed ones.
const WARM_BASE: u64 = 1 << 40;

/// One request as sent and answered.
pub struct Answered {
    pub index: u64,
    pub sent: Vec<String>,
    /// The response text, ending with the request's summary trailer.
    pub received: String,
}

/// Everything the untraced run measured.
pub struct Measured {
    pub setup_s: Vec<f64>,
    /// Latency of each timed request, in ms.
    pub latencies_ms: Vec<f64>,
    pub timed_records: usize,
    pub timed_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    pub healthz_ms: Vec<f64>,
    pub answered: Vec<Answered>,
}

fn server_args(w: &Workload) -> (Vec<String>, Option<&'static str>) {
    let mut args: Vec<String> = match w.shape {
        Shape::Serve => vec!["serve".into(), "--summary-json".into()],
        Shape::Listen => vec!["listen".into(), "--tcp".into(), "127.0.0.1:0".into()],
        Shape::Route => vec!["route".into(), "--tcp".into(), "127.0.0.1:0".into()],
    };
    match w.shape {
        Shape::Route => args.extend([
            "--spawn".into(),
            w.spawn.to_string(),
            "--spawn-workers".into(),
            (w.workers / w.spawn).to_string(),
        ]),
        _ => args.extend(["--workers".into(), w.workers.to_string()]),
    }
    if let Traffic::Stream { chunk, .. } = w.traffic {
        args.extend(["--chunk".into(), chunk.to_string()]);
    } else {
        args.push("--quiet".into());
    }
    let banner = match w.shape {
        Shape::Serve => None,
        Shape::Listen => Some("listening on "),
        Shape::Route => Some("routing on "),
    };
    (args, banner)
}

/// `GET /healthz` on `addr`: the decoded body and the round trip in ms.
pub fn healthz(addr: &str) -> std::io::Result<(Value, f64)> {
    let t0 = Instant::now();
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    (&stream).write_all(b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let response = read_http_response(&mut BufReader::new(&stream))?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let body = String::from_utf8_lossy(&response.body);
    let value = json::parse(body.trim())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    Ok((value, ms))
}

/// One request over a fresh connection: connect, send every line,
/// half-close, read to EOF. Returns the response text and timings in ms:
/// total, connect, and half-close → first byte.
pub fn exchange(addr: &str, payload: &[u8]) -> std::io::Result<(String, f64, f64, f64)> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let connected = t0.elapsed();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.write_all(payload)?;
    stream.shutdown(Shutdown::Write)?;
    let closed = t0.elapsed();
    let mut received = Vec::new();
    let mut first = [0u8; 1];
    let n = stream.read(&mut first)?;
    let first_byte = t0.elapsed();
    received.extend_from_slice(&first[..n]);
    stream.read_to_end(&mut received)?;
    let total = t0.elapsed();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    Ok((
        String::from_utf8_lossy(&received).into_owned(),
        ms(total),
        ms(connected),
        ms(first_byte - closed),
    ))
}

pub fn payload(lines: &[String]) -> Vec<u8> {
    let mut out = lines.join("\n").into_bytes();
    out.push(b'\n');
    out
}

/// Spawns the server and waits until it is ready: the banner, then a
/// `/healthz` answer reporting every shard healthy (a listener answers
/// with no shard count). The banner alone is not enough: `listen` prints
/// it before installing its SIGINT handler, and only the answer shows the
/// service loop is running.
fn start(cli: &str, w: &Workload) -> Result<(Server, f64), String> {
    let (args, banner) = server_args(w);
    let t0 = Instant::now();
    let server = Server::spawn(cli, &args, banner)?;
    let want = (w.shape == Shape::Route).then_some(w.spawn as i64);
    loop {
        if let Ok((body, _)) = healthz(&server.addr) {
            if body.get("healthy_shards").and_then(Value::as_i64) == want {
                break;
            }
        }
        if t0.elapsed() > Duration::from_secs(30) {
            return Err(format!("{} never became ready", args.join(" ")));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok((server, t0.elapsed().as_secs_f64()))
}

/// Set-up of the stdin shape: spawn to the first answer of one record.
fn stdin_setup(cli: &str, w: &Workload, gen: &Generator, rep: u64) -> Result<f64, String> {
    let (args, _) = server_args(w);
    let record = payload(&gen.request(WARM_BASE + rep));
    let t0 = Instant::now();
    let mut server = Server::spawn(cli, &args, None)?;
    let mut stdin = server.stdin.take().expect("stdin is piped");
    stdin.write_all(&record).map_err(|e| e.to_string())?;
    drop(stdin);
    let mut first = String::new();
    BufReader::new(server.stdout.take().expect("stdout is piped"))
        .read_line(&mut first)
        .map_err(|e| e.to_string())?;
    let setup = t0.elapsed().as_secs_f64();
    if !first.contains("\"ok\": true") {
        return Err(format!("set-up record failed: {first}"));
    }
    server.drain(false)?;
    Ok(setup)
}

pub fn run(cli: &str, w: &Workload, seed: u64, seconds: f64) -> Result<Measured, String> {
    let gen = Generator::new(w, seed);
    let mut setup_s = Vec::new();
    for rep in 0..SETUP_REPS {
        if w.shape == Shape::Serve {
            setup_s.push(stdin_setup(cli, w, &gen, rep as u64)?);
        } else {
            let (server, s) = start(cli, w)?;
            setup_s.push(s);
            server.drain(true)?;
        }
    }
    match w.shape {
        Shape::Serve => run_stream(cli, w, &gen, seconds, setup_s),
        _ => run_sockets(cli, w, &gen, seconds, setup_s),
    }
}

/// The stdin shape: a writer keeps at most `window` records in flight,
/// in whole chunks (the reader hands back one credit per answered chunk);
/// the first chunk is warm-up.
fn run_stream(
    cli: &str,
    w: &Workload,
    gen: &Generator,
    seconds: f64,
    setup_s: Vec<f64>,
) -> Result<Measured, String> {
    let Traffic::Stream { window, chunk, .. } = w.traffic else {
        unreachable!("stream shape")
    };
    let (args, _) = server_args(w);
    let mut server = Server::spawn(cli, &args, None)?;
    let pids = proc::tree(server.pid());
    let stdin = server.stdin.take().expect("stdin is piped");
    let stdout = server.stdout.take().expect("stdout is piped");

    let written = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let sent_at: Mutex<Vec<Instant>> = Mutex::new(Vec::new());
    let (credit_tx, credit_rx) = mpsc::channel::<()>();

    let mut received: Vec<String> = Vec::new();
    let mut answered_at: Vec<Instant> = Vec::new();
    let mut timed_from: Option<Instant> = None;
    let (sent, stdin, cpu0) = std::thread::scope(|scope| {
        let (written, writer_done, stop, sent_at) = (&written, &writer_done, &stop, &sent_at);
        let writer = scope.spawn(move || {
            let mut stdin = stdin;
            let mut sent: Vec<String> = Vec::new();
            // credits count chunks that may be in flight
            let mut credits = window / chunk;
            'outer: while !stop.load(Ordering::SeqCst) {
                while credits == 0 {
                    match credit_rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(()) => credits += 1,
                        Err(_) if stop.load(Ordering::SeqCst) => break 'outer,
                        Err(_) => {}
                    }
                }
                let lines: Vec<String> = (0..chunk)
                    .flat_map(|k| gen.request((sent.len() + k) as u64))
                    .collect();
                let bytes = payload(&lines);
                written.fetch_add(chunk, Ordering::SeqCst);
                let now = Instant::now();
                sent_at
                    .lock()
                    .expect("send clock")
                    .extend((0..chunk).map(|_| now));
                if stdin
                    .write_all(&bytes)
                    .and_then(|()| stdin.flush())
                    .is_err()
                {
                    break;
                }
                credits -= 1;
                sent.extend(lines);
            }
            writer_done.store(true, Ordering::SeqCst);
            (sent, stdin)
        });
        let mut reader = BufReader::new(stdout);
        let started = Instant::now();
        let mut cpu0 = 0.0;
        loop {
            if received.len() >= written.load(Ordering::SeqCst) {
                if writer_done.load(Ordering::SeqCst) {
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                Ok(_) => {}
            }
            let now = Instant::now();
            received.push(line.trim_end().to_string());
            answered_at.push(now);
            if received.len().is_multiple_of(chunk) {
                let _ = credit_tx.send(());
            }
            if received.len() == chunk {
                cpu0 = proc::cpu_seconds(&pids);
                timed_from = Some(now);
            }
            if let Some(t0) = timed_from {
                let timed = received.len() - chunk;
                if (now - t0).as_secs_f64() >= seconds && timed >= w.min_requests
                    || started.elapsed() > MAX_TIMED
                {
                    stop.store(true, Ordering::SeqCst);
                }
            }
        }
        let (sent, stdin) = writer.join().expect("writer thread panicked");
        (sent, stdin, cpu0)
    });
    let cpu1 = proc::cpu_seconds(&pids);
    let peak_rss_mib = proc::peak_rss_mib(&pids);
    server.stdin = Some(stdin);
    let log = server.drain(false)?;

    let t0 = timed_from.ok_or("the stream never answered its warm-up chunk")?;
    let t_end = *answered_at.last().expect("answers arrived");
    let sent_at = sent_at.into_inner().expect("send clock");
    let latencies_ms = (chunk..answered_at.len())
        .map(|i| (answered_at[i] - sent_at[i]).as_secs_f64() * 1e3)
        .collect();
    let mut text = received.join("\n");
    // the stream's summary trailer arrives on stderr
    text.push('\n');
    text.push_str(log.lines().last().unwrap_or(""));
    Ok(Measured {
        setup_s,
        latencies_ms,
        timed_records: answered_at.len() - chunk,
        timed_s: (t_end - t0).as_secs_f64(),
        cpu_s: cpu1 - cpu0,
        peak_rss_mib,
        healthz_ms: Vec::new(),
        answered: vec![Answered {
            index: 0,
            sent,
            received: text,
        }],
    })
}

/// Socket shapes: `clients` closed loops, one request per connection.
fn run_sockets(
    cli: &str,
    w: &Workload,
    gen: &Generator,
    seconds: f64,
    mut setup_s: Vec<f64>,
) -> Result<Measured, String> {
    let (server, s) = start(cli, w)?;
    setup_s.push(s);
    let addr = server.addr.clone();
    let pids = proc::tree(server.pid());
    let mut answered = Vec::new();
    for (k, lines) in gen.warmup().into_iter().enumerate() {
        let received = exchange(&addr, &payload(&lines)).map_or_else(|e| e.to_string(), |r| r.0);
        answered.push(Answered {
            index: WARM_BASE + k as u64,
            sent: lines,
            received,
        });
    }
    let healthz_every = match w.traffic {
        Traffic::Waves { healthz_every, .. } => healthz_every,
        _ => 0,
    };
    let next = AtomicU64::new(0);
    let done = AtomicUsize::new(0);
    let results: Mutex<Vec<(Answered, f64)>> = Mutex::new(Vec::new());
    let healthz_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let cycle = w.cycle();
    let cpu0 = proc::cpu_seconds(&pids);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..w.clients {
            let (next, done, results, healthz_ms, addr) =
                (&next, &done, &results, &healthz_ms, &addr);
            scope.spawn(move || {
                let mut mine = 0usize;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let elapsed = t0.elapsed();
                    if elapsed.as_secs_f64() >= seconds
                        && finished >= w.min_requests
                        && finished % cycle == 0
                        || elapsed > MAX_TIMED
                    {
                        break;
                    }
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let lines = gen.request(index);
                    let bytes = payload(&lines);
                    let (received, ms) = match exchange(addr, &bytes) {
                        Ok((text, ms, _, _)) => (text, ms),
                        Err(e) => (format!("transport error: {e}"), f64::NAN),
                    };
                    done.fetch_add(1, Ordering::SeqCst);
                    let sent = lines;
                    let answer = Answered {
                        index,
                        sent,
                        received,
                    };
                    results.lock().expect("results").push((answer, ms));
                    mine += 1;
                    if client == 0 && mine.is_multiple_of(healthz_every) {
                        if let Ok((_, ms)) = healthz(addr) {
                            healthz_ms.lock().expect("healthz").push(ms);
                        }
                    }
                }
            });
        }
    });
    let timed_s = t0.elapsed().as_secs_f64();
    let cpu_s = proc::cpu_seconds(&pids) - cpu0;
    let peak_rss_mib = proc::peak_rss_mib(&pids);
    server.drain(true)?;
    let mut results = results.into_inner().expect("results");
    results.sort_by_key(|(a, _)| a.index);
    let timed_records = results.iter().map(|(a, _)| a.sent.len()).sum();
    let latencies_ms = results
        .iter()
        .map(|(_, ms)| *ms)
        .filter(|ms| ms.is_finite())
        .collect();
    answered.extend(results.into_iter().map(|(a, _)| a));
    Ok(Measured {
        setup_s,
        latencies_ms,
        timed_records,
        timed_s,
        cpu_s,
        peak_rss_mib,
        healthz_ms: healthz_ms.into_inner().expect("healthz"),
        answered,
    })
}
