//! The traced run: the workload's seeded inputs replayed in-process
//! through each layer's public functions, with a span around every call
//! (name, start, end, parent, request id), kept in memory and written out
//! at the end. Per-layer figures are self times: a span's duration minus
//! the part its child spans cover.
//!
//! Layers and the calls that stand for them:
//!
//! | layer       | call                                                   |
//! |-------------|--------------------------------------------------------|
//! | `protocol`  | `BatchRecord::parse_fast` / `parse_owned`, `report_line` |
//! | `instances` | `BatchRecord::instance` (generates spec records)        |
//! | `memo`      | `CanonicalInstance::of`, `SolutionCache::lookup/insert` |
//! | `features`  | `InstanceFeatures::detect`                              |
//! | `pool`      | `Executor::par_map_with` (submit → pickup), `stats`     |
//! | `solve`     | `SolveRequest::solve_with`, `SolveReport::phases`       |
//! | `algo`      | `FirstFit::schedule` on a 10k → 80k uniform ladder      |
//! | `engine`    | `BatchSession::run` on the same records                 |
//! | `listener`  | an in-process `Listener` on loopback TCP                |
//! | `router`    | an in-process `Router` over two in-process listeners    |
//!
//! The listener and router probes always carry the socket-mixed traffic of
//! the run's seed, so their figures compare across workloads.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::algo::{FirstFit, Scheduler};
use busytime_core::memo::{CanonicalInstance, SolutionCache, SolveFingerprint};
use busytime_core::pool::Executor;
use busytime_core::solve::{ParallelPolicy, SolveOptions, SolverRegistry};
use busytime_core::{InstanceFeatures, SolveReport, SolveRequest};
use busytime_instances::{Family, GeneratorSpec};
use busytime_router::{RouteConfig, Router, ShardState};
use busytime_server::protocol::report_line;
use busytime_server::{
    BatchRecord, BatchSession, ConnLog, ListenConfig, ListenMode, Listener, ServeConfig,
    DEFAULT_SOLUTION_CACHE,
};

use crate::config::{self, Shape, Traffic, Workload};
use crate::drive::{exchange, healthz, payload};
use crate::gen::Generator;
use crate::stats::{self, Interval};
use crate::verify::{self, Exchange};
use crate::Metric;

/// One recorded span; times are nanoseconds since the tracer's epoch.
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: u64,
    end: u64,
}

/// In-memory span recorder. Disabled, it records nothing and only runs
/// the wrapped calls — the untraced replay that prices tracing itself.
struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span whose end is recorded later with [`Tracer::close`].
    fn open(&self) -> (u64, u64) {
        if !self.on {
            return (0, 0);
        }
        (self.next.fetch_add(1, Ordering::Relaxed), self.now())
    }

    fn close(
        &self,
        (id, start): (u64, u64),
        name: &'static str,
        parent: Option<u64>,
        request: u64,
    ) {
        if !self.on {
            return;
        }
        let end = self.now();
        self.spans.lock().expect("span log").push(Span {
            id,
            parent,
            name,
            request,
            start,
            end,
        });
    }

    fn span<R>(&self, name: &'static str, parent: u64, request: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open();
        let out = f();
        self.close(open, name, Some(parent), request);
        out
    }

    /// Self time per span name: (total ns, calls).
    fn self_times(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let spans = self.spans.lock().expect("span log");
        let index: std::collections::HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let intervals: Vec<Interval> = spans
            .iter()
            .map(|s| Interval {
                start: s.start,
                end: s.end,
                parent: s.parent.and_then(|p| index.get(&p).copied()),
            })
            .collect();
        let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, own) in spans.iter().zip(stats::self_times(&intervals)) {
            let e = out.entry(s.name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        out
    }

    fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span log").iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.name, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// One record between the prepare and settle halves of a chunk.
struct Item {
    root: (u64, u64),
    request: u64,
    id: Option<String>,
    inst: busytime_core::Instance,
    canon: CanonicalInstance,
    cache: usize,
    fingerprint: SolveFingerprint,
    options: SolveOptions,
    hit: Option<SolveReport>,
}

/// Counts from one replay.
#[derive(Default)]
struct Replay {
    records: usize,
    wall: Duration,
    parse_fast: usize,
    lookups: usize,
    hits: usize,
    bytes_out: usize,
    solved: usize,
    /// Σ ms of the solve phases, by name.
    phases: BTreeMap<&'static str, f64>,
    failed: usize,
}

/// The engine's chunk pipeline, call by call: parse → instance →
/// canonical → lookup on the submitting thread; detect → solve → insert
/// on the pool; serialize in input order. `lines[k]` is record `base + k`
/// of the sequence (its span request id), answered from cache
/// `(base + k) % caches.len()` — one cache per shard, records spread
/// round-robin as per-record routing spreads them.
fn replay(
    lines: &[String],
    base: usize,
    chunk: usize,
    width: usize,
    caches: &[SolutionCache],
    tracer: &Tracer,
) -> Replay {
    let registry = SolverRegistry::with_defaults();
    let exec = Executor::global();
    let mut r = Replay::default();
    let t0 = Instant::now();
    for (c, block) in lines.chunks(chunk).enumerate() {
        let mut items = Vec::with_capacity(block.len());
        for (k, line) in block.iter().enumerate() {
            let i = base + c * chunk + k;
            let request = i as u64;
            let root = tracer.open();
            let record =
                tracer.span(
                    "protocol.parse",
                    root.0,
                    request,
                    || match BatchRecord::parse_fast(line) {
                        Some(record) => Ok((record, true)),
                        None => BatchRecord::parse_owned(line).map(|r| (r, false)),
                    },
                );
            let Ok((record, fast)) = record else {
                r.failed += 1;
                continue;
            };
            r.parse_fast += usize::from(fast);
            let inst = tracer.span("instances.generate", root.0, request, || record.instance());
            let canon = tracer.span("memo.canonical", root.0, request, || {
                CanonicalInstance::of(&inst)
            });
            let options = record.apply_overrides(SolveOptions::default());
            let fingerprint = SolveFingerprint {
                solver: "auto".into(),
                seed: options.seed,
                decompose: options.decompose,
            };
            let cache = i % caches.len();
            let hit = tracer.span("memo.lookup", root.0, request, || {
                caches[cache].lookup(&canon, &fingerprint)
            });
            r.lookups += 1;
            r.hits += usize::from(hit.is_some());
            items.push(Item {
                root,
                request,
                id: record.id.clone(),
                inst,
                canon,
                cache,
                fingerprint,
                options,
                hit,
            });
        }
        let misses: Vec<&Item> = items.iter().filter(|it| it.hit.is_none()).collect();
        let submitted = (tracer.now(), Instant::now());
        let solved = exec.par_map_with(width, &misses, |item| {
            let queue = (tracer.open().0, submitted.0);
            tracer.close(queue, "pool.queue", Some(item.root.0), item.request);
            let features = tracer.span("features.detect", item.root.0, item.request, || {
                InstanceFeatures::detect(&item.inst)
            });
            let report = tracer.span("solve", item.root.0, item.request, || {
                SolveRequest::new(&item.inst)
                    .options(item.options.clone())
                    .features(features)
                    .solve_with(&registry)
            });
            if let Ok(report) = &report {
                tracer.span("memo.insert", item.root.0, item.request, || {
                    caches[item.cache].insert(&item.canon, &item.fingerprint, report)
                });
            }
            report
        });
        let mut solved = solved.into_iter();
        for (line_no, item) in items.iter().enumerate() {
            let fresh;
            let report = match &item.hit {
                Some(report) => report,
                None => match solved.next().expect("one result per miss") {
                    Ok(report) => {
                        r.solved += 1;
                        for phase in &report.phases {
                            *r.phases.entry(phase.name).or_default() +=
                                phase.duration.as_secs_f64() * 1e3;
                        }
                        fresh = report;
                        &fresh
                    }
                    Err(_) => {
                        r.failed += 1;
                        tracer.close(item.root, "record", None, item.request);
                        continue;
                    }
                },
            };
            let line = tracer.span("protocol.serialize", item.root.0, item.request, || {
                report_line(line_no + 1, item.id.as_deref(), report)
            });
            r.bytes_out += line.len() + 1;
            tracer.close(item.root, "record", None, item.request);
        }
        r.records += items.len();
    }
    r.wall = t0.elapsed();
    r
}

impl Replay {
    fn merge(&mut self, part: Replay) {
        self.records += part.records;
        self.wall += part.wall;
        self.parse_fast += part.parse_fast;
        self.lookups += part.lookups;
        self.hits += part.hits;
        self.bytes_out += part.bytes_out;
        self.solved += part.solved;
        self.failed += part.failed;
        for (k, v) in part.phases {
            *self.phases.entry(k).or_default() += v;
        }
    }
}

fn caches(n: usize) -> Vec<SolutionCache> {
    (0..n)
        .map(|_| SolutionCache::new(DEFAULT_SOLUTION_CACHE))
        .collect()
}

/// What one serving probe measured.
#[derive(Default)]
struct Probe {
    total_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    first_byte_ms: Vec<f64>,
    healthz_ms: Vec<f64>,
    outbox_max: f64,
    attempted: usize,
    failed: usize,
}

/// Waves sent by each serving probe after the hot-set warm-up.
const PROBE_WAVES: u64 = 40;
/// Healthz round trips the listener probe collects at least, so p99 has
/// ten samples beyond it.
const PROBE_HEALTHZ: usize = 1000;

/// Sends the socket-mixed warm-up and `PROBE_WAVES` waves to `addr`,
/// verifying every answer; with `health`, a second client probes
/// `/healthz` for as long as the waves run.
fn probe(addr: &str, gen: &Generator, health: bool) -> Probe {
    let done = AtomicBool::new(false);
    let mut p = Probe::default();
    let mut waves = gen.warmup();
    let warm = waves.len();
    waves.extend((0..PROBE_WAVES).map(|i| gen.request(i)));
    let mut received = Vec::new();
    std::thread::scope(|scope| {
        let prober = health.then(|| {
            scope.spawn(|| {
                let (mut ms, mut outbox, mut errors) = (Vec::new(), 0f64, 0usize);
                while (!done.load(Ordering::SeqCst) || ms.len() < PROBE_HEALTHZ) && errors < 100 {
                    match healthz(addr) {
                        Ok((body, t)) => {
                            ms.push(t);
                            let bytes = body.get("outbox_bytes").and_then(|v| v.as_i64());
                            outbox = outbox.max(bytes.unwrap_or(0) as f64);
                        }
                        Err(_) => errors += 1,
                    }
                }
                (ms, outbox)
            })
        });
        for (k, lines) in waves.iter().enumerate() {
            match exchange(addr, &payload(lines)) {
                Ok((text, total, connect, first)) => {
                    if k >= warm {
                        p.total_ms.push(total);
                        p.connect_ms.push(connect);
                        p.first_byte_ms.push(first);
                    }
                    received.push(text);
                }
                Err(e) => received.push(format!("transport error: {e}")),
            }
        }
        done.store(true, Ordering::SeqCst);
        if let Some(prober) = prober {
            (p.healthz_ms, p.outbox_max) = prober.join().expect("healthz prober panicked");
        }
    });
    let exchanges: Vec<Exchange> = waves
        .iter()
        .zip(&received)
        .map(|(s, r)| Exchange {
            sent: s,
            received: r,
            gap_prefix: 0,
        })
        .collect();
    let tally = verify::verify(&exchanges);
    for problem in &tally.problems {
        eprintln!("perfbench: probe: {problem}");
    }
    p.attempted = tally.attempted;
    p.failed = tally.failed;
    p
}

fn listener(workers: Option<usize>) -> Result<Listener, String> {
    let config = ListenConfig {
        log: ConnLog::Quiet,
        ..ListenConfig::default()
    };
    let registry = Arc::new(SolverRegistry::with_defaults());
    let listener = Listener::bind(&ListenMode::Tcp("127.0.0.1:0".into()), registry, config)
        .map_err(|e| format!("in-process listener: {e}"))?;
    Ok(match workers {
        Some(w) => listener.executor(Executor::new(w)),
        None => listener,
    })
}

/// `listen --workers 2` in-process, driven like socket-mixed.
fn listener_probe(gen: &Generator) -> Result<Probe, String> {
    let server = listener(None)?;
    let addr = server
        .local_addr()
        .ok_or("listener has no address")?
        .to_string();
    let token = server.shutdown_token();
    let handle = std::thread::spawn(move || server.run());
    let p = probe(&addr, gen, true);
    token.cancel();
    handle
        .join()
        .map_err(|_| "listener panicked")?
        .map_err(|e| e.to_string())?;
    Ok(p)
}

/// `route` over two one-worker listeners in-process: the probe plus the
/// records each shard answered and the router's retries.
fn router_probe(gen: &Generator) -> Result<(Probe, Vec<usize>, usize), String> {
    let mut shards = Vec::new();
    let mut states = Vec::new();
    for i in 0..2 {
        let shard = listener(Some(1))?;
        let addr = shard
            .local_addr()
            .ok_or("shard has no address")?
            .to_string();
        states.push(ShardState::new(i, addr));
        let token = shard.shutdown_token();
        shards.push((token, std::thread::spawn(move || shard.run())));
    }
    let config = RouteConfig {
        quiet: true,
        ..RouteConfig::default()
    };
    let router = Router::bind(&ListenMode::Tcp("127.0.0.1:0".into()), states, config)
        .map_err(|e| format!("in-process router: {e}"))?;
    let addr = router
        .local_addr()
        .ok_or("router has no address")?
        .to_string();
    let token = router.shutdown_token();
    let handle = std::thread::spawn(move || router.run());
    let p = probe(&addr, gen, false);
    token.cancel();
    let report = handle
        .join()
        .map_err(|_| "router panicked")?
        .map_err(|e| e.to_string())?;
    let mut per_shard = Vec::new();
    for (token, handle) in shards {
        token.cancel();
        let report = handle
            .join()
            .map_err(|_| "shard panicked")?
            .map_err(|e| e.to_string())?;
        per_shard.push(report.records);
    }
    Ok((p, per_shard, report.retried))
}

/// Max log-log slope of FirstFit's schedule time between adjacent sizes
/// of a uniform ladder (min of two timings per size).
fn first_fit_slope(seed: u64) -> f64 {
    let points: Vec<(f64, f64)> = [10_000usize, 20_000, 40_000, 80_000]
        .iter()
        .map(|&n| {
            let mut spec = GeneratorSpec::new(Family::Uniform);
            spec.n = n;
            spec.seed = seed;
            let inst = spec.generate();
            let best = (0..2)
                .map(|_| {
                    let t = Instant::now();
                    std::hint::black_box(FirstFit::paper().schedule(std::hint::black_box(&inst)))
                        .expect("FirstFit schedules every instance");
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            (n as f64, best)
        })
        .collect();
    stats::loglog_slopes(&points)
        .into_iter()
        .fold(f64::NEG_INFINITY, f64::max)
}

/// Sequential over forked solve time of one many-component record
/// (bounded, 40k jobs), min of three each.
fn fork_speedup(seed: u64) -> f64 {
    let mut spec = GeneratorSpec::new(Family::Bounded);
    spec.n = 40_000;
    spec.seed = seed;
    let inst = spec.generate();
    let registry = SolverRegistry::with_defaults();
    let time = |policy| {
        (0..3)
            .map(|_| {
                let t = Instant::now();
                SolveRequest::new(&inst)
                    .parallel(policy)
                    .solve_with(&registry)
                    .expect("bounded record solves");
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    time(ParallelPolicy::Off) / time(ParallelPolicy::On)
}

/// 1 − Σ(layer self time) / wall of `BatchSession::run` over the same
/// records, both one worker wide so neither sum counts parallel time.
fn unattributed(lines: &[String], chunk: usize) -> f64 {
    let registry = SolverRegistry::with_defaults();
    let config = ServeConfig {
        workers: 1,
        chunk_size: chunk,
        ..ServeConfig::default()
    };
    let input = payload(lines);
    let session_wall = (0..2)
        .map(|_| {
            let t = Instant::now();
            BatchSession::new(&registry, &config)
                .run(&input[..], std::io::sink())
                .expect("in-memory session runs");
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    let layers = (0..2)
        .map(|_| {
            let tracer = Tracer::new(true);
            replay(lines, 0, chunk, 1, &caches(1), &tracer);
            tracer
                .self_times()
                .iter()
                // the root's self time is glue, and queue wait overlaps
                // other records' work on the one worker
                .filter(|(name, _)| !matches!(**name, "record" | "pool.queue"))
                .map(|(_, (ns, _))| *ns as f64 / 1e9)
                .sum::<f64>()
        })
        .fold(f64::INFINITY, f64::min);
    1.0 - layers / session_wall
}

pub fn run(w: &Workload, seed: u64, seconds: f64, out: &str) -> Result<bool, String> {
    Executor::configure_global(w.workers.max(1));
    let gen = Generator::new(w, seed);
    let chunk = match w.traffic {
        Traffic::Stream { chunk, .. } => chunk,
        _ => w.records_per_request(),
    };
    let shards = if w.shape == Shape::Route { w.spawn } else { 1 };

    // warm-up (the hot set, or one small record) fills caches untimed;
    // then the workload's own records, in sending order, for a third of
    // the run, generated a block ahead so generation stays outside spans
    let warm: Vec<String> = gen.warmup().into_iter().flatten().collect();
    let warmed = |set: &[SolutionCache]| {
        replay(&warm, 0, chunk, w.workers, set, &Tracer::new(false));
    };
    let budget = Duration::from_secs_f64(seconds / 3.0);
    let block = w.cycle() * w.records_per_request();
    let mut lines: Vec<String> = Vec::new();
    let tracer = Tracer::new(true);
    let sampling = AtomicBool::new(true);
    let cache_set = caches(shards);
    warmed(&cache_set);
    let (traced, busy) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let exec = Executor::global();
            let (mut sum, mut n) = (0.0, 0usize);
            while sampling.load(Ordering::SeqCst) {
                let s = exec.stats();
                sum += s.busy as f64 / s.workers.max(1) as f64;
                n += 1;
                std::thread::sleep(Duration::from_millis(1));
            }
            (sum / n.max(1) as f64, n)
        });
        let mut total = Replay::default();
        let mut next = 0u64;
        while total.wall < budget {
            let start = lines.len();
            while lines.len() - start < block {
                lines.extend(gen.request(next));
                next += 1;
            }
            total.merge(replay(
                &lines[start..],
                start,
                chunk,
                w.workers,
                &cache_set,
                &tracer,
            ));
        }
        sampling.store(false, Ordering::SeqCst);
        (total, sampler.join().expect("sampler panicked"))
    });
    let untraced_caches = caches(shards);
    warmed(&untraced_caches);
    let untraced = replay(
        &lines,
        0,
        chunk,
        w.workers,
        &untraced_caches,
        &Tracer::new(false),
    );

    let self_times = tracer.self_times();
    let mean_us = |name: &str| {
        self_times
            .get(name)
            .map_or(f64::NAN, |(ns, n)| *ns as f64 / 1e3 / *n as f64)
    };
    let phase_ms =
        |name: &str| traced.phases.get(name).copied().unwrap_or(0.0) / traced.solved.max(1) as f64;

    // large records run one at a time on one worker: four already take
    // about a second
    let sample = if matches!(w.traffic, Traffic::Large { .. }) {
        4
    } else {
        512
    };
    let unattributed_lines = &lines[..lines.len().min(sample)];
    let unattributed = unattributed(unattributed_lines, chunk);
    let probe_gen = Generator::new(&config::load("socket-mixed")?, seed);
    let direct = listener_probe(&probe_gen)?;
    let (routed, per_shard, retried) = router_probe(&probe_gen)?;
    let slope = first_fit_slope(seed);
    let speedup = fork_speedup(seed);

    let mut healthz = direct.healthz_ms.clone();
    healthz.sort_by(f64::total_cmp);
    let skew = *per_shard.iter().max().unwrap_or(&0) as f64
        / (*per_shard.iter().min().unwrap_or(&0)).max(1) as f64;
    let records = traced.records as f64;
    let metrics = vec![
        Metric::new(
            "protocol.parse_us",
            mean_us("protocol.parse"),
            "us",
            traced.records,
        ),
        Metric::new(
            "protocol.fast_path_ratio",
            traced.parse_fast as f64 / records,
            "ratio",
            traced.records,
        ),
        Metric::new(
            "protocol.serialize_us",
            mean_us("protocol.serialize"),
            "us",
            traced.records,
        ),
        Metric::new(
            "protocol.bytes_out_per_rec",
            traced.bytes_out as f64 / records,
            "B/rec",
            traced.records,
        ),
        Metric::new(
            "instances.generate_us",
            mean_us("instances.generate"),
            "us",
            traced.records,
        ),
        Metric::new(
            "features.detect_us",
            mean_us("features.detect"),
            "us",
            traced.solved,
        ),
        Metric::new(
            "memo.canonical_us",
            mean_us("memo.canonical"),
            "us",
            traced.records,
        ),
        Metric::new(
            "memo.lookup_us",
            mean_us("memo.lookup"),
            "us",
            traced.lookups,
        ),
        Metric::new(
            "memo.insert_us",
            mean_us("memo.insert"),
            "us",
            traced.solved,
        ),
        Metric::new(
            "memo.hit_ratio",
            traced.hits as f64 / traced.lookups.max(1) as f64,
            "ratio",
            traced.lookups,
        ),
        Metric::new(
            "pool.queue_wait_us",
            mean_us("pool.queue"),
            "us",
            traced.solved,
        ),
        Metric::new("pool.busy_ratio", busy.0, "ratio", busy.1),
        Metric::new("pool.fork_speedup", speedup, "x", 3),
        Metric::new(
            "solve.schedule_ms",
            phase_ms("schedule"),
            "ms",
            traced.solved,
        ),
        Metric::new("solve.bound_ms", phase_ms("bound"), "ms", traced.solved),
        Metric::new(
            "solve.validate_ms",
            phase_ms("validate"),
            "ms",
            traced.solved,
        ),
        Metric::new(
            "solve.total_ms",
            mean_us("solve") / 1e3,
            "ms",
            traced.solved,
        ),
        Metric::new("algo.first_fit_slope", slope, "slope", 4),
        Metric::new(
            "engine.unattributed_ratio",
            unattributed,
            "ratio",
            unattributed_lines.len(),
        ),
        Metric::new(
            "listener.connect_ms",
            stats::median(&direct.connect_ms),
            "ms",
            direct.connect_ms.len(),
        ),
        Metric::new(
            "listener.first_byte_ms",
            stats::median(&direct.first_byte_ms),
            "ms",
            direct.first_byte_ms.len(),
        ),
        Metric::new(
            "listener.healthz_p99_ms",
            stats::percentile(&healthz, 0.99).unwrap_or(f64::NAN),
            "ms",
            healthz.len(),
        ),
        Metric::new(
            "listener.outbox_bytes_max",
            direct.outbox_max,
            "B",
            healthz.len(),
        ),
        Metric::new(
            "router.hop_ms",
            stats::median(&routed.total_ms) - stats::median(&direct.total_ms),
            "ms",
            routed.total_ms.len(),
        ),
        Metric::new("router.shard_skew", skew, "ratio", per_shard.iter().sum()),
        Metric::new("router.retried", retried as f64, "count", 1),
        Metric::new(
            "trace.overhead_ratio",
            untraced.wall.as_secs_f64() / traced.wall.as_secs_f64(),
            "ratio",
            traced.records,
        ),
    ];

    std::fs::create_dir_all(out).map_err(|e| format!("{out}: {e}"))?;
    let dump = std::path::Path::new(out).join(format!("trace-{}.jsonl", w.name));
    tracer
        .dump(&dump)
        .map_err(|e| format!("{}: {e}", dump.display()))?;

    crate::print_table(
        &format!(
            "{} (seed {seed}, traced; spans in {})",
            w.name,
            dump.display()
        ),
        &metrics,
    );
    let attempted = traced.records + untraced.records + direct.attempted + routed.attempted;
    let failed = traced.failed + untraced.failed + direct.failed + routed.failed;
    let all: Vec<&Metric> = metrics.iter().collect();
    println!(
        "{}",
        crate::result_line(failed == 0, attempted, failed, &all)
    );
    Ok(failed == 0)
}
