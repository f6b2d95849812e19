//! The router front-end: accept client batches on one endpoint, fan
//! records out across the shard fleet, fan responses back **in input
//! order**, and merge the shards' summary trailers into one.
//!
//! The wire contract is exactly the listener's: NDJSON in, one response
//! line per record in input order, one [`BatchSummary`] trailer line per
//! connection, `GET /healthz` answered on the same port (sniffed on
//! NDJSON endpoints, routed in `--http` mode). A client cannot tell a
//! router from a single `listen` process — except that the trailer's
//! `workers` field now sums the fleet.
//!
//! The router runs on the listener's connection core
//! ([`busytime_server::reactor`]): the same reactor threads accept,
//! sniff, reject at capacity, speak HTTP and drain, and every client
//! batch is one non-blocking routed session on them. A session's shard
//! streams are registered on the poller of its client connection, so a
//! shard answer pumps the session exactly like a client byte does. Shard
//! dials run on a small executor owned by the router and land through the
//! same completion wake the listener's solves use; no thread is spawned
//! per connection or per shard stream.
//!
//! Ordering is restored per connection by a sequence number assigned at
//! dispatch: shard responses are restamped with the client's original
//! `line` via [`reline_output`] (no re-parse, no re-serialize) and held
//! in a small reorder buffer until every earlier record has answered.
//! Each shard stream is a batch of its own on the shard, numbered 1, 2,
//! 3, … in send order (the router never forwards blank lines), and a
//! shard answer is accepted only when its `line` is the one that stream
//! expects next — so a shard's connection-level rejection (`line: 0`)
//! can never be mistaken for a record's answer.
//!
//! Failure model: a broken shard stream, or a shard that dies mid-batch,
//! orphans its unanswered records; orphans are re-dispatched to a healthy
//! shard with their original `line` stamps, so the client still sees every
//! record answered exactly once, in order. A shard that refuses a stream
//! at capacity is skipped by that session but not marked broken. Only
//! when no healthy shard remains, or a record has chased
//! [`RouteConfig::retry_rounds`] new shards, does it answer as a
//! structured error line.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use busytime_core::pool::Executor;
use busytime_core::solve::REPORT_SCHEMA_VERSION;
use busytime_server::protocol::error_line;
use busytime_server::reactor::{
    Backend, Endpoint, Gauges, Session, SessionLink, Watched, DEFAULT_MAX_CONNS,
    DEFAULT_OUTBOX_LIMIT,
};
use busytime_server::{
    reline_output, BatchRecord, BatchSummary, ListenConfig, ListenMode, ServeError,
};

use crate::shard::{connect, lock, pick, ShardState};

/// Router configuration. [`Default`] is ready for production use.
#[derive(Clone, Debug)]
pub struct RouteConfig {
    /// Max concurrent client connections (`0` = 64). Beyond it, new
    /// connections get a polite structured rejection.
    pub max_conns: usize,
    /// Pin each client connection to one shard instead of balancing
    /// per record. Sticky mode keeps a shard's feature cache hot for a
    /// client that re-sends similar instances; per-record mode (default)
    /// spreads one big batch across the whole fleet.
    pub sticky: bool,
    /// How often the background prober refreshes every shard's
    /// `/healthz` snapshot.
    pub probe_interval: Duration,
    /// Per-probe budget (connect + request + response).
    pub probe_timeout: Duration,
    /// Budget for opening a shard connection on the dispatch path.
    pub connect_timeout: Duration,
    /// Write timeout towards clients and shards; a peer that takes no
    /// bytes for this long while some are owed to it is treated as gone.
    pub write_timeout: Duration,
    /// How many times an orphaned record may chase a new shard before
    /// answering as an error.
    pub retry_rounds: usize,
    /// Suppress per-connection stderr log lines.
    pub quiet: bool,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            max_conns: 0,
            sticky: false,
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(60),
            retry_rounds: 3,
            quiet: false,
        }
    }
}

impl RouteConfig {
    /// The connection cap a shard behind this router needs so that it
    /// never refuses the router's own streams: one stream per routed
    /// connection, as many again for streams still closing while a retry
    /// opens another, and two for health probes. `route --spawn` passes
    /// it to every child as `--max-conns`.
    pub fn shard_max_conns(&self) -> usize {
        let routed = if self.max_conns == 0 {
            DEFAULT_MAX_CONNS
        } else {
            self.max_conns
        };
        2 * routed + 2
    }
}

/// Aggregate statistics over a router's lifetime, returned by
/// [`Router::run`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RouteReport {
    /// Client connections served (health probes not included).
    pub connections: usize,
    /// Connections rejected at capacity.
    pub rejected: usize,
    /// Records dispatched to shards.
    pub records: usize,
    /// Records re-dispatched after a shard broke under them.
    pub retried: usize,
    /// Records answered with a router-side error because no healthy shard
    /// remained.
    pub failed: usize,
    /// One-shot `GET /healthz` probes answered on the NDJSON endpoint.
    pub health_probes: usize,
}

impl std::fmt::Display for RouteReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "router: {} connections ({} rejected) | {} records routed ({} retried, {} failed)",
            self.connections, self.rejected, self.records, self.retried, self.failed,
        )?;
        if self.health_probes > 0 {
            write!(f, " | health probes: {}", self.health_probes)?;
        }
        Ok(())
    }
}

/// How long shard streams keep draining after shutdown is signalled —
/// in-flight solves finish cooperatively on the shard, and cutting their
/// answers off sooner would fail records for no reason.
const SHARD_DRAIN_BUDGET: Duration = Duration::from_secs(10);

/// Threads of the router's dialer: shard connects block (up to
/// [`RouteConfig::connect_timeout`]), so they run here, never on a
/// reactor.
const DIAL_THREADS: usize = 2;

/// Per-service read cap on one shard stream; level-triggered polling
/// re-reports the rest.
const STREAM_READ_BUDGET: usize = 64 * 1024;

const NO_SHARD: &str = "no healthy shard available to solve this record";

/// Everything the router's sessions share.
struct RouteShared {
    shards: Vec<Arc<ShardState>>,
    config: RouteConfig,
    shutdown: CancelToken,
    dialer: Executor,
}

/// The shard-routing front-end; see the [module docs](self) for the wire
/// and failure contracts.
pub struct Router {
    endpoint: Endpoint,
    shards: Vec<Arc<ShardState>>,
    config: RouteConfig,
    shutdown: CancelToken,
}

impl Router {
    /// Binds `mode`'s endpoint in front of `shards`. The socket is open
    /// once this returns; clients are served once [`Router::run`] starts.
    pub fn bind(
        mode: &ListenMode,
        shards: Vec<Arc<ShardState>>,
        config: RouteConfig,
    ) -> std::io::Result<Router> {
        if shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one shard",
            ));
        }
        Ok(Router {
            endpoint: Endpoint::bind(mode)?,
            shards,
            config,
            shutdown: CancelToken::never(),
        })
    }

    /// The actually-bound TCP address (resolves `:0` ephemeral ports);
    /// `None` for Unix-domain endpoints.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.endpoint.local_addr()
    }

    /// A URL-ish description of the bound endpoint.
    pub fn endpoint(&self) -> String {
        self.endpoint.url()
    }

    /// The shutdown token: cancel it (from a signal handler thread, a
    /// supervisor, a test) to drain and stop the router.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Accepts and routes connections until the shutdown token fires,
    /// then drains every live connection and returns the aggregate
    /// report. The caller's thread runs reactor 0; a background prober
    /// keeps every shard's health snapshot fresh for the whole run.
    pub fn run(self) -> std::io::Result<RouteReport> {
        let listen = ListenConfig {
            max_conns: self.config.max_conns,
            write_timeout: self.config.write_timeout,
            ..ListenConfig::default()
        };
        let shared = Arc::new(RouteShared {
            shards: self.shards,
            config: self.config,
            shutdown: self.shutdown.clone(),
            dialer: Executor::new(DIAL_THREADS),
        });
        let backend = Arc::new(RouteBackend {
            shared: Arc::clone(&shared),
            report: Mutex::new(RouteReport::default()),
        });
        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_prober(&shared))
        };
        let counts = self
            .endpoint
            .serve(Arc::clone(&backend), &listen, self.shutdown.clone());
        self.shutdown.cancel();
        let _ = prober.join();
        let counts = counts?;
        let mut report = lock(&backend.report).clone();
        report.connections = counts.connections;
        report.rejected = counts.rejected;
        report.health_probes = counts.health_probes;
        Ok(report)
    }
}

/// The background health loop: one `/healthz` round trip per shard per
/// interval. A spawned shard that has not reported an address yet is
/// skipped without charging its failure streak — not-born-yet is not
/// unhealthy.
fn run_prober(shared: &RouteShared) {
    while !shared.shutdown.is_cancelled() {
        for shard in &shared.shards {
            if shared.shutdown.is_cancelled() {
                return;
            }
            if shard.addr().is_empty() {
                continue;
            }
            let _ = shard.check(shared.config.probe_timeout);
        }
        let mut slept = Duration::ZERO;
        while slept < shared.config.probe_interval && !shared.shutdown.is_cancelled() {
            let slice = Duration::from_millis(25).min(shared.config.probe_interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// The router's backend on the connection core.
struct RouteBackend {
    shared: Arc<RouteShared>,
    /// Record totals; the core fills in the connection counts at the end.
    report: Mutex<RouteReport>,
}

impl RouteBackend {
    fn log(&self, line: String) {
        if !self.shared.config.quiet {
            eprintln!("{line}");
        }
    }
}

impl Backend for RouteBackend {
    type Session = RouteSession;

    fn open(&self, link: SessionLink) -> RouteSession {
        RouteSession::new(Arc::clone(&self.shared), link)
    }

    /// Fleet-level status plus the summed capacity picture from the
    /// latest shard snapshots, and the core's connection gauges.
    fn healthz(&self, gauges: &Gauges) -> String {
        let shards = &self.shared.shards;
        let healthy = shards.iter().filter(|s| s.is_healthy()).count();
        let status = if healthy == shards.len() {
            "ok"
        } else if healthy > 0 {
            "degraded"
        } else {
            "down"
        };
        let (mut workers, mut busy, mut queue) = (0usize, 0usize, 0usize);
        for shard in shards {
            if let Some(snap) = shard.snapshot() {
                workers += snap.workers;
                busy += snap.busy_workers;
                queue += snap.queue_depth;
            }
        }
        format!(
            "{{\"schema_version\": {REPORT_SCHEMA_VERSION}, \"status\": \"{status}\", \
             \"role\": \"router\", \"shards\": {}, \"healthy_shards\": {healthy}, \
             \"workers\": {workers}, \"busy_workers\": {busy}, \"queue_depth\": {queue}, \
             \"active_connections\": {}, \"uptime_ms\": {}, \"open_connections\": {}, \
             \"io_threads\": {}, \"outbox_bytes\": {}}}\n",
            shards.len(),
            gauges.active_connections,
            gauges.uptime_ms,
            gauges.open_connections,
            gauges.io_threads,
            gauges.outbox_bytes,
        )
    }

    fn at_capacity(&self, max_conns: usize) -> String {
        format!("router at capacity ({max_conns} connections); retry later")
    }

    fn settle(&self, conn: usize, peer: &str, session: &RouteSession) {
        let stats = &session.stats;
        {
            let mut report = lock(&self.report);
            report.records += stats.records;
            report.retried += stats.retried;
            report.failed += stats.failed;
        }
        self.log(format!(
            "conn {conn} ({peer}): {} records routed ({} retried, {} failed) \
             across {} healthy shards",
            stats.records,
            stats.retried,
            stats.failed,
            self.shared.shards.iter().filter(|s| s.is_healthy()).count(),
        ));
    }

    fn abort(&self, conn: usize, peer: &str, reason: &str) {
        self.log(format!("conn {conn} ({peer}): aborted: {reason}"));
    }
}

// ---------------------------------------------------------------------------
// The routed batch session: fan-out, in-order fan-in, orphan retry,
// merged trailer
// ---------------------------------------------------------------------------

/// Per-session counters bubbled up into the [`RouteReport`].
#[derive(Clone, Debug, Default)]
struct SessionStats {
    records: usize,
    retried: usize,
    failed: usize,
}

/// One client record in flight: its fan-in slot, its original input line
/// (for restamping), and the raw bytes to (re)send.
#[derive(Clone, Debug)]
struct Pending {
    /// 0-based dispatch order — the fan-in emission key.
    seq: usize,
    /// 1-based client input line — what the response must be stamped
    /// with, wherever it is solved.
    orig_line: usize,
    /// The record's id, for router-side error lines.
    id: Option<String>,
    /// The record line as received (no trailing newline).
    raw: String,
    /// How many shard streams this record was orphaned from so far.
    retries: usize,
}

/// The reorder buffer: responses arrive tagged with their dispatch `seq`
/// and are written strictly in `seq` order.
struct Fanin<W: Write> {
    next: usize,
    ready: BTreeMap<usize, String>,
    writer: W,
}

impl<W: Write> Fanin<W> {
    fn new(writer: W) -> Self {
        Fanin {
            next: 0,
            ready: BTreeMap::new(),
            writer,
        }
    }

    /// Stages one response and writes the contiguous prefix.
    fn push(&mut self, seq: usize, text: String) {
        self.ready.insert(seq, text);
        while let Some(text) = self.ready.remove(&self.next) {
            let _ = writeln!(self.writer, "{text}");
            self.next += 1;
        }
    }

    /// Defensive hole-fill: any dispatched seq that never produced a
    /// response (a bug or an unwinnable race, not a normal path) answers
    /// as a structured error so the client never counts short.
    fn finish(&mut self, total: usize, meta: &[(usize, Option<String>)]) -> usize {
        let mut holes = 0;
        for (seq, (orig_line, id)) in meta.iter().enumerate().take(total).skip(self.next) {
            self.ready.entry(seq).or_insert_with(|| {
                holes += 1;
                error_line(*orig_line, id.as_deref(), "record lost in routing")
            });
        }
        if total > self.next {
            // re-run the contiguous flush from wherever it stalled
            let restart = self.ready.remove(&self.next);
            if let Some(text) = restart {
                self.push(self.next, text);
            }
        }
        holes
    }
}

/// Answer counts from shards that died before sending a trailer, so the
/// merged trailer still accounts for every record.
#[derive(Default)]
struct Untallied {
    answered: usize,
    answered_ok: usize,
}

/// Where shard answers go: the client's reorder buffer and the trailers
/// to merge.
struct Gather {
    fanin: Fanin<Vec<u8>>,
    trailers: Vec<BatchSummary>,
}

/// How a shard stream ended.
#[derive(Clone, Copy, PartialEq, Eq)]
enum End {
    /// The shard closed it (after its trailer, if it finished cleanly).
    Eof,
    /// A transport error, a failed dial or a stalled write.
    Broken,
    /// The shard turned the stream away at capacity (`line: 0`).
    Refused,
    /// The shutdown drain budget ran out before the shard finished.
    Cut,
}

/// One connection to a shard: a batch of its own on the shard, whose
/// records go out as lines 1, 2, 3, … and come back in that order.
struct ShardStream {
    /// Matches the dial that opens this stream.
    id: usize,
    shard: Arc<ShardState>,
    /// `None` while the dial runs on the router's dialer.
    socket: Option<Watched>,
    /// Takes no further records; half-closed once the outbox is flushed.
    closing: bool,
    write_shut: bool,
    outbox: Vec<u8>,
    sent: usize,
    /// When a write last made progress, or the outbox last became
    /// non-empty (the write-timeout clock).
    last_progress: Instant,
    /// Records sent and not yet answered, in send order.
    pending: VecDeque<Pending>,
    /// The `line` the shard will stamp on its next answer.
    next_line: usize,
    inbuf: Vec<u8>,
    got_trailer: bool,
    answered: usize,
    answered_ok: usize,
}

impl ShardStream {
    fn new(id: usize, shard: Arc<ShardState>) -> ShardStream {
        ShardStream {
            id,
            shard,
            socket: None,
            closing: false,
            write_shut: false,
            outbox: Vec::new(),
            sent: 0,
            last_progress: Instant::now(),
            pending: VecDeque::new(),
            next_line: 1,
            inbuf: Vec::new(),
            got_trailer: false,
            answered: 0,
            answered_ok: 0,
        }
    }

    /// Queues one record for the shard.
    fn send(&mut self, pending: Pending) {
        if self.outbox.len() == self.sent {
            self.last_progress = Instant::now();
        }
        self.outbox.extend_from_slice(pending.raw.as_bytes());
        self.outbox.push(b'\n');
        self.shard.note_dispatched();
        self.pending.push_back(pending);
    }

    fn unsent(&self) -> usize {
        self.outbox.len() - self.sent
    }

    /// Writes, half-closes once closing and flushed, and reads answers
    /// into `gather` — all without blocking. `Some` when the stream ended.
    fn service(&mut self, write_timeout: Duration, gather: &mut Gather) -> Option<End> {
        let mut stream = self.socket.as_ref()?.stream();
        while self.sent < self.outbox.len() {
            match stream.write(&self.outbox[self.sent..]) {
                Ok(0) => return Some(End::Broken),
                Ok(n) => {
                    self.sent += n;
                    self.last_progress = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => return Some(End::Broken),
            }
        }
        if self.sent == self.outbox.len() {
            self.outbox.clear();
            self.sent = 0;
        } else if self.last_progress.elapsed() >= write_timeout {
            return Some(End::Broken);
        }
        if self.closing && self.outbox.is_empty() && !self.write_shut {
            let _ = stream.shutdown(Shutdown::Write);
            self.write_shut = true;
        }
        let mut ended = None;
        let mut scratch = [0u8; 16 * 1024];
        let mut budget = STREAM_READ_BUDGET;
        while budget > 0 {
            match stream.read(&mut scratch) {
                Ok(0) => {
                    ended = Some(End::Eof);
                    break;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    self.inbuf.extend_from_slice(&scratch[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => {
                    ended = Some(End::Broken);
                    break;
                }
            }
        }
        if self.take_answers(gather) {
            return Some(End::Refused);
        }
        if ended.is_none() {
            let write = !self.outbox.is_empty();
            if let Some(socket) = self.socket.as_mut() {
                socket.want(true, write);
            }
        }
        ended
    }

    /// Consumes every complete line of `inbuf`: an answer whose `line` is
    /// the next expected one is restamped with its record's client line
    /// and staged into the fan-in; a trailer is kept for the merge;
    /// anything else is dropped. Returns `true` on an at-capacity
    /// rejection.
    fn take_answers(&mut self, gather: &mut Gather) -> bool {
        let mut start = 0;
        let mut refused = false;
        while let Some(at) = self.inbuf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.inbuf[start..start + at];
            start += at + 1;
            let text = String::from_utf8_lossy(line);
            let text = text.trim_end_matches('\r');
            if text.trim().is_empty() {
                continue;
            }
            let front_line = self.pending.front().map_or(0, |p| p.orig_line);
            match reline_output(text, front_line) {
                Some(relined) if relined.original_line == 0 => {
                    refused = true;
                    break;
                }
                Some(relined) if relined.original_line == self.next_line => {
                    let Some(front) = self.pending.pop_front() else {
                        continue;
                    };
                    self.next_line += 1;
                    self.shard.note_answered();
                    self.answered += 1;
                    self.answered_ok += usize::from(relined.ok);
                    gather.fanin.push(front.seq, relined.text);
                }
                // out of sequence: never a well-behaved shard's answer
                Some(_) => {}
                None => {
                    if let Ok(summary) = BatchSummary::from_json_line(text) {
                        gather.trailers.push(summary);
                        self.got_trailer = true;
                    }
                }
            }
        }
        self.inbuf.drain(..start);
        refused
    }
}

/// A finished shard dial: the stream id it opens, and the connection.
type Dialed = (usize, std::io::Result<TcpStream>);

/// One routed client batch: reads records, fans them out across healthy
/// shards, restores input order on the way back, retries orphans, and
/// yields one merged [`BatchSummary`] trailer. Never fails — every
/// failure mode degrades to structured error lines on the wire.
pub(crate) struct RouteSession {
    shared: Arc<RouteShared>,
    link: SessionLink,
    /// Dials completed on the router's dialer, by stream id.
    dialed: Arc<Mutex<Vec<Dialed>>>,
    dials: usize,
    /// Client bytes not yet forwarded; `inbuf[head..]` is unconsumed.
    inbuf: Vec<u8>,
    head: usize,
    scanned: usize,
    line_no: usize,
    eof: bool,
    /// `(orig_line, id)` per seq, for hole-filling.
    seq_meta: Vec<(usize, Option<String>)>,
    gather: Gather,
    streams: Vec<ShardStream>,
    pinned: Option<usize>,
    /// Shards that turned this session away at capacity.
    refused: Vec<usize>,
    orphans: Vec<Pending>,
    untallied: Untallied,
    stats: SessionStats,
    started: Instant,
    /// Set when shutdown is first seen; once it passes, whatever shards
    /// still owe answers as an error.
    drain_deadline: Option<Instant>,
    summary: Option<BatchSummary>,
}

impl RouteSession {
    fn new(shared: Arc<RouteShared>, link: SessionLink) -> RouteSession {
        RouteSession {
            shared,
            link,
            dialed: Arc::new(Mutex::new(Vec::new())),
            dials: 0,
            inbuf: Vec::new(),
            head: 0,
            scanned: 0,
            line_no: 0,
            eof: false,
            seq_meta: Vec::new(),
            gather: Gather {
                fanin: Fanin::new(Vec::new()),
                trailers: Vec::new(),
            },
            streams: Vec::new(),
            pinned: None,
            refused: Vec::new(),
            orphans: Vec::new(),
            untallied: Untallied::default(),
            stats: SessionStats::default(),
            started: Instant::now(),
            drain_deadline: None,
            summary: None,
        }
    }

    /// Bytes queued towards shards and not yet written.
    fn backlog(&self) -> usize {
        self.streams.iter().map(ShardStream::unsent).sum()
    }

    /// Forwards every complete client line (and, after a client EOF, a
    /// final unterminated one) while the shard backlog allows.
    fn forward(&mut self) {
        let cancelled = self.shared.shutdown.is_cancelled();
        while self.backlog() <= DEFAULT_OUTBOX_LIMIT {
            let end = match self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') {
                Some(at) => self.scanned + at + 1,
                None if self.eof && !cancelled && self.head < self.inbuf.len() => self.inbuf.len(),
                None => {
                    self.scanned = self.inbuf.len();
                    break;
                }
            };
            let line = String::from_utf8_lossy(&self.inbuf[self.head..end])
                .trim()
                .to_string();
            self.head = end;
            self.scanned = end;
            self.line_no += 1;
            if line.is_empty() {
                // blank lines consume a line number but produce no
                // response — mirroring the listener's engine exactly
                continue;
            }
            let seq = self.seq_meta.len();
            // best effort, for router-side error lines only; shards do
            // their own parsing
            let id = BatchRecord::salvage_id(&line);
            self.seq_meta.push((self.line_no, id.clone()));
            self.stats.records += 1;
            self.dispatch(Pending {
                seq,
                orig_line: self.line_no,
                id,
                raw: line,
                retries: 0,
            });
        }
        self.inbuf.drain(..self.head);
        self.scanned -= self.head;
        self.head = 0;
    }

    /// Every record the client will send has been forwarded: its input
    /// ended and `forward` found no line left (a drain drops a partial
    /// one).
    fn input_done(&self) -> bool {
        self.eof
            && self.scanned == self.inbuf.len()
            && (self.inbuf.is_empty() || self.shared.shutdown.is_cancelled())
    }

    /// `forward` would take another line now.
    fn can_forward(&self) -> bool {
        self.scanned < self.inbuf.len() && self.backlog() <= DEFAULT_OUTBOX_LIMIT
    }

    /// The shard for the next record: the pinned one in sticky mode, else
    /// the least-loaded healthy shard that has not refused this session.
    fn choose(&mut self) -> Option<Arc<ShardState>> {
        let shards = &self.shared.shards;
        if self.shared.config.sticky {
            if let Some(shard) = self
                .pinned
                .and_then(|i| shards.iter().find(|s| s.index == i))
                .filter(|s| s.is_healthy() && !self.refused.contains(&s.index))
            {
                return Some(Arc::clone(shard));
            }
        }
        let picked = if self.refused.is_empty() {
            pick(shards)
        } else {
            let willing: Vec<Arc<ShardState>> = shards
                .iter()
                .filter(|s| !self.refused.contains(&s.index))
                .cloned()
                .collect();
            // every healthy shard refused: capacity may have freed since
            pick(&willing).or_else(|| {
                self.refused.clear();
                pick(shards)
            })
        };
        if self.shared.config.sticky {
            self.pinned = picked.as_ref().map(|s| s.index);
        }
        picked
    }

    /// Queues one record on its shard's open stream, opening (dialing) a
    /// stream when the shard has none that takes records.
    fn dispatch(&mut self, pending: Pending) {
        let Some(shard) = self.choose() else {
            return self.fail(pending, NO_SHARD);
        };
        let open = self
            .streams
            .iter()
            .position(|s| s.shard.index == shard.index && !s.closing);
        let k = match open {
            Some(k) => k,
            None => {
                self.dials += 1;
                let id = self.dials;
                let dialed = Arc::clone(&self.dialed);
                let wake = self.link.waker();
                let addr = shard.addr();
                let timeout = self.shared.config.connect_timeout;
                self.shared.dialer.spawn(move || {
                    let result = connect(&addr, timeout);
                    lock(&dialed).push((id, result));
                    wake.wake();
                });
                self.streams.push(ShardStream::new(id, shard));
                self.streams.len() - 1
            }
        };
        self.streams[k].send(pending);
    }

    fn fail(&mut self, pending: Pending, why: &str) {
        self.stats.failed += 1;
        self.gather.fanin.push(
            pending.seq,
            error_line(pending.orig_line, pending.id.as_deref(), why),
        );
    }

    /// Attaches finished dials to their streams; a failed dial breaks its
    /// stream.
    fn land_dials(&mut self) {
        let landed = std::mem::take(&mut *lock(&self.dialed));
        for (id, result) in landed {
            // a stream abandoned by the drain has no use for its socket
            let Some(k) = self.streams.iter().position(|s| s.id == id) else {
                continue;
            };
            let watched = result.and_then(|stream| {
                stream.set_nodelay(true)?;
                self.link.watch(stream)
            });
            match watched {
                Ok(socket) => {
                    let stream = &mut self.streams[k];
                    stream.socket = Some(socket);
                    stream.last_progress = Instant::now();
                }
                Err(_) => {
                    let stream = self.streams.swap_remove(k);
                    self.retire(stream, End::Broken);
                }
            }
        }
    }

    /// Services every stream once, retiring the ones that ended.
    fn service_streams(&mut self) {
        let write_timeout = self.shared.config.write_timeout;
        let mut k = 0;
        while k < self.streams.len() {
            match self.streams[k].service(write_timeout, &mut self.gather) {
                None => k += 1,
                Some(end) => {
                    let stream = self.streams.swap_remove(k);
                    self.retire(stream, end);
                }
            }
        }
    }

    /// Settles an ended stream: its unanswered records become orphans,
    /// its answers without a trailer are tallied, and a shard that broke
    /// (rather than refused at capacity or ran out of drain budget) is
    /// demoted.
    fn retire(&mut self, mut stream: ShardStream, end: End) {
        let leftovers: Vec<Pending> = stream.pending.drain(..).collect();
        for _ in &leftovers {
            stream.shard.note_answered();
        }
        match end {
            End::Refused => {
                if !self.refused.contains(&stream.shard.index) {
                    self.refused.push(stream.shard.index);
                }
            }
            End::Broken => stream.shard.mark_broken(),
            // closed with records unanswered, or without its trailer
            End::Eof if !leftovers.is_empty() || !stream.got_trailer => stream.shard.mark_broken(),
            End::Eof | End::Cut => {}
        }
        if !stream.got_trailer {
            // without its trailer the shard's answers would vanish from
            // the merged accounting
            self.untallied.answered += stream.answered;
            self.untallied.answered_ok += stream.answered_ok;
        }
        self.orphans.extend(leftovers.into_iter().map(|mut p| {
            p.retries += 1;
            p
        }));
    }

    /// Re-dispatches everything reclaimed so far, in input order.
    fn redispatch(&mut self) {
        let mut orphans = std::mem::take(&mut self.orphans);
        orphans.sort_by_key(|p| p.seq);
        for pending in orphans {
            if pending.retries > self.shared.config.retry_rounds {
                self.fail(pending, NO_SHARD);
            } else {
                self.stats.retried += 1;
                self.dispatch(pending);
            }
        }
    }

    /// After the drain budget: whatever shards still owe answers as an
    /// error, and their streams close.
    fn abandon_streams(&mut self) {
        for stream in std::mem::take(&mut self.streams) {
            self.retire(stream, End::Cut);
        }
        for pending in std::mem::take(&mut self.orphans) {
            self.fail(pending, "the router shut down before a shard answered");
        }
    }

    /// The merged trailer: the shards' trailers folded together, plus a
    /// base accounting for records no shard trailer covers (router-side
    /// errors, and answers from shards that died before their trailer).
    fn merged_trailer(&self) -> BatchSummary {
        let failed = self.stats.failed;
        let tally = &self.untallied;
        let mut merged = BatchSummary {
            records: failed + tally.answered,
            solved: tally.answered_ok,
            errors: failed + (tally.answered - tally.answered_ok),
            total_cost: 0,
            total_lower_bound: 0,
            aggregate_gap: BatchSummary::aggregate_gap(0, 0),
            wall: self.started.elapsed(),
            throughput: 0.0,
            solved_per_s: 0.0,
            p50_solve: Duration::ZERO,
            p99_solve: Duration::ZERO,
            cache_hits: 0,
            cache_misses: 0,
            solution_cache_hits: 0,
            solution_cache_misses: 0,
            workers: 0,
            deadline_hits: 0,
        };
        for trailer in &self.gather.trailers {
            merged.merge(trailer);
        }
        merged
    }
}

impl Session for RouteSession {
    fn feed(&mut self, bytes: &[u8]) {
        if !self.eof {
            self.inbuf.extend_from_slice(bytes);
        }
    }

    fn finish_input(&mut self) {
        self.eof = true;
    }

    fn pump(&mut self, out: &mut Vec<u8>, allow_parse: bool) {
        if self.summary.is_some() {
            return;
        }
        if self.shared.shutdown.is_cancelled() && self.drain_deadline.is_none() {
            self.drain_deadline = Some(Instant::now() + SHARD_DRAIN_BUDGET);
        }
        self.land_dials();
        loop {
            if allow_parse {
                self.forward();
            }
            if self.input_done() {
                // the client's batch is complete: every stream ends its
                // batch on the shard, which answers its tail, sends its
                // trailer and closes
                for stream in &mut self.streams {
                    stream.closing = true;
                }
            }
            self.service_streams();
            if !self.orphans.is_empty() {
                self.redispatch();
            } else if !(allow_parse && self.can_forward()) {
                break;
            }
        }
        if self
            .drain_deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            self.abandon_streams();
        }
        if self.input_done() && self.streams.is_empty() {
            let holes = self
                .gather
                .fanin
                .finish(self.seq_meta.len(), &self.seq_meta);
            self.stats.failed += holes;
            self.summary = Some(self.merged_trailer());
        }
        out.append(&mut self.gather.fanin.writer);
    }

    fn is_done(&self) -> bool {
        self.summary.is_some()
    }

    fn has_inflight(&self) -> bool {
        self.gather.fanin.next < self.seq_meta.len()
    }

    fn summary(&self) -> Option<&BatchSummary> {
        self.summary.as_ref()
    }

    fn failure(&self) -> Option<&ServeError> {
        None
    }

    /// The drain budget's end, or the earliest stalled shard write's
    /// timeout.
    fn deadline(&self) -> Option<Instant> {
        let write_timeout = self.shared.config.write_timeout;
        self.streams
            .iter()
            .filter(|s| s.socket.is_some() && s.unsent() > 0)
            .map(|s| s.last_progress + write_timeout)
            .chain(self.drain_deadline)
            .min()
    }
}

impl Drop for RouteSession {
    /// A session cut short (its client vanished) still balances the
    /// shards' in-flight counts the dispatcher scores them by.
    fn drop(&mut self) {
        for stream in &self.streams {
            for _ in &stream.pending {
                stream.shard.note_answered();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanin_flushes_only_contiguous_prefixes() {
        let mut out = Vec::new();
        let mut fanin = Fanin::new(&mut out);
        fanin.push(2, "third".to_string());
        fanin.push(1, "second".to_string());
        assert!(fanin.writer.is_empty(), "nothing emits before seq 0 lands");
        fanin.push(0, "first".to_string());
        assert_eq!(
            String::from_utf8(fanin.writer.clone()).unwrap(),
            "first\nsecond\nthird\n"
        );
        assert_eq!(fanin.next, 3);
    }

    #[test]
    fn fanin_finish_fills_holes_with_error_lines() {
        let mut out = Vec::new();
        let mut fanin = Fanin::new(&mut out);
        fanin.push(0, "first".to_string());
        fanin.push(2, "third".to_string());
        let meta = vec![(1, None), (5, Some("b".to_string())), (9, None)];
        let holes = fanin.finish(3, &meta);
        assert_eq!(holes, 1);
        let text = String::from_utf8(fanin.writer.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "first");
        assert!(
            lines[1].contains("\"line\": 5"),
            "hole keeps its line: {}",
            lines[1]
        );
        assert!(lines[1].contains("\"id\": \"b\""));
        assert!(lines[1].contains("record lost in routing"));
        assert_eq!(lines[2], "third");
    }

    #[test]
    fn extract_id_is_best_effort() {
        assert_eq!(
            BatchRecord::salvage_id(r#"{"id": "abc", "instance": {"g": 1, "jobs": []}}"#),
            Some("abc".to_string())
        );
        assert_eq!(BatchRecord::salvage_id(r#"{"instance": {}}"#), None);
        assert_eq!(BatchRecord::salvage_id("not json"), None);
        assert_eq!(
            BatchRecord::salvage_id(r#"{"id": 7}"#),
            None,
            "non-string ids are ignored"
        );
    }

    #[test]
    fn route_report_display_matches_grep_contract() {
        let mut report = RouteReport {
            connections: 2,
            rejected: 0,
            records: 16,
            retried: 3,
            failed: 0,
            health_probes: 0,
        };
        assert_eq!(
            report.to_string(),
            "router: 2 connections (0 rejected) | 16 records routed (3 retried, 0 failed)"
        );
        report.health_probes = 4;
        assert!(report.to_string().ends_with("| health probes: 4"));
    }
}
