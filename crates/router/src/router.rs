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
//! Ordering is restored per connection by a sequence number assigned at
//! dispatch: shard responses are restamped with the client's original
//! `line` via [`reline_output`] (no re-parse, no re-serialize) and held
//! in a small reorder buffer until every earlier record has answered.
//!
//! Failure model: a broken shard write or a shard that dies mid-batch
//! orphans its unanswered records; orphans are re-dispatched to a healthy
//! shard with their original `line` stamps, so the client still sees every
//! record answered exactly once, in order. Only when no healthy shard
//! remains does a record answer as a structured error line.
//!
//! The connection front-end is a readiness loop over the [`polling`]
//! epoll shim: one thread owns the acceptor, every not-yet-classified
//! connection, capacity rejections, and the NDJSON-endpoint `GET
//! /healthz` probes — none of which cost a thread. A connection is
//! sniffed nonblockingly; only once it shows real batch traffic is it
//! switched back to blocking mode and handed a session thread running
//! the fan-out/fan-in engine below (whose shard reader threads are
//! scoped to the batch and exit with it).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use busytime_core::solve::REPORT_SCHEMA_VERSION;
use busytime_server::http::{
    read_http_body, read_http_head, write_http_response, HttpError, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use busytime_server::protocol::error_line;
use busytime_server::{reline_output, BatchRecord, BatchSummary, ListenMode};
use polling::{Event, Interest, Poller, RawFd};

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
    /// Socket read timeout — the cancellation poll cadence for client and
    /// shard readers, not a client deadline.
    pub read_timeout: Duration,
    /// Socket write timeout towards clients and shards; a peer that stops
    /// reading for this long is treated as gone.
    pub write_timeout: Duration,
    /// How many times an orphaned record may chase a new shard after the
    /// client's batch is fully read before answering as an error.
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
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(60),
            retry_rounds: 3,
            quiet: false,
        }
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

/// One accepted client connection, abstracted over the socket family.
enum RConn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl RConn {
    fn try_clone(&self) -> std::io::Result<RConn> {
        Ok(match self {
            RConn::Tcp(s) => RConn::Tcp(s.try_clone()?),
            #[cfg(unix)]
            RConn::Unix(s) => RConn::Unix(s.try_clone()?),
        })
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        // accepted sockets do not inherit the acceptor's non-blocking
        // flag on Linux — it must be set per connection
        match self {
            RConn::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            RConn::Unix(s) => s.set_nonblocking(true),
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        match self {
            RConn::Tcp(s) => s.as_raw_fd(),
            RConn::Unix(s) => s.as_raw_fd(),
        }
    }

    #[cfg(not(unix))]
    fn raw_fd(&self) -> RawFd {
        // the poller itself is Unsupported off Unix; this is never polled
        -1
    }

    fn prepare(&self, read_timeout: Duration, write_timeout: Duration) -> std::io::Result<()> {
        match self {
            RConn::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(read_timeout))?;
                s.set_write_timeout(Some(write_timeout))
            }
            #[cfg(unix)]
            RConn::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(Some(read_timeout))?;
                s.set_write_timeout(Some(write_timeout))
            }
        }
    }

    /// Half-close: the client sees EOF after the merged trailer while its
    /// own pending writes still drain.
    fn shutdown_write(&self) {
        let _ = match self {
            RConn::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            RConn::Unix(s) => s.shutdown(Shutdown::Write),
        };
    }

    fn peer(&self) -> String {
        match self {
            RConn::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| String::from("tcp-peer")),
            #[cfg(unix)]
            RConn::Unix(_) => String::from("unix-peer"),
        }
    }
}

impl Read for RConn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            RConn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            RConn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for RConn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            RConn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            RConn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            RConn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            RConn::Unix(s) => s.flush(),
        }
    }
}

/// The bound front socket, abstracted over the socket family.
enum RAcceptor {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl RAcceptor {
    fn accept(&self) -> std::io::Result<RConn> {
        match self {
            RAcceptor::Tcp(l) => l.accept().map(|(s, _)| RConn::Tcp(s)),
            #[cfg(unix)]
            RAcceptor::Unix(l, _) => l.accept().map(|(s, _)| RConn::Unix(s)),
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> RawFd {
        use std::os::fd::AsRawFd;
        match self {
            RAcceptor::Tcp(l) => l.as_raw_fd(),
            RAcceptor::Unix(l, _) => l.as_raw_fd(),
        }
    }

    #[cfg(not(unix))]
    fn raw_fd(&self) -> RawFd {
        -1
    }
}

/// Everything a connection thread needs, bundled so spawning stays tidy.
struct RouteShared {
    shards: Vec<Arc<ShardState>>,
    config: RouteConfig,
    shutdown: CancelToken,
    http: bool,
    active: AtomicUsize,
    report: Mutex<RouteReport>,
    started: Instant,
}

/// Poller key of the accept socket; client connections start at
/// [`FIRST_CONN_KEY`].
const KEY_ACCEPT: usize = 1;
const FIRST_CONN_KEY: usize = 2;

/// How long a flushed rejection or health-probe response lingers
/// half-closed waiting for the peer's FIN before the socket is dropped,
/// so the response survives in flight.
const FRONT_LINGER: Duration = Duration::from_millis(150);

/// Poll-wait granularity of the front loop — the shutdown-token and
/// linger-deadline check cadence.
const FRONT_POLL: Duration = Duration::from_millis(25);

/// Bound on rejections concurrently flushing in the front loop. A
/// rejection costs one poller slot and a ~100-byte outbox (no thread);
/// past this a connect flood is shed by dropping connections outright.
const REJECT_BACKLOG_CAP: usize = 1024;

/// How long a shard reader keeps draining responses after shutdown is
/// signalled — in-flight solves finish cooperatively on the shard, and
/// cutting their answers off here would orphan records for no reason.
const SHARD_DRAIN_BUDGET: Duration = Duration::from_secs(10);

/// The shard-routing front-end; see the [module docs](self) for the wire
/// and failure contracts.
pub struct Router {
    acceptor: RAcceptor,
    http: bool,
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
        let (acceptor, http) = match mode {
            ListenMode::Tcp(addr) => (RAcceptor::Tcp(bind_tcp(addr)?), false),
            ListenMode::Http(addr) => (RAcceptor::Tcp(bind_tcp(addr)?), true),
            #[cfg(unix)]
            ListenMode::Unix(path) => {
                let listener = UnixListener::bind(path).map_err(|e| {
                    std::io::Error::new(
                        e.kind(),
                        format!(
                            "{}: {e} (a stale socket file from an unclean \
                             shutdown must be removed first)",
                            path.display()
                        ),
                    )
                })?;
                listener.set_nonblocking(true)?;
                (RAcceptor::Unix(listener, path.clone()), false)
            }
            #[cfg(not(unix))]
            ListenMode::Unix(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this platform",
                ))
            }
        };
        Ok(Router {
            acceptor,
            http,
            shards,
            config,
            shutdown: CancelToken::never(),
        })
    }

    /// The actually-bound TCP address (resolves `:0` ephemeral ports);
    /// `None` for Unix-domain endpoints.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.acceptor {
            RAcceptor::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            RAcceptor::Unix(..) => None,
        }
    }

    /// A URL-ish description of the bound endpoint.
    pub fn endpoint(&self) -> String {
        match &self.acceptor {
            RAcceptor::Tcp(l) => {
                let scheme = if self.http { "http" } else { "tcp" };
                match l.local_addr() {
                    Ok(addr) => format!("{scheme}://{addr}"),
                    Err(_) => format!("{scheme}://?"),
                }
            }
            #[cfg(unix)]
            RAcceptor::Unix(_, path) => format!("unix://{}", path.display()),
        }
    }

    /// The shutdown token: cancel it (from a signal handler thread, a
    /// supervisor, a test) to drain and stop the router.
    pub fn shutdown_token(&self) -> CancelToken {
        self.shutdown.clone()
    }

    /// Accepts and routes connections until the shutdown token fires,
    /// then drains every live connection and returns the aggregate
    /// report. The caller's thread runs the readiness front loop; a
    /// background prober keeps every shard's health snapshot fresh for
    /// the whole run.
    pub fn run(self) -> std::io::Result<RouteReport> {
        let max_conns = if self.config.max_conns == 0 {
            64
        } else {
            self.config.max_conns
        };
        let shared = Arc::new(RouteShared {
            shards: self.shards,
            config: self.config,
            shutdown: self.shutdown,
            http: self.http,
            active: AtomicUsize::new(0),
            report: Mutex::new(RouteReport::default()),
            started: Instant::now(),
        });

        let prober = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || run_prober(&shared))
        };

        let poller = Poller::new()?;
        poller.add(self.acceptor.raw_fd(), KEY_ACCEPT, Interest::READ)?;
        let mut front = FrontEnd {
            poller,
            acceptor: &self.acceptor,
            shared: &shared,
            max_conns,
            conns: HashMap::new(),
            next_key: FIRST_CONN_KEY,
            conn_id: 0,
            rejects_open: 0,
            handles: Vec::new(),
            draining: false,
            fatal: None,
        };
        front.run();
        let FrontEnd { handles, fatal, .. } = front;

        shared.shutdown.cancel();
        for handle in handles {
            let _ = handle.join();
        }
        let _ = prober.join();
        #[cfg(unix)]
        if let RAcceptor::Unix(_, path) = &self.acceptor {
            let _ = std::fs::remove_file(path);
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(lock(&shared.report).clone()),
        }
    }
}

/// Decrements the active-connection count when its thread ends,
/// panicking or not.
struct ActiveSlot {
    shared: Arc<RouteShared>,
}

impl Drop for ActiveSlot {
    fn drop(&mut self) {
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn bind_tcp(addr: &str) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{addr}: {e}")))?;
    listener.set_nonblocking(true)?;
    Ok(listener)
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

/// What a front-loop connection is tallied as when it closes in the
/// front loop (connections that are handed off tally in their session
/// thread instead).
#[derive(Clone, Copy, PartialEq, Eq)]
enum FrontTally {
    /// A real client, still being sniffed.
    Client,
    /// A `GET /healthz` probe on the NDJSON endpoint, answered inline.
    Probe,
    /// An at-capacity rejection flushing its structured error.
    Reject,
}

/// One connection owned by the front loop: either still being sniffed
/// (waiting for its first bytes) or flushing a threadless response
/// (health probe / capacity rejection) before a lingered close.
struct FrontConn {
    conn: RConn,
    conn_id: usize,
    peer: String,
    tally: FrontTally,
    /// Bytes read while sniffing; prepended to the session's reader at
    /// hand-off so nothing is lost.
    sniffed: Vec<u8>,
    /// Response bytes to flush before closing (probe / rejection).
    outbox: Vec<u8>,
    sent: usize,
    /// `true` once the connection is in flush-then-close mode.
    flushing: bool,
    half_closed: bool,
    peer_eof: bool,
    linger_until: Option<Instant>,
    interest: (bool, bool),
}

/// The readiness front loop: acceptor, sniffing connections, threadless
/// rejections and probes. Runs on the [`Router::run`] caller's thread.
struct FrontEnd<'a> {
    poller: Poller,
    acceptor: &'a RAcceptor,
    shared: &'a Arc<RouteShared>,
    max_conns: usize,
    conns: HashMap<usize, FrontConn>,
    next_key: usize,
    conn_id: usize,
    rejects_open: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
    draining: bool,
    fatal: Option<std::io::Error>,
}

impl FrontEnd<'_> {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.shutdown.is_cancelled() && !self.draining {
                self.draining = true;
                let _ = self.poller.delete(self.acceptor.raw_fd());
                // sniffing connections hand off so their sessions can
                // write drain trailers; flushers close after one last try
                let keys: Vec<usize> = self.conns.keys().copied().collect();
                for key in keys {
                    self.service(key);
                }
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            let mut timeout = FRONT_POLL;
            let now = Instant::now();
            for state in self.conns.values() {
                if let Some(when) = state.linger_until {
                    let until = when.saturating_duration_since(now);
                    timeout = timeout.min(until.max(Duration::from_millis(1)));
                }
            }
            events.clear();
            match self.poller.wait(&mut events, Some(timeout)) {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.fatal = Some(e);
                    self.shared.shutdown.cancel();
                    continue; // the drain branch above cleans up and exits
                }
            }
            let now = Instant::now();
            let expired: Vec<usize> = self
                .conns
                .iter()
                .filter(|(_, s)| s.linger_until.is_some_and(|when| now >= when))
                .map(|(key, _)| *key)
                .collect();
            for key in expired {
                self.close(key);
            }
            let keys: Vec<usize> = events.iter().map(|event| event.key).collect();
            for key in keys {
                match key {
                    KEY_ACCEPT => self.accept_some(),
                    key => self.service(key),
                }
            }
        }
    }

    fn accept_some(&mut self) {
        loop {
            match self.acceptor.accept() {
                Ok(conn) => {
                    if conn.set_nonblocking().is_err() {
                        continue; // broken before it said anything
                    }
                    if self.shared.active.load(Ordering::SeqCst) >= self.max_conns {
                        lock(&self.shared.report).rejected += 1;
                        if self.rejects_open >= REJECT_BACKLOG_CAP {
                            continue; // flood: shed without the courtesy
                        }
                        let outbox = rejection_bytes(self.shared.http, self.max_conns);
                        self.register(conn, FrontTally::Reject, outbox);
                        continue;
                    }
                    self.conn_id += 1;
                    self.shared.active.fetch_add(1, Ordering::SeqCst);
                    self.register(conn, FrontTally::Client, Vec::new());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    self.fatal = Some(e);
                    self.shared.shutdown.cancel();
                    break;
                }
            }
        }
    }

    fn register(&mut self, conn: RConn, tally: FrontTally, outbox: Vec<u8>) {
        let key = self.next_key;
        self.next_key += 1;
        let flushing = tally != FrontTally::Client;
        let interest = if flushing {
            (false, true)
        } else {
            (true, false)
        };
        if self
            .poller
            .add(conn.raw_fd(), key, interest_of(interest))
            .is_err()
        {
            if tally != FrontTally::Reject {
                self.shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            return;
        }
        if tally == FrontTally::Reject {
            self.rejects_open += 1;
        }
        let peer = conn.peer();
        self.conns.insert(
            key,
            FrontConn {
                conn,
                conn_id: self.conn_id,
                peer,
                tally,
                sniffed: Vec::new(),
                outbox,
                sent: 0,
                flushing,
                half_closed: false,
                peer_eof: false,
                linger_until: None,
                interest,
            },
        );
        // service immediately: a rejection usually flushes in one write,
        // and a fast client may already have bytes waiting
        self.service(key);
    }

    fn service(&mut self, key: usize) {
        let Some(state) = self.conns.get_mut(&key) else {
            return;
        };
        if !state.flushing {
            // HTTP mode needs no sniff: the only front-loop job is
            // noticing the first readable byte and handing off
            if self.shared.http {
                return self.hand_off(key);
            }
            let mut eof = false;
            let mut scratch = [0u8; 512];
            loop {
                match state.conn.read(&mut scratch) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        state.sniffed.extend_from_slice(&scratch[..n]);
                        if state.sniffed.len() >= 4 || state.sniffed.contains(&b'\n') {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return self.close_aborted(key, &e),
                }
            }
            // four bytes tell "GET " apart from NDJSON; EOF and drain
            // decide with whatever arrived
            let decided =
                state.sniffed.len() >= 4 || state.sniffed.contains(&b'\n') || eof || self.draining;
            if !decided {
                return;
            }
            if !state.sniffed.starts_with(b"GET ") {
                return self.hand_off(key);
            }
            let body = router_healthz(self.shared);
            let _ = write_http_response(
                &mut state.outbox,
                "200 OK",
                "application/json",
                body.as_bytes(),
                false,
            );
            state.tally = FrontTally::Probe;
            state.flushing = true;
            state.peer_eof = eof;
        }
        self.flush_and_linger(key);
    }

    /// Drives a flush-then-close connection: write the outbox, half-close,
    /// linger-drain the peer's unread bytes until its FIN (or the linger
    /// deadline), then close.
    fn flush_and_linger(&mut self, key: usize) {
        let Some(state) = self.conns.get_mut(&key) else {
            return;
        };
        if !state.half_closed {
            match flush_front_outbox(state) {
                Err(_) => return self.close(key),
                Ok(false) => {} // WouldBlock: wait for writability
                Ok(true) => {
                    state.conn.shutdown_write();
                    state.half_closed = true;
                    state.linger_until = Some(Instant::now() + FRONT_LINGER);
                }
            }
        }
        if state.half_closed {
            let mut scratch = [0u8; 4096];
            loop {
                match state.conn.read(&mut scratch) {
                    Ok(0) => {
                        state.peer_eof = true;
                        break;
                    }
                    Ok(_) => continue,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        state.peer_eof = true;
                        break;
                    }
                }
            }
            let expired = state
                .linger_until
                .is_some_and(|when| Instant::now() >= when);
            if state.peer_eof || expired || self.draining {
                return self.close(key);
            }
        }
        let want = (
            state.half_closed,
            !state.half_closed && state.sent < state.outbox.len(),
        );
        if want != state.interest
            && self
                .poller
                .modify(state.conn.raw_fd(), key, interest_of(want))
                .is_ok()
        {
            state.interest = want;
        }
    }

    /// Deregisters a classified-as-real connection and gives it a session
    /// thread, with the sniffed bytes prepended to its reader.
    fn hand_off(&mut self, key: usize) {
        let Some(state) = self.conns.remove(&key) else {
            return;
        };
        let _ = self.poller.delete(state.conn.raw_fd());
        let shared = Arc::clone(self.shared);
        let (conn, sniffed, conn_id) = (state.conn, state.sniffed, state.conn_id);
        self.handles.push(std::thread::spawn(move || {
            let _slot = ActiveSlot {
                shared: Arc::clone(&shared),
            };
            handle_connection(conn, sniffed, conn_id, &shared);
        }));
        if self.handles.len() >= 2 * self.max_conns {
            self.handles.retain(|h| !h.is_finished());
        }
    }

    /// A sniffing client broke before classification: close and account
    /// for it here, since no session thread will.
    fn close_aborted(&mut self, key: usize, e: &std::io::Error) {
        let Some(state) = self.conns.remove(&key) else {
            return;
        };
        let _ = self.poller.delete(state.conn.raw_fd());
        lock(&self.shared.report).connections += 1;
        log_unless_quiet(
            self.shared,
            format!("conn {} ({}): aborted: {e}", state.conn_id, state.peer),
        );
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }

    fn close(&mut self, key: usize) {
        let Some(state) = self.conns.remove(&key) else {
            return;
        };
        let _ = self.poller.delete(state.conn.raw_fd());
        match state.tally {
            FrontTally::Reject => {
                self.rejects_open -= 1;
                return; // rejected was tallied at accept; no active slot
            }
            FrontTally::Probe => lock(&self.shared.report).health_probes += 1,
            FrontTally::Client => {}
        }
        self.shared.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn interest_of((read, write): (bool, bool)) -> Interest {
    match (read, write) {
        (true, true) => Interest::BOTH,
        (true, false) => Interest::READ,
        (false, true) => Interest::WRITE,
        (false, false) => Interest::NONE,
    }
}

/// The prefilled outbox of an at-capacity rejection.
fn rejection_bytes(http: bool, max_conns: usize) -> Vec<u8> {
    let message = format!("router at capacity ({max_conns} connections); retry later");
    let mut out = Vec::new();
    if http {
        let body = format!("{{\"error\": {message:?}}}\n");
        let _ = write_http_response(
            &mut out,
            "503 Service Unavailable",
            "application/json",
            body.as_bytes(),
            false,
        );
    } else {
        out.extend_from_slice(error_line(0, None, &message).as_bytes());
        out.push(b'\n');
    }
    out
}

/// Writes as much of the outbox as the socket takes right now.
/// `Ok(true)` = fully flushed, `Ok(false)` = the socket would block.
fn flush_front_outbox(state: &mut FrontConn) -> std::io::Result<bool> {
    while state.sent < state.outbox.len() {
        match state.conn.write(&state.outbox[state.sent..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => state.sent += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Briefly drains whatever the client was mid-sending before the socket
/// is dropped, so the close is a FIN and the response survives in flight.
fn drain_briefly<R: Read>(reader: &mut R) {
    let mut scratch = [0u8; 4096];
    for _ in 0..10 {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

/// One handed-off connection: restore blocking mode + socket timeouts,
/// then run the batch session with the front loop's sniffed bytes
/// prepended. Health probes never get here — the front loop answers them
/// inline.
fn handle_connection(conn: RConn, sniffed: Vec<u8>, conn_id: usize, shared: &RouteShared) {
    let peer = conn.peer();
    if conn
        .prepare(shared.config.read_timeout, shared.config.write_timeout)
        .is_err()
    {
        return;
    }
    let served = if shared.http {
        serve_http_route_conn(conn, sniffed, conn_id, &peer, shared)
    } else {
        serve_ndjson_route_conn(conn, sniffed, conn_id, &peer, shared)
    };
    lock(&shared.report).connections += 1;
    if let Err(e) = served {
        log_unless_quiet(shared, format!("conn {conn_id} ({peer}): aborted: {e}"));
    }
}

fn log_unless_quiet(shared: &RouteShared, line: String) {
    if !shared.config.quiet {
        eprintln!("{line}");
    }
}

/// One NDJSON connection: run one routed batch session (the front loop's
/// sniffed bytes first), write the merged trailer, half-close.
fn serve_ndjson_route_conn(
    conn: RConn,
    first: Vec<u8>,
    conn_id: usize,
    peer: &str,
    shared: &RouteShared,
) -> std::io::Result<()> {
    let reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    let mut input = std::io::Cursor::new(first).chain(reader);
    let stats = route_session(
        &mut input,
        &mut writer,
        &shared.shards,
        &shared.config,
        &shared.shutdown,
    );
    writer.flush()?;
    writer.get_ref().shutdown_write();
    drain_briefly(&mut input);
    absorb_session(shared, conn_id, peer, &stats);
    Ok(())
}

fn absorb_session(shared: &RouteShared, conn_id: usize, peer: &str, stats: &SessionStats) {
    {
        let mut report = lock(&shared.report);
        report.records += stats.records;
        report.retried += stats.retried;
        report.failed += stats.failed;
    }
    log_unless_quiet(
        shared,
        format!(
            "conn {conn_id} ({peer}): {} records routed ({} retried, {} failed) \
             across {} healthy shards",
            stats.records,
            stats.retried,
            stats.failed,
            shared.shards.iter().filter(|s| s.is_healthy()).count(),
        ),
    );
}

/// The router's own `/healthz` body: fleet-level status plus the summed
/// capacity picture from the latest shard snapshots.
fn router_healthz(shared: &RouteShared) -> String {
    let healthy = shared.shards.iter().filter(|s| s.is_healthy()).count();
    let status = if healthy == shared.shards.len() {
        "ok"
    } else if healthy > 0 {
        "degraded"
    } else {
        "down"
    };
    let (mut workers, mut busy, mut queue) = (0usize, 0usize, 0usize);
    for shard in &shared.shards {
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
         \"active_connections\": {}, \"uptime_ms\": {}}}\n",
        shared.shards.len(),
        shared.active.load(Ordering::SeqCst),
        shared.started.elapsed().as_millis(),
    )
}

/// HTTP mode: `GET /healthz` answers fleet status, `POST /solve` routes
/// the body as one batch and returns the NDJSON responses + merged
/// trailer.
fn serve_http_route_conn(
    conn: RConn,
    first: Vec<u8>,
    conn_id: usize,
    peer: &str,
    shared: &RouteShared,
) -> std::io::Result<()> {
    let mut reader = std::io::Cursor::new(first).chain(BufReader::new(conn.try_clone()?));
    let mut writer = BufWriter::new(conn);
    loop {
        let request = match read_http_head(&mut reader, &shared.shutdown) {
            Ok(Some(request)) => request,
            Ok(None) => break,
            Err(HttpError::Malformed(reason)) => {
                let body = format!("{{\"error\": {reason:?}}}\n");
                write_http_response(
                    &mut writer,
                    "400 Bad Request",
                    "application/json",
                    body.as_bytes(),
                    false,
                )?;
                break;
            }
            Err(HttpError::Io(e)) => return Err(e),
        };
        let mut keep_alive = request.keep_alive && !shared.shutdown.is_cancelled();
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => {
                match request.content_length {
                    None | Some(0) => {}
                    Some(length) if length <= MAX_HEAD_BYTES => {
                        match read_http_body(&mut reader, length, &shared.shutdown) {
                            Ok(Some(_)) => {}
                            Ok(None) => keep_alive = false,
                            Err(e) => return Err(e),
                        }
                    }
                    Some(_) => keep_alive = false,
                }
                let body = router_healthz(shared);
                write_http_response(
                    &mut writer,
                    "200 OK",
                    "application/json",
                    body.as_bytes(),
                    keep_alive,
                )?;
            }
            ("POST", "/solve") => {
                let Some(length) = request.content_length else {
                    write_http_response(
                        &mut writer,
                        "411 Length Required",
                        "application/json",
                        b"{\"error\": \"POST /solve needs a Content-Length body\"}\n",
                        false,
                    )?;
                    break;
                };
                if length > MAX_BODY_BYTES {
                    write_http_response(
                        &mut writer,
                        "413 Content Too Large",
                        "application/json",
                        b"{\"error\": \"batch body too large\"}\n",
                        false,
                    )?;
                    break;
                }
                let body = match read_http_body(&mut reader, length, &shared.shutdown)? {
                    Some(body) => body,
                    None => break, // shutdown or client gone mid-body
                };
                let mut out = Vec::new();
                let stats = route_session(
                    &mut body.as_slice(),
                    &mut out,
                    &shared.shards,
                    &shared.config,
                    &shared.shutdown,
                );
                write_http_response(
                    &mut writer,
                    "200 OK",
                    "application/x-ndjson",
                    &out,
                    keep_alive,
                )?;
                absorb_session(shared, conn_id, peer, &stats);
            }
            ("GET" | "POST", _) => {
                write_http_response(
                    &mut writer,
                    "404 Not Found",
                    "application/json",
                    b"{\"error\": \"unknown path (use POST /solve or GET /healthz)\"}\n",
                    keep_alive,
                )?;
            }
            _ => {
                write_http_response(
                    &mut writer,
                    "405 Method Not Allowed",
                    "application/json",
                    b"{\"error\": \"unsupported method\"}\n",
                    keep_alive,
                )?;
            }
        }
        if !keep_alive {
            break;
        }
    }
    writer.flush()?;
    writer.get_ref().shutdown_write();
    drain_briefly(&mut reader);
    Ok(())
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
}

/// The reorder buffer: responses arrive tagged with their dispatch `seq`
/// and are flushed to the client strictly in `seq` order.
struct Fanin<W: Write> {
    next: usize,
    ready: BTreeMap<usize, String>,
    writer: W,
    /// The client stopped reading (write error); responses are still
    /// consumed in order so the session drains, just not written.
    client_gone: bool,
}

impl<W: Write> Fanin<W> {
    fn new(writer: W) -> Self {
        Fanin {
            next: 0,
            ready: BTreeMap::new(),
            writer,
            client_gone: false,
        }
    }

    /// Stages one response and flushes the contiguous prefix.
    fn push(&mut self, seq: usize, text: String) {
        self.ready.insert(seq, text);
        while let Some(text) = self.ready.remove(&self.next) {
            if !self.client_gone {
                let wrote = writeln!(self.writer, "{text}").and_then(|_| self.writer.flush());
                if wrote.is_err() {
                    self.client_gone = true;
                }
            }
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

/// The cross-thread state of one routed session, passed by copy into
/// scoped reader threads.
struct Ctx<'a, W: Write + Send> {
    shards: &'a [Arc<ShardState>],
    config: &'a RouteConfig,
    shutdown: &'a CancelToken,
    /// Per-shard queues of dispatched-but-unanswered records, in send
    /// order (a shard answers in order, so the front is always the record
    /// its next response belongs to).
    pendings: &'a [Mutex<VecDeque<Pending>>],
    fanin: &'a Mutex<Fanin<W>>,
    /// Records reclaimed from dead shards awaiting re-dispatch.
    orphans: &'a Mutex<Vec<Pending>>,
    /// Summary trailers collected from shards, merged at session end.
    trailers: &'a Mutex<Vec<BatchSummary>>,
    /// Answer counts from shards that died before sending a trailer, so
    /// the merged trailer still accounts for every record.
    untallied: &'a Mutex<Untallied>,
}

// manual impls: derive(Copy) would demand W: Copy, which is neither true
// nor needed — only the references are copied
impl<'a, W: Write + Send> Clone for Ctx<'a, W> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<'a, W: Write + Send> Copy for Ctx<'a, W> {}

#[derive(Default)]
struct Untallied {
    answered: usize,
    answered_ok: usize,
}

/// Routes one client batch: reads records, fans them out across healthy
/// shards, restores input order on the way back, retries orphans, and
/// writes one merged [`BatchSummary`] trailer. Never returns an error —
/// every failure mode degrades to structured error lines on the wire.
fn route_session<R: BufRead, W: Write + Send>(
    client: &mut R,
    writer: W,
    shards: &[Arc<ShardState>],
    config: &RouteConfig,
    shutdown: &CancelToken,
) -> SessionStats {
    let started = Instant::now();
    let mut stats = SessionStats::default();
    let fanin = Mutex::new(Fanin::new(writer));
    let pendings: Vec<Mutex<VecDeque<Pending>>> = (0..shards.len())
        .map(|_| Mutex::new(VecDeque::new()))
        .collect();
    let orphans = Mutex::new(Vec::new());
    let trailers = Mutex::new(Vec::new());
    let untallied = Mutex::new(Untallied::default());
    let ctx = Ctx {
        shards,
        config,
        shutdown,
        pendings: &pendings,
        fanin: &fanin,
        orphans: &orphans,
        trailers: &trailers,
        untallied: &untallied,
    };

    // (orig_line, id) per seq, for hole-filling after the threads join
    let mut seq_meta: Vec<(usize, Option<String>)> = Vec::new();

    std::thread::scope(|scope| {
        let mut streams: Vec<Option<TcpStream>> = (0..shards.len()).map(|_| None).collect();
        let mut pinned: Option<usize> = None;
        let mut orig_line = 0usize;
        let mut buf = Vec::new();
        let mut take_record =
            |buf: &[u8],
             streams: &mut [Option<TcpStream>],
             pinned: &mut Option<usize>,
             stats: &mut SessionStats,
             seq_meta: &mut Vec<(usize, Option<String>)>| {
                orig_line += 1;
                let text = String::from_utf8_lossy(buf);
                let text = text.trim();
                if text.is_empty() {
                    // blank lines consume a line number but produce no
                    // response — mirroring the listener's engine exactly
                    return;
                }
                let seq = seq_meta.len();
                // best effort, for router-side error lines only; shards
                // do their own parsing
                let id = BatchRecord::salvage_id(text);
                seq_meta.push((orig_line, id.clone()));
                stats.records += 1;
                let pending = Pending {
                    seq,
                    orig_line,
                    id,
                    raw: text.to_string(),
                };
                dispatch(scope, ctx, pending, streams, pinned, stats);
            };
        loop {
            // a shard may have died since the last record: reclaim its
            // orphans onto healthy shards before (not after) blocking on
            // the client again
            drain_orphans(scope, ctx, &mut streams, &mut pinned, &mut stats);
            match client.read_until(b'\n', &mut buf) {
                Ok(0) => {
                    if !buf.is_empty() {
                        take_record(&buf, &mut streams, &mut pinned, &mut stats, &mut seq_meta);
                    }
                    break;
                }
                Ok(_) => {
                    if buf.ends_with(b"\n") {
                        take_record(&buf, &mut streams, &mut pinned, &mut stats, &mut seq_meta);
                        buf.clear();
                    }
                    // no trailing newline = EOF mid-line; the next read
                    // returns Ok(0) and the partial line is taken there
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if shutdown.is_cancelled() {
                        break;
                    }
                }
                Err(_) => break,
            }
        }
        // client EOF: half-close every shard stream so each shard ends
        // its batch, answers its tail, sends its trailer and closes —
        // which is what makes the reader threads return
        for stream in streams.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Write);
        }
    });

    // shard readers have all joined; whatever they swept into `orphans`
    // gets retry_rounds chances on whichever shards remain healthy
    let mut leftovers: Vec<Pending> = std::mem::take(&mut *lock(&orphans));
    leftovers.sort_by_key(|p| p.seq);
    let mut queue: VecDeque<Pending> = leftovers.into();
    for _ in 0..config.retry_rounds {
        if queue.is_empty() {
            break;
        }
        let Some(shard) = pick(shards) else { break };
        stats.retried += queue.len();
        retry_batch(&shard, &mut queue, ctx);
    }
    for p in queue {
        stats.failed += 1;
        lock(&fanin).push(
            p.seq,
            error_line(
                p.orig_line,
                p.id.as_deref(),
                "no healthy shard available to solve this record",
            ),
        );
    }

    let holes = lock(&fanin).finish(seq_meta.len(), &seq_meta);
    stats.failed += holes;

    // the merged trailer: the shards' trailers folded together, plus a
    // base accounting for records no shard trailer covers (router-side
    // errors, and answers from shards that died before their trailer)
    let tally = std::mem::take(&mut *lock(&untallied));
    let mut merged = BatchSummary {
        records: stats.failed + tally.answered,
        solved: tally.answered_ok,
        errors: stats.failed + (tally.answered - tally.answered_ok),
        total_cost: 0,
        total_lower_bound: 0,
        aggregate_gap: BatchSummary::aggregate_gap(0, 0),
        wall: started.elapsed(),
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
    for trailer in lock(&trailers).iter() {
        merged.merge(trailer);
    }
    {
        let mut fanin = lock(&fanin);
        if !fanin.client_gone {
            let wrote = writeln!(fanin.writer, "{}", merged.to_json_line())
                .and_then(|_| fanin.writer.flush());
            if wrote.is_err() {
                fanin.client_gone = true;
            }
        }
    }
    stats
}

/// Re-dispatches everything reclaimed from dead shards so far.
fn drain_orphans<'scope, 'a: 'scope, W: Write + Send>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: Ctx<'a, W>,
    streams: &mut [Option<TcpStream>],
    pinned: &mut Option<usize>,
    stats: &mut SessionStats,
) {
    let mut reclaimed: Vec<Pending> = std::mem::take(&mut *lock(ctx.orphans));
    if reclaimed.is_empty() {
        return;
    }
    reclaimed.sort_by_key(|p| p.seq);
    for pending in reclaimed {
        stats.retried += 1;
        dispatch(scope, ctx, pending, streams, pinned, stats);
    }
}

/// Sends one record to the least-loaded healthy shard (or the pinned one
/// in sticky mode), opening the shard stream and its reader thread
/// lazily. On a broken write the record is reclaimed and retried on
/// another shard; with no healthy shard it answers as an error line.
fn dispatch<'scope, 'a: 'scope, W: Write + Send>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: Ctx<'a, W>,
    pending: Pending,
    streams: &mut [Option<TcpStream>],
    pinned: &mut Option<usize>,
    stats: &mut SessionStats,
) {
    loop {
        let shard = if ctx.config.sticky {
            match pinned
                .map(|i| &ctx.shards[i])
                .filter(|s| s.is_healthy())
                .cloned()
            {
                Some(shard) => shard,
                None => match pick(ctx.shards) {
                    Some(shard) => {
                        *pinned = Some(shard.index);
                        shard
                    }
                    None => return fail_record(ctx, pending, stats),
                },
            }
        } else {
            match pick(ctx.shards) {
                Some(shard) => shard,
                None => return fail_record(ctx, pending, stats),
            }
        };
        let i = shard.index;
        if streams[i].is_none() {
            match open_shard_stream(scope, ctx, &shard) {
                Ok(stream) => streams[i] = Some(stream),
                Err(_) => {
                    shard.mark_broken();
                    continue; // pick() will skip it now
                }
            }
        }
        // enqueue BEFORE writing: the reader thread must be able to match
        // the shard's response (or sweep the record on shard death) from
        // the moment any byte of it may be on the wire
        lock(&ctx.pendings[i]).push_back(pending.clone());
        shard.note_dispatched();
        let wrote = {
            let stream = streams[i].as_mut().expect("stream opened above");
            writeln!(stream, "{}", pending.raw).and_then(|_| stream.flush())
        };
        match wrote {
            Ok(()) => return,
            Err(_) => {
                shard.mark_broken();
                if let Some(stream) = streams[i].take() {
                    let _ = stream.shutdown(Shutdown::Both);
                }
                // reclaim our own entry by seq; if it is already gone the
                // reader thread swept it into `orphans` first, and the
                // orphan path owns the retry — retrying here too would
                // answer the record twice
                let reclaimed = {
                    let mut queue = lock(&ctx.pendings[i]);
                    match queue.iter().rposition(|p| p.seq == pending.seq) {
                        Some(pos) => {
                            queue.remove(pos);
                            true
                        }
                        None => false,
                    }
                };
                if !reclaimed {
                    return;
                }
                shard.note_answered();
                stats.retried += 1;
                // a dead pinned shard releases the pin; the next pick
                // re-pins the connection
                if *pinned == Some(i) {
                    *pinned = None;
                }
            }
        }
    }
}

fn fail_record<W: Write + Send>(ctx: Ctx<'_, W>, pending: Pending, stats: &mut SessionStats) {
    stats.failed += 1;
    lock(ctx.fanin).push(
        pending.seq,
        error_line(
            pending.orig_line,
            pending.id.as_deref(),
            "no healthy shard available to solve this record",
        ),
    );
}

/// Connects to a shard and spawns its response-reader thread. The
/// returned stream is the write half; the reader owns a clone.
fn open_shard_stream<'scope, 'a: 'scope, W: Write + Send>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    ctx: Ctx<'a, W>,
    shard: &Arc<ShardState>,
) -> std::io::Result<TcpStream> {
    let stream = connect(&shard.addr(), ctx.config.connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(ctx.config.read_timeout))?;
    stream.set_write_timeout(Some(ctx.config.write_timeout))?;
    let read_half = stream.try_clone()?;
    let shard = Arc::clone(shard);
    scope.spawn(move || {
        let i = shard.index;
        let got_trailer = pump_shard_responses(read_half, &shard, &ctx.pendings[i], ctx);
        // sweep: anything still pending on this shard when its stream
        // ended will never be answered by it — orphan for re-dispatch
        let leftovers: Vec<Pending> = lock(&ctx.pendings[i]).drain(..).collect();
        if !leftovers.is_empty() {
            shard.mark_broken();
            for _ in &leftovers {
                shard.note_answered();
            }
            lock(ctx.orphans).extend(leftovers);
        } else if !got_trailer {
            // answered everything it was sent but closed without a
            // trailer — still suspect
            shard.mark_broken();
        }
    });
    Ok(stream)
}

/// Reads one shard stream to EOF: response lines are matched to the
/// front of the shard's pending queue (shards answer in order), restamped
/// with the client's original line number, and staged into the fan-in;
/// the trailer is collected for the merge. Returns whether a trailer
/// arrived (the shard finished its batch cleanly).
fn pump_shard_responses<W: Write + Send>(
    stream: TcpStream,
    shard: &ShardState,
    queue: &Mutex<VecDeque<Pending>>,
    ctx: Ctx<'_, W>,
) -> bool {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    let mut got_trailer = false;
    let mut answered = 0usize;
    let mut answered_ok = 0usize;
    let mut cancelled_at: Option<Instant> = None;
    let mut take_line = |buf: &[u8], got_trailer: &mut bool| {
        let text = String::from_utf8_lossy(buf);
        let text = text.trim_end_matches(['\n', '\r']);
        if text.trim().is_empty() {
            return;
        }
        // match and pop under one lock: a concurrent write-failure
        // reclaim must not swap the front between the peek and the pop
        let matched = {
            let mut pending = lock(queue);
            match pending.front() {
                Some(front) => match reline_output(text, front.orig_line) {
                    Some(relined) => {
                        let front = pending.pop_front().expect("front observed above");
                        Some((front.seq, relined))
                    }
                    None => None,
                },
                None => None,
            }
        };
        if let Some((seq, relined)) = matched {
            shard.note_answered();
            answered += 1;
            if relined.ok {
                answered_ok += 1;
            }
            lock(ctx.fanin).push(seq, relined.text);
            return;
        }
        if let Ok(summary) = BatchSummary::from_json_line(text) {
            lock(ctx.trailers).push(summary);
            *got_trailer = true;
        }
        // anything else (free-text noise) is dropped: the wire contract
        // promises responses and a trailer, nothing more
    };
    loop {
        match reader.read_until(b'\n', &mut buf) {
            Ok(0) => {
                if !buf.is_empty() {
                    take_line(&buf, &mut got_trailer);
                }
                break;
            }
            Ok(_) => {
                if buf.ends_with(b"\n") {
                    take_line(&buf, &mut got_trailer);
                    buf.clear();
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // after shutdown the shard still gets a drain budget to
                // answer in-flight records before the reader gives up
                if ctx.shutdown.is_cancelled() {
                    let since = cancelled_at.get_or_insert_with(Instant::now);
                    if since.elapsed() >= SHARD_DRAIN_BUDGET {
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }
    if !got_trailer && answered > 0 {
        // the shard died after answering some records: without its
        // trailer those answers would vanish from the merged accounting
        let mut tally = lock(ctx.untallied);
        tally.answered += answered;
        tally.answered_ok += answered_ok;
    }
    got_trailer
}

/// One retry round: sends every queued orphan to `shard` as a fresh
/// batch and pumps the answers back. Writing and reading run
/// concurrently (a large orphan batch must not deadlock on full socket
/// buffers). Unanswered records stay in `queue` for the next round.
fn retry_batch<W: Write + Send>(
    shard: &Arc<ShardState>,
    queue: &mut VecDeque<Pending>,
    ctx: Ctx<'_, W>,
) {
    let stream = match connect(&shard.addr(), ctx.config.connect_timeout) {
        Ok(stream) => stream,
        Err(_) => {
            shard.mark_broken();
            return;
        }
    };
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(ctx.config.read_timeout))
            .is_err()
        || stream
            .set_write_timeout(Some(ctx.config.write_timeout))
            .is_err()
    {
        shard.mark_broken();
        return;
    }
    let write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(_) => {
            shard.mark_broken();
            return;
        }
    };
    let raws: Vec<String> = queue.iter().map(|p| p.raw.clone()).collect();
    for _ in &raws {
        shard.note_dispatched();
    }
    let pending = Mutex::new(std::mem::take(queue));
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut writer = BufWriter::new(write_half);
            for raw in &raws {
                if writeln!(writer, "{raw}").is_err() {
                    break;
                }
            }
            let _ = writer.flush();
            let _ = writer.get_ref().shutdown(Shutdown::Write);
        });
        pump_shard_responses(stream, shard, &pending, ctx);
    });
    let leftovers = pending
        .into_inner()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if !leftovers.is_empty() {
        shard.mark_broken();
        for _ in &leftovers {
            shard.note_answered();
        }
    }
    *queue = leftovers;
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
