//! The connection core every socket front end runs on: a small fixed set
//! of epoll reactor threads hosting one [`Session`] per connection.
//!
//! [`Endpoint::serve`] owns everything about a connection that does not
//! depend on what the connection is *for*: accepting, the `GET ` sniff
//! that answers health probes on an NDJSON port, the at-capacity
//! rejection, incremental HTTP/1.1 with keep-alive, the bounded outbox
//! and its back-pressure, the write timeout, the post-close linger, the
//! timer wheel and the shutdown drain. A [`Backend`] supplies the rest:
//! the session each connection (or each `POST /solve` body) runs, the
//! `/healthz` body, the at-capacity text and the per-connection log line.
//! The listener's backend runs the local solve pipeline; the shard
//! router's runs a routed session whose shard sockets sit on the same
//! poller as the client connection.
//!
//! # The readiness loop
//!
//! Connections are *not* served thread-per-connection. A small fixed set
//! of reactor threads (`io_threads`, default 2) each run an epoll-backed
//! poll loop (the vendored `polling` shim): reactor 0 owns the accept
//! socket and deals new connections round-robin across the set, and every
//! reactor owns the full life of the connections dealt to it. Reads feed
//! the connection's session; sessions hand their slow work to other
//! threads (the solve executor, the router's dialer) and those post
//! completions back through a wakeable mailbox ([`Wake`]), so the reactor
//! never blocks. 500 idle keep-alive connections therefore cost 500
//! registered file descriptors and `io_threads` threads — not 500
//! threads.
//!
//! Back-pressure is a bounded per-connection outbox: when a client stops
//! reading its responses the outbox fills, the reactor suspends read
//! interest (and the session stops taking new records) until the backlog
//! drains below half, and a client that stays wedged past the write
//! timeout is aborted. Idle cuts and the endpoint-wide idle timeout ride a
//! timer wheel inside the poll loop, as does each session's own
//! [`Session::deadline`]. At-capacity rejections are plain outbox writes
//! on the reactor — an overload floods structured error lines, never
//! threads.
//!
//! The HTTP mode serves `POST /solve` (NDJSON batch body in, response
//! lines plus summary out as `application/x-ndjson`) and `GET /healthz`,
//! with `Content-Length` bodies and keep-alive; any other path is a 404,
//! any other method on those two paths a 405, and an oversized body a
//! 413.
//!
//! Shutdown is graceful: once the token passed to [`Endpoint::serve`]
//! fires, the accept loop stops, every session gets its end of input and
//! answers what it already received, writes its summary and closes, and
//! then `serve` returns.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use busytime_core::cancel::CancelToken;
use polling::{Event, Interest, Poller, RawFd, Waker};

use crate::engine::{lock_ignoring_poison, BatchSummary, ServeError};
use crate::http::{
    parse_http_head, write_http_response, HttpRequest, MAX_BODY_BYTES, MAX_HEAD_BYTES,
};
use crate::listener::{ListenConfig, ListenMode};
use crate::protocol::error_line;

/// One batch session hosted on a connection: fed request bytes, pumped
/// for response bytes in input order, never blocking.
pub trait Session: Send + 'static {
    /// Buffers request bytes read off the connection; `pump` takes them.
    fn feed(&mut self, bytes: &[u8]);
    /// Marks the end of input: the client half-closed (or was idle-cut),
    /// or the shutdown drain began. The session answers every complete
    /// line it already received; after a client half-close a final
    /// unterminated line counts too.
    fn finish_input(&mut self);
    /// Drives the session as far as it can go without blocking, appending
    /// ready response lines to `out` in input order. With `allow_parse`
    /// false (outbox back-pressure) it takes no new records, while
    /// answers already in flight still land.
    fn pump(&mut self, out: &mut Vec<u8>, allow_parse: bool);
    /// The batch is fully answered (summary ready) or aborted.
    fn is_done(&self) -> bool;
    /// Records taken whose answers have not come back yet — an idle wire
    /// does not mean an idle session.
    fn has_inflight(&self) -> bool;
    /// The batch summary, once the session finished cleanly; the reactor
    /// writes it as the trailer line.
    fn summary(&self) -> Option<&BatchSummary>;
    /// Why the batch aborted, when it did.
    fn failure(&self) -> Option<&ServeError>;
    /// When the session next needs a pump with no help from the wire or
    /// a [`Wake`] (a drain budget running out, a stalled write).
    fn deadline(&self) -> Option<Instant> {
        None
    }
}

/// What one front end puts on the connection core: its sessions and the
/// few connection-level texts that differ between front ends.
pub trait Backend: Send + Sync + 'static {
    /// The session every batch runs.
    type Session: Session;
    /// A fresh session for one NDJSON connection or one `POST /solve`
    /// body. `link` wakes the reactor for it and registers any sockets
    /// the session opens itself.
    fn open(&self, link: SessionLink) -> Self::Session;
    /// The `/healthz` body, given the core's connection gauges.
    fn healthz(&self, gauges: &Gauges) -> String;
    /// The text of an at-capacity rejection.
    fn at_capacity(&self, max_conns: usize) -> String;
    /// A batch finished and its answers are on their way to the client:
    /// log it and fold it into the backend's report.
    fn settle(&self, conn: usize, peer: &str, session: &Self::Session);
    /// A client connection ended in a transport failure.
    fn abort(&self, conn: usize, peer: &str, reason: &str);
}

/// The core's connection gauges, as reported by every `/healthz`.
#[derive(Clone, Copy, Debug)]
pub struct Gauges {
    /// Connections holding a capacity slot.
    pub active_connections: usize,
    /// Every accepted socket not yet closed, rejections included.
    pub open_connections: usize,
    /// The reactor thread count.
    pub io_threads: usize,
    /// Bytes queued in connection outboxes, endpoint-wide.
    pub outbox_bytes: usize,
    /// Milliseconds since the endpoint started serving.
    pub uptime_ms: u128,
}

/// What the core counted over an endpoint's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnCounts {
    /// Client connections served to completion, including ones that ended
    /// in a transport error.
    pub connections: usize,
    /// Connections refused at the capacity cap.
    pub rejected: usize,
    /// One-shot `GET` health probes answered on an NDJSON endpoint.
    pub health_probes: usize,
}

/// A session's handle on its reactor: a [`Wake`] for completions that
/// land on other threads, and registration for sockets the session owns.
pub struct SessionLink {
    wake: Wake,
    poller: Arc<Poller>,
}

impl SessionLink {
    /// A cloneable, thread-safe wake for this session's connection.
    pub fn waker(&self) -> Wake {
        self.wake.clone()
    }

    /// Switches `stream` to non-blocking mode and registers it for reads
    /// on the connection's poller: its readiness pumps this session.
    pub fn watch(&self, stream: TcpStream) -> std::io::Result<Watched> {
        stream.set_nonblocking(true)?;
        let key = self.wake.key + 1;
        self.poller.add(fd_of(&stream), key, Interest::READ)?;
        Ok(Watched {
            stream,
            poller: Arc::clone(&self.poller),
            key,
            interest: (true, false),
        })
    }
}

/// Schedules a pump of one connection's session on its reactor; cheap,
/// non-blocking, callable from any thread.
#[derive(Clone)]
pub struct Wake {
    mailbox: Arc<Mailbox>,
    key: usize,
}

impl Wake {
    /// Posts the connection to its reactor and wakes the poll loop.
    pub fn wake(&self) {
        self.mailbox.post_dirty(self.key);
    }
}

/// A socket a session registered through [`SessionLink::watch`]; it
/// leaves the poller when dropped.
pub struct Watched {
    stream: TcpStream,
    poller: Arc<Poller>,
    key: usize,
    interest: (bool, bool),
}

impl Watched {
    /// The socket (non-blocking).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Sets the readiness this socket should pump the session on.
    pub fn want(&mut self, read: bool, write: bool) {
        let want = (read, write);
        if want != self.interest
            && self
                .poller
                .modify(fd_of(&self.stream), self.key, interest_of(want))
                .is_ok()
        {
            self.interest = want;
        }
    }
}

impl Drop for Watched {
    fn drop(&mut self) {
        let _ = self.poller.delete(fd_of(&self.stream));
    }
}

#[cfg(unix)]
fn fd_of(socket: &impl std::os::fd::AsRawFd) -> RawFd {
    socket.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<T>(_socket: &T) -> RawFd {
    // the poller itself is Unsupported off Unix; this is never polled
    -1
}

/// One accepted connection, abstracted over the socket family.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        // accepted sockets do not inherit the acceptor's non-blocking
        // flag on Linux — it must be set per connection
        match self {
            Conn::Tcp(s) => s.set_nonblocking(true),
            #[cfg(unix)]
            Conn::Unix(s) => s.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => fd_of(s),
            #[cfg(unix)]
            Conn::Unix(s) => fd_of(s),
        }
    }

    /// Half-close: the client sees EOF after the summary line, while its
    /// own pending writes still drain.
    fn shutdown_write(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
        };
    }

    fn peer(&self) -> String {
        match self {
            Conn::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| String::from("tcp-peer")),
            #[cfg(unix)]
            Conn::Unix(_) => String::from("unix-peer"),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// The bound socket, abstracted over the socket family.
enum Acceptor {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Acceptor {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Acceptor::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Acceptor::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Acceptor::Tcp(l) => fd_of(l),
            #[cfg(unix)]
            Acceptor::Unix(l, _) => fd_of(l),
        }
    }
}

/// A bound endpoint, ready to [`serve`](Endpoint::serve) a backend.
pub struct Endpoint {
    acceptor: Acceptor,
    http: bool,
}

impl Endpoint {
    /// Binds `mode`'s socket (non-blocking). Clients may connect once this
    /// returns; they are served once [`Endpoint::serve`] starts.
    pub fn bind(mode: &ListenMode) -> std::io::Result<Endpoint> {
        let (acceptor, http) = match mode {
            ListenMode::Tcp(addr) => (Acceptor::Tcp(bind_tcp(addr)?), false),
            ListenMode::Http(addr) => (Acceptor::Tcp(bind_tcp(addr)?), true),
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
                (Acceptor::Unix(listener, path.clone()), false)
            }
            #[cfg(not(unix))]
            ListenMode::Unix(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::Unsupported,
                    "unix-domain sockets are not available on this platform",
                ))
            }
        };
        Ok(Endpoint { acceptor, http })
    }

    /// The actually-bound TCP address (resolves `:0` ephemeral ports);
    /// `None` for Unix-domain endpoints.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.acceptor {
            Acceptor::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Acceptor::Unix(..) => None,
        }
    }

    /// A URL-ish description of the bound endpoint, e.g.
    /// `tcp://127.0.0.1:7171`, `http://127.0.0.1:8080` or
    /// `unix:///run/busytime.sock`.
    pub fn url(&self) -> String {
        match &self.acceptor {
            Acceptor::Tcp(l) => {
                let scheme = if self.http { "http" } else { "tcp" };
                match l.local_addr() {
                    Ok(addr) => format!("{scheme}://{addr}"),
                    Err(_) => format!("{scheme}://?"),
                }
            }
            #[cfg(unix)]
            Acceptor::Unix(_, path) => format!("unix://{}", path.display()),
        }
    }

    /// Runs the readiness loop for `backend` until `shutdown` fires (or
    /// the idle timeout elapses, which fires it), drains every live
    /// connection, and returns the core's counts. Of `config`, only the
    /// connection-level fields apply: `max_conns`, `io_threads`,
    /// `outbox_limit`, `idle_timeout`, `conn_idle_timeout` and
    /// `write_timeout`.
    pub fn serve<B: Backend>(
        self,
        backend: Arc<B>,
        config: &ListenConfig,
        shutdown: CancelToken,
    ) -> std::io::Result<ConnCounts> {
        let Endpoint { acceptor, http } = self;
        let or_default = |value: usize, default: usize| if value == 0 { default } else { value };
        let io_threads = or_default(config.io_threads, DEFAULT_IO_THREADS);
        let shared = Arc::new(Shared {
            backend,
            shutdown,
            http,
            max_conns: or_default(config.max_conns, DEFAULT_MAX_CONNS),
            io_threads,
            outbox_limit: or_default(config.outbox_limit, DEFAULT_OUTBOX_LIMIT),
            idle_timeout: config.idle_timeout,
            conn_idle_timeout: config.conn_idle_timeout,
            write_timeout: config.write_timeout,
            active: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            outbox_bytes: AtomicUsize::new(0),
            counts: Mutex::new(ConnCounts::default()),
            last_activity: Mutex::new(Instant::now()),
            started: Instant::now(),
        });

        // every reactor gets its poller and wakeable mailbox up front, so
        // the acceptor can deal connections (and other threads can post
        // completion wakes) before a reactor has even scheduled
        let mut pollers = Vec::with_capacity(io_threads);
        let mut mailboxes = Vec::with_capacity(io_threads);
        for _ in 0..io_threads {
            let poller = Poller::new()?;
            let waker = Waker::new(&poller, KEY_WAKER)?;
            mailboxes.push(Arc::new(Mailbox {
                waker,
                post: Mutex::new(Post::default()),
            }));
            pollers.push(Arc::new(poller));
        }
        #[cfg(unix)]
        let unix_path = match &acceptor {
            Acceptor::Unix(_, path) => Some(path.clone()),
            Acceptor::Tcp(_) => None,
        };
        pollers[0].add(acceptor.raw_fd(), KEY_ACCEPT, Interest::READ)?;

        let mut threads = Vec::new();
        let mut rest = pollers.split_off(1);
        for (offset, poller) in rest.drain(..).enumerate() {
            let index = offset + 1;
            let reactor = Reactor::new(Arc::clone(&shared), poller, &mailboxes, index, None);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("busytime-io-{index}"))
                    .spawn(move || reactor.run())?,
            );
        }
        let poller0 = pollers.pop().expect("reactor 0's poller");
        let reactor0 = Reactor::new(Arc::clone(&shared), poller0, &mailboxes, 0, Some(acceptor));
        let mut fatal = reactor0.run();
        // reactor 0 only exits once the token fired and its own drain
        // finished; nudge the sibling loops so theirs is prompt too
        for mailbox in &mailboxes[1..] {
            let _ = mailbox.waker.wake();
        }
        for handle in threads {
            match handle.join() {
                Ok(Some(e)) => {
                    fatal.get_or_insert(e);
                }
                Ok(None) => {}
                Err(_) => {
                    fatal.get_or_insert_with(|| std::io::Error::other("an I/O reactor panicked"));
                }
            }
        }
        #[cfg(unix)]
        if let Some(path) = unix_path {
            let _ = std::fs::remove_file(&path);
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(*lock_ignoring_poison(&shared.counts)),
        }
    }
}

fn bind_tcp(addr: &str) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{addr}: {e}")))?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// Poller key of each reactor's wake eventfd.
const KEY_WAKER: usize = 0;
/// Poller key of the accept socket (reactor 0 only).
const KEY_ACCEPT: usize = 1;
/// First poller key handed to connections. Connection keys are even; a
/// session's own sockets register under its connection's key + 1, so
/// `key & !1` maps any event back to its connection.
const FIRST_CONN_KEY: usize = 2;
/// The connection cap when `max_conns` is 0.
pub const DEFAULT_MAX_CONNS: usize = 64;
/// Default reactor thread count.
const DEFAULT_IO_THREADS: usize = 2;
/// The per-connection outbox cap in bytes when `outbox_limit` is 0.
pub const DEFAULT_OUTBOX_LIMIT: usize = 256 * 1024;
/// Per-service read cap: a firehose connection yields the reactor after
/// this many bytes (level-triggered polling re-reports it immediately).
const READ_BUDGET: usize = 64 * 1024;
/// How long a finished connection lingers half-closed, draining the
/// client's trailing bytes, so the close is a FIN and the summary line
/// survives in flight. An EOF from the client short-circuits it.
const LINGER: Duration = Duration::from_millis(150);
/// Upper bound on one poll wait: the cadence at which reactors notice the
/// shutdown token and the endpoint-wide idle timeout.
const POLL_GRANULARITY: Duration = Duration::from_millis(20);
/// Simultaneously-open polite rejections per reactor; past this a connect
/// flood is being shed and further connections are dropped outright —
/// overload must not mint unbounded connection state (it already cannot
/// mint threads).
const REJECT_BACKLOG_CAP: usize = 1024;
/// `expect` message for writes into a `Vec<u8>` outbox.
const VEC_WRITE: &str = "writing to a Vec cannot fail";

/// Everything the reactors share: the backend, the connection limits and
/// the cross-reactor gauges behind `/healthz` and the final counts.
struct Shared<B: Backend> {
    backend: Arc<B>,
    shutdown: CancelToken,
    http: bool,
    max_conns: usize,
    io_threads: usize,
    outbox_limit: usize,
    idle_timeout: Option<Duration>,
    conn_idle_timeout: Option<Duration>,
    write_timeout: Duration,
    /// Connections holding a capacity slot (everything but rejections).
    active: AtomicUsize,
    /// Every accepted socket not yet closed, rejections included.
    open: AtomicUsize,
    /// Total bytes queued in connection outboxes.
    outbox_bytes: AtomicUsize,
    counts: Mutex<ConnCounts>,
    last_activity: Mutex<Instant>,
    started: Instant,
}

impl<B: Backend> Shared<B> {
    fn healthz(&self) -> String {
        self.backend.healthz(&Gauges {
            active_connections: self.active.load(Ordering::SeqCst),
            open_connections: self.open.load(Ordering::SeqCst),
            io_threads: self.io_threads,
            outbox_bytes: self.outbox_bytes.load(Ordering::SeqCst),
            uptime_ms: self.started.elapsed().as_millis(),
        })
    }
}

/// A reactor's cross-thread inbox: the acceptor deals fresh connections
/// in, other threads post the keys of connections whose sessions have
/// new completions, and either post rings the eventfd to wake the poll
/// loop.
struct Mailbox {
    waker: Waker,
    post: Mutex<Post>,
}

#[derive(Default)]
struct Post {
    conns: Vec<(Conn, usize)>,
    dirty: Vec<usize>,
}

impl Mailbox {
    fn post_conn(&self, conn: Conn, conn_id: usize) {
        lock_ignoring_poison(&self.post).conns.push((conn, conn_id));
        let _ = self.waker.wake();
    }

    fn post_dirty(&self, key: usize) {
        lock_ignoring_poison(&self.post).dirty.push(key);
        let _ = self.waker.wake();
    }

    fn take(&self) -> (Vec<(Conn, usize)>, Vec<usize>) {
        let mut post = lock_ignoring_poison(&self.post);
        (
            std::mem::take(&mut post.conns),
            std::mem::take(&mut post.dirty),
        )
    }
}

/// Milliseconds per timer-wheel bucket.
const TIMER_TICK_MS: u64 = 8;

/// A coarse slotted timer wheel over the reactor's clock: deadlines land
/// in [`TIMER_TICK_MS`] buckets keyed by tick index, and entries carry
/// the connection's timer generation, so a superseded deadline is simply
/// ignored when its bucket fires (lazy cancellation — rescheduling never
/// searches the wheel).
struct TimerWheel {
    base: Instant,
    slots: BTreeMap<u64, Vec<(usize, u64)>>,
}

impl TimerWheel {
    fn new() -> TimerWheel {
        TimerWheel {
            base: Instant::now(),
            slots: BTreeMap::new(),
        }
    }

    /// The bucket `when` lands in, rounded up so a bucket never fires
    /// before its deadlines.
    fn tick_of(&self, when: Instant) -> u64 {
        let ms = when.saturating_duration_since(self.base).as_millis() as u64;
        ms / TIMER_TICK_MS + 1
    }

    fn schedule(&mut self, tick: u64, key: usize, generation: u64) {
        self.slots.entry(tick).or_default().push((key, generation));
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.slots
            .keys()
            .next()
            .map(|tick| self.base + Duration::from_millis(tick * TIMER_TICK_MS))
    }

    fn pop_due(&mut self, now: Instant) -> Vec<(usize, u64)> {
        let now_tick = now.saturating_duration_since(self.base).as_millis() as u64 / TIMER_TICK_MS;
        let later = self.slots.split_off(&(now_tick + 1));
        std::mem::replace(&mut self.slots, later)
            .into_values()
            .flatten()
            .collect()
    }
}

/// How a connection is counted when it closes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tally {
    /// A real client connection (batch served, or died trying).
    Conn,
    /// A one-shot `GET /healthz` probe on an NDJSON endpoint — counted
    /// separately, never as a connection.
    Probe,
    /// An at-capacity rejection — counted at accept time, not at close.
    Reject,
}

/// What protocol state a connection is in.
enum Kind<S> {
    /// NDJSON endpoints sniff the first bytes: an HTTP `GET ` opener
    /// means a health probe (a router, `curl`) reached the NDJSON port
    /// and gets the one-shot `/healthz` answer; anything else (including
    /// the sniffed bytes themselves) feeds the batch session unchanged.
    Sniff(Vec<u8>),
    /// An NDJSON batch session in progress.
    Session(Box<S>),
    /// An HTTP/1.1 connection (requests parsed incrementally).
    Http(Box<HttpConn<S>>),
    /// Terminal: flush the outbox, half-close, linger briefly to drain
    /// the client's trailing bytes, then close.
    Flush,
}

/// One registered connection owned by a reactor.
struct ConnState<S> {
    conn: Conn,
    conn_id: usize,
    peer: String,
    kind: Kind<S>,
    tally: Tally,
    /// Bytes owed to the client; `sent` of them are already written.
    outbox: Vec<u8>,
    sent: usize,
    /// This connection's contribution to the `outbox_bytes` gauge.
    gauge: usize,
    /// The (read, write) interest currently registered with the poller.
    interest: (bool, bool),
    /// Reads stopped because the outbox is over the cap (back-pressure).
    read_suspended: bool,
    /// We half-closed our write side (the summary is fully flushed).
    half_closed: bool,
    /// The client half-closed (or was idle-cut, which is treated the
    /// same: a polite end-of-batch).
    peer_eof: bool,
    /// The finished NDJSON session, settled with the backend once the
    /// outbox flush completes.
    done: Option<Box<S>>,
    /// When the client last sent a byte (the conn-idle clock; refreshed
    /// while the server owes the connection work, so a slow solve is
    /// never mistaken for a quiet client).
    last_byte: Instant,
    /// When a write last made progress (the write-timeout clock).
    last_write_progress: Instant,
    /// Set at half-close: when the post-close drain gives up on a client
    /// that neither reads nor closes.
    linger_until: Option<Instant>,
    /// Lazy-cancellation generation for this connection's wheel entries.
    timer_gen: u64,
    /// The wheel bucket currently scheduled, to avoid re-inserting an
    /// unchanged deadline on every service.
    timer_tick: Option<u64>,
}

impl<S: Session> ConnState<S> {
    fn pending(&self) -> usize {
        self.outbox.len() - self.sent
    }

    /// The live session, if one is running.
    fn session(&self) -> Option<&S> {
        match &self.kind {
            Kind::Session(session) => Some(session),
            Kind::Http(http) => match &http.state {
                HttpState::Solving { session, .. } => Some(session),
                _ => None,
            },
            Kind::Sniff(_) | Kind::Flush => None,
        }
    }

    /// The server still owes this connection answers.
    fn has_work(&self) -> bool {
        match &self.kind {
            Kind::Http(http) => matches!(http.state, HttpState::Solving { .. }),
            _ => self.session().is_some_and(S::has_inflight),
        }
    }
}

/// An HTTP/1.1 connection's incremental parse state.
struct HttpConn<S> {
    /// Raw bytes not yet consumed by the current state.
    buf: Vec<u8>,
    state: HttpState<S>,
}

enum HttpState<S> {
    /// Waiting for (the rest of) a request head.
    Head,
    /// Collecting a `Content-Length` body. `discard` bodies (on
    /// `GET /healthz`) are drained so keep-alive framing survives.
    Body {
        request: HttpRequest,
        body: Vec<u8>,
        discard: bool,
        keep_alive: bool,
    },
    /// A `POST /solve` batch in progress; the session's output
    /// accumulates in `response` until the summary lands.
    Solving {
        session: Box<S>,
        keep_alive: bool,
        response: Vec<u8>,
    },
}

/// What [`step_conn`] decided about a connection.
enum Step {
    Keep,
    /// Close now; `Some(reason)` is reported as an abort for real
    /// connections.
    Close(Option<String>),
}

/// What [`step_http`] decided about an HTTP connection.
enum HttpStep {
    /// Waiting on more bytes or on session progress.
    Wait,
    /// The connection is done (response written, or a clean end); flush
    /// and close.
    Finish,
    /// A transport-grade failure; close and report.
    Abort(String),
}

/// The reactor-side context of servicing one connection.
struct Site<'a, B: Backend> {
    shared: &'a Shared<B>,
    mailbox: &'a Arc<Mailbox>,
    poller: &'a Arc<Poller>,
    key: usize,
    draining: bool,
}

impl<B: Backend> Site<'_, B> {
    /// A fresh backend session for this connection.
    fn open(&self) -> Box<B::Session> {
        Box::new(self.shared.backend.open(SessionLink {
            wake: Wake {
                mailbox: Arc::clone(self.mailbox),
                key: self.key,
            },
            poller: Arc::clone(self.poller),
        }))
    }
}

/// One I/O thread: an epoll loop owning a share of the connections.
/// Reactor 0 additionally owns the accept socket and deals new
/// connections round-robin across the set.
struct Reactor<B: Backend> {
    shared: Arc<Shared<B>>,
    poller: Arc<Poller>,
    mailbox: Arc<Mailbox>,
    /// Every reactor's mailbox, indexed by reactor; the acceptor's
    /// dealing table.
    peers: Vec<Arc<Mailbox>>,
    index: usize,
    acceptor: Option<Acceptor>,
    conns: HashMap<usize, ConnState<B::Session>>,
    timers: TimerWheel,
    next_key: usize,
    /// Served-connection ids (reactor 0 only).
    conn_seq: usize,
    /// Round-robin cursor over `peers` (reactor 0 only).
    rr: usize,
    rejects_open: usize,
    draining: bool,
    fatal: Option<std::io::Error>,
}

impl<B: Backend> Reactor<B> {
    fn new(
        shared: Arc<Shared<B>>,
        poller: Arc<Poller>,
        mailboxes: &[Arc<Mailbox>],
        index: usize,
        acceptor: Option<Acceptor>,
    ) -> Reactor<B> {
        Reactor {
            shared,
            poller,
            mailbox: Arc::clone(&mailboxes[index]),
            peers: mailboxes.to_vec(),
            index,
            acceptor,
            conns: HashMap::new(),
            timers: TimerWheel::new(),
            next_key: FIRST_CONN_KEY,
            conn_seq: 0,
            rr: 0,
            rejects_open: 0,
            draining: false,
            fatal: None,
        }
    }

    fn run(mut self) -> Option<std::io::Error> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.shutdown.is_cancelled() && !self.draining {
                self.draining = true;
                if let Some(acceptor) = &self.acceptor {
                    let _ = self.poller.delete(acceptor.raw_fd());
                }
                // every live session gets its polite end-of-batch: answer
                // what was received, summarize, flush, close
                let keys: Vec<usize> = self.conns.keys().copied().collect();
                for key in keys {
                    self.service(key);
                }
            }
            let (new_conns, dirty) = self.mailbox.take();
            for (conn, conn_id) in new_conns {
                // a connection that raced the drain still gets served the
                // polite way — service() under `draining` finishes it
                if let Some(key) = self.register_client(conn, conn_id) {
                    self.service(key);
                }
            }
            for key in dirty {
                self.service(key);
            }
            if self.draining && self.conns.is_empty() {
                break;
            }
            let now = Instant::now();
            for (key, generation) in self.timers.pop_due(now) {
                let live = self.conns.get_mut(&key).is_some_and(|state| {
                    if state.timer_gen == generation {
                        state.timer_tick = None;
                        true
                    } else {
                        false
                    }
                });
                if live {
                    self.service(key);
                }
            }
            if !self.draining && self.acceptor.is_some() {
                if let Some(idle) = self.shared.idle_timeout {
                    let quiet = self.shared.active.load(Ordering::SeqCst) == 0
                        && lock_ignoring_poison(&self.shared.last_activity).elapsed() >= idle;
                    if quiet {
                        self.shared.shutdown.cancel();
                        continue;
                    }
                }
            }
            let mut timeout = POLL_GRANULARITY;
            if let Some(next) = self.timers.next_deadline() {
                timeout = timeout.min(next.saturating_duration_since(now));
            }
            events.clear();
            match self
                .poller
                .wait(&mut events, Some(timeout.max(Duration::from_millis(1))))
            {
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    // the poller itself is broken: shed every connection
                    // and stop; serve() surfaces the error after the other
                    // reactors drain
                    self.fatal.get_or_insert(e);
                    self.shared.shutdown.cancel();
                    let keys: Vec<usize> = self.conns.keys().copied().collect();
                    for key in keys {
                        self.close_conn(key, None);
                    }
                    break;
                }
            }
            for event in &events {
                match event.key {
                    KEY_WAKER => self.mailbox.waker.drain(),
                    KEY_ACCEPT => self.accept_some(),
                    key => self.service(key & !1),
                }
            }
        }
        self.fatal
    }

    /// Accepts until the socket would block (reactor 0 only).
    fn accept_some(&mut self) {
        if self.draining {
            return;
        }
        // moved out for the duration of the loop so accepting can call
        // &mut self methods (register/service) between accepts
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        loop {
            match acceptor.accept() {
                Ok(conn) => {
                    *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
                    let _ = conn.set_nonblocking();
                    if self.shared.active.load(Ordering::SeqCst) >= self.shared.max_conns {
                        lock_ignoring_poison(&self.shared.counts).rejected += 1;
                        if self.rejects_open >= REJECT_BACKLOG_CAP {
                            continue; // shed outright
                        }
                        self.shared.open.fetch_add(1, Ordering::SeqCst);
                        let message = self.shared.backend.at_capacity(self.shared.max_conns);
                        let outbox = rejection_bytes(self.shared.http, &message);
                        if let Some(key) =
                            self.register(conn, 0, Kind::Flush, Tally::Reject, outbox)
                        {
                            self.service(key);
                        }
                        continue;
                    }
                    self.conn_seq += 1;
                    let conn_id = self.conn_seq;
                    self.shared.active.fetch_add(1, Ordering::SeqCst);
                    // counted at accept, not at registration: a probe must
                    // not miss connections still in a reactor's mailbox
                    self.shared.open.fetch_add(1, Ordering::SeqCst);
                    let target = self.rr % self.shared.io_threads;
                    self.rr += 1;
                    if target == self.index {
                        if let Some(key) = self.register_client(conn, conn_id) {
                            self.service(key);
                        }
                    } else {
                        self.peers[target].post_conn(conn, conn_id);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // transient per-connection accept failures (the peer reset
                // before we got to it) must not take the server down
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    self.fatal.get_or_insert(e);
                    self.shared.shutdown.cancel();
                    break;
                }
            }
        }
        self.acceptor = Some(acceptor);
    }

    /// Registers a freshly accepted client connection in its opening
    /// protocol state.
    fn register_client(&mut self, conn: Conn, conn_id: usize) -> Option<usize> {
        let kind = if self.shared.http {
            Kind::Http(Box::new(HttpConn {
                buf: Vec::new(),
                state: HttpState::Head,
            }))
        } else {
            Kind::Sniff(Vec::new())
        };
        self.register(conn, conn_id, kind, Tally::Conn, Vec::new())
    }

    /// Registers a connection with the poller and the connection map.
    /// Returns `None` (dropping the socket, releasing any capacity slot)
    /// if the poller refuses the fd.
    fn register(
        &mut self,
        conn: Conn,
        conn_id: usize,
        kind: Kind<B::Session>,
        tally: Tally,
        outbox: Vec<u8>,
    ) -> Option<usize> {
        let key = self.next_key;
        self.next_key += 2;
        if self.poller.add(conn.raw_fd(), key, Interest::READ).is_err() {
            self.shared.open.fetch_sub(1, Ordering::SeqCst);
            if tally != Tally::Reject {
                *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
                self.shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            return None;
        }
        let now = Instant::now();
        let peer = conn.peer();
        self.conns.insert(
            key,
            ConnState {
                conn,
                conn_id,
                peer,
                kind,
                tally,
                outbox,
                sent: 0,
                gauge: 0,
                interest: (true, false),
                read_suspended: false,
                half_closed: false,
                peer_eof: false,
                done: None,
                last_byte: now,
                last_write_progress: now,
                linger_until: None,
                timer_gen: 0,
                timer_tick: None,
            },
        );
        if tally == Tally::Reject {
            self.rejects_open += 1;
        }
        Some(key)
    }

    /// Drives one connection as far as it can go without blocking, then
    /// refreshes its poller interest and timer-wheel deadline.
    fn service(&mut self, key: usize) {
        let Some(state) = self.conns.get_mut(&key) else {
            return;
        };
        let site = Site {
            shared: &self.shared,
            mailbox: &self.mailbox,
            poller: &self.poller,
            key,
            draining: self.draining,
        };
        match step_conn(&site, state) {
            Step::Close(abort) => self.close_conn(key, abort),
            Step::Keep => {
                let shared = &self.shared;
                let pending = state.pending();
                if pending > state.gauge {
                    shared
                        .outbox_bytes
                        .fetch_add(pending - state.gauge, Ordering::SeqCst);
                } else if pending < state.gauge {
                    shared
                        .outbox_bytes
                        .fetch_sub(state.gauge - pending, Ordering::SeqCst);
                }
                state.gauge = pending;
                // back-pressure: reads stop past the outbox cap, resume
                // once the client drains it below half
                if matches!(state.kind, Kind::Flush) {
                    state.read_suspended = false;
                } else if pending > shared.outbox_limit {
                    state.read_suspended = true;
                } else if pending <= shared.outbox_limit / 2 {
                    state.read_suspended = false;
                }
                let want = (
                    !state.read_suspended && !state.peer_eof,
                    pending > 0 && !state.half_closed,
                );
                if want != state.interest
                    && self
                        .poller
                        .modify(state.conn.raw_fd(), key, interest_of(want))
                        .is_ok()
                {
                    state.interest = want;
                }
                match conn_deadline(shared, state) {
                    Some(when) => {
                        let tick = self.timers.tick_of(when);
                        if state.timer_tick != Some(tick) {
                            state.timer_gen += 1;
                            state.timer_tick = Some(tick);
                            self.timers.schedule(tick, key, state.timer_gen);
                        }
                    }
                    None => {
                        if state.timer_tick.is_some() {
                            state.timer_gen += 1;
                            state.timer_tick = None;
                        }
                    }
                }
            }
        }
    }

    /// Deregisters and drops a connection, settling its counts:
    /// connections count once at close, probes count separately, and
    /// rejections were counted at accept.
    fn close_conn(&mut self, key: usize, abort: Option<String>) {
        let Some(mut state) = self.conns.remove(&key) else {
            return;
        };
        // best-effort: an aborting batch may still hold answered lines
        if !state.half_closed {
            let _ = flush_outbox(&mut state);
        }
        let _ = self.poller.delete(state.conn.raw_fd());
        if state.gauge > 0 {
            self.shared
                .outbox_bytes
                .fetch_sub(state.gauge, Ordering::SeqCst);
        }
        self.shared.open.fetch_sub(1, Ordering::SeqCst);
        match state.tally {
            Tally::Reject => {
                self.rejects_open -= 1;
                return;
            }
            Tally::Probe => {
                lock_ignoring_poison(&self.shared.counts).health_probes += 1;
            }
            Tally::Conn => {
                lock_ignoring_poison(&self.shared.counts).connections += 1;
                match abort {
                    Some(reason) => self
                        .shared
                        .backend
                        .abort(state.conn_id, &state.peer, &reason),
                    // normally settled at half-close; this is the
                    // close-raced-the-flush path
                    None => settle(&self.shared, &mut state),
                }
            }
        }
        *lock_ignoring_poison(&self.shared.last_activity) = Instant::now();
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

/// Hands a finished NDJSON session to the backend, once.
fn settle<B: Backend>(shared: &Shared<B>, state: &mut ConnState<B::Session>) {
    if let Some(session) = state.done.take() {
        shared.backend.settle(state.conn_id, &state.peer, &session);
    }
}

/// The next instant at which this connection needs attention with no help
/// from the wire: a stalled writer's abort, a quiet client's idle cut, the
/// end of the post-close linger, or the session's own deadline.
fn conn_deadline<B: Backend>(shared: &Shared<B>, state: &ConnState<B::Session>) -> Option<Instant> {
    let mut deadline = state.session().and_then(Session::deadline);
    if state.pending() > 0 && !state.half_closed {
        deadline = min_deadline(deadline, state.last_write_progress + shared.write_timeout);
    }
    if let Some(idle) = shared.conn_idle_timeout {
        if idle_eligible(state) {
            deadline = min_deadline(deadline, state.last_byte + idle);
        }
    }
    if let Some(linger) = state.linger_until {
        deadline = min_deadline(deadline, linger);
    }
    deadline
}

fn min_deadline(current: Option<Instant>, candidate: Instant) -> Option<Instant> {
    Some(match current {
        Some(existing) if existing <= candidate => existing,
        _ => candidate,
    })
}

/// The conn-idle clock only runs while the connection is wholly quiet:
/// nothing owed to the client, nothing in flight for it, and the client
/// not yet done. (A flushing connection is governed by the write timeout
/// and the linger instead.)
fn idle_eligible<S: Session>(state: &ConnState<S>) -> bool {
    !state.peer_eof
        && !matches!(state.kind, Kind::Flush)
        && state.pending() == 0
        && !state.has_work()
}

/// Drives one connection: read, enforce deadlines, advance the protocol
/// state machine, flush, and settle the endgame (half-close → linger →
/// close). Never blocks.
fn step_conn<B: Backend>(site: &Site<'_, B>, state: &mut ConnState<B::Session>) -> Step {
    let shared = site.shared;
    let now = Instant::now();

    // -- read --------------------------------------------------------------
    if !state.read_suspended && !state.peer_eof {
        let mut scratch = [0u8; 8192];
        let mut budget = READ_BUDGET;
        loop {
            if budget == 0 {
                break; // level-triggered polling re-reports the rest
            }
            match state.conn.read(&mut scratch) {
                Ok(0) => {
                    state.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    budget = budget.saturating_sub(n);
                    state.last_byte = now;
                    match &mut state.kind {
                        Kind::Sniff(buf) => buf.extend_from_slice(&scratch[..n]),
                        Kind::Session(session) => session.feed(&scratch[..n]),
                        Kind::Http(http) => http.buf.extend_from_slice(&scratch[..n]),
                        Kind::Flush => {} // trailing bytes drain into the void
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    return Step::Close(match state.kind {
                        Kind::Flush => None, // response already settled
                        _ => Some(format!("io: {e}")),
                    });
                }
            }
        }
    }

    // -- deadlines ---------------------------------------------------------
    if state.pending() > 0
        && !state.half_closed
        && now.duration_since(state.last_write_progress) >= shared.write_timeout
    {
        return Step::Close(match state.tally {
            Tally::Conn => Some(String::from(
                "io: write timed out; the client stopped reading its responses",
            )),
            _ => None,
        });
    }
    if let Some(idle) = shared.conn_idle_timeout {
        if idle_eligible(state) && !site.draining && now.duration_since(state.last_byte) >= idle {
            // a polite end-of-batch, exactly like a client half-close
            state.peer_eof = true;
        }
    }

    // -- protocol + write --------------------------------------------------
    loop {
        let mut pump_gated = false;
        loop {
            match std::mem::replace(&mut state.kind, Kind::Flush) {
                Kind::Sniff(buf) => {
                    let decide =
                        buf.len() >= 4 || buf.contains(&b'\n') || state.peer_eof || site.draining;
                    if !decide {
                        state.kind = Kind::Sniff(buf);
                        break;
                    }
                    if buf.starts_with(b"GET ") {
                        state.tally = Tally::Probe;
                        respond_healthz(shared, &mut state.outbox, false);
                        // kind stays Flush
                    } else {
                        let mut session = site.open();
                        session.feed(&buf);
                        state.kind = Kind::Session(session);
                    }
                }
                Kind::Session(mut session) => {
                    if state.peer_eof || site.draining {
                        session.finish_input();
                    }
                    let allow_parse = state.pending() <= shared.outbox_limit;
                    pump_gated = !allow_parse;
                    session.pump(&mut state.outbox, allow_parse);
                    if !session.is_done() {
                        state.kind = Kind::Session(session);
                        break;
                    }
                    if let Some(failure) = session.failure() {
                        return Step::Close(Some(failure.to_string()));
                    }
                    let summary = session
                        .summary()
                        .expect("a session done without failure has a summary");
                    writeln!(state.outbox, "{}", summary.to_json_line()).expect(VEC_WRITE);
                    state.done = Some(session);
                    // kind stays Flush
                }
                Kind::Http(mut http) => {
                    match step_http(site, &mut http, state) {
                        HttpStep::Wait => {
                            state.kind = Kind::Http(http);
                            break;
                        }
                        HttpStep::Finish => {} // kind stays Flush
                        HttpStep::Abort(reason) => return Step::Close(Some(reason)),
                    }
                }
                Kind::Flush => break,
            }
        }

        // a session with answers in flight is not an idle client
        if state.has_work() || state.pending() > 0 {
            state.last_byte = now;
        }

        if !state.half_closed {
            if let Err(e) = flush_outbox(state) {
                return Step::Close(match state.tally {
                    Tally::Conn => Some(format!("io: {e}")),
                    _ => None,
                });
            }
        }

        // a flush that reopened the parse gate must re-pump the session:
        // a gated pump with nothing in flight gets no completion wake, so
        // stopping here would strand its buffered input for good
        if pump_gated
            && state.pending() <= shared.outbox_limit
            && matches!(state.kind, Kind::Session(_))
        {
            continue;
        }
        break;
    }

    // -- endgame -----------------------------------------------------------
    if matches!(state.kind, Kind::Flush) && state.pending() == 0 {
        if !state.half_closed {
            state.conn.shutdown_write();
            state.half_closed = true;
            state.linger_until = Some(now + LINGER);
            // the whole batch reached the socket: now (and only now) it
            // counts
            if state.tally == Tally::Conn {
                settle(shared, state);
            }
        }
        if state.peer_eof || state.linger_until.is_some_and(|until| now >= until) {
            return Step::Close(None);
        }
    }
    Step::Keep
}

/// Advances an HTTP connection's request state machine as far as the
/// buffered bytes allow: parse heads, collect bodies, run `POST /solve`
/// batches through a backend session, emit responses into the outbox,
/// and loop for pipelined keep-alive requests. `state.kind` is parked as
/// `Flush` while this runs; only its outbox and flags are used.
fn step_http<B: Backend>(
    site: &Site<'_, B>,
    http: &mut HttpConn<B::Session>,
    state: &mut ConnState<B::Session>,
) -> HttpStep {
    let shared = site.shared;
    let outbox = &mut state.outbox;
    loop {
        match &mut http.state {
            HttpState::Head => {
                let Some(head) = take_head(&mut http.buf) else {
                    if http.buf.len() > MAX_HEAD_BYTES {
                        respond_http_error(outbox, "400 Bad Request", "request head too large");
                        return HttpStep::Finish;
                    }
                    if site.draining {
                        // the shutdown drain between (or inside) requests
                        // is a clean goodbye
                        return HttpStep::Finish;
                    }
                    if state.peer_eof {
                        if http.buf.iter().all(|b| matches!(b, b'\r' | b'\n')) {
                            return HttpStep::Finish; // clean close between requests
                        }
                        respond_http_error(outbox, "400 Bad Request", "truncated request head");
                        return HttpStep::Finish;
                    }
                    return HttpStep::Wait;
                };
                let request = match parse_http_head(&head) {
                    Ok(request) => request,
                    Err(reason) => {
                        respond_http_error(outbox, "400 Bad Request", &reason);
                        return HttpStep::Finish;
                    }
                };
                let keep_alive = request.keep_alive && !shared.shutdown.is_cancelled();
                match (request.method.as_str(), request.path.as_str()) {
                    ("GET", "/healthz") => match request.content_length {
                        // a body on a probe is unusual but legal; leaving
                        // it unread would corrupt the next request on a
                        // keep-alive connection, so drain it (or give up
                        // on keep-alive when it is unreasonably large)
                        None | Some(0) => {
                            respond_healthz(shared, outbox, keep_alive);
                            if !keep_alive {
                                return HttpStep::Finish;
                            }
                        }
                        Some(length) if length <= MAX_HEAD_BYTES => {
                            http.state = HttpState::Body {
                                request,
                                body: Vec::new(),
                                discard: true,
                                keep_alive,
                            };
                        }
                        Some(_) => {
                            respond_healthz(shared, outbox, false);
                            return HttpStep::Finish;
                        }
                    },
                    ("POST", "/solve") => {
                        let Some(length) = request.content_length else {
                            respond_http_error(
                                outbox,
                                "411 Length Required",
                                "POST /solve needs a Content-Length body",
                            );
                            return HttpStep::Finish;
                        };
                        if length > MAX_BODY_BYTES {
                            respond_http_error(
                                outbox,
                                "413 Content Too Large",
                                "batch body too large",
                            );
                            return HttpStep::Finish;
                        }
                        http.state = HttpState::Body {
                            request,
                            body: Vec::new(),
                            discard: false,
                            keep_alive,
                        };
                    }
                    (_, "/healthz") | (_, "/solve") => {
                        respond_http_error(
                            outbox,
                            "405 Method Not Allowed",
                            "use GET /healthz or POST /solve",
                        );
                        return HttpStep::Finish;
                    }
                    _ => {
                        respond_http_error(
                            outbox,
                            "404 Not Found",
                            "unknown path; this server has /healthz and /solve",
                        );
                        return HttpStep::Finish;
                    }
                }
            }
            HttpState::Body {
                request,
                body,
                discard,
                keep_alive,
            } => {
                let length = request.content_length.unwrap_or(0);
                let take = (length - body.len()).min(http.buf.len());
                body.extend_from_slice(&http.buf[..take]);
                http.buf.drain(..take);
                if body.len() < length {
                    if site.draining {
                        return HttpStep::Finish; // clean drain mid-body
                    }
                    if state.peer_eof {
                        return HttpStep::Abort(String::from(
                            "io: connection closed before the full request body arrived",
                        ));
                    }
                    return HttpStep::Wait;
                }
                if *discard {
                    let ka = *keep_alive;
                    respond_healthz(shared, outbox, ka);
                    http.state = HttpState::Head;
                    if !ka {
                        return HttpStep::Finish;
                    }
                } else {
                    let mut session = site.open();
                    session.feed(body);
                    session.finish_input();
                    http.state = HttpState::Solving {
                        session,
                        keep_alive: *keep_alive,
                        response: Vec::new(),
                    };
                }
            }
            HttpState::Solving {
                session,
                keep_alive,
                response,
            } => {
                session.pump(response, true);
                if !session.is_done() {
                    return HttpStep::Wait;
                }
                if let Some(failure) = session.failure() {
                    if matches!(failure, ServeError::FailFast { .. }) {
                        let cause = failure.to_string();
                        respond_http_error(outbox, "422 Unprocessable Entity", &cause);
                        return HttpStep::Finish;
                    }
                    return HttpStep::Abort(failure.to_string());
                }
                let summary = session
                    .summary()
                    .expect("a session done without failure has a summary");
                writeln!(response, "{}", summary.to_json_line()).expect(VEC_WRITE);
                let ka = *keep_alive;
                write_http_response(outbox, "200 OK", "application/x-ndjson", response, ka)
                    .expect(VEC_WRITE);
                shared.backend.settle(state.conn_id, &state.peer, session);
                http.state = HttpState::Head;
                if !ka {
                    return HttpStep::Finish;
                }
            }
        }
    }
}

/// Takes one complete request head (leading blank lines tolerated, the
/// terminator consumed) off the front of `buf`, or `None` if the
/// terminator has not arrived yet.
fn take_head(buf: &mut Vec<u8>) -> Option<Vec<u8>> {
    let start = buf
        .iter()
        .position(|b| !matches!(b, b'\r' | b'\n'))
        .unwrap_or(buf.len());
    let mut i = start;
    while i < buf.len() {
        if buf[i] == b'\n' {
            let rest = &buf[i + 1..];
            if rest.starts_with(b"\r\n") {
                let head = buf[start..=i].to_vec();
                buf.drain(..i + 3);
                return Some(head);
            }
            if rest.starts_with(b"\n") {
                let head = buf[start..=i].to_vec();
                buf.drain(..i + 2);
                return Some(head);
            }
            if rest.is_empty() {
                break; // possibly mid-terminator; wait for more bytes
            }
        }
        i += 1;
    }
    None
}

/// Writes the outbox's unsent tail until the socket would block.
fn flush_outbox<S>(state: &mut ConnState<S>) -> std::io::Result<()> {
    while state.sent < state.outbox.len() {
        match state.conn.write(&state.outbox[state.sent..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => {
                state.sent += n;
                state.last_write_progress = Instant::now();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) => return Err(e),
        }
    }
    if state.sent == state.outbox.len() {
        state.outbox.clear();
        state.sent = 0;
    } else if state.sent > 64 * 1024 {
        // keep a long-lived slow drain from pinning the written prefix
        state.outbox.drain(..state.sent);
        state.sent = 0;
    }
    Ok(())
}

/// The prefilled outbox of an at-capacity rejection.
fn rejection_bytes(http: bool, message: &str) -> Vec<u8> {
    if http {
        let mut outbox = Vec::new();
        respond_http_error(&mut outbox, "503 Service Unavailable", message);
        outbox
    } else {
        format!("{}\n", error_line(0, None, message)).into_bytes()
    }
}

fn respond_healthz<B: Backend>(shared: &Shared<B>, outbox: &mut Vec<u8>, keep_alive: bool) {
    let body = shared.healthz();
    write_http_response(
        outbox,
        "200 OK",
        "application/json",
        body.as_bytes(),
        keep_alive,
    )
    .expect(VEC_WRITE);
}

fn respond_http_error(outbox: &mut Vec<u8>, status: &str, reason: &str) {
    let body = format!("{{\"error\": {reason:?}}}\n");
    write_http_response(outbox, status, "application/json", body.as_bytes(), false)
        .expect(VEC_WRITE);
}
