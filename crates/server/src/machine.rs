//! The record pipeline: one resumable batch session that every serving
//! path drives — the [`crate::reactor`] core per listener connection (and
//! so every `route` shard), and [`crate::engine::BatchSession::run`] for
//! stdin `serve`/`batch`.
//!
//! [`SessionMachine`] is fed raw request bytes (`feed`), parses them in
//! waves of at most the chunk size, hands each wave's solves to the shared
//! [`Executor`], and, when pumped (`pump`), emits response lines in input
//! order. It never blocks. The next wave is parsed only once every solve
//! of the current one has completed, so a record repeated after a
//! completed wave is a solution-cache hit whichever thread drives it.
//!
//! A wave is solved by at most `width` runner jobs that claim its records
//! from a shared cursor, so a worker reaches the next record without a
//! round trip through the owning thread. Between records a runner
//! re-queues itself behind other pending executor work, the fairness rule
//! of the executor's own batches.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use busytime_core::cancel::CancelToken;
use busytime_core::memo::{CanonicalInstance, SolutionCache};
use busytime_core::pool::Executor;
use busytime_core::solve::SolverRegistry;

use crate::engine::{
    effective_chunk_size, effective_width, lock_ignoring_poison, prepare_record, settle_bad,
    settle_hit, settle_outcome, solve_prepared, BatchSummary, ErrorPolicy, RecordResult,
    ServeConfig, ServeError, SessionStats, SharedFeatureCache, SolveItem,
};
use crate::protocol::BatchRecord;
use crate::reactor::Session;

/// Everything a session's records are solved against. A listener shares
/// one with every connection; a [`crate::engine::BatchSession`] builds
/// one per run.
pub(crate) struct SessionContext {
    pub(crate) registry: Arc<SolverRegistry>,
    pub(crate) config: ServeConfig,
    pub(crate) cache: SharedFeatureCache,
    pub(crate) solutions: SolutionCache,
    pub(crate) executor: Executor,
    /// The session (or listener shutdown) token: parsing stops once it
    /// fires, and every record token is armed as a child of it so a drain
    /// cuts in-flight solves cooperatively.
    pub(crate) cancel: CancelToken,
}

/// The completion wake: called by runners after posting each completion,
/// with `true` for the one that completes its wave. Must be cheap and
/// non-blocking.
pub(crate) type Notify = Arc<dyn Fn(bool) + Send + Sync>;

/// One completed solve, posted by a runner into the machine's inbox.
struct Completion {
    seq: usize,
    outcome: RecordResult,
}

/// How one input-order slot is answered.
enum Answer {
    /// The line failed to parse.
    Bad(String),
    /// Answered from the solution cache at parse time.
    Hit(busytime_core::SolveReport),
    /// A completed solve.
    Solved(RecordResult),
}

/// One record's input-order slot.
struct Slot {
    line: usize,
    id: Option<String>,
    /// `None` while the record's solve is in flight; drains once every
    /// earlier slot has drained.
    answer: Option<Box<Answer>>,
}

/// One dispatched wave: its solves (with their slot seqs) and the cursor
/// its runner jobs claim them from.
struct Wave {
    items: Vec<(usize, SolveItem)>,
    /// The next unclaimed index. It publishes no data — the items are
    /// immutable once the wave is built — so `Relaxed` suffices.
    cursor: AtomicUsize,
    /// Records whose completion is not posted yet, unclaimed ones
    /// included until `close` withdraws them.
    pending: AtomicUsize,
    ctx: Arc<SessionContext>,
    inbox: Arc<Mutex<Vec<Completion>>>,
    notify: Notify,
}

impl Wave {
    fn claim(&self) -> Option<&(usize, SolveItem)> {
        self.items.get(self.cursor.fetch_add(1, Ordering::Relaxed))
    }

    /// Stops runners from claiming further records (claimed ones finish)
    /// and returns how many records will therefore never complete.
    fn close(&self) -> usize {
        let claimed = self.cursor.fetch_max(self.items.len(), Ordering::Relaxed);
        let unclaimed = self.items.len() - claimed.min(self.items.len());
        self.pending.fetch_sub(unclaimed, Ordering::AcqRel);
        unclaimed
    }

    /// A runner job: solves claimed records until the wave runs dry,
    /// yielding its worker to other pending executor work between
    /// records.
    fn run(self: Arc<Self>) {
        while let Some((seq, item)) = self.claim() {
            let outcome = solve_prepared(item, &self.ctx);
            lock_ignoring_poison(&self.inbox).push(Completion { seq: *seq, outcome });
            // the post above happens before the count drops, so the wave's
            // last wake finds every one of its completions in the inbox
            (self.notify)(self.pending.fetch_sub(1, Ordering::AcqRel) == 1);
            let unclaimed = self.cursor.load(Ordering::Relaxed) < self.items.len();
            if unclaimed && self.ctx.executor.queue_depth() > 0 {
                let executor = self.ctx.executor.clone();
                executor.spawn(move || self.run());
                return;
            }
        }
    }
}

/// Blank lines (whitespace only) are not records: they are skipped
/// without an answer, though they still count toward line numbers.
pub(crate) fn is_blank_line(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|line| line.trim().is_empty())
}

/// A resumable batch session: feed bytes in, pump response bytes out, in
/// input order; see the [module docs](self).
pub(crate) struct SessionMachine {
    ctx: Arc<SessionContext>,
    /// Completions posted by runners; drained by `pump`.
    inbox: Arc<Mutex<Vec<Completion>>>,
    notify: Notify,
    /// Buffered input bytes; `inbuf[head..]` is unconsumed. Parsed lines
    /// are drained off the front once per wave, not once per line.
    inbuf: Vec<u8>,
    head: usize,
    /// Where the newline scan over `inbuf` resumes.
    scanned: usize,
    line_no: usize,
    /// `finish_input` was called: the client's end of batch.
    eof: bool,
    /// FailFast latch: the batch is aborted, no further answers stream,
    /// and the connection should be cut.
    failed: Option<ServeError>,
    /// Input-order slots awaiting drain; `base_seq` is the front's seq.
    slots: VecDeque<Slot>,
    base_seq: usize,
    next_seq: usize,
    /// The wave on the executor, until its solves are all answered.
    wave: Option<Arc<Wave>>,
    /// Solves of the current wave that will post a completion which has
    /// not drained yet — after an abort, the claimed solves still running.
    inflight: usize,
    width: usize,
    chunk_size: usize,
    stats: SessionStats,
    started: Instant,
    summary: Option<BatchSummary>,
}

impl SessionMachine {
    /// A machine over a shared context. `notify` is invoked from executor
    /// workers whenever a completion lands in the inbox — the owner's
    /// hook to wake whatever thread owns this machine — with `true` once
    /// the wave's last completion has landed.
    pub(crate) fn new(ctx: Arc<SessionContext>, notify: Notify) -> Self {
        let width = effective_width(&ctx.config, &ctx.executor);
        let chunk_size = effective_chunk_size(&ctx.config, width);
        SessionMachine {
            ctx,
            inbox: Arc::new(Mutex::new(Vec::new())),
            notify,
            inbuf: Vec::new(),
            head: 0,
            scanned: 0,
            line_no: 0,
            eof: false,
            failed: None,
            slots: VecDeque::new(),
            base_seq: 0,
            next_seq: 0,
            wave: None,
            inflight: 0,
            width,
            chunk_size,
            stats: SessionStats::default(),
            started: Instant::now(),
            summary: None,
        }
    }

    /// Records per wave.
    pub(crate) fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The machine would parse a new wave now, and its input has not
    /// ended: the moment a blocking owner reads the next wave's lines.
    pub(crate) fn wants_input(&self) -> bool {
        !self.eof && !self.ctx.cancel.is_cancelled() && self.can_parse()
    }

    /// The finished batch: its summary, or why it aborted.
    pub(crate) fn into_outcome(self) -> Result<BatchSummary, ServeError> {
        match self.failed {
            Some(error) => Err(error),
            None => Ok(self.summary.expect("outcome of a finished session")),
        }
    }

    /// Stops the current wave's runners from claiming further records;
    /// solves already claimed run to completion.
    pub(crate) fn halt(&mut self) {
        if let Some(wave) = &self.wave {
            self.inflight -= wave.close();
        }
    }

    /// Moves posted completions into their slots.
    fn drain_inbox(&mut self) {
        let completions = std::mem::take(&mut *lock_ignoring_poison(&self.inbox));
        for Completion { seq, outcome } in completions {
            self.inflight -= 1;
            if self.inflight == 0 {
                // the wave is answered: let its records go with the last
                // runner instead of holding them until the next wave
                self.wave = None;
            }
            // completions for slots cleared by a FailFast abort are stale
            if seq < self.base_seq {
                continue;
            }
            let slot = &mut self.slots[seq - self.base_seq];
            debug_assert!(slot.answer.is_none());
            slot.answer = Some(Box::new(Answer::Solved(outcome)));
        }
    }

    /// Streams the contiguous ready prefix, settling each answer into the
    /// session statistics.
    fn drain_ready(&mut self, out: &mut Vec<u8>) -> bool {
        let mut any = false;
        while self.slots.front().is_some_and(|s| s.answer.is_some()) {
            let slot = self.slots.pop_front().expect("checked front");
            self.base_seq += 1;
            let answer = slot.answer.expect("front checked answered");
            let policy = self.ctx.config.error_policy;
            let settled = match *answer {
                Answer::Bad(message) => settle_bad(
                    slot.line,
                    slot.id.as_deref(),
                    &message,
                    policy,
                    &mut self.stats,
                ),
                Answer::Hit(report) => Ok(settle_hit(
                    slot.line,
                    slot.id.as_deref(),
                    &report,
                    &mut self.stats,
                )),
                Answer::Solved(outcome) => settle_outcome(
                    slot.line,
                    slot.id.as_deref(),
                    &outcome,
                    policy,
                    &mut self.stats,
                ),
            };
            match settled {
                Ok(line) => {
                    out.extend_from_slice(line.as_bytes());
                    out.push(b'\n');
                    any = true;
                }
                Err(e) => {
                    self.fail(e);
                    break;
                }
            }
        }
        any
    }

    /// Aborts the batch: later slots never answer, the wave's unclaimed
    /// records are never solved, and completions of the claimed ones are
    /// dropped as stale when they arrive.
    fn fail(&mut self, error: ServeError) {
        self.failed = Some(error);
        self.halt();
        self.slots.clear();
        self.base_seq = self.next_seq;
    }

    /// A new wave may parse once the current one has fully completed
    /// (answered by the runners, not yet drained to the client: its
    /// write-backs have happened, so parse-time lookups see them).
    fn can_parse(&self) -> bool {
        self.failed.is_none() && self.summary.is_none() && self.inflight == 0
    }

    /// Consumes the next complete line of `inbuf` (or, after a client
    /// EOF, the final unterminated one) and returns its byte range. After
    /// the session token fires only complete lines count: the drain
    /// answers what was fully received, with tokens born cancelled.
    fn take_line(&mut self) -> Option<std::ops::Range<usize>> {
        let end = match self.inbuf[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(at) => self.scanned + at + 1,
            None if self.eof && !self.ctx.cancel.is_cancelled() && self.head < self.inbuf.len() => {
                self.inbuf.len()
            }
            None => {
                self.scanned = self.inbuf.len();
                return None;
            }
        };
        let line = self.head..end;
        self.head = end;
        self.scanned = end;
        Some(line)
    }

    /// Parses up to one chunk of buffered records into new slots and
    /// dispatches the wave's solves: bad lines and solution-cache hits
    /// are answered at once. Counts the wave's feature-cache lookups.
    fn parse_wave(&mut self) -> bool {
        let mut records = 0;
        let mut solves: Vec<(usize, SolveItem)> = Vec::new();
        while records < self.chunk_size {
            let Some(line) = self.take_line() else { break };
            self.line_no += 1;
            let bytes = &self.inbuf[line];
            if is_blank_line(bytes) {
                continue;
            }
            let parsed = std::str::from_utf8(bytes)
                .map_err(|e| (None, format!("line is not valid UTF-8: {e}")))
                .and_then(|line| {
                    let line = line.trim();
                    BatchRecord::parse(line)
                        .map_err(|e| (BatchRecord::salvage_id(line), e.to_string()))
                });
            let seq = self.next_seq;
            let mut abort = false;
            let (id, answer) = match parsed {
                Ok(record) => {
                    let mut item = prepare_record(
                        record,
                        &self.ctx.registry,
                        &self.ctx.config,
                        &self.ctx.solutions,
                        &mut self.stats,
                    );
                    let id = item.record.id.clone();
                    match item.hit.take() {
                        Some(report) => (id, Some(Box::new(Answer::Hit(report)))),
                        None => {
                            solves.push((seq, item));
                            (id, None)
                        }
                    }
                }
                Err((id, message)) => {
                    // no point parsing past the abort point; records
                    // before it still stream
                    abort = self.ctx.config.error_policy == ErrorPolicy::FailFast;
                    (id, Some(Box::new(Answer::Bad(message))))
                }
            };
            self.stats.records += 1;
            records += 1;
            self.next_seq += 1;
            self.slots.push_back(Slot {
                line: self.line_no,
                id,
                answer,
            });
            if abort {
                break;
            }
        }
        self.inbuf.drain(..self.head);
        self.scanned -= self.head;
        self.head = 0;
        // the wave's feature-cache accounting, counted at parse time: a
        // shared-cache hit per already-known instance, one miss per
        // distinct fresh instance, hits for duplicates within the wave
        let mut fresh: Vec<CanonicalInstance> = Vec::new();
        for (_, item) in &mut solves {
            if let Some(features) = self.ctx.cache.lookup(&item.canon) {
                self.stats.cache_hits += 1;
                item.features = Some(features);
            } else if fresh.contains(&item.canon) {
                self.stats.cache_hits += 1; // repeated within this wave
            } else {
                fresh.push(item.canon.clone());
            }
        }
        self.stats.cache_misses += fresh.len();
        self.dispatch(solves);
        records > 0
    }

    /// Hands a wave's solves to at most `width` runner jobs — the session
    /// cannot occupy more than its share of workers no matter how many
    /// records it parsed.
    fn dispatch(&mut self, solves: Vec<(usize, SolveItem)>) {
        if solves.is_empty() {
            return;
        }
        self.inflight = solves.len();
        let runners = self.width.min(solves.len());
        let wave = Arc::new(Wave {
            pending: AtomicUsize::new(solves.len()),
            items: solves,
            cursor: AtomicUsize::new(0),
            ctx: Arc::clone(&self.ctx),
            inbox: Arc::clone(&self.inbox),
            notify: Arc::clone(&self.notify),
        });
        for _ in 0..runners {
            let wave = Arc::clone(&wave);
            self.ctx.executor.spawn(move || wave.run());
        }
        self.wave = Some(wave);
    }

    /// Freezes the summary once the input has ended (or the session token
    /// fired and no complete line is left) and every slot has drained.
    /// The owner writes the trailer.
    fn maybe_summarize(&mut self) {
        if self.summary.is_some() || self.failed.is_some() {
            return;
        }
        let input_done = if self.ctx.cancel.is_cancelled() {
            !self.inbuf[self.head..].contains(&b'\n')
        } else {
            self.eof && self.inbuf.is_empty()
        };
        if !input_done || !self.slots.is_empty() || self.inflight > 0 {
            return;
        }
        let summary = std::mem::take(&mut self.stats).summarize(self.started.elapsed(), self.width);
        self.summary = Some(summary);
    }
}

impl Session for SessionMachine {
    /// Buffers freshly-read request bytes; bytes arriving after
    /// `finish_input` are not part of the batch and are dropped.
    fn feed(&mut self, bytes: &[u8]) {
        if !self.eof {
            self.inbuf.extend_from_slice(bytes);
        }
    }

    fn finish_input(&mut self) {
        self.eof = true;
    }

    /// Drives the machine as far as it can go without blocking: drains
    /// runner completions, emits ready answers (in input order) into
    /// `out`, parses and dispatches the next wave when the current one is
    /// complete, and freezes the summary once everything is answered.
    /// `allow_parse = false` suspends parsing (outbox back-pressure)
    /// while completions still drain.
    fn pump(&mut self, out: &mut Vec<u8>, allow_parse: bool) {
        self.drain_inbox();
        loop {
            let mut progressed = self.drain_ready(out);
            if allow_parse && self.can_parse() {
                progressed |= self.parse_wave();
            }
            if !progressed {
                break;
            }
        }
        self.maybe_summarize();
    }

    fn is_done(&self) -> bool {
        self.summary.is_some() || self.failed.is_some()
    }

    /// After an abort ([`SessionMachine::halt`]), the solves still running.
    fn has_inflight(&self) -> bool {
        self.inflight > 0
    }

    fn summary(&self) -> Option<&BatchSummary> {
        self.summary.as_ref()
    }

    /// Why the batch aborted, when it did ([`ErrorPolicy::FailFast`]).
    fn failure(&self) -> Option<&ServeError> {
        self.failed.as_ref()
    }
}
