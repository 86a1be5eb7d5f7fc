//! The TCP front end: one epoll reactor over a lock-free shard pool, no
//! per-connection threads.
//!
//! [`serve_reactor`] runs one non-blocking event loop over the vendored
//! `mio` shim on the caller's thread. The loop owns the listener, every
//! connection and the [`ShardedEngine`] it builds at startup, so nothing
//! it touches is shared with another front.
//!
//! * **Accept** — the listener is polled for readiness; connections
//!   beyond the `--max-conns` budget are refused with one protocol error
//!   line and closed, never queued.
//! * **Read** — per-connection buffers accumulate bytes until a newline;
//!   complete lines are parsed and dispatched into the
//!   [`ShardedEngine`]'s per-shard FIFO queues, tagged with a token that
//!   packs `(connection slot, per-connection seq)` into the envelope's
//!   `u64`. No lock is ever taken on the request path — the reactor is
//!   each shard queue's single producer, each shard worker its single
//!   consumer.
//! * **Dispatch** — batches are sized adaptively by the observed
//!   arrival rate: an EWMA of requests-per-pass sets the submit
//!   threshold, so a sparse trickle dispatches immediately (no
//!   full-batch latency tax) while a loaded reactor grows batches
//!   toward a ceiling of 512 requests to amortize channel traffic.
//!   Splitting a pass into several submissions preserves parse order,
//!   hence per-tenant FIFO order.
//! * **Wake** — workers signal finished batches through a poll
//!   `Waker` (an `eventfd`), so responses interrupt the blocked
//!   reactor immediately instead of riding the next I/O event. The
//!   completion path is batched end to end: a worker sends **one**
//!   channel message carrying every answer of a dispatched batch and
//!   rings the waker **once** per batch.
//! * **Write** — responses are re-ordered per connection by sequence
//!   number (a connection's answers always arrive in line order,
//!   exactly like the stdin front end's) and queued as one buffer per
//!   response line. Egress is gathered: each readiness pass drains a
//!   connection with `writev` over every queued response — one syscall
//!   covers however many responses accumulated, instead of one write
//!   per response. Write interest is registered only while a backlog
//!   exists.
//!
//! Backpressure is per connection and two-sided: a connection pauses
//! (drops read interest) while it has 1024 requests in flight or an
//! unflushed write backlog beyond 1 MiB, and resumes below the
//! low-water marks. A slow or dead reader
//! therefore throttles only itself; the shard queues stay bounded.
//!
//! Telemetry ([`crate::telemetry`]) rides the loop at **one monotonic
//! clock read per poll iteration**: the pass tick, taken right after
//! `poll` returns (so blocked time is never charged to a request),
//! stamps every accept, read, parse, and respond event of the pass.
//! The one deliberate exception is flush completion — when traced
//! responses fully leave with a pass's write calls, one extra read
//! closes their flush/total intervals. Flush completion is stamped
//! against a *cumulative* egress offset, so a response retried after
//! `EWOULDBLOCK` is recorded exactly once: when its last byte leaves
//! the socket, never when a partial write merely advances the buffer.
//! With telemetry off ([`ReactorOptions::telemetry`] = false) no clock
//! is read at all and verdict populations are bit-identical either way.
//!
//! Ordering and determinism are inherited from [`crate::shard`]: a
//! tenant's requests stay in submission order (they enter one FIFO in
//! line order and tenants hash to exactly one shard), so verdict
//! populations are bit-identical to the stdin front end and invariant
//! to the shard count and the connection fan-out — pinned by the parity
//! suite in `tests/proto_torture.rs`.
//!
//! Graceful shutdown ([`Shutdown::request`], wired to stdin EOF by the
//! daemon) wakes the reactor: it closes its listener so nothing new
//! connects, keeps serving what already-connected clients have sent,
//! and exits once everything is quiet — nothing in flight, every answer
//! flushed, no buffered complete line unparsed — bounded by a 10 s
//! grace. Only then is the pool shut down; a shard worker releases an
//! answer only after its group commit has synced the journal appends
//! behind it, so an orderly stop loses no accepted delta.
//!
//! Accepted sockets run with `TCP_NODELAY`: responses already leave in
//! gathered writes, and Nagle would otherwise hold the tail of every
//! window until the client's delayed ACK (tens of milliseconds), which
//! stalls pipelined clients such as the replication stream.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, IoSlice, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Registry, Token, Waker};
use rts_analysis::semi::CarryInStrategy;

use crate::engine::{Request, Response};
use crate::journal::JournalDir;
use crate::proto::{self, Command, ConnStats, ReactorStats};
use crate::server::{oversized_reason, MAX_LINE_BYTES};
use crate::shard::{ResponseMeta, ShardReport, ShardedEngine};
use crate::telemetry::{SlowRequest, Stage, Telemetry};

/// The listener's poll token.
const LISTENER: Token = Token(0);
/// The waker's poll token (worker completions and shutdown requests).
const WAKER: Token = Token(1);
/// Connection slot `i` polls as `Token(CONN_BASE + i)`.
const CONN_BASE: usize = 2;

/// Envelope-token split: the low 40 bits carry the per-connection line
/// sequence, the next 16 the connection slot. 2^40 lines per connection
/// and 2^16 simultaneous slots are both far beyond reach.
const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
const SLOT_BITS: u32 = 16;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;
/// Hard slot bound implied by the token split.
const MAX_SLOTS: usize = 1 << SLOT_BITS;

/// Requests a connection may have in flight before it stops being read.
const HIGH_WATER: u64 = 1024;
/// In-flight level at which a paused connection resumes reading.
const LOW_WATER: u64 = 256;
/// Unflushed response bytes at which a connection stops being read.
const WRITE_BACKLOG_HIGH: usize = 1 << 20;
/// Bytes read from one socket per readiness event before yielding to
/// other connections (level-triggered polling re-delivers the rest).
const READ_BUDGET: usize = 1 << 20;
/// How long a draining reactor waits for in-flight answers to flush.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Most buffers gathered into one `writev` call (the shim additionally
/// clips at the kernel's `IOV_MAX`); a connection with more queued
/// responses simply loops.
const MAX_WRITEV_IOVECS: usize = 512;
/// Ceiling of the adaptive dispatch threshold: under sustained load a
/// pass submits to the shards every this-many parsed requests.
const DISPATCH_BATCH_MAX: usize = 512;
/// Smoothing factor of the arrivals-per-pass EWMA that sets the
/// dispatch threshold (≈ converges over the last ~10 passes).
const ARRIVAL_EWMA_ALPHA: f64 = 0.2;

/// Cross-thread shutdown request for a running [`serve_reactor`] loop.
///
/// The daemon arms one of these against stdin EOF; tests call
/// [`Shutdown::request`] directly. Requesting is idempotent and may
/// happen before the reactor starts (it then drains immediately).
#[derive(Debug, Default)]
pub struct Shutdown {
    requested: AtomicBool,
    wakers: Mutex<Vec<Arc<Waker>>>,
}

impl Shutdown {
    /// A fresh, un-requested shutdown handle.
    #[must_use]
    pub fn new() -> Arc<Shutdown> {
        Arc::new(Shutdown::default())
    }

    /// Asks every reactor serving under this handle to drain and exit;
    /// returns immediately.
    pub fn request(&self) {
        self.requested.store(true, Ordering::Release);
        let wakers = self.wakers.lock().expect("shutdown waker lock poisoned");
        for waker in wakers.iter() {
            let _ = waker.wake();
        }
    }

    /// Whether a shutdown has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// Installs a reactor's waker so a later `request` interrupts its
    /// poll; re-signals if the request already happened (the race is a
    /// request arriving between reactor startup and this install).
    fn install(&self, waker: Arc<Waker>) {
        self.wakers
            .lock()
            .expect("shutdown waker lock poisoned")
            .push(Arc::clone(&waker));
        if self.is_requested() {
            let _ = waker.wake();
        }
    }
}

/// Configuration of one [`serve_reactor`] run. The front owns its
/// engine pool, so it is built from this spec rather than passed in.
#[derive(Clone, Debug)]
pub struct ReactorOptions {
    /// Carry-in strategy for every shard's engine.
    pub strategy: CarryInStrategy,
    /// Worker shard count (at least one).
    pub shards: usize,
    /// Optional per-tenant journal persistence (replayed on startup).
    pub journal: Option<JournalDir>,
    /// Simultaneous-connection cap; connections beyond it are refused
    /// with a protocol error line. Clamped to at least one.
    pub max_conns: usize,
    /// Stage-latency telemetry (on by default). When off, the reactor
    /// takes zero clock reads on the hot path and every record call is
    /// one predictable branch — the ≤2 % overhead budget's floor.
    pub telemetry: bool,
}

impl ReactorOptions {
    /// Options with no journal and the daemon's default connection cap.
    #[must_use]
    pub fn new(strategy: CarryInStrategy, shards: usize) -> Self {
        ReactorOptions {
            strategy,
            shards,
            journal: None,
            max_conns: 64,
            telemetry: true,
        }
    }
}

/// Totals of one [`serve_reactor`] run.
#[derive(Debug, Default)]
pub struct ReactorSummary {
    /// Protocol lines received (including unparsable ones).
    pub requests: u64,
    /// Response lines queued to live connections in order.
    pub responses: u64,
    /// Responses with `verdict:"error"` due to unparsable lines.
    pub parse_errors: u64,
    /// Connections accepted over the run.
    pub accepted_conns: u64,
    /// Connections refused over the cap.
    pub refused_conns: u64,
    /// Per-shard reports from the pool shutdown.
    pub reports: Vec<ShardReport>,
}

/// A rendered answer awaiting its in-order turn, plus the trace stamps
/// it carries if it came out of the engine with telemetry on.
struct PendingLine {
    line: String,
    /// `(tenant, worker stamps)` for traced engine responses; `None`
    /// for stats/metrics/error lines (those never enter a shard queue,
    /// so they have no lifecycle to trace).
    trace: Option<(u64, ResponseMeta)>,
}

/// A traced response whose bytes sit in a connection's response queue:
/// once the cumulative flushed offset covers `end`, the request's flush
/// and total stages are known and the slow ring gets its entry.
struct FlushTag {
    /// Cumulative egress offset (total bytes ever queued to this
    /// connection) at which this response's bytes end. Absolute, so a
    /// partial write never moves it and the stage is stamped exactly
    /// once — when the last byte actually leaves.
    end: u64,
    tenant: u64,
    seq: u64,
    meta: ResponseMeta,
    /// Pass tick at which the line entered the response queue.
    respond_ns: u64,
}

/// One live connection's state in the reactor.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed (partial line at the front).
    read_buf: Vec<u8>,
    /// Inside an oversized line: discard until the next newline, then
    /// answer a bounded error (mirrors the blocking reader's resync).
    skipping: bool,
    /// Sequence number of the next line this connection sends.
    next_seq: u64,
    /// Sequence number whose answer is written next (per-connection
    /// answers go out strictly in line order).
    next_write: u64,
    /// Rendered answers that arrived ahead of `next_write`.
    pending: BTreeMap<u64, PendingLine>,
    /// In-order response buffers awaiting egress, one per line; drained
    /// front-to-back by gathered `writev`.
    outq: VecDeque<Vec<u8>>,
    /// Flushed prefix of `outq`'s front buffer.
    head_written: usize,
    /// Unflushed bytes across `outq`.
    backlog: usize,
    /// Cumulative bytes flushed to the socket over the connection's
    /// lifetime (the offset space [`FlushTag::end`] lives in).
    sent: u64,
    /// Pass tick at accept time (start of the accept stage).
    accept_ns: u64,
    /// Accept stage recorded (once, on the first bytes received).
    accept_done: bool,
    /// Pass tick at which the oldest unconsumed bytes arrived — the
    /// start of every request parsed out of the current buffer.
    read_ns: u64,
    /// Traced responses in `outq`, in queue order.
    flush_tags: VecDeque<FlushTag>,
    /// Requests dispatched to the pool and not yet answered. The slot
    /// (and its envelope token) stays reserved until this reaches zero,
    /// even after the socket dies.
    in_flight: u64,
    /// EOF (or fatal read error) seen; no further lines.
    read_closed: bool,
    /// Socket unusable; pending answers are dropped, the slot lingers
    /// only until `in_flight` drains.
    dead: bool,
    /// Read interest withdrawn until in-flight/backlog recede.
    paused: bool,
    /// Interest currently registered with the poller.
    interest: Option<Interest>,
}

impl Conn {
    fn new(stream: TcpStream, accept_ns: u64) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            skipping: false,
            next_seq: 0,
            next_write: 0,
            pending: BTreeMap::new(),
            outq: VecDeque::new(),
            head_written: 0,
            backlog: 0,
            sent: 0,
            accept_ns,
            accept_done: false,
            read_ns: 0,
            flush_tags: VecDeque::new(),
            in_flight: 0,
            read_closed: false,
            dead: false,
            paused: false,
            interest: None,
        }
    }

    /// Drops every queued byte and tag (the socket is gone; nobody will
    /// read them).
    fn clear_egress(&mut self) {
        self.pending.clear();
        self.outq.clear();
        self.head_written = 0;
        self.backlog = 0;
        self.flush_tags.clear();
    }

    /// Two-sided pause with hysteresis, so a connection at the
    /// high-water mark does not flap interest on every single response.
    fn refresh_pause(&mut self) {
        if self.paused {
            if self.in_flight <= LOW_WATER && self.backlog < WRITE_BACKLOG_HIGH / 2 {
                self.paused = false;
            }
        } else if self.in_flight >= HIGH_WATER || self.backlog >= WRITE_BACKLOG_HIGH {
            self.paused = true;
        }
    }

    /// The slot can be released: nothing in flight and either the
    /// socket is gone or everything was answered and flushed.
    fn finished(&self) -> bool {
        self.in_flight == 0
            && (self.dead || (self.read_closed && self.pending.is_empty() && self.backlog == 0))
    }
}

struct Reactor {
    registry: Registry,
    /// The shard pool this reactor alone submits to and receives from.
    pool: ShardedEngine,
    telemetry: Arc<Telemetry>,
    /// The pass tick: one monotonic clock read taken right after each
    /// `poll` return and reused for every event stamp in the pass (the
    /// one-read-per-iteration discipline; 0 with telemetry off).
    pass_ns: u64,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    live: usize,
    /// The connection budget (what refusal lines and the `conns` gauge
    /// report).
    max_conns: usize,
    draining: bool,
    /// Arrivals-per-pass EWMA driving the adaptive dispatch threshold.
    /// Starts at 1 (dispatch immediately) and grows under load.
    arrival_ewma: f64,
    /// Engine requests parsed so far in the current pass.
    pass_arrivals: u64,
    /// The run's counting totals (`reports` is filled at shutdown).
    run: ReactorSummary,
    /// Gathered write syscalls issued and the iovecs they carried.
    egress: ReactorStats,
}

impl Reactor {
    /// The observability report for the `stats`/`metrics` verbs: the
    /// connection gauges and egress counters plus the pool's snapshot.
    fn metrics_report(&self) -> proto::MetricsReport {
        let conns = ConnStats {
            live: self.live,
            refused: self.run.refused_conns,
            max: self.max_conns,
        };
        self.pool.metrics_report(conns, self.egress)
    }

    /// Accepts until the listener would block, refusing over the cap.
    fn accept_ready(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if self.live >= self.max_conns {
                        self.run.refused_conns += 1;
                        // Best effort on a non-blocking socket: the
                        // refusal line is one small write into an empty
                        // send buffer, lost only if the peer is already
                        // gone.
                        let _ = stream.set_nonblocking(true);
                        refuse_connection(stream, self.max_conns);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Best effort: a socket without it still serves.
                    let _ = stream.set_nodelay(true);
                    let idx = self.free.pop().unwrap_or_else(|| {
                        self.conns.push(None);
                        self.conns.len() - 1
                    });
                    self.live += 1;
                    self.run.accepted_conns += 1;
                    let mut conn = Conn::new(stream, self.pass_ns);
                    self.update_interest(idx, &mut conn);
                    self.conns[idx] = Some(conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    break;
                }
            }
        }
    }

    /// Applies one readiness event to a connection: errors kill it,
    /// readable drains the socket into the read buffer (bounded by
    /// [`READ_BUDGET`]; level-triggered polling re-delivers the rest).
    fn conn_event(&mut self, idx: usize, readable: bool, error: bool) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if error {
            conn.dead = true;
            conn.read_closed = true;
            return;
        }
        if !readable || conn.read_closed || conn.paused {
            return;
        }
        let was_empty = conn.read_buf.is_empty();
        let mut chunk = [0u8; 64 * 1024];
        let mut taken = 0;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    // Oversized floods are discarded by the parser each
                    // service pass, so the buffer stays bounded by this
                    // event's read budget plus one partial line.
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    taken += n;
                    if taken >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    conn.read_closed = true;
                    break;
                }
            }
        }
        if taken > 0 {
            // Both stamps reuse the pass tick — no clock read here.
            if was_empty {
                conn.read_ns = self.pass_ns;
            }
            if !conn.accept_done {
                conn.accept_done = true;
                self.telemetry
                    .record_stage(Stage::Accept, self.pass_ns.saturating_sub(conn.accept_ns));
            }
        }
    }

    /// Drains every response the workers have finished, re-ordering each
    /// into its connection's pending map (or dropping it if the
    /// connection died) and recording the slots that need service.
    fn route_responses(&mut self, touched: &mut Vec<usize>) {
        while let Some((packed, response, meta)) = self.pool.try_recv_traced() {
            let idx = ((packed >> SEQ_BITS) & SLOT_MASK) as usize;
            let seq = packed & SEQ_MASK;
            let conn = self.conns[idx]
                .as_mut()
                .expect("slots are reserved while requests are in flight");
            conn.in_flight -= 1;
            if !conn.dead {
                // `solved_ns == 0` marks an untraced response (telemetry
                // off): no stamps to carry forward.
                let trace = (meta.solved_ns != 0).then(|| (response.tenant(), meta));
                conn.pending.insert(
                    seq,
                    PendingLine {
                        line: proto::render_response(seq, &response),
                        trace,
                    },
                );
            }
            touched.push(idx);
        }
    }

    /// Answers the line at `bytes` of `conn`'s read buffer, consuming
    /// its seq: `stats`/`metrics` are served from the reactor thread
    /// (they never enter a shard queue), engine requests join `batch`
    /// tagged with the packed token and their read stamp, parse failures
    /// get an error line. Shared by the in-stream and EOF-partial-line
    /// sites of [`Reactor::parse_lines`].
    fn answer_line(
        &mut self,
        idx: usize,
        conn: &mut Conn,
        bytes: std::ops::Range<usize>,
        batch: &mut Vec<(u64, Request, u64)>,
    ) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        self.run.requests += 1;
        let parsed = std::str::from_utf8(&conn.read_buf[bytes])
            .map_err(|_| "invalid UTF-8".to_string())
            .and_then(|text| proto::parse_command(text.trim()));
        match parsed {
            Ok(Command::Report(format)) => {
                let line = proto::render_report(seq, format, &self.metrics_report());
                conn.pending.insert(seq, PendingLine { line, trace: None });
            }
            Ok(Command::Engine(request)) => {
                self.telemetry
                    .record_stage(Stage::Parse, self.pass_ns.saturating_sub(conn.read_ns));
                batch.push((((idx as u64) << SEQ_BITS) | seq, request, conn.read_ns));
                conn.in_flight += 1;
                self.pass_arrivals += 1;
            }
            Err(reason) => {
                self.run.parse_errors += 1;
                let line = proto::render_response(seq, &Response::Error { tenant: 0, reason });
                conn.pending.insert(seq, PendingLine { line, trace: None });
            }
        }
    }

    /// Parses complete lines out of `conn`'s read buffer (respecting the
    /// pause watermarks), answering `stats` and parse errors immediately
    /// and appending engine requests to `batch`.
    fn parse_lines(&mut self, idx: usize, conn: &mut Conn, batch: &mut Vec<(u64, Request, u64)>) {
        debug_assert!(idx < MAX_SLOTS);
        let mut consumed = 0;
        loop {
            conn.refresh_pause();
            if conn.paused {
                break;
            }
            if conn.skipping {
                match conn.read_buf[consumed..].iter().position(|&b| b == b'\n') {
                    Some(rel) => {
                        consumed += rel + 1;
                        conn.skipping = false;
                        self.answer_error(conn, oversized_reason());
                    }
                    None => {
                        // All garbage; drop it and wait for the newline.
                        conn.read_buf.clear();
                        consumed = 0;
                        if conn.read_closed {
                            // EOF ends the oversized line, like the
                            // blocking reader's EOF case.
                            conn.skipping = false;
                            self.answer_error(conn, oversized_reason());
                        }
                        break;
                    }
                }
                continue;
            }
            match conn.read_buf[consumed..].iter().position(|&b| b == b'\n') {
                Some(rel) => {
                    let end = consumed + rel;
                    self.answer_line(idx, conn, consumed..end, batch);
                    consumed = end + 1;
                }
                None => {
                    if conn.read_buf.len() - consumed > MAX_LINE_BYTES {
                        // Newline-less flood: discard and resync, with
                        // one bounded error once the line finally ends.
                        conn.skipping = true;
                        conn.read_buf.clear();
                        consumed = 0;
                        continue;
                    }
                    if conn.read_closed && conn.read_buf.len() > consumed {
                        // EOF: a partial unterminated line still counts.
                        self.answer_line(idx, conn, consumed..conn.read_buf.len(), batch);
                        consumed = conn.read_buf.len();
                    }
                    break;
                }
            }
        }
        conn.read_buf.drain(..consumed.min(conn.read_buf.len()));
    }

    /// Answers one line with a protocol error (consuming its seq).
    fn answer_error(&mut self, conn: &mut Conn, reason: String) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        self.run.requests += 1;
        self.run.parse_errors += 1;
        let line = proto::render_response(seq, &Response::Error { tenant: 0, reason });
        conn.pending.insert(seq, PendingLine { line, trace: None });
    }

    /// Moves in-order answers into the response queue and flushes as far
    /// as the socket allows with gathered writes.
    fn flush(&mut self, idx: usize, conn: &mut Conn) {
        while let Some(pending) = conn.pending.remove(&conn.next_write) {
            let seq = conn.next_write;
            let mut line = pending.line.into_bytes();
            line.push(b'\n');
            conn.backlog += line.len();
            conn.outq.push_back(line);
            conn.next_write += 1;
            self.run.responses += 1;
            if let Some((tenant, meta)) = pending.trace {
                self.telemetry.record_stage(
                    Stage::Respond,
                    self.pass_ns.saturating_sub(meta.committed_ns),
                );
                conn.flush_tags.push_back(FlushTag {
                    end: conn.sent + conn.backlog as u64,
                    tenant,
                    seq,
                    meta,
                    respond_ns: self.pass_ns,
                });
            }
        }
        self.write_out(conn);
        if conn.dead {
            conn.clear_egress();
            return;
        }
        if conn
            .flush_tags
            .front()
            .is_some_and(|tag| tag.end <= conn.sent)
        {
            // The one deliberate extra clock read (see module docs):
            // taken only when traced responses completed this pass, it
            // is what puts the write-syscall cost inside the flush
            // stage and makes its p50 non-zero under load.
            let now = self.telemetry.now_ns();
            while conn
                .flush_tags
                .front()
                .is_some_and(|tag| tag.end <= conn.sent)
            {
                let tag = conn.flush_tags.pop_front().expect("front was checked");
                self.record_flushed(idx, &tag, now);
            }
        }
    }

    /// One gathered egress pass: every queued response buffer (clipped
    /// at [`MAX_WRITEV_IOVECS`]) goes to the socket in a single `writev`
    /// — one syscall per pass covers however many responses accumulated,
    /// looping only when the clip or a short write left bytes behind.
    fn write_out(&mut self, conn: &mut Conn) {
        let fd = conn.stream.as_raw_fd();
        while conn.backlog > 0 {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(conn.outq.len().min(MAX_WRITEV_IOVECS));
            for (i, buf) in conn.outq.iter().enumerate() {
                if i == 0 {
                    slices.push(IoSlice::new(&buf[conn.head_written..]));
                } else {
                    slices.push(IoSlice::new(buf));
                }
                if slices.len() >= MAX_WRITEV_IOVECS {
                    break;
                }
            }
            match mio::unix::writev(fd, &slices) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => {
                    self.egress.flush_passes += 1;
                    self.egress.iovecs_written += slices.len() as u64;
                    conn.sent += n as u64;
                    conn.backlog -= n;
                    let mut left = n;
                    while left > 0 {
                        let front_rest = conn.outq[0].len() - conn.head_written;
                        if left >= front_rest {
                            left -= front_rest;
                            conn.outq.pop_front();
                            conn.head_written = 0;
                        } else {
                            conn.head_written += left;
                            left = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Books a fully-flushed traced response: flush and total stage
    /// samples, plus its bid for the worst-N slow-request ring.
    fn record_flushed(&self, idx: usize, tag: &FlushTag, now: u64) {
        let meta = &tag.meta;
        let flush_ns = now.saturating_sub(tag.respond_ns);
        let total_ns = now.saturating_sub(meta.read_ns);
        self.telemetry.record_stage(Stage::Flush, flush_ns);
        self.telemetry.record_stage(Stage::Total, total_ns);
        self.telemetry.offer_slow(SlowRequest {
            tenant: tag.tenant,
            conn: idx as u64,
            seq: tag.seq,
            parse_ns: meta.submit_ns.saturating_sub(meta.read_ns),
            queue_ns: meta.dequeue_ns.saturating_sub(meta.submit_ns),
            solve_ns: meta.solve_ns,
            persist_ns: meta.committed_ns.saturating_sub(meta.solved_ns),
            respond_ns: tag.respond_ns.saturating_sub(meta.committed_ns),
            flush_ns,
            total_ns,
        });
    }

    /// Reconciles the registered poll interest with what the connection
    /// currently needs (read unless closed/paused, write while a
    /// backlog exists).
    fn update_interest(&mut self, idx: usize, conn: &mut Conn) {
        let want_read = !conn.dead && !conn.read_closed && !conn.paused;
        let want_write = !conn.dead && conn.backlog > 0;
        let desired = match (want_read, want_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if desired == conn.interest {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let mut source = SourceFd(&fd);
        let token = Token(CONN_BASE + idx);
        let outcome = match (conn.interest, desired) {
            (None, Some(interest)) => self.registry.register(&mut source, token, interest),
            (Some(_), Some(interest)) => self.registry.reregister(&mut source, token, interest),
            (Some(_), None) => self.registry.deregister(&mut source),
            (None, None) => Ok(()),
        };
        match outcome {
            Ok(()) => conn.interest = desired,
            Err(_) => {
                conn.dead = true;
                conn.interest = None;
            }
        }
    }

    /// The adaptive dispatch threshold: track the arrival rate so a
    /// sparse trickle dispatches immediately while sustained load grows
    /// batches toward [`DISPATCH_BATCH_MAX`].
    fn dispatch_threshold(&self) -> usize {
        (self.arrival_ewma.round() as usize).clamp(1, DISPATCH_BATCH_MAX)
    }

    /// Submits mid-pass once the batch reaches the adaptive threshold
    /// (order within the batch — hence per tenant — is preserved by the
    /// split: requests still leave in parse order).
    fn maybe_submit(&mut self, batch: &mut Vec<(u64, Request, u64)>) {
        if batch.len() >= self.dispatch_threshold() {
            self.submit(batch);
        }
    }

    /// Submits whatever the pass has batched so far, if anything.
    fn submit(&mut self, batch: &mut Vec<(u64, Request, u64)>) {
        if !batch.is_empty() {
            self.pool
                .submit_batch_traced(std::mem::take(batch), self.pass_ns);
        }
    }

    /// Closes a pass: feeds the arrivals count into the dispatch EWMA.
    fn end_pass(&mut self) {
        self.arrival_ewma = (1.0 - ARRIVAL_EWMA_ALPHA) * self.arrival_ewma
            + ARRIVAL_EWMA_ALPHA * self.pass_arrivals as f64;
        self.pass_arrivals = 0;
    }

    /// One connection's full service pass: parse what's buffered, flush
    /// what's answered, reconcile interest, release the slot if done.
    fn service_conn(&mut self, idx: usize, batch: &mut Vec<(u64, Request, u64)>) {
        let Some(mut conn) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if !conn.dead {
            self.parse_lines(idx, &mut conn, batch);
            self.flush(idx, &mut conn);
        } else {
            conn.clear_egress();
        }
        self.update_interest(idx, &mut conn);
        if conn.finished() {
            if conn.interest.is_some() {
                let fd = conn.stream.as_raw_fd();
                let _ = self.registry.deregister(&mut SourceFd(&fd));
            }
            self.live -= 1;
            self.free.push(idx);
            // `conn` drops here, closing the socket.
        } else {
            self.conns[idx] = Some(conn);
        }
        self.maybe_submit(batch);
    }

    /// Enters drain mode: close the listener so no new connection gets
    /// in; existing connections keep being served until they go quiet.
    fn begin_drain(&mut self, touched: &mut Vec<usize>) {
        // Connections already established in the accept backlog belong
        // to clients that connected before the stop: admit (or refuse)
        // them now, because dropping the listener would reset them.
        self.accept_ready();
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let fd = listener.as_raw_fd();
            let _ = self.registry.deregister(&mut SourceFd(&fd));
            // Dropped: the OS refuses further connects outright.
        }
        touched.extend((0..self.conns.len()).filter(|&i| self.conns[i].is_some()));
    }

    /// Every answer owed to a live connection has been flushed.
    fn all_flushed(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .all(|conn| conn.dead || (conn.pending.is_empty() && conn.backlog == 0))
    }

    /// No live connection holds a buffered complete line that the
    /// draining loop still owes an answer to. Unterminated partial
    /// lines don't count: without EOF there is no way to know whether
    /// the rest is coming, and the drain cannot wait on a slow sender.
    fn no_pending_lines(&self) -> bool {
        self.conns
            .iter()
            .flatten()
            .all(|conn| conn.dead || !conn.read_buf.contains(&b'\n'))
    }

    /// The event loop: serves until a requested shutdown has drained
    /// (or its grace ran out). Only poller failures are errors;
    /// per-connection I/O errors only ever kill that connection.
    fn run(&mut self, poll: &mut Poll, waker: &Waker, shutdown: &Shutdown) -> io::Result<()> {
        let mut events = Events::with_capacity(1024);
        let mut touched: Vec<usize> = Vec::new();
        let mut batch: Vec<(u64, Request, u64)> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            if shutdown.is_requested() && !self.draining {
                touched.clear();
                self.begin_drain(&mut touched);
                drain_deadline = Some(Instant::now() + DRAIN_GRACE);
                // Serve whatever the clients already sent us, right away.
                self.route_responses(&mut touched);
                for idx in std::mem::take(&mut touched) {
                    self.service_conn(idx, &mut batch);
                }
                self.submit(&mut batch);
            }
            if self.draining && drain_deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(());
            }
            let timeout = self.draining.then(|| Duration::from_millis(50));
            poll.poll(&mut events, timeout)?;
            // The pass tick: one clock read per poll iteration, taken
            // after the (possibly long) wait so blocked time is never
            // charged to a request, reused for every stamp below.
            self.pass_ns = self.telemetry.now_ns();
            let quiet = events.is_empty();

            touched.clear();
            let mut woken = false;
            for event in &events {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => woken = true,
                    Token(t) => {
                        let idx = t - CONN_BASE;
                        self.conn_event(idx, event.is_readable(), event.is_error());
                        touched.push(idx);
                    }
                }
            }
            if woken {
                // Reset before draining: a wake arriving after the reset
                // is a fresh edge for a response the drain below will
                // miss.
                waker.reset();
            }
            self.route_responses(&mut touched);
            touched.sort_unstable();
            touched.dedup();
            for &idx in &touched {
                self.service_conn(idx, &mut batch);
            }
            self.submit(&mut batch);
            self.end_pass();
            // Draining exit: a whole poll interval passed with no socket
            // activity, nothing is in flight, every answer is flushed,
            // and no buffered complete line awaits parsing.
            if self.draining
                && quiet
                && self.pool.in_flight() == 0
                && self.all_flushed()
                && self.no_pending_lines()
            {
                return Ok(());
            }
        }
    }
}

/// Serves `listener` on the caller's thread until `shutdown` is
/// requested, then drains and returns the run's totals. The reactor
/// creates its poll and waker first, then builds the shard pool from
/// `options` with the waker as the workers' completion notifier, and
/// shuts the pool down after the loop has exited. See the module docs
/// for the architecture.
///
/// # Errors
///
/// Fatal poller errors (registration, `epoll_wait`) and listener setup
/// failures; after a failure inside the loop the pool is still shut
/// down before the error is returned. Per-connection I/O errors only
/// ever kill that connection.
pub fn serve_reactor(
    listener: TcpListener,
    options: &ReactorOptions,
    shutdown: &Shutdown,
) -> io::Result<ReactorSummary> {
    listener.set_nonblocking(true)?;
    let mut poll = Poll::new()?;
    let listener_fd = listener.as_raw_fd();
    poll.registry()
        .register(&mut SourceFd(&listener_fd), LISTENER, Interest::READABLE)?;
    let waker = Arc::new(Waker::new(poll.registry(), WAKER)?);
    let registry = poll.registry().try_clone()?;
    let notify = Arc::clone(&waker);
    let telemetry = if options.telemetry {
        Telemetry::new()
    } else {
        Telemetry::off()
    };
    let pool = ShardedEngine::with_telemetry(
        options.strategy,
        options.shards,
        options.journal.clone(),
        Some(Arc::new(move || {
            let _ = notify.wake();
        })),
        telemetry,
    );
    shutdown.install(Arc::clone(&waker));
    let mut reactor = Reactor {
        registry,
        telemetry: Arc::clone(pool.telemetry()),
        pool,
        pass_ns: 0,
        listener: Some(listener),
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        max_conns: options.max_conns.clamp(1, MAX_SLOTS - CONN_BASE),
        draining: false,
        arrival_ewma: 1.0,
        pass_arrivals: 0,
        run: ReactorSummary::default(),
        egress: ReactorStats::default(),
    };
    let outcome = reactor.run(&mut poll, &waker, shutdown);
    // Teardown: close every socket, then stop the workers once they
    // have answered whatever is still in flight.
    reactor.conns.clear();
    reactor.listener = None;
    let Reactor { pool, mut run, .. } = reactor;
    run.reports = pool.shutdown();
    outcome.map(|()| run)
}

/// Answers one over-cap connection with a bounded error line.
fn refuse_connection(mut stream: TcpStream, max_conns: usize) {
    let line = proto::render_response(
        0,
        &Response::Error {
            tenant: 0,
            reason: format!("server at its connection cap ({max_conns}); retry later"),
        },
    );
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{LineClient, RetryPolicy};
    use std::net::SocketAddr;

    type Served = (
        SocketAddr,
        Arc<Shutdown>,
        std::thread::JoinHandle<io::Result<ReactorSummary>>,
    );

    /// A reactor on a loopback port, serving on a background thread.
    fn spawn_reactor(shards: usize, max_conns: usize) -> Served {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Shutdown::new();
        let remote = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            let mut options = ReactorOptions::new(CarryInStrategy::TopDiff, shards);
            options.max_conns = max_conns;
            serve_reactor(listener, &options, &remote)
        });
        (addr, shutdown, handle)
    }

    /// A line client that fails the test on any I/O error.
    struct Client(LineClient);

    impl Client {
        fn connect(addr: SocketAddr) -> Self {
            Client(LineClient::connect(addr, &RetryPolicy::once()).unwrap())
        }

        fn send(&mut self, line: &str) {
            self.0.send(line).unwrap();
        }

        fn recv(&mut self) -> String {
            self.0.recv().unwrap()
        }
    }

    const REGISTER: &str = "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[\
         {\"wcet_ms\":240,\"period_ms\":500,\"core\":0},\
         {\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}";

    #[test]
    fn serves_a_pipelined_session_in_seq_order() {
        let (addr, shutdown, handle) = spawn_reactor(2, 8);
        let mut c = Client::connect(addr);
        // Pipeline everything before reading a single answer.
        c.send(REGISTER);
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":223,\"t_max_ms\":10000}");
        c.send("not json at all");
        c.send("{\"op\":\"query\",\"tenant\":1}");
        let lines: Vec<String> = (0..5).map(|_| c.recv()).collect();
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i},")), "line {i}: {line}");
        }
        assert!(lines[0].contains("\"verdict\":\"accept\""));
        assert!(lines[3].contains("\"verdict\":\"error\""));
        assert!(
            lines[4].contains("\"periods_ms\":[7582,2783]"),
            "{}",
            lines[4]
        );
        drop(c);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, 5);
        assert_eq!(summary.responses, 5);
        assert_eq!(summary.parse_errors, 1);
        assert_eq!(summary.accepted_conns, 1);
        assert_eq!(summary.refused_conns, 0);
        assert_eq!(summary.reports.len(), 2);
        assert_eq!(summary.reports.iter().map(|r| r.handled).sum::<u64>(), 4);
    }

    #[test]
    fn stats_verb_reports_shards_and_connections() {
        let (addr, shutdown, handle) = spawn_reactor(3, 8);
        let mut c = Client::connect(addr);
        c.send(REGISTER);
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        c.send("{\"op\":\"stats\"}");
        let stats = c.recv();
        assert!(stats.contains("\"verdict\":\"stats\""), "{stats}");
        assert!(stats.contains("\"live\":1"), "{stats}");
        assert!(stats.contains("\"max\":8"), "{stats}");
        assert!(stats.contains("\"refused\":0"), "{stats}");
        // Exactly one serving reactor, its egress counters live.
        assert_eq!(stats.matches("\"reactor\":").count(), 1, "{stats}");
        assert!(stats.contains("\"flush_passes\":"), "{stats}");
        assert!(stats.contains("\"iovecs_written\":"), "{stats}");
        // Three shards, exactly one of which holds the tenant.
        assert_eq!(stats.matches("\"shard\":").count(), 3, "{stats}");
        assert!(stats.contains("\"tenants\":1"), "{stats}");
        assert!(stats.contains("\"handled\":1"), "{stats}");
        drop(c);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.responses, 2);
    }

    #[test]
    fn simultaneous_clients_are_served_over_one_shared_engine() {
        let (addr, shutdown, handle) = spawn_reactor(2, 4);
        // Client A connects first and goes idle without sending a byte.
        let mut a = Client::connect(addr);
        // Client B is accepted and fully served while A sits idle.
        let mut b = Client::connect(addr);
        b.send(REGISTER);
        assert!(b.recv().contains("\"verdict\":\"accept\""));
        b.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        assert!(b.recv().contains("\"periods_ms\":[7582]"));
        // A — open since before B's requests — sees the tenant B
        // registered: one engine serves every connection.
        a.send("{\"op\":\"query\",\"tenant\":1}");
        assert!(a.recv().contains("\"periods_ms\":[7582]"));
        // And both can keep interleaving.
        b.send("{\"op\":\"query\",\"tenant\":1}");
        a.send("{\"op\":\"query\",\"tenant\":1}");
        assert!(b.recv().contains("\"verdict\":\"accept\""));
        assert!(a.recv().contains("\"verdict\":\"accept\""));
        drop((a, b));
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.accepted_conns, 2);
        assert_eq!(summary.requests, 5);
    }

    #[test]
    fn connections_beyond_the_cap_are_refused_then_admitted_again() {
        let (addr, shutdown, handle) = spawn_reactor(1, 1);
        let mut a = Client::connect(addr);
        a.send("{\"op\":\"query\",\"tenant\":9}");
        assert!(a.recv().contains("unknown tenant 9"));
        // B exceeds the cap: refused with a protocol error line.
        let mut b = Client::connect(addr);
        assert!(b.recv().contains("connection cap"), "expected refusal");
        // Closing A frees the slot; the release races the next accept,
        // so retry with a deadline.
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut c = Client::connect(addr);
            let line = match c.0.send("{\"op\":\"query\",\"tenant\":9}") {
                Ok(()) => c.recv(),
                Err(_) => "connection cap".to_string(),
            };
            if line.contains("unknown tenant 9") {
                break;
            }
            assert!(line.contains("connection cap"), "unexpected: {line}");
            assert!(Instant::now() < deadline, "slot was never released");
            std::thread::sleep(Duration::from_millis(20));
        }
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert!(summary.refused_conns >= 1);
    }

    /// A shutdown requested while answers are still being computed and
    /// written loses nothing: every pipelined request is answered before
    /// the reactor exits.
    #[test]
    fn graceful_shutdown_drains_in_flight_requests() {
        let (addr, shutdown, handle) = spawn_reactor(2, 4);
        let mut c = Client::connect(addr);
        c.send(REGISTER);
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        let n_flips = 40;
        for i in 0..n_flips {
            let mode = if i % 2 == 0 { "active" } else { "passive" };
            c.send(&format!(
                "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
        // Request the stop while the pipeline is (likely) still in
        // flight, then read everything the drain owes us.
        shutdown.request();
        let mut verdicts = 0;
        for _ in 0..n_flips + 2 {
            let line = c.recv();
            assert!(line.contains("\"verdict\":"), "{line}");
            verdicts += 1;
        }
        assert_eq!(verdicts, n_flips + 2);
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, n_flips as u64 + 2);
        assert_eq!(summary.responses, n_flips as u64 + 2);
    }

    #[test]
    fn idle_shutdown_returns_immediately_with_reports() {
        let (_addr, shutdown, handle) = spawn_reactor(2, 4);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, 0);
        assert_eq!(summary.reports.len(), 2);
    }

    fn stage_count(metrics: &str, stage: &str) -> u64 {
        let key = format!("\"{stage}\":{{\"count\":");
        let at = metrics.find(&key).unwrap_or_else(|| {
            panic!("stage {stage} missing from {metrics}");
        });
        metrics[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("count is an integer")
    }

    /// The flush histogram counts each traced response exactly once —
    /// when its last byte leaves the socket — even when a slow reader
    /// forces partial writes and retries. Pinned by comparing the flush
    /// and respond stage populations after a full drain: a retried tail
    /// double-count would make flush run ahead.
    #[test]
    fn slow_reader_flush_stamps_count_each_response_once() {
        let (addr, shutdown, handle) = spawn_reactor(1, 4);
        let mut c = Client::connect(addr);
        c.send(REGISTER);
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        // Pipeline a burst without reading a byte, so the reactor's
        // egress queue fills against our unread receive window (small
        // enough that our own sends still fit the kernel buffers).
        let n = 2000;
        for i in 0..n {
            let mode = if i % 2 == 0 { "active" } else { "passive" };
            c.send(&format!(
                "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
        // Let the server run into the slow-reader wall before we drain.
        std::thread::sleep(Duration::from_millis(300));
        for _ in 0..n {
            assert!(c.recv().contains("\"verdict\":"));
        }
        c.send("{\"op\":\"metrics\"}");
        let metrics = c.recv();
        let respond = stage_count(&metrics, "respond");
        let flush = stage_count(&metrics, "flush");
        assert!(respond > 0, "traced responses must exist: {metrics}");
        assert_eq!(flush, respond, "every traced response flushes exactly once");
        drop(c);
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.responses, n + 3);
    }
}
