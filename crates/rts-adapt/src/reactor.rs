//! The serving front end: one epoll reactor over a lock-free shard pool,
//! no per-connection threads.
//!
//! [`serve_reactor`] runs one non-blocking event loop over the vendored
//! `mio` shim on the caller's thread. The loop owns the listener, every
//! connection and the [`ShardedEngine`] it builds at startup.
//! [`serve_stream`] runs the same loop over one connected Unix stream
//! and no listener — how the daemon serves stdin. Each connection's
//! line protocol (framing, the line bound, answer order, backpressure)
//! is a socket-free [`Conn`] machine; the reactor only moves bytes and
//! ticks between it and the socket.
//!
//! * **Accept** — connections beyond the `--max-conns` budget are
//!   refused with one protocol error line and closed, never queued. When
//!   file descriptors run out (`EMFILE`/`ENFILE`) the listener goes
//!   unpolled for a fixed 100 ms back-off, the failure is logged once
//!   per episode, and every failed accept is counted in
//!   `stats`/`metrics`.
//! * **Read** — one bounded read loop per readiness event feeds the
//!   machine; its lines are parsed and dispatched into the shard pool's
//!   per-shard FIFO queues, tagged with a token that packs `(connection
//!   slot, per-connection seq)` into the envelope's `u64`. The reactor
//!   is each queue's single producer, each worker its single consumer:
//!   no lock on the request path. A paused machine is not read.
//! * **Dispatch** — an EWMA of requests-per-pass sets the submit
//!   threshold, so a sparse trickle dispatches immediately while a
//!   loaded reactor grows batches toward 512 requests. Splitting a pass
//!   into several submissions preserves parse order, hence per-tenant
//!   FIFO order.
//! * **Wake** — a worker sends **one** channel message per answered
//!   batch and rings the poll `Waker` (an `eventfd`) **once**, so
//!   answers interrupt the blocked reactor at once.
//! * **Write** — each flush pass drains a connection's queued answers
//!   with one gathered `writev`; write interest is registered only while
//!   a backlog exists.
//!
//! Telemetry ([`crate::telemetry`]) costs **one monotonic clock read per
//! poll iteration**: the pass tick, taken right after `poll` returns (so
//! blocked time is never charged to a request), stamps every accept,
//! read, parse and queueing event of the pass. The one exception is
//! flush completion: when traced answers fully leave with a pass's
//! writes, one extra read closes their respond/flush/total intervals;
//! the machine releases each exactly once, when its last byte has left.
//! With telemetry off no clock is read at all.
//!
//! Answers are invariant to the shard count, telemetry and connection
//! fan-out: a tenant's requests enter one FIFO in line order (see
//! [`crate::shard`]); `tests/proto_torture.rs` pins it.
//!
//! Graceful shutdown ([`Shutdown::request`], wired to stdin EOF by the
//! daemon in TCP mode) closes the listener, keeps serving what
//! connected clients already sent, and exits once everything is quiet —
//! nothing in flight, every answer flushed, no buffered complete line
//! unparsed — bounded by a 10 s grace. A reactor without a listener
//! exits once its last connection is done. The pool shuts down after
//! the loop; a worker releases an answer only after its group commit
//! synced the journal appends behind it, so an orderly stop loses no
//! accepted delta.
//!
//! Accepted sockets run with `TCP_NODELAY`: answers already leave in
//! gathered writes, and Nagle would hold the tail of every window until
//! the client's delayed ACK, stalling pipelined clients such as the
//! replication stream.

use std::fs::File;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mio::unix::SourceFd;
use mio::{Events, Interest, Poll, Registry, Token, Waker};
use rts_analysis::semi::CarryInStrategy;

use crate::conn::{Conn, Flushed};
use crate::engine::{Request, Response};
use crate::journal::JournalDir;
use crate::proto::{self, Command, ConnStats, ReactorStats};
use crate::shard::{ResponseMeta, ShardSnapshot, ShardedEngine};
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

/// Bytes read from one socket per readiness event before yielding to
/// other connections (level-triggered polling re-delivers the rest).
const READ_BUDGET: usize = 1 << 20;
/// How long a draining reactor waits for in-flight answers to flush.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// How long the listener goes unpolled after an accept failed for want
/// of file descriptors. The listener is level-triggered, so polling it
/// sooner would only repeat the failure on every pass.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);
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
    /// with a protocol error line. Clamped to at least one. Only a
    /// listener enforces it; [`serve_stream`] reports it in `stats`.
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
    /// Each shard's final snapshot, from the pool shutdown.
    pub shards: Vec<ShardSnapshot>,
}

/// What a traced engine answer carries through its connection's egress
/// queue: the tenant and the worker's stamps. Answers of `stats`,
/// `metrics` and error lines never enter a shard queue, so they carry
/// nothing.
type Trace = (u64, ResponseMeta);

/// One live connection: its socket, its protocol machine, and the
/// reactor's own stamps and poll state.
struct Peer {
    /// A TCP stream or the stdin bridge's Unix stream, non-blocking;
    /// read through `File`, written with `writev`.
    socket: File,
    conn: Conn<Trace>,
    /// Pass tick at accept time (start of the accept stage).
    accept_ns: u64,
    /// Accept stage recorded (once, on the first bytes received).
    accept_done: bool,
    /// Pass tick at which the oldest unconsumed bytes arrived — the
    /// start of every request parsed out of the current buffer.
    read_ns: u64,
    /// Interest currently registered with the poller.
    interest: Option<Interest>,
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
    /// While accepts back off after descriptor exhaustion: when the
    /// listener is polled again.
    accept_resume: Option<Instant>,
    /// Inside an exhaustion episode (logged once; ends at the next
    /// successful accept).
    accept_exhausted: bool,
    conns: Vec<Option<Peer>>,
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
    /// Gathered write syscalls issued, the iovecs they carried, and the
    /// failed accepts.
    counters: ReactorStats,
}

impl Reactor {
    /// The observability report for the `stats`/`metrics` verbs: the
    /// connection gauges and reactor counters plus the pool's snapshot.
    fn metrics_report(&self) -> proto::MetricsReport {
        let conns = ConnStats {
            live: self.live,
            refused: self.run.refused_conns,
            max: self.max_conns,
        };
        self.pool.metrics_report(conns, self.counters)
    }

    /// Accepts until the listener would block, refusing over the cap.
    fn accept_ready(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_exhausted = false;
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
                    self.admit(File::from(OwnedFd::from(stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if crate::out_of_descriptors(&e) => {
                    self.counters.accept_failures += 1;
                    if !self.accept_exhausted {
                        self.accept_exhausted = true;
                        eprintln!("accept failed: {e}; retrying every {ACCEPT_BACKOFF:?}");
                    }
                    let fd = listener.as_raw_fd();
                    let _ = self.registry.deregister(&mut SourceFd(&fd));
                    self.accept_resume = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
                Err(e) => {
                    self.counters.accept_failures += 1;
                    eprintln!("accept failed: {e}");
                    break;
                }
            }
        }
    }

    /// Polls the listener again once an accept back-off has run out.
    fn resume_accepts(&mut self) {
        if self.accept_resume.is_some_and(|at| Instant::now() >= at) {
            self.accept_resume = None;
            if let Some(listener) = &self.listener {
                let fd = listener.as_raw_fd();
                let _ = self
                    .registry
                    .register(&mut SourceFd(&fd), LISTENER, Interest::READABLE);
            }
        }
    }

    /// Gives a connected, non-blocking socket a slot and a fresh
    /// protocol machine.
    fn admit(&mut self, socket: File) {
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.live += 1;
        self.run.accepted_conns += 1;
        let mut peer = Peer {
            socket,
            conn: Conn::default(),
            accept_ns: self.pass_ns,
            accept_done: false,
            read_ns: 0,
            interest: None,
        };
        self.update_interest(idx, &mut peer);
        self.conns[idx] = Some(peer);
    }

    /// Applies one readiness event to a connection: errors kill it,
    /// readable drains the socket into its machine (bounded by
    /// [`READ_BUDGET`]; level-triggered polling re-delivers the rest).
    fn conn_event(&mut self, idx: usize, readable: bool, error: bool) {
        let Some(peer) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return;
        };
        if error {
            peer.conn.abort();
            return;
        }
        if !readable || !peer.conn.reading() {
            return;
        }
        let was_empty = !peer.conn.has_input();
        let mut chunk = [0u8; 64 * 1024];
        let mut taken = 0;
        loop {
            match (&peer.socket).read(&mut chunk) {
                Ok(0) => {
                    peer.conn.close_read();
                    break;
                }
                Ok(n) => {
                    // Oversized floods are discarded by the machine each
                    // service pass, so its buffer stays bounded by this
                    // event's read budget plus one partial line.
                    peer.conn.feed(&chunk[..n]);
                    taken += n;
                    if taken >= READ_BUDGET {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    peer.conn.abort();
                    break;
                }
            }
        }
        if taken > 0 {
            // Both stamps reuse the pass tick — no clock read here.
            if was_empty {
                peer.read_ns = self.pass_ns;
            }
            if !peer.accept_done {
                peer.accept_done = true;
                self.telemetry
                    .record_stage(Stage::Accept, self.pass_ns.saturating_sub(peer.accept_ns));
            }
        }
    }

    /// Hands every response the workers have finished to its
    /// connection's machine and records the slots that need service.
    fn route_responses(&mut self, touched: &mut Vec<usize>) {
        while let Some((packed, response, meta)) = self.pool.try_recv_traced() {
            let idx = ((packed >> SEQ_BITS) & SLOT_MASK) as usize;
            let seq = packed & SEQ_MASK;
            let peer = self.conns[idx]
                .as_mut()
                .expect("slots are reserved while requests are in flight");
            // `solved_ns == 0` marks an untraced response (telemetry
            // off): no stamps to carry forward.
            let trace = (meta.solved_ns != 0).then(|| (response.tenant(), meta));
            let line = proto::render_response(seq, &response);
            self.run.responses += peer.conn.answer(seq, line, trace, self.pass_ns);
            touched.push(idx);
        }
    }

    /// Hands out the complete lines buffered in `peer`'s machine (it
    /// stops at the pause watermarks): `stats`/`metrics` are answered
    /// from the reactor thread (they never enter a shard queue), engine
    /// requests join `batch` tagged with the packed token and their read
    /// stamp, and unparsable lines get an error answer.
    fn parse_lines(&mut self, idx: usize, peer: &mut Peer, batch: &mut Vec<(u64, Request, u64)>) {
        debug_assert!(idx < MAX_SLOTS);
        while let Some((seq, line)) = peer.conn.next_line() {
            self.run.requests += 1;
            let answer = match line {
                Ok(Command::Engine(request)) => {
                    self.telemetry
                        .record_stage(Stage::Parse, self.pass_ns.saturating_sub(peer.read_ns));
                    batch.push((((idx as u64) << SEQ_BITS) | seq, request, peer.read_ns));
                    self.pass_arrivals += 1;
                    continue;
                }
                Ok(Command::Report(format)) => {
                    proto::render_report(seq, format, &self.metrics_report())
                }
                Err(reason) => {
                    self.run.parse_errors += 1;
                    proto::render_response(seq, &Response::Error { tenant: 0, reason })
                }
            };
            self.run.responses += peer.conn.answer(seq, answer, None, self.pass_ns);
        }
    }

    /// Writes as much of `peer`'s queued egress as the socket takes, then
    /// books the traced answers whose last byte left.
    fn flush(&mut self, idx: usize, peer: &mut Peer) {
        self.write_out(peer);
        let done = peer.conn.flushed();
        if done.len() > 0 {
            // The one deliberate extra clock read (see module docs):
            // taken only when traced responses completed this pass, it
            // is what puts the write-syscall cost inside the flush
            // stage and makes its p50 non-zero under load.
            let now = self.telemetry.now_ns();
            for flushed in done {
                self.record_flushed(idx, flushed, now);
            }
        }
    }

    /// One gathered egress pass: every queued response buffer (clipped
    /// at [`MAX_WRITEV_IOVECS`]) goes to the socket in a single `writev`
    /// — one syscall per pass covers however many responses accumulated,
    /// looping only when the clip or a short write left bytes behind.
    fn write_out(&mut self, peer: &mut Peer) {
        let fd = peer.socket.as_raw_fd();
        while peer.conn.backlog() > 0 {
            let (outcome, iovecs) = {
                let slices = peer.conn.egress(MAX_WRITEV_IOVECS);
                (mio::unix::writev(fd, &slices), slices.len() as u64)
            };
            match outcome {
                Ok(0) => {
                    peer.conn.abort();
                    return;
                }
                Ok(n) => {
                    self.counters.flush_passes += 1;
                    self.counters.iovecs_written += iovecs;
                    peer.conn.written(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    peer.conn.abort();
                    return;
                }
            }
        }
    }

    /// Books a fully-flushed traced response: respond, flush and total
    /// stage samples, plus its bid for the worst-N slow-request ring.
    fn record_flushed(&self, idx: usize, flushed: Flushed<Trace>, now: u64) {
        let Flushed {
            seq,
            queued_ns,
            tag: (tenant, meta),
        } = flushed;
        let respond_ns = queued_ns.saturating_sub(meta.committed_ns);
        let flush_ns = now.saturating_sub(queued_ns);
        let total_ns = now.saturating_sub(meta.read_ns);
        self.telemetry.record_stage(Stage::Respond, respond_ns);
        self.telemetry.record_stage(Stage::Flush, flush_ns);
        self.telemetry.record_stage(Stage::Total, total_ns);
        self.telemetry.offer_slow(SlowRequest {
            tenant,
            conn: idx as u64,
            seq,
            parse_ns: meta.submit_ns.saturating_sub(meta.read_ns),
            queue_ns: meta.dequeue_ns.saturating_sub(meta.submit_ns),
            solve_ns: meta.solve_ns,
            persist_ns: meta.committed_ns.saturating_sub(meta.solved_ns),
            respond_ns,
            flush_ns,
            total_ns,
        });
    }

    /// Reconciles the registered poll interest with what the connection
    /// currently needs (read unless closed/paused, write while a
    /// backlog exists).
    fn update_interest(&mut self, idx: usize, peer: &mut Peer) {
        let want_read = peer.conn.reading();
        let want_write = peer.conn.backlog() > 0;
        let desired = match (want_read, want_write) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        };
        if desired == peer.interest {
            return;
        }
        let fd = peer.socket.as_raw_fd();
        let mut source = SourceFd(&fd);
        let token = Token(CONN_BASE + idx);
        let outcome = match (peer.interest, desired) {
            (None, Some(interest)) => self.registry.register(&mut source, token, interest),
            (Some(_), Some(interest)) => self.registry.reregister(&mut source, token, interest),
            (Some(_), None) => self.registry.deregister(&mut source),
            (None, None) => Ok(()),
        };
        match outcome {
            Ok(()) => peer.interest = desired,
            Err(_) => {
                peer.conn.abort();
                peer.interest = None;
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
        let Some(mut peer) = self.conns.get_mut(idx).and_then(Option::take) else {
            return;
        };
        loop {
            self.parse_lines(idx, &mut peer, batch);
            self.flush(idx, &mut peer);
            // A write that drained a full backlog lifts the pause; the
            // lines it held back are already buffered, so no read event
            // would ever come for them.
            if !peer.conn.resumable() {
                break;
            }
        }
        self.update_interest(idx, &mut peer);
        if peer.conn.finished() {
            if peer.interest.is_some() {
                let fd = peer.socket.as_raw_fd();
                let _ = self.registry.deregister(&mut SourceFd(&fd));
            }
            self.live -= 1;
            self.free.push(idx);
            // `peer` drops here, closing the socket.
        } else {
            self.conns[idx] = Some(peer);
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

    /// Every live connection has every complete line it sent answered
    /// and written.
    fn all_settled(&self) -> bool {
        self.conns.iter().flatten().all(|peer| peer.conn.settled())
    }

    /// The event loop: serves until a requested shutdown has drained
    /// (or its grace ran out), or — with no listener — until the last
    /// connection is done. Only poller failures are errors;
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
            if self.listener.is_none() && self.live == 0 {
                return Ok(());
            }
            if self.draining && drain_deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(());
            }
            let backoff = self
                .accept_resume
                .map(|at| at.saturating_duration_since(Instant::now()));
            let timeout = match (self.draining.then(|| Duration::from_millis(50)), backoff) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            poll.poll(&mut events, timeout)?;
            // The pass tick: one clock read per poll iteration, taken
            // after the (possibly long) wait so blocked time is never
            // charged to a request, reused for every stamp below.
            self.pass_ns = self.telemetry.now_ns();
            let quiet = events.is_empty();
            self.resume_accepts();

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
            // activity, nothing is in flight, and every connection has
            // each complete line it sent answered and written.
            if self.draining && quiet && self.pool.in_flight() == 0 && self.all_settled() {
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
    serve(Some(listener), None, options, shutdown)
}

/// Serves one already-connected stream — the daemon's stdin bridge — on
/// the caller's thread with no listener, exactly as [`serve_reactor`]
/// serves each TCP connection, and returns the run's totals once the
/// peer has closed its side and every line it sent has been answered
/// and written (or the stream died).
///
/// # Errors
///
/// As for [`serve_reactor`].
pub fn serve_stream(stream: UnixStream, options: &ReactorOptions) -> io::Result<ReactorSummary> {
    stream.set_nonblocking(true)?;
    let socket = File::from(OwnedFd::from(stream));
    serve(None, Some(socket), options, &Shutdown::default())
}

/// The reactor loop over an optional listener and an optional
/// pre-connected socket.
fn serve(
    listener: Option<TcpListener>,
    connected: Option<File>,
    options: &ReactorOptions,
    shutdown: &Shutdown,
) -> io::Result<ReactorSummary> {
    let mut poll = Poll::new()?;
    if let Some(listener) = &listener {
        let fd = listener.as_raw_fd();
        poll.registry()
            .register(&mut SourceFd(&fd), LISTENER, Interest::READABLE)?;
    }
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
        listener,
        accept_resume: None,
        accept_exhausted: false,
        conns: Vec::new(),
        free: Vec::new(),
        live: 0,
        max_conns: options.max_conns.clamp(1, MAX_SLOTS - CONN_BASE),
        draining: false,
        arrival_ewma: 1.0,
        pass_arrivals: 0,
        run: ReactorSummary::default(),
        counters: ReactorStats::default(),
    };
    if let Some(socket) = connected {
        reactor.pass_ns = reactor.telemetry.now_ns();
        reactor.admit(socket);
    }
    let outcome = reactor.run(&mut poll, &waker, shutdown);
    // Teardown: close every socket, then stop the workers once they
    // have answered whatever is still in flight.
    reactor.conns.clear();
    reactor.listener = None;
    let Reactor { pool, mut run, .. } = reactor;
    run.shards = pool.shutdown();
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
        assert_eq!(summary.shards.len(), 2);
        assert_eq!(summary.shards.iter().map(|r| r.handled).sum::<u64>(), 4);
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
        assert_eq!(summary.shards.len(), 2);
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
