//! Warm-standby replication: every journal-file mutation on a primary
//! is streamed, in order, to a standby daemon over the ordinary line
//! protocol (`{"op":"replicate",...}` — see [`crate::proto`]).
//!
//! # Design: replicate the *journal*, not the engine
//!
//! The replication stream mirrors the three mutations a
//! [`JournalDir`](crate::journal::JournalDir) ever performs on a tenant
//! file — rewrite it whole (registration, snapshot compaction, import),
//! append one accepted delta, retire it — rather than the requests that
//! caused them. Because both ends run the same renderers at integer-tick
//! precision, the standby's replica file is a byte-identical (lagged)
//! mirror of the primary's journal file, and failover is exactly the
//! recovery path PR 5 already proved bit-identical: load the replica,
//! re-admit through the full analysis, serve. Nothing about the engine,
//! shards, or the solver had to learn about replication; the journal is
//! the replication log.
//!
//! # Ordering and loss
//!
//! A [`Replicator`] is a cheap cloneable handle over one bounded queue
//! drained by a single forwarder thread, so ops for one tenant are
//! delivered in journal order (the engine's per-tenant FIFO guarantees
//! the enqueue order, the queue and the single drainer preserve it).
//! A primary enqueues a group's appends only after the group commit has
//! synced them (see [`crate::journal`]), so every op describes bytes
//! that are durable on the primary: a replica stays a byte prefix of
//! its primary's journal. Replication is asynchronous and *lossy by
//! design* under a dead standby — the primary's own fsynced journal
//! remains the durability anchor; the standby is a warm copy that
//! re-seeds itself from it.
//!
//! Four mechanisms make that lossiness safe rather than hopeful:
//!
//! * **Offset-stamped appends.** Every [`ReplPayload::Append`] carries
//!   the byte offset its line starts at in the primary's journal file
//!   (`at`). The replica is byte-identical, so the standby compares
//!   `at` against its replica file's length: equal means in-sync
//!   (append), shorter means the replica is missing events (reject, so
//!   the primary heals), **longer means the op is a late duplicate** —
//!   an append a heal's reset already installed, or one resent after a
//!   reconnect — and it is acknowledged but not re-applied.
//! * **Pipelined delivery.** The forwarder takes every queued op, up to
//!   [`PIPELINE_DEPTH`], sends them as one write of ordinary
//!   `replicate` lines, and reads the answers in order. A tenant whose
//!   appends were rejected (the standby restarted and lost its replica,
//!   say) is healed once per batch, with a reset built from the
//!   primary's journal *cut at the rejected op's end*: bytes past it
//!   may belong to a group that is not committed yet. A connection lost
//!   mid-batch is redialed and only the unanswered suffix is resent;
//!   the offset guard makes the resend idempotent.
//! * **A bounded backlog.** The queue and the batch in flight together
//!   hold at most [`DEFAULT_BACKLOG_CAP`] ops (see
//!   [`Replicator::with_backlog_cap`]); when a stalled standby lets
//!   shard threads outrun the forwarder, the *oldest* queued op is
//!   evicted (or, with every counted op already in flight, the new op
//!   itself) instead of growing the queue without bound.
//! * **Resync after loss.** An op evicted by the cap or abandoned after
//!   the retry budget marks its tenant. The tenant's next delivery
//!   starts with a reset cut at that append's `at` — a committed offset
//!   — and a [`Replicator::flush`] settles every mark still open with a
//!   reset cut at the dropped op's end. Without it a dropped compaction
//!   reset leaves the replica longer than the compacted journal, every
//!   later append looks like a late duplicate, and the replica stays
//!   stale for good.
//!
//! # Fault injection
//!
//! [`Replicator::sever`] simulates a primary crash from the
//! replication stream's point of view: every op not yet delivered is
//! dropped and nothing further is forwarded. Crash-injection tests use
//! it to freeze the standby at an arbitrary prefix of the stream and
//! then assert that failover from that prefix is still self-consistent.

use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rts_model::delta::DeltaEvent;

use crate::client::{LineClient, RetryPolicy};
use crate::engine::Request;
use crate::journal::{render_event, render_journal, JournalDir, TenantHistory};
use crate::proto::render_request;

/// One replicated journal mutation — the payload of the `replicate`
/// protocol verb.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplPayload {
    /// The tenant's file was rewritten whole: registration (empty
    /// history), snapshot compaction, or import. The standby replaces
    /// its replica file with exactly this history.
    Reset {
        /// The full on-disk history after the rewrite.
        history: TenantHistory,
    },
    /// One accepted delta was appended to the tenant's file.
    Append {
        /// The appended event.
        event: DeltaEvent,
        /// Byte offset the event's line starts at in the primary's
        /// journal file. The replica is byte-identical, so the standby
        /// uses this to tell an in-sync append (replica length equals
        /// `at`) from a gap (shorter — reject, let the primary heal)
        /// and from a late duplicate already covered by a heal's reset
        /// (longer — acknowledge without re-applying).
        at: u64,
    },
    /// The tenant's file was retired (evicted). The standby archives
    /// its replica the same way.
    Retire,
}

/// Delivery counters, all monotonic (read with [`Replicator::stats`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReplStats {
    /// Ops accepted into the channel.
    pub enqueued: u64,
    /// Ops acknowledged by the standby (directly, or through the heal
    /// or reset that covered them).
    pub delivered: u64,
    /// Ops abandoned (evicted by the backlog cap, retry budget spent,
    /// standby rejection that could not be healed, or severed before
    /// delivery). Their tenants are resynced later (see the module
    /// docs).
    pub dropped: u64,
    /// Resets cut from the primary's journal and delivered: heals after
    /// a standby rejection, and resyncs after a dropped op.
    pub heals: u64,
    /// Times the forwarder lost its standby connection, or failed to
    /// open one, and had to dial again.
    pub reconnects: u64,
}

#[derive(Debug, Default)]
struct Counters {
    enqueued: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    heals: AtomicU64,
    reconnects: AtomicU64,
    severed: AtomicBool,
    rejection_logged: AtomicBool,
}

impl Counters {
    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn log_rejection(&self, tenant: u64, reason: &str) {
        if !self.rejection_logged.swap(true, Ordering::Relaxed) {
            eprintln!(
                "replication: standby rejected tenant {tenant}: {reason} \
                 (further rejections counted silently)"
            );
        }
    }
}

#[derive(Debug)]
enum ReplOp {
    Apply { tenant: u64, payload: ReplPayload },
    Flush { ack: Sender<()> },
}

/// Default bound on the forwarder's pending-op backlog (see
/// [`Replicator::with_backlog_cap`]).
pub const DEFAULT_BACKLOG_CAP: usize = 1024;

/// Most ops the forwarder sends in one pipelined write. The batch in
/// flight counts against the backlog cap, so a smaller cap also caps
/// the depth.
pub const PIPELINE_DEPTH: usize = 256;

/// What the forwarder owes a tenant that lost an op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Resync {
    /// Reset the replica to the primary's journal cut at this many bytes
    /// (the lost op's end — committed, unlike anything after it).
    Cut(u64),
    /// Retire the replica.
    Retire,
}

impl Resync {
    /// The resync that repairs the loss of `payload`.
    fn after(payload: &ReplPayload) -> Resync {
        match payload {
            ReplPayload::Append { event, at } => {
                Resync::Cut(at + render_event(event).len() as u64 + 1)
            }
            ReplPayload::Reset { history } => Resync::Cut(render_journal(history).len() as u64),
            ReplPayload::Retire => Resync::Retire,
        }
    }
}

/// The bounded op queue between the shard threads and the forwarder.
/// Capacity applies to `Apply` ops, queued or in the forwarder's batch;
/// when full, the *oldest* queued `Apply` is evicted (flush markers are
/// never evicted, so a flush still observes every op that survived
/// ahead of it).
#[derive(Debug)]
struct Backlog {
    cap: AtomicUsize,
    inner: Mutex<BacklogInner>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct BacklogInner {
    ops: VecDeque<ReplOp>,
    /// `Apply` ops queued or in flight (the capped population).
    applies: usize,
    /// Tenants that lost an op to the cap, with the resync each is
    /// owed (the latest loss wins).
    evicted: HashMap<u64, Resync>,
    closed: bool,
}

impl Backlog {
    fn new(cap: usize) -> Self {
        Backlog {
            cap: AtomicUsize::new(cap.max(1)),
            inner: Mutex::new(BacklogInner::default()),
            ready: Condvar::new(),
        }
    }

    /// Enqueues one op. Returns how many ops were dropped to respect
    /// the cap (possibly `op` itself), or `Err(())` when the forwarder
    /// has already exited.
    fn push(&self, op: ReplOp) -> Result<u64, ()> {
        let cap = self.cap.load(Ordering::Relaxed).max(1);
        let mut inner = self.inner.lock().expect("backlog lock");
        if inner.closed {
            return Err(());
        }
        let mut evicted = 0;
        if let ReplOp::Apply { tenant, payload } = &op {
            while inner.applies >= cap {
                let Some(pos) = inner
                    .ops
                    .iter()
                    .position(|o| matches!(o, ReplOp::Apply { .. }))
                else {
                    // Every counted op is in flight: the new one gives way.
                    inner.evicted.insert(*tenant, Resync::after(payload));
                    return Ok(evicted + 1);
                };
                if let Some(ReplOp::Apply { tenant, payload }) = inner.ops.remove(pos) {
                    inner.evicted.insert(tenant, Resync::after(&payload));
                }
                inner.applies -= 1;
                evicted += 1;
            }
            inner.applies += 1;
        }
        inner.ops.push_back(op);
        drop(inner);
        self.ready.notify_one();
        Ok(evicted)
    }

    /// Takes the next batch — queued ops from the front, up to
    /// [`PIPELINE_DEPTH`] (or the cap) applies, ending after the first
    /// flush marker — plus the resyncs owed for evicted ops, all of
    /// which precede the batch. The batch's applies stay counted until
    /// [`Backlog::finish`]. Blocks while the queue is empty; `None`
    /// once it is closed *and* drained (the orderly-exit path).
    fn pop_batch(&self) -> Option<(Vec<ReplOp>, HashMap<u64, Resync>)> {
        let depth = PIPELINE_DEPTH.min(self.cap.load(Ordering::Relaxed).max(1));
        let mut inner = self.inner.lock().expect("backlog lock");
        loop {
            if !inner.ops.is_empty() {
                let mut batch = Vec::new();
                let mut applies = 0;
                while applies < depth {
                    let Some(op) = inner.ops.pop_front() else {
                        break;
                    };
                    let flush = matches!(op, ReplOp::Flush { .. });
                    batch.push(op);
                    if flush {
                        break;
                    }
                    applies += 1;
                }
                return Some((batch, std::mem::take(&mut inner.evicted)));
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("backlog lock");
        }
    }

    /// Releases a finished batch's applies from the cap.
    fn finish(&self, applies: usize) {
        self.inner.lock().expect("backlog lock").applies -= applies;
    }

    fn close(&self) {
        self.inner.lock().expect("backlog lock").closed = true;
        self.ready.notify_all();
    }
}

/// Closes the backlog when the last [`Replicator`] clone drops, so the
/// forwarder drains what is queued and exits (the mpsc-channel exit
/// semantics, reproduced for the bounded queue).
#[derive(Debug)]
struct ProducerGuard {
    backlog: Arc<Backlog>,
}

impl Drop for ProducerGuard {
    fn drop(&mut self) {
        self.backlog.close();
    }
}

/// A handle to the replication stream. Cloning is cheap (`Arc`s of the
/// backlog and counters); every clone feeds the same forwarder.
#[derive(Clone, Debug)]
pub struct Replicator {
    backlog: Arc<Backlog>,
    counters: Arc<Counters>,
    source: Arc<str>,
    _producers: Arc<ProducerGuard>,
}

impl Replicator {
    /// Starts a forwarder thread streaming to the standby at `standby`.
    ///
    /// `source` names this primary on the wire — the standby tracks the
    /// most recent resetter per tenant and ignores appends/retires from
    /// a different source, which makes hand-off races (old primary's
    /// retire racing the new primary's reset) harmless. `journal` is
    /// the primary's own journal directory (a clone *without*
    /// replication attached), read to heal and resync replicas; without
    /// it, lost ops stay lost.
    #[must_use]
    pub fn spawn(
        source: impl Into<String>,
        standby: SocketAddr,
        policy: RetryPolicy,
        journal: Option<JournalDir>,
    ) -> Replicator {
        let backlog = Arc::new(Backlog::new(DEFAULT_BACKLOG_CAP));
        let counters = Arc::new(Counters::default());
        let source: Arc<str> = Arc::from(source.into());
        let worker_backlog = Arc::clone(&backlog);
        let worker_counters = Arc::clone(&counters);
        let worker_source = Arc::clone(&source);
        std::thread::Builder::new()
            .name("repl-forwarder".into())
            .spawn(move || {
                let mut forwarder = Forwarder {
                    conn: None,
                    standby,
                    policy,
                    counters: &worker_counters,
                    source: &worker_source,
                    journal: journal.as_ref(),
                    owed: HashMap::new(),
                };
                forwarder.run(&worker_backlog);
                // If the loop ever exits abnormally, refuse further
                // enqueues instead of accumulating a dead backlog.
                worker_backlog.close();
            })
            .expect("spawning the replication forwarder thread");
        Replicator {
            _producers: Arc::new(ProducerGuard {
                backlog: Arc::clone(&backlog),
            }),
            backlog,
            counters,
            source,
        }
    }

    /// Caps the backlog — queued ops plus the batch in flight (default
    /// [`DEFAULT_BACKLOG_CAP`]; values below 1 are treated as 1). With
    /// the standby unreachable, the forwarder spends its whole retry
    /// budget per batch while shard threads keep enqueueing every
    /// journal mutation; the cap bounds that backlog by evicting the
    /// *oldest* queued op — newest state wins, and every tenant that
    /// lost an op is resynced once the standby returns.
    #[must_use]
    pub fn with_backlog_cap(self, cap: usize) -> Self {
        self.backlog.cap.store(cap.max(1), Ordering::Relaxed);
        self
    }

    /// The source id this primary stamps on every replicated op.
    #[must_use]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Streams a whole-file rewrite (registration, snapshot, import).
    pub fn reset(&self, tenant: u64, history: TenantHistory) {
        self.enqueue(tenant, ReplPayload::Reset { history });
    }

    /// Streams one appended accepted delta. `at` is the byte offset the
    /// event's line starts at in the primary's journal file (see
    /// [`ReplPayload::Append`]); the bytes before it and the line itself
    /// must already be synced.
    pub fn append(&self, tenant: u64, event: DeltaEvent, at: u64) {
        self.enqueue(tenant, ReplPayload::Append { event, at });
    }

    /// Streams a retirement (eviction).
    pub fn retire(&self, tenant: u64) {
        self.enqueue(tenant, ReplPayload::Retire);
    }

    fn enqueue(&self, tenant: u64, payload: ReplPayload) {
        if self.counters.severed.load(Ordering::Relaxed) {
            Counters::add(&self.counters.dropped, 1);
            return;
        }
        Counters::add(&self.counters.enqueued, 1);
        match self.backlog.push(ReplOp::Apply { tenant, payload }) {
            // Evicted ops were abandoned to keep the backlog bounded;
            // their tenants are resynced once the standby returns.
            Ok(evicted) => Counters::add(&self.counters.dropped, evicted),
            // A closed backlog means the forwarder exited; ops are then
            // dropped silently, exactly like a severed stream.
            Err(()) => Counters::add(&self.counters.dropped, 1),
        }
    }

    /// Quiesces the stream: blocks until every op enqueued before this
    /// call has been delivered (or abandoned) and every tenant that
    /// lost an op has had one resync attempt, or `timeout` elapses.
    /// Returns whether the flush completed in time. The graceful-drain
    /// paths call this so an orderly stop loses no replicated delta.
    pub fn flush(&self, timeout: Duration) -> bool {
        let (ack_tx, ack_rx) = mpsc::channel();
        if self.backlog.push(ReplOp::Flush { ack: ack_tx }).is_err() {
            return false;
        }
        ack_rx.recv_timeout(timeout).is_ok()
    }

    /// Fault injection: simulate this primary crashing out of the
    /// replication stream. Undelivered ops are dropped, future ops are
    /// black-holed. Irreversible for this replicator.
    pub fn sever(&self) {
        self.counters.severed.store(true, Ordering::Relaxed);
    }

    /// Current delivery counters.
    #[must_use]
    pub fn stats(&self) -> ReplStats {
        ReplStats {
            enqueued: self.counters.enqueued.load(Ordering::Relaxed),
            delivered: self.counters.delivered.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            heals: self.counters.heals.load(Ordering::Relaxed),
            reconnects: self.counters.reconnects.load(Ordering::Relaxed),
        }
    }
}

/// One line of a pipelined batch: an enqueued op, or a reset the
/// forwarder cut from the primary's journal itself (`repair`).
#[derive(Debug)]
struct WireOp {
    tenant: u64,
    payload: ReplPayload,
    repair: bool,
}

impl WireOp {
    fn whole_file(&self) -> bool {
        !matches!(self.payload, ReplPayload::Append { .. })
    }
}

/// The standby's answer to one line.
enum Outcome {
    Delivered,
    Rejected(String),
    /// Never answered: the retry budget ran out first.
    Lost,
}

impl Outcome {
    /// Classifies an answer line. `applied:false` (the standby ignored
    /// a stale-source op on purpose) counts as delivered.
    fn of(answer: &str) -> Outcome {
        if !answer.contains("\"verdict\":\"error\"") {
            return Outcome::Delivered;
        }
        let reason = crate::json::parse(answer)
            .ok()
            .and_then(|v| v.get("reason").and_then(|r| r.as_str().map(String::from)))
            .unwrap_or_else(|| answer.to_string());
        Outcome::Rejected(reason)
    }
}

/// The forwarder thread's state: its standby connection and the
/// resyncs owed to tenants that lost an op.
struct Forwarder<'a> {
    conn: Option<LineClient>,
    standby: SocketAddr,
    policy: RetryPolicy,
    counters: &'a Counters,
    source: &'a str,
    journal: Option<&'a JournalDir>,
    owed: HashMap<u64, Resync>,
}

impl Forwarder<'_> {
    fn run(&mut self, backlog: &Backlog) {
        while let Some((batch, evicted)) = backlog.pop_batch() {
            // Evictions happened before every op of this batch.
            self.owed.extend(evicted);
            let mut applies = 0;
            let mut flushes = Vec::new();
            let mut wire = Vec::with_capacity(batch.len());
            for op in batch {
                match op {
                    ReplOp::Flush { ack } => flushes.push(ack),
                    ReplOp::Apply { tenant, payload } => {
                        applies += 1;
                        if self.counters.severed.load(Ordering::Relaxed) {
                            Counters::add(&self.counters.dropped, 1);
                            continue;
                        }
                        // A tenant that lost an op starts its next
                        // delivery with a reset cut at this append's
                        // start; a reset or retire repairs it by itself.
                        if self.owed.remove(&tenant).is_some() {
                            if let ReplPayload::Append { at, .. } = payload {
                                match self.cut(tenant, at) {
                                    Some(reset) => wire.push(reset),
                                    None => {
                                        self.owed.insert(tenant, Resync::after(&payload));
                                    }
                                }
                            }
                        }
                        wire.push(WireOp {
                            tenant,
                            payload,
                            repair: false,
                        });
                    }
                }
            }
            self.deliver(&wire);
            if !flushes.is_empty() {
                self.settle();
                for ack in flushes {
                    // FIFO: every op ahead of the marker is settled.
                    let _ = ack.send(());
                }
            }
            backlog.finish(applies);
        }
    }

    /// A reset of `tenant`'s replica to the primary's journal cut at
    /// `len` bytes, if the journal is at hand and still has that prefix
    /// (a later rewrite may have replaced it; its own reset follows).
    fn cut(&self, tenant: u64, len: u64) -> Option<WireOp> {
        let history = self.journal?.load_tenant_prefix(tenant, len).ok()?;
        Some(WireOp {
            tenant,
            payload: ReplPayload::Reset { history },
            repair: true,
        })
    }

    /// Books an op that was not delivered: dropped, and its tenant owed
    /// a resync up to the op's end.
    fn lose(&mut self, op: &WireOp) {
        if !op.repair {
            Counters::add(&self.counters.dropped, 1);
        }
        self.owed.insert(op.tenant, Resync::after(&op.payload));
    }

    /// Sends one batch pipelined and books every answer, then heals
    /// each tenant whose appends were rejected — once, with a reset cut
    /// at its last rejected append's end. Answers are booked in order,
    /// so a later rewrite or heal of a tenant supersedes its earlier
    /// losses, never a later one.
    fn deliver(&mut self, wire: &[WireOp]) {
        // Per tenant: the heal's cut and the rejected appends awaiting it.
        let mut heal: HashMap<u64, (u64, u64)> = HashMap::new();
        let outcomes = self.exchange(wire);
        for (op, outcome) in wire.iter().zip(outcomes) {
            let delivered = matches!(outcome, Outcome::Delivered);
            if op.whole_file() {
                // A reset or retire settles the rejections before it.
                if let Some((_, waiting)) = heal.remove(&op.tenant) {
                    let counter = if delivered {
                        &self.counters.delivered
                    } else {
                        &self.counters.dropped
                    };
                    Counters::add(counter, waiting);
                }
            }
            match outcome {
                Outcome::Delivered => {
                    if op.whole_file() {
                        self.owed.remove(&op.tenant);
                    }
                    let counter = if op.repair {
                        &self.counters.heals
                    } else {
                        &self.counters.delivered
                    };
                    Counters::add(counter, 1);
                }
                Outcome::Rejected(_) if !op.whole_file() => {
                    // The heal, cut at this append's end, covers every
                    // earlier loss of the tenant.
                    self.owed.remove(&op.tenant);
                    if let Resync::Cut(end) = Resync::after(&op.payload) {
                        let entry = heal.entry(op.tenant).or_insert((end, 0));
                        *entry = (end, entry.1 + 1);
                    }
                }
                Outcome::Rejected(reason) => {
                    self.counters.log_rejection(op.tenant, &reason);
                    self.lose(op);
                }
                Outcome::Lost => self.lose(op),
            }
        }
        if heal.is_empty() {
            return;
        }
        let mut resets = Vec::with_capacity(heal.len());
        let mut waiting = Vec::with_capacity(heal.len());
        for (tenant, (end, rejected)) in heal {
            match self.cut(tenant, end) {
                Some(reset) => {
                    resets.push(reset);
                    waiting.push(rejected);
                }
                None => {
                    Counters::add(&self.counters.dropped, rejected);
                    self.owed.entry(tenant).or_insert(Resync::Cut(end));
                }
            }
        }
        let outcomes = self.exchange(&resets);
        for ((op, rejected), outcome) in resets.iter().zip(waiting).zip(outcomes) {
            if let Outcome::Delivered = outcome {
                Counters::add(&self.counters.heals, 1);
                Counters::add(&self.counters.delivered, rejected);
                continue;
            }
            if let Outcome::Rejected(reason) = outcome {
                self.counters.log_rejection(op.tenant, &reason);
            }
            Counters::add(&self.counters.dropped, rejected);
            // A loss owed from later in the batch stays the target.
            self.owed
                .entry(op.tenant)
                .or_insert(Resync::after(&op.payload));
        }
    }

    /// A flush settles every resync still owed — a reset cut at the lost
    /// op's end, or a retire — so a quiesced stream leaves no replica
    /// stale. Unsettled resyncs stay owed.
    fn settle(&mut self) {
        if self.owed.is_empty() || self.counters.severed.load(Ordering::Relaxed) {
            return;
        }
        let mut wire = Vec::with_capacity(self.owed.len());
        for (&tenant, &resync) in &self.owed {
            match resync {
                Resync::Cut(len) => wire.extend(self.cut(tenant, len)),
                Resync::Retire => wire.push(WireOp {
                    tenant,
                    payload: ReplPayload::Retire,
                    repair: true,
                }),
            }
        }
        let outcomes = self.exchange(&wire);
        for (op, outcome) in wire.iter().zip(outcomes) {
            if matches!(outcome, Outcome::Delivered) {
                self.owed.remove(&op.tenant);
                if matches!(op.payload, ReplPayload::Reset { .. }) {
                    Counters::add(&self.counters.heals, 1);
                }
            }
        }
    }

    /// Sends `ops` pipelined — one write of every unanswered line — and
    /// reads their answers in order. A broken connection is redialed
    /// with capped backoff and only the unanswered suffix is resent (the
    /// offset guard makes a resent append idempotent, and a resent reset
    /// or retire rewrites the same state). Ops still unanswered when the
    /// retry budget is spent come back [`Outcome::Lost`].
    fn exchange(&mut self, ops: &[WireOp]) -> Vec<Outcome> {
        let lines: Vec<String> = ops
            .iter()
            .map(|op| {
                render_request(&Request::Replicate {
                    tenant: op.tenant,
                    source: self.source.to_string(),
                    payload: op.payload.clone(),
                })
            })
            .collect();
        let mut outcomes = Vec::with_capacity(lines.len());
        let attempts = self.policy.attempts.max(1);
        let mut attempt = 0;
        while outcomes.len() < lines.len() && attempt < attempts {
            if self.counters.severed.load(Ordering::Relaxed) {
                break;
            }
            let client = match &mut self.conn {
                Some(client) => client,
                None => match LineClient::connect(self.standby, &RetryPolicy::once()) {
                    Ok(client) => self.conn.insert(client),
                    Err(_) => {
                        Counters::add(&self.counters.reconnects, 1);
                        std::thread::sleep(self.policy.delay(attempt));
                        attempt += 1;
                        continue;
                    }
                },
            };
            let mut broken = client.send_all(&lines[outcomes.len()..]).is_err();
            while !broken && outcomes.len() < lines.len() {
                match client.recv() {
                    Ok(answer) => outcomes.push(Outcome::of(&answer)),
                    Err(_) => broken = true,
                }
            }
            if broken {
                // Broken pipe, timeout, standby restarting: redial.
                self.conn = None;
                Counters::add(&self.counters.reconnects, 1);
                std::thread::sleep(self.policy.delay(attempt));
                attempt += 1;
            }
        }
        outcomes.resize_with(lines.len(), || Outcome::Lost);
        outcomes
    }
}
