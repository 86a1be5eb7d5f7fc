//! Warm-standby replication: every journal-file mutation on a primary
//! is streamed, in order, to a standby daemon over the ordinary line
//! protocol (`{"op":"replicate",...}` — see [`crate::proto`]).
//!
//! # Design: replicate the *journal*, not the engine
//!
//! The replication stream mirrors the three mutations a
//! [`JournalDir`] ever performs on a tenant
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
//!   (append), shorter means the replica is missing events (reject),
//!   **longer means the op is a late duplicate** — an append a repair's
//!   reset already installed, or one resent after a reconnect — and it
//!   is acknowledged but not re-applied.
//! * **Pipelined delivery.** The forwarder takes every queued op, up to
//!   [`PIPELINE_DEPTH`], sends them as one write of ordinary
//!   `replicate` lines, and reads the answers in order. A connection
//!   lost mid-batch is redialed and only the unanswered suffix is
//!   resent; the offset guard makes the resend idempotent.
//! * **A bounded backlog.** The queue and the batch in flight together
//!   hold at most [`DEFAULT_BACKLOG_CAP`] ops (see
//!   [`Replicator::with_backlog_cap`]); when a stalled standby lets
//!   shard threads outrun the forwarder, the *oldest* queued op is
//!   evicted (or, with every counted op already in flight, the new op
//!   itself) instead of growing the queue without bound.
//! * **One repair rule.** An op that is not delivered — rejected by the
//!   standby, lost when the retry budget ran out, or evicted by the cap
//!   — leaves its tenant a *debt*: a cut offset in the primary's
//!   journal (the op's end, which is committed, unlike anything after
//!   it) or a retire, plus the rejected ops waiting on it. A delivered
//!   append of an indebted tenant moves the cut to its end, because a
//!   stale replica may have ignored it as a late duplicate; a delivered
//!   reset or retire settles the debt. After every batch the standby
//!   answered in full, one repair per indebted tenant — a reset cut
//!   from the primary's journal, or a retire — goes out through the
//!   same exchange and is booked like any other op; a failed repair
//!   abandons the ops waiting on it and leaves the debt for the next
//!   batch. A cut the journal no longer holds (the file was rewritten
//!   since) yields no repair: the rewrite's own reset is queued and
//!   settles the debt. Without the rule a dropped compaction reset
//!   leaves the replica longer than the compacted journal, every later
//!   append looks like a late duplicate, and the replica stays stale
//!   for good.
//!
//! Only the forwarder's exchange touches the socket: booking answers
//! and planning repairs are plain state updates, which the unit tests
//! drive with synthetic answers.
//!
//! # The standby half
//!
//! A standby applies each op to its replica store (`ReplicaStore`, the
//! `replica/` directory beside its own journal). A reset always wins a
//! tenant's ownership — it is how a tenant's new primary announces
//! itself after a hand-off — and the owner is persisted in a
//! `tenant_<id>.owner` sidecar that is rebuilt at startup. Appends and
//! retires from any other source are acknowledged but ignored
//! (`applied:false`), so hand-off races are harmless. A tenant whose
//! owner is unknown — no sidecar, or an empty one — rejects appends, so
//! its primary repairs it with a reset that records the owner again,
//! and ignores retires. Replica appends are group-committed like
//! journal appends. `adopt` loads a replica for re-admission and, once
//! it is adopted, releases it: the owner is forgotten and the file
//! retired.
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
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rts_model::delta::DeltaEvent;

use crate::client::{LineClient, RetryPolicy};
use crate::engine::{poison_after_failed_write, Request};
use crate::journal::{self, render_event, render_journal, AppendGroup, JournalDir, TenantHistory};
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
        /// `at`) from a gap (shorter — reject, so the primary repairs
        /// it) and from a late duplicate already covered by a repair's
        /// reset (longer — acknowledge without re-applying).
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
    /// Ops acknowledged by the standby (directly, or through the repair
    /// or reset that covered them).
    pub delivered: u64,
    /// Ops abandoned (evicted by the backlog cap, retry budget spent,
    /// standby rejection whose repair failed, or severed before
    /// delivery). Their tenants are repaired later (see the module
    /// docs).
    pub dropped: u64,
    /// Repairs delivered: resets cut from the primary's journal, or
    /// retires, each settling one tenant's debt.
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

/// The repair a tenant is owed after one of its ops was not delivered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Repair {
    /// Reset the replica to the primary's journal cut at this many bytes
    /// (an op's end — committed, unlike anything after it).
    Cut(u64),
    /// Retire the replica.
    Retire,
}

impl Repair {
    /// The repair that covers everything up to the end of `payload`.
    fn after(payload: &ReplPayload) -> Repair {
        match payload {
            ReplPayload::Append { event, at } => {
                Repair::Cut(at + render_event(event).len() as u64 + 1)
            }
            ReplPayload::Reset { history } => Repair::Cut(render_journal(history).len() as u64),
            ReplPayload::Retire => Repair::Retire,
        }
    }
}

/// What the forwarder owes a tenant: the repair, and the rejected ops
/// waiting on it (counted delivered once a repair or rewrite lands).
struct Debt {
    repair: Repair,
    waiting: u64,
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
    /// Tenants that lost an op to the cap, with the repair each is
    /// owed (the latest loss wins).
    evicted: HashMap<u64, Repair>,
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
                    inner.evicted.insert(*tenant, Repair::after(payload));
                    return Ok(evicted + 1);
                };
                if let Some(ReplOp::Apply { tenant, payload }) = inner.ops.remove(pos) {
                    inner.evicted.insert(tenant, Repair::after(&payload));
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
    /// flush marker — plus the repairs owed for evicted ops, all of
    /// which precede the batch. The batch's applies stay counted until
    /// [`Backlog::finish`]. Blocks while the queue is empty; `None`
    /// once it is closed *and* drained (the orderly-exit path).
    fn pop_batch(&self) -> Option<(Vec<ReplOp>, HashMap<u64, Repair>)> {
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
    /// replication attached), read to repair replicas; without it, lost
    /// ops stay lost.
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
                Forwarder::new(&worker_counters, &worker_source, journal.as_ref()).run(
                    standby,
                    policy,
                    &worker_backlog,
                );
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
    /// lost an op is repaired once the standby returns.
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
            // their tenants are repaired once the standby returns.
            Ok(evicted) => Counters::add(&self.counters.dropped, evicted),
            // A closed backlog means the forwarder exited; ops are then
            // dropped silently, exactly like a severed stream.
            Err(()) => Counters::add(&self.counters.dropped, 1),
        }
    }

    /// Quiesces the stream: blocks until every op enqueued before this
    /// call has been delivered (or abandoned) and, if the standby
    /// answered them, every tenant that lost an op has had one repair
    /// attempt, or `timeout` elapses.
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

/// One line of a pipelined batch: an enqueued op, or a repair the
/// forwarder planned itself (`repair`).
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
    /// a stale-source op or a late duplicate on purpose) counts as
    /// delivered.
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

/// The forwarder thread's state: its standby connection and the debts
/// of tenants whose ops were not delivered (see the module docs).
struct Forwarder<'a> {
    conn: Option<LineClient>,
    counters: &'a Counters,
    source: &'a str,
    journal: Option<&'a JournalDir>,
    debts: HashMap<u64, Debt>,
}

impl<'a> Forwarder<'a> {
    fn new(counters: &'a Counters, source: &'a str, journal: Option<&'a JournalDir>) -> Self {
        Forwarder {
            conn: None,
            counters,
            source,
            journal,
            debts: HashMap::new(),
        }
    }

    fn run(&mut self, standby: SocketAddr, policy: RetryPolicy, backlog: &Backlog) {
        while let Some((batch, evicted)) = backlog.pop_batch() {
            let (wire, flushes) = self.admit(batch, evicted);
            let applies = wire.len();
            let outcomes = self.exchange(standby, &policy, &wire);
            if self.book(&wire, outcomes) {
                let repairs = self.repairs();
                let outcomes = self.exchange(standby, &policy, &repairs);
                self.book(&repairs, outcomes);
            }
            for ack in flushes {
                // FIFO: every op ahead of the marker is booked.
                let _ = ack.send(());
            }
            backlog.finish(applies);
        }
    }

    /// Takes one batch from the backlog: the evicted ops' repairs are
    /// owed first (evictions happened before every op of the batch),
    /// then the batch splits into wire ops and flush acknowledgements.
    fn admit(
        &mut self,
        batch: Vec<ReplOp>,
        evicted: HashMap<u64, Repair>,
    ) -> (Vec<WireOp>, Vec<Sender<()>>) {
        for (tenant, repair) in evicted {
            self.owe(tenant, repair);
        }
        let mut flushes = Vec::new();
        let mut wire = Vec::with_capacity(batch.len());
        for op in batch {
            match op {
                ReplOp::Flush { ack } => flushes.push(ack),
                ReplOp::Apply { tenant, payload } => wire.push(WireOp {
                    tenant,
                    payload,
                    repair: false,
                }),
            }
        }
        (wire, flushes)
    }

    /// Records that `tenant` is owed `repair`, which supersedes any
    /// earlier one (ops are booked in order).
    fn owe(&mut self, tenant: u64, repair: Repair) -> &mut Debt {
        let debt = self
            .debts
            .entry(tenant)
            .or_insert(Debt { repair, waiting: 0 });
        debt.repair = repair;
        debt
    }

    /// Books a batch's answers, in order, by the debt rule. Returns
    /// whether the standby answered the whole batch — only then do
    /// repairs follow it.
    fn book(&mut self, wire: &[WireOp], outcomes: Vec<Outcome>) -> bool {
        let counters = self.counters;
        let mut answered = true;
        for (op, outcome) in wire.iter().zip(outcomes) {
            let rejected = match outcome {
                Outcome::Delivered => {
                    let counter = if op.repair {
                        &counters.heals
                    } else {
                        &counters.delivered
                    };
                    Counters::add(counter, 1);
                    if op.whole_file() {
                        if let Some(debt) = self.debts.remove(&op.tenant) {
                            Counters::add(&counters.delivered, debt.waiting);
                        }
                    } else if let Some(debt) = self.debts.get_mut(&op.tenant) {
                        // A stale replica may have ignored it as a late
                        // duplicate: the repair must cover it too.
                        debt.repair = Repair::after(&op.payload);
                    }
                    continue;
                }
                Outcome::Rejected(reason) => {
                    if op.whole_file() {
                        counters.log_rejection(op.tenant, &reason);
                    }
                    true
                }
                Outcome::Lost => {
                    answered = false;
                    false
                }
            };
            let debt = self.owe(op.tenant, Repair::after(&op.payload));
            let dropped = if op.repair {
                // The repair failed: the ops waiting on it are lost.
                std::mem::take(&mut debt.waiting)
            } else if rejected {
                debt.waiting += 1;
                0
            } else {
                1
            };
            Counters::add(&counters.dropped, dropped);
        }
        answered
    }

    /// One repair per indebted tenant: a reset of its replica to the
    /// primary's journal cut at the debt's offset, or a retire. A cut
    /// the journal no longer holds (or no journal at hand) yields none;
    /// a later rewrite replaced the prefix and its own reset is queued.
    fn repairs(&self) -> Vec<WireOp> {
        self.debts
            .iter()
            .filter_map(|(&tenant, debt)| {
                let payload = match debt.repair {
                    Repair::Retire => ReplPayload::Retire,
                    Repair::Cut(len) => ReplPayload::Reset {
                        history: self.journal?.load_tenant_prefix(tenant, len).ok()?,
                    },
                };
                Some(WireOp {
                    tenant,
                    payload,
                    repair: true,
                })
            })
            .collect()
    }

    /// Sends `ops` pipelined — one write of every unanswered line — and
    /// reads their answers in order. A broken connection is redialed
    /// with capped backoff and only the unanswered suffix is resent (the
    /// offset guard makes a resent append idempotent, and a resent reset
    /// or retire rewrites the same state). Ops still unanswered when the
    /// retry budget is spent come back [`Outcome::Lost`]. The only code
    /// that touches the socket.
    fn exchange(
        &mut self,
        standby: SocketAddr,
        policy: &RetryPolicy,
        ops: &[WireOp],
    ) -> Vec<Outcome> {
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
        let attempts = policy.attempts.max(1);
        let mut attempt = 0;
        while outcomes.len() < lines.len() && attempt < attempts {
            if self.counters.severed.load(Ordering::Relaxed) {
                break;
            }
            let client = match &mut self.conn {
                Some(client) => client,
                None => match LineClient::connect(standby, &RetryPolicy::once()) {
                    Ok(client) => self.conn.insert(client),
                    Err(_) => {
                        Counters::add(&self.counters.reconnects, 1);
                        std::thread::sleep(policy.delay(attempt));
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
                std::thread::sleep(policy.delay(attempt));
                attempt += 1;
            }
        }
        outcomes.resize_with(lines.len(), || Outcome::Lost);
        outcomes
    }
}

/// The standby half of the protocol: the replica files under
/// `<journal>/replica/`, which primary owns each of them, and the
/// replica appends not yet committed (see the module docs). No analysis
/// runs here — a replica is bytes on disk until `adopt` re-admits it.
#[derive(Debug)]
pub(crate) struct ReplicaStore {
    dir: JournalDir,
    /// Which primary most recently reset each replica, mirrored to the
    /// `tenant_<id>.owner` sidecars.
    owners: HashMap<u64, String>,
    group: AppendGroup,
}

impl ReplicaStore {
    /// The replica store kept under `journal`, with its owners rebuilt
    /// from the sidecars beside the replica files. An empty or
    /// unreadable sidecar leaves its tenant's owner unknown.
    pub(crate) fn open(journal: &JournalDir) -> Self {
        let dir = journal.replica();
        let owners = dir
            .tenants()
            .into_iter()
            .filter_map(|tenant| {
                let source = std::fs::read_to_string(owner_path(&dir, tenant)).ok()?;
                (!source.is_empty()).then_some((tenant, source))
            })
            .collect();
        ReplicaStore {
            dir,
            owners,
            group: AppendGroup::default(),
        }
    }

    /// Applies one mirrored journal mutation from `source`. `Ok(false)`
    /// means the op was ignored on purpose (a stale source, a late
    /// duplicate, or a retire of an unknown owner's replica); `Err` is
    /// the reason the standby rejects it, which makes the primary
    /// repair the replica. Appends are written but not synced until
    /// [`ReplicaStore::commit`].
    pub(crate) fn apply(
        &mut self,
        tenant: u64,
        source: &str,
        payload: &ReplPayload,
    ) -> Result<bool, String> {
        let owner = self.owners.get(&tenant);
        let (known, stale) = (owner.is_some(), owner.is_some_and(|o| o != source));
        match payload {
            ReplPayload::Reset { history } => {
                self.commit();
                self.dir
                    .write_history(tenant, history)
                    .map_err(|e| format!("replica reset failed: {e}"))?;
                // A failed sidecar write degrades to an unknown owner
                // after a restart (rejected appends, repaired by the next
                // reset), never to a wrong one.
                if let Err(e) =
                    journal::write_whole(&owner_path(&self.dir, tenant), source.as_bytes())
                {
                    eprintln!("journal: could not record replica owner for tenant {tenant}: {e}");
                }
                self.owners.insert(tenant, source.to_string());
                Ok(true)
            }
            _ if stale => Ok(false),
            // Without an owner, a retire may be a dead primary's
            // straggler racing a hand-off; ignoring it is always safe.
            ReplPayload::Retire if !known => Ok(false),
            ReplPayload::Append { .. } if !known => {
                Err(format!("replica of tenant {tenant} has no recorded owner"))
            }
            ReplPayload::Append { event, at } => {
                let len = std::fs::metadata(self.dir.path_for(tenant))
                    .map_err(|e| format!("replica append failed: {e}"))?
                    .len();
                // The offset guard: the replica mirrors the primary's
                // journal byte for byte. Longer is a late duplicate that
                // a repair's reset already holds; shorter is a gap.
                if len > *at {
                    return Ok(false);
                }
                if len < *at {
                    return Err(format!(
                        "replica append failed: replica is {} bytes behind the \
                         primary's journal",
                        *at - len
                    ));
                }
                self.dir
                    .append_deferred(&mut self.group, tenant, event)
                    .map_err(|e| format!("replica append failed: {e}"))?;
                Ok(true)
            }
            ReplPayload::Retire => {
                self.commit();
                self.dir
                    .retire_tenant(tenant)
                    .map_err(|e| format!("replica retire failed: {e}"))?;
                self.forget(tenant);
                Ok(true)
            }
        }
    }

    /// Syncs the appends written since the last commit. A replica whose
    /// sync failed was already answered as applied, so it is moved
    /// aside: the primary's next append is rejected and repairs it.
    pub(crate) fn commit(&mut self) {
        for (tenant, e) in self.dir.commit(&mut self.group) {
            eprintln!("journal: could not sync the replica of tenant {tenant}: {e}");
            poison_after_failed_write(&self.dir, tenant);
        }
    }

    /// A replica's history, for adoption.
    pub(crate) fn load(&self, tenant: u64) -> Result<TenantHistory, String> {
        self.dir
            .load_tenant(tenant)
            .map_err(|e| format!("no adoptable replica for tenant {tenant}: {e}"))
    }

    /// Releases an adopted replica: its owner is forgotten and its file
    /// retired, so a second adopt — or a later stream for a
    /// re-registered tenant — starts clean.
    pub(crate) fn release(&mut self, tenant: u64) {
        self.forget(tenant);
        if let Err(e) = self.dir.retire_tenant(tenant) {
            eprintln!("journal: could not retire adopted replica of tenant {tenant}: {e}");
        }
    }

    fn forget(&mut self, tenant: u64) {
        self.owners.remove(&tenant);
        match std::fs::remove_file(owner_path(&self.dir, tenant)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                eprintln!("journal: could not clear replica owner for tenant {tenant}: {e}");
            }
            _ => {}
        }
    }
}

/// The sidecar recording which primary owns a replica. The replica file
/// itself must stay byte-identical to the primary's journal, so
/// ownership cannot live inside it.
fn owner_path(dir: &JournalDir, tenant: u64) -> PathBuf {
    dir.path_for(tenant).with_extension("owner")
}

#[cfg(test)]
mod tests {
    //! The forwarder's decisions, with no standby: `book` is fed
    //! synthetic answers and `repairs` is read back.

    use super::*;
    use crate::engine::RtSpec;
    use crate::journal::TenantSnapshot;
    use rts_model::delta::MonitorMode;
    use rts_model::time::Duration;

    const TENANT: u64 = 3;

    /// A registered tenant's journal in a fresh temporary directory,
    /// removed on drop.
    struct Primary {
        root: PathBuf,
        journal: JournalDir,
    }

    impl Primary {
        fn new(name: &str) -> Self {
            let root =
                std::env::temp_dir().join(format!("hydra_repl_{name}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let journal = JournalDir::at(&root);
            journal.begin_tenant(TENANT, 2, &rt()).unwrap();
            Primary { root, journal }
        }

        /// Appends `n` events and returns their ops, stamped with the
        /// offsets the group commit would stamp.
        fn append(&self, n: usize) -> Vec<WireOp> {
            (0..n)
                .map(|k| {
                    let at = self.len();
                    let mode = [MonitorMode::Active, MonitorMode::Passive][k % 2];
                    let event = DeltaEvent::ModeChange { slot: 0, mode };
                    self.journal.append_event(TENANT, &event).unwrap();
                    WireOp {
                        tenant: TENANT,
                        payload: ReplPayload::Append { event, at },
                        repair: false,
                    }
                })
                .collect()
        }

        /// Compacts the journal and returns the rewrite's reset.
        fn compact(&self) -> WireOp {
            let snapshot = TenantSnapshot {
                monitors: Vec::new(),
                fingerprint: 0,
            };
            self.journal
                .snapshot_tenant(TENANT, 2, &rt(), &snapshot)
                .unwrap();
            WireOp {
                tenant: TENANT,
                payload: ReplPayload::Reset {
                    history: self.journal.load_tenant(TENANT).unwrap(),
                },
                repair: false,
            }
        }

        fn len(&self) -> u64 {
            std::fs::metadata(self.journal.path_for(TENANT))
                .unwrap()
                .len()
        }

        /// The reset a repair cut at `len` bytes must carry.
        fn cut(&self, len: u64) -> ReplPayload {
            ReplPayload::Reset {
                history: self.journal.load_tenant_prefix(TENANT, len).unwrap(),
            }
        }
    }

    impl Drop for Primary {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    fn rt() -> Vec<RtSpec> {
        vec![RtSpec {
            wcet: Duration::from_ms(240),
            period: Duration::from_ms(500),
            core: 0,
        }]
    }

    fn end(op: &WireOp) -> u64 {
        match Repair::after(&op.payload) {
            Repair::Cut(len) => len,
            Repair::Retire => panic!("not a cut"),
        }
    }

    fn rejected() -> Outcome {
        Outcome::Rejected("replica append failed".into())
    }

    /// `(delivered, dropped, heals)`.
    fn booked(counters: &Counters) -> (u64, u64, u64) {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        (
            get(&counters.delivered),
            get(&counters.dropped),
            get(&counters.heals),
        )
    }

    #[test]
    fn rejected_appends_leave_one_repair_cut_at_the_last_one() {
        let primary = Primary::new("rejected");
        let counters = Counters::default();
        let mut forwarder = Forwarder::new(&counters, "p0", Some(&primary.journal));
        let wire = primary.append(4);
        // A later append, not committed when the batch was sent: the
        // repair must not reach it.
        primary.append(1);
        assert!(forwarder.book(&wire, (0..4).map(|_| rejected()).collect()));
        assert_eq!(booked(&counters), (0, 0, 0));

        let repairs = forwarder.repairs();
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].repair);
        assert_eq!(repairs[0].payload, primary.cut(end(&wire[3])));
        assert!(forwarder.book(&repairs, vec![Outcome::Delivered]));
        assert_eq!(booked(&counters), (4, 0, 1));
        assert!(forwarder.repairs().is_empty());
    }

    #[test]
    fn an_evicted_compaction_reset_is_repaired_past_the_appends_after_it() {
        let primary = Primary::new("evicted");
        primary.append(3);
        let reset = primary.compact();
        let appends = primary.append(2);
        // A cap of 2: the third push evicts the oldest queued op, the
        // compaction's reset.
        let backlog = Backlog::new(2);
        for (op, evicted) in [(&reset, 0), (&appends[0], 0), (&appends[1], 1)] {
            let op = ReplOp::Apply {
                tenant: op.tenant,
                payload: op.payload.clone(),
            };
            assert_eq!(backlog.push(op), Ok(evicted));
        }
        let (batch, evicted) = backlog.pop_batch().unwrap();

        let counters = Counters::default();
        let mut forwarder = Forwarder::new(&counters, "p0", Some(&primary.journal));
        let (wire, flushes) = forwarder.admit(batch, evicted);
        assert_eq!(wire.len(), 2);
        assert!(flushes.is_empty());
        // The stale replica is longer than the compacted journal, so
        // the standby ignores both appends as late duplicates.
        assert!(forwarder.book(&wire, vec![Outcome::Delivered, Outcome::Delivered]));
        let repairs = forwarder.repairs();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].payload, primary.cut(end(&appends[1])));
        assert_eq!(repairs[0].payload, primary.cut(primary.len()));
        assert!(forwarder.book(&repairs, vec![Outcome::Delivered]));
        assert_eq!(booked(&counters), (2, 0, 1));
        assert!(forwarder.repairs().is_empty());
    }

    #[test]
    fn a_lost_op_is_dropped_and_repaired_after_the_next_answered_batch() {
        let primary = Primary::new("lost");
        let counters = Counters::default();
        let mut forwarder = Forwarder::new(&counters, "p0", Some(&primary.journal));
        let lost = primary.append(1);
        assert!(!forwarder.book(&lost, vec![Outcome::Lost]));
        assert_eq!(booked(&counters), (0, 1, 0));

        // The next batch is answered in full; the repair follows it.
        let next = primary.append(1);
        assert!(forwarder.book(&next, vec![rejected()]));
        let repairs = forwarder.repairs();
        assert_eq!(repairs.len(), 1);
        assert_eq!(repairs[0].payload, primary.cut(end(&next[0])));
        assert!(forwarder.book(&repairs, vec![Outcome::Delivered]));
        assert_eq!(booked(&counters), (1, 1, 1));
    }

    #[test]
    fn a_delivered_reset_after_a_rejection_settles_the_debt() {
        let primary = Primary::new("settled");
        let counters = Counters::default();
        let mut forwarder = Forwarder::new(&counters, "p0", Some(&primary.journal));
        let mut wire = primary.append(1);
        wire.push(primary.compact());
        assert!(forwarder.book(&wire, vec![rejected(), Outcome::Delivered]));
        assert!(forwarder.repairs().is_empty());
        assert_eq!(booked(&counters), (2, 0, 0));
    }

    #[test]
    fn a_cut_the_journal_no_longer_holds_waits_for_the_queued_reset() {
        let primary = Primary::new("rewritten");
        let counters = Counters::default();
        let mut forwarder = Forwarder::new(&counters, "p0", Some(&primary.journal));
        let wire = primary.append(6);
        assert!(forwarder.book(&wire[5..], vec![rejected()]));
        // The compaction that follows is still queued.
        let reset = primary.compact();
        assert!(end(&wire[5]) > primary.len(), "the cut must be gone");
        assert!(forwarder.repairs().is_empty());
        assert_eq!(forwarder.debts.len(), 1);

        assert!(forwarder.book(&[reset], vec![Outcome::Delivered]));
        assert!(forwarder.debts.is_empty());
        assert_eq!(booked(&counters), (2, 0, 0));
    }
}
