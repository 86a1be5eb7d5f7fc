//! The scale-out layer: tenants hashed onto a pool of worker shards.
//!
//! Tenants are fully independent (separate RT systems, separate monitor
//! tables, separate memos), so the service scales by *partitioning*
//! rather than locking: each worker thread owns one
//! [`AdaptEngine`] and exclusively serves the
//! tenants that hash onto it. Requests travel in **batches** (one
//! channel message per shard per submitted batch) to amortize channel
//! overhead at high request rates, and responses travel back the same
//! way — one channel message and one notifier ping per dispatched batch,
//! each response tagged with the caller's sequence number — so channel
//! and waker traffic stays proportional to batches, not requests.
//!
//! # Ordering and determinism
//!
//! A tenant's requests are answered in submission order: the tenant maps
//! to exactly one shard, the shard channel is FIFO, and the worker is
//! single-threaded. Because tenants are independent, the *answers* are
//! bit-identical for every shard count — only interleaving across
//! tenants varies — which is what lets the load harness assert exact
//! verdict populations regardless of `--shards`.
//!
//! The one piece of cross-shard state is the pool-wide
//! [`SharedSelectionStore`]: every
//! worker's engine publishes solved configurations there and consults it
//! before running Algorithm 1, so structurally identical tenants share
//! solver work even when they hash onto different shards. This does not
//! dent the determinism above — a shared hit returns the *same* value a
//! cold solve would (selection is a pure function of the exact key), and
//! the `cached` response flag deliberately counts only per-tenant memo
//! hits, whose sequence is shard-count-independent.
//!
//! # Group commit
//!
//! A worker whose engine journals coalesces every batch already queued
//! on its channel (up to [`GROUP_MAX_REQUESTS`]) into one *group*: it
//! answers each request with its appends written but unsynced
//! ([`AdaptEngine::handle_deferred`]), commits once — one fsync per
//! touched journal file, then the group's replication ops — and only
//! then releases the group's answers. Under load a group holds every
//! batch that queued up during the previous commit, so appends to one
//! tenant share its fsync. The worker syncs the group's files side by
//! side with a few process-wide helper threads (see
//! [`JournalDir::commit`](crate::journal::JournalDir::commit)): the
//! disk merges cache flushes only while they are in flight together,
//! so a group no longer waits for one flush per file in turn. A
//! standby's workers commit their replica appends the same way. A
//! worker without a journal has nothing to commit, answers batch by
//! batch, and never starts a helper.
//!
//! The hand-off verbs (`Export`/`Import`/`Evict`, see
//! [`crate::engine`]) need no special plumbing here: they are ordinary
//! requests, so they ride the same tenant-hashed FIFO as the deltas
//! around them — an export observes exactly the state after every
//! earlier delta of its tenant, and an import lands on the tenant's
//! hash-assigned shard, where boot-time journal recovery would also
//! place it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;

use hydra_core::incremental::MemoStats;
use hydra_core::SharedSelectionStore;
use rts_analysis::semi::CarryInStrategy;

use crate::engine::{AdaptEngine, Request, Response};
use crate::journal::JournalDir;
use crate::telemetry::{Stage, Telemetry, TRACE_SAMPLE};

/// One request travelling through the pool: the caller's sequence
/// number, the request, and the telemetry stamps taken so far (both 0
/// when the pool's registry is disabled).
#[derive(Debug)]
struct Envelope {
    seq: u64,
    request: Request,
    /// Tick at which the request's bytes were read off the wire (the
    /// submit tick on the in-process path).
    read_ns: u64,
    /// Tick at which the request was enqueued toward its shard.
    submit_ns: u64,
}

/// The telemetry stamps a worker hands back with each response, so the
/// serving front can finish the trace (respond/flush/total) without
/// keeping any per-token side table. All zeros when telemetry is off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResponseMeta {
    /// Tick at which the request's bytes were read off the wire.
    pub read_ns: u64,
    /// Tick at which the request was enqueued toward its shard.
    pub submit_ns: u64,
    /// Tick at which the worker dequeued the batch.
    pub dequeue_ns: u64,
    /// Nanoseconds the engine spent producing the verdict.
    pub solve_ns: u64,
    /// Tick at which the verdict was produced.
    pub solved_ns: u64,
    /// Tick at which the verdict's group commit finished (equal to
    /// `solved_ns` on a worker without a journal) — where the respond
    /// stage starts.
    pub committed_ns: u64,
}

/// Most requests a journaling worker coalesces into one group commit.
/// Batches stop joining a group once it holds this many, which bounds
/// how long the group's first answer waits for its commit.
pub const GROUP_MAX_REQUESTS: usize = 1024;

/// Called by a worker after it pushes a batch of responses onto the
/// results channel — the event-driven server installs its poll waker
/// here so responses interrupt the blocked reactor instead of being
/// discovered on the next I/O event.
pub type ResponseNotifier = Arc<dyn Fn() + Send + Sync>;

/// Live per-shard counters, shared between the dispatcher (`submitted`),
/// the worker (everything else) and any thread serving a `stats` verb.
/// All loads/stores are relaxed: the numbers are monitoring telemetry,
/// not synchronization.
#[derive(Debug, Default)]
struct ShardCounters {
    submitted: AtomicU64,
    handled: AtomicU64,
    memo_hits: AtomicU64,
    memo_shared_hits: AtomicU64,
    memo_misses: AtomicU64,
    tenants: AtomicUsize,
}

/// A point-in-time view of one live shard (the `stats` protocol verb).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Requests dispatched to the shard and not yet answered.
    pub queue_depth: u64,
    /// Requests the shard has answered so far.
    pub handled: u64,
    /// Per-tenant selection-memo hits across the shard's tenants.
    pub memo_hits: u64,
    /// Selections answered from the pool-wide cross-tenant store (a
    /// structurally identical tenant — possibly on another shard — had
    /// already solved the configuration).
    pub memo_shared_hits: u64,
    /// Selection-memo misses (full Algorithm 1 runs).
    pub memo_misses: u64,
    /// Tenants currently registered on the shard.
    pub tenants: usize,
}

impl ShardSnapshot {
    /// Fraction of selections answered without running Algorithm 1 —
    /// per-tenant and shared hits combined — in `[0, 1]`.
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        let served = self.memo_hits + self.memo_shared_hits;
        let total = served + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            served as f64 / total as f64
        }
    }
}

/// One dispatched batch's answers: one results-channel message.
type Answers = Vec<(u64, Response, ResponseMeta)>;

/// Answers one dispatched batch on a worker's engine, leaving journal
/// appends for the group commit. `trace_tick` is the worker's
/// round-robin trace-sample counter: request k is fully stamped iff
/// k % TRACE_SAMPLE == 0 — per worker, so the sample can't alias batch
/// or tenant structure (see telemetry's module docs for the cost
/// arithmetic).
fn answer_batch(
    engine: &mut AdaptEngine,
    batch: Vec<Envelope>,
    telemetry: &Telemetry,
    trace_tick: &mut u64,
) -> Answers {
    let traced = telemetry.enabled();
    let mut answers = Vec::with_capacity(batch.len());
    for envelope in batch {
        let Envelope {
            seq,
            request,
            read_ns,
            submit_ns,
        } = envelope;
        // Contain per-request panics: the tenant table is transactional
        // (it commits only on success) and the selector restores its
        // environment's migrating-free invariant on unwind
        // (hydra_core::incremental), so answering an error and serving
        // on keeps the pool healthy — a dead worker would instead wedge
        // every drain() forever.
        let sampled = traced && *trace_tick % TRACE_SAMPLE == 0;
        *trace_tick += 1;
        // Sampled requests pay two clock reads (queue exit, verdict);
        // the other seven pay none.
        let dequeue_ns = if sampled { telemetry.now_ns() } else { 0 };
        let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.handle_deferred(&request)
        }))
        .unwrap_or_else(|_| Response::Error {
            tenant: request.tenant(),
            reason: "internal error while handling the request".into(),
        });
        let meta = if sampled {
            let solved_ns = telemetry.now_ns();
            let solve_ns = solved_ns.saturating_sub(dequeue_ns);
            telemetry.record_stage(Stage::Queue, dequeue_ns.saturating_sub(submit_ns));
            telemetry.record_stage(Stage::Solve, solve_ns);
            ResponseMeta {
                read_ns,
                submit_ns,
                dequeue_ns,
                solve_ns,
                solved_ns,
                committed_ns: solved_ns,
            }
        } else {
            ResponseMeta::default()
        };
        answers.push((seq, response, meta));
    }
    answers
}

/// Stamps a finished group commit on the group's sampled answers (one
/// clock read per group) and records their persist stage.
fn stamp_commit(answered: &mut [Answers], telemetry: &Telemetry) {
    let mut sampled = answered
        .iter_mut()
        .flatten()
        .map(|(_, _, meta)| meta)
        .filter(|meta| meta.solved_ns != 0)
        .peekable();
    if sampled.peek().is_none() {
        return;
    }
    let committed_ns = telemetry.now_ns();
    for meta in sampled {
        meta.committed_ns = committed_ns;
        telemetry.record_stage(Stage::Persist, committed_ns.saturating_sub(meta.solved_ns));
    }
}

/// The tenant-hash dispatch function (SplitMix64 of the tenant id,
/// reduced modulo the shard count) — shared by live dispatch and
/// boot-time journal recovery, which must agree on tenant placement.
fn shard_index(tenant: u64, shards: usize) -> usize {
    let mut z = tenant.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as usize % shards
}

/// What one worker reports when the pool shuts down.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Requests the shard handled.
    pub handled: u64,
    /// Tenants registered on the shard.
    pub tenants: usize,
    /// Aggregated selection-memo statistics of those tenants.
    pub memo: MemoStats,
}

/// A pool of [`AdaptEngine`] workers with tenant-hash dispatch, owned by
/// one caller (a serving front or an in-process driver) that submits
/// batches and receives their answers.
#[derive(Debug)]
pub struct ShardedEngine {
    senders: Vec<Sender<Vec<Envelope>>>,
    results: Receiver<Answers>,
    /// Responses already pulled off the channel but not yet handed to the
    /// caller (workers answer a whole dispatched batch per message).
    ready: VecDeque<(u64, Response, ResponseMeta)>,
    reports: Receiver<ShardReport>,
    workers: Vec<JoinHandle<()>>,
    in_flight: usize,
    scratch: Vec<Vec<Envelope>>,
    counters: Vec<Arc<ShardCounters>>,
    shared: Arc<SharedSelectionStore>,
    telemetry: Arc<Telemetry>,
}

impl ShardedEngine {
    /// Spawns `shards` worker threads (at least one), each owning an
    /// [`AdaptEngine`] running under `strategy`.
    #[must_use]
    pub fn new(strategy: CarryInStrategy, shards: usize) -> Self {
        Self::with_telemetry(strategy, shards, None, None, Telemetry::new())
    }

    /// Like [`ShardedEngine::new`], with per-tenant event-log
    /// persistence under `journal`. A tenant hashes to exactly one
    /// shard, so each journal file has a single writer. Existing
    /// journals are replayed on startup: each worker restores the
    /// tenants that hash onto it, so a restarted daemon answers for
    /// every previously journaled tenant without re-registration.
    #[must_use]
    pub fn with_journal(strategy: CarryInStrategy, shards: usize, journal: JournalDir) -> Self {
        Self::with_telemetry(strategy, shards, Some(journal), None, Telemetry::new())
    }

    /// The fully general constructor: optional journal persistence, an
    /// optional [`ResponseNotifier`] invoked by a worker every time it
    /// finishes a dispatched batch (i.e. whenever fresh responses are
    /// available to [`ShardedEngine::try_recv`]; `None` is the plain
    /// blocking pool, the reactor front passes its poll waker), and the
    /// telemetry registry — pass [`Telemetry::off`] for the measured
    /// runtime-off path (no clock reads, no histogram writes; one
    /// predictable branch per request).
    #[must_use]
    pub fn with_telemetry(
        strategy: CarryInStrategy,
        shards: usize,
        journal: Option<JournalDir>,
        notifier: Option<ResponseNotifier>,
        telemetry: Arc<Telemetry>,
    ) -> Self {
        let shards = shards.max(1);
        let shared = SharedSelectionStore::new();
        let (results_tx, results) = mpsc::channel();
        let (reports_tx, reports) = mpsc::channel();
        let counters: Vec<Arc<ShardCounters>> = (0..shards)
            .map(|_| Arc::new(ShardCounters::default()))
            .collect();
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel::<Vec<Envelope>>();
            senders.push(tx);
            let results_tx = results_tx.clone();
            let notifier = notifier.clone();
            let reports_tx = reports_tx.clone();
            let journal = journal.clone();
            let counters = Arc::clone(&counters[shard]);
            let shared = Arc::clone(&shared);
            let telemetry = Arc::clone(&telemetry);
            workers.push(std::thread::spawn(move || {
                let mut engine = match journal {
                    Some(journal) => {
                        let mut engine =
                            AdaptEngine::with_journal(strategy, journal).with_shared_store(shared);
                        let (restored, failed) =
                            engine.recover_journaled(|t| shard_index(t, shards) == shard);
                        if restored + failed > 0 {
                            eprintln!(
                                "shard {shard}: recovered {restored} journaled tenants \
                                 ({failed} failed)"
                            );
                        }
                        engine
                    }
                    None => AdaptEngine::new(strategy).with_shared_store(shared),
                };
                let mut handled = 0u64;
                let mut trace_tick = 0u64;
                let journaled = engine.journals();
                while let Ok(first) = rx.recv() {
                    let mut group = vec![first];
                    if journaled {
                        let mut queued = group[0].len();
                        while queued < GROUP_MAX_REQUESTS {
                            let Ok(batch) = rx.try_recv() else { break };
                            queued += batch.len();
                            group.push(batch);
                        }
                    }
                    handled += group.iter().map(Vec::len).sum::<usize>() as u64;
                    let mut answered: Vec<_> = group
                        .into_iter()
                        .map(|batch| answer_batch(&mut engine, batch, &telemetry, &mut trace_tick))
                        .collect();
                    if journaled {
                        // No answer of the group leaves before its
                        // appends are synced (acknowledged ⇒ durable).
                        engine.commit();
                        stamp_commit(&mut answered, &telemetry);
                    }
                    // Refresh the live telemetry before the answers
                    // leave, so a stats answer never lags an answer its
                    // client already holds.
                    counters.handled.store(handled, Ordering::Relaxed);
                    let memo = engine.memo_stats();
                    counters.memo_hits.store(memo.hits, Ordering::Relaxed);
                    counters
                        .memo_shared_hits
                        .store(memo.shared_hits, Ordering::Relaxed);
                    counters.memo_misses.store(memo.misses, Ordering::Relaxed);
                    counters
                        .tenants
                        .store(engine.tenant_count(), Ordering::Relaxed);
                    // One channel message and one notifier ping per
                    // dispatched batch — not per request.
                    for answers in answered {
                        if results_tx.send(answers).is_err() {
                            return; // collector gone — stop quietly
                        }
                        if let Some(notify) = &notifier {
                            notify();
                        }
                    }
                }
                let _ = reports_tx.send(ShardReport {
                    shard,
                    handled,
                    tenants: engine.tenant_count(),
                    memo: engine.memo_stats(),
                });
            }));
        }
        ShardedEngine {
            senders,
            results,
            ready: VecDeque::new(),
            reports,
            workers,
            in_flight: 0,
            scratch: (0..shards).map(|_| Vec::new()).collect(),
            counters,
            shared,
            telemetry,
        }
    }

    /// Statistics of the pool-wide cross-tenant selection store.
    #[must_use]
    pub fn shared_store_stats(&self) -> hydra_core::SharedStoreStats {
        self.shared.stats()
    }

    /// The pool's telemetry registry (shared with its workers and
    /// whichever serving front pumps the pool).
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Assembles the full observability report behind the
    /// `{"op":"metrics"}` verb: every ad-hoc counter in the workspace —
    /// connection gauges and the reactor's egress counters (the
    /// caller's, since only the front knows them), shard snapshots,
    /// stage histograms, solver and walk phase counters, shared-store
    /// and journal counters — plus the worst-N slow-request ring, in
    /// one struct for the proto renderers.
    #[must_use]
    pub fn metrics_report(
        &self,
        conns: crate::proto::ConnStats,
        reactor: crate::proto::ReactorStats,
    ) -> crate::proto::MetricsReport {
        crate::proto::MetricsReport {
            conns,
            reactor,
            shards: self.snapshots(),
            stages: self.telemetry.stage_snapshots(),
            solver: hydra_core::phase_stats::snapshot(),
            walks: rts_analysis::phase_stats::snapshot(),
            shared_store: self.shared.stats(),
            journal: crate::journal::stats(),
            slow: self.telemetry.slow_requests(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.counters.len()
    }

    /// The shard a tenant is served by.
    #[must_use]
    pub fn shard_of(&self, tenant: u64) -> usize {
        shard_index(tenant, self.counters.len())
    }

    /// Responses submitted but not yet received.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Submits a batch: requests are split by tenant hash and forwarded
    /// with one channel message per involved shard, preserving the given
    /// order within each shard (hence per tenant).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread has died (its channel is closed) —
    /// workers only exit on shutdown, so this indicates a bug, and
    /// continuing would silently drop requests.
    pub fn submit_batch(&mut self, batch: Vec<(u64, Request)>) {
        // In-process callers have no wire read, so the read and submit
        // stamps coincide: one clock read per submitted batch.
        let now_ns = self.telemetry.now_ns();
        self.dispatch(
            batch
                .into_iter()
                .map(|(seq, request)| Envelope {
                    seq,
                    request,
                    read_ns: now_ns,
                    submit_ns: now_ns,
                })
                .collect(),
        );
    }

    /// Like [`ShardedEngine::submit_batch`] for serving fronts that
    /// already stamped each request: `read_ns` per request (the tick
    /// its bytes were read) and one shared `submit_ns` (the front's
    /// current pass tick — the whole batch is enqueued in one pass).
    pub fn submit_batch_traced(&mut self, batch: Vec<(u64, Request, u64)>, submit_ns: u64) {
        self.dispatch(
            batch
                .into_iter()
                .map(|(seq, request, read_ns)| Envelope {
                    seq,
                    request,
                    read_ns,
                    submit_ns,
                })
                .collect(),
        );
    }

    /// Buckets a batch by tenant hash and forwards one channel message
    /// per involved shard.
    fn dispatch(&mut self, batch: Vec<Envelope>) {
        let shards = self.senders.len();
        self.in_flight += batch.len();
        for envelope in batch {
            self.scratch[shard_index(envelope.request.tenant(), shards)].push(envelope);
        }
        for (shard, bucket) in self.scratch.iter_mut().enumerate() {
            if !bucket.is_empty() {
                self.counters[shard]
                    .submitted
                    .fetch_add(bucket.len() as u64, Ordering::Relaxed);
                self.senders[shard]
                    .send(std::mem::take(bucket))
                    .expect("shard worker died with requests outstanding");
            }
        }
    }

    /// Non-blocking receive: one response if any is ready, `None`
    /// otherwise (including when nothing is in flight).
    pub fn try_recv(&mut self) -> Option<(u64, Response)> {
        self.try_recv_traced()
            .map(|(seq, response, _)| (seq, response))
    }

    /// Non-blocking receive with the worker's telemetry stamps, so a
    /// serving front can finish the trace (respond/flush/total).
    pub fn try_recv_traced(&mut self) -> Option<(u64, Response, ResponseMeta)> {
        self.receive(false)
    }

    /// Point-in-time telemetry of every live shard (ordered by index):
    /// queue depths, handled counts, memo statistics, tenant counts.
    /// Relaxed reads — a snapshot taken mid-batch may lag by up to one
    /// batch, which is fine for the `stats` verb it feeds.
    #[must_use]
    pub fn snapshots(&self) -> Vec<ShardSnapshot> {
        self.counters
            .iter()
            .enumerate()
            .map(|(shard, c)| {
                let submitted = c.submitted.load(Ordering::Relaxed);
                let handled = c.handled.load(Ordering::Relaxed);
                ShardSnapshot {
                    shard,
                    queue_depth: submitted.saturating_sub(handled),
                    handled,
                    memo_hits: c.memo_hits.load(Ordering::Relaxed),
                    memo_shared_hits: c.memo_shared_hits.load(Ordering::Relaxed),
                    memo_misses: c.memo_misses.load(Ordering::Relaxed),
                    tenants: c.tenants.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Receives one response, blocking while any are in flight. Returns
    /// `None` once nothing is in flight.
    pub fn recv(&mut self) -> Option<(u64, Response)> {
        self.recv_traced().map(|(seq, response, _)| (seq, response))
    }

    /// Blocking receive keeping the worker's telemetry stamps.
    pub fn recv_traced(&mut self) -> Option<(u64, Response, ResponseMeta)> {
        self.receive(true)
    }

    /// The next answer — waiting for one iff `block` — or `None` once
    /// nothing is in flight (and, without `block`, while nothing has
    /// arrived yet).
    fn receive(&mut self, block: bool) -> Option<(u64, Response, ResponseMeta)> {
        if self.in_flight == 0 {
            return None;
        }
        loop {
            if let Some(answer) = self.ready.pop_front() {
                self.in_flight -= 1;
                return Some(answer);
            }
            let batch = if block {
                self.results.recv().map_err(|_| TryRecvError::Disconnected)
            } else {
                self.results.try_recv()
            };
            match batch {
                Ok(batch) => self.ready.extend(batch),
                Err(TryRecvError::Empty) => return None,
                Err(TryRecvError::Disconnected) => {
                    panic!("shard workers died with requests outstanding")
                }
            }
        }
    }

    /// Receives every outstanding response.
    pub fn drain(&mut self) -> Vec<(u64, Response)> {
        let mut out = Vec::with_capacity(self.in_flight);
        while let Some(answer) = self.recv() {
            out.push(answer);
        }
        out
    }

    /// [`ShardedEngine::drain`] with each response's worker-side trace
    /// stamps (what the pump front ends feed into the stage histograms).
    pub fn drain_traced(&mut self) -> Vec<(u64, Response, ResponseMeta)> {
        let mut out = Vec::with_capacity(self.in_flight);
        while let Some(answer) = self.recv_traced() {
            out.push(answer);
        }
        out
    }

    /// Convenience: submits `requests` as one batch and returns the
    /// responses in request order.
    pub fn process(&mut self, requests: Vec<Request>) -> Vec<Response> {
        let n = requests.len();
        self.submit_batch(
            requests
                .into_iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r))
                .collect(),
        );
        let mut slots: Vec<Option<Response>> = vec![None; n];
        for (seq, response) in self.drain() {
            slots[seq as usize] = Some(response);
        }
        slots
            .into_iter()
            .map(|r| r.expect("every submitted request is answered exactly once"))
            .collect()
    }

    /// Shuts the pool down: waits for all outstanding responses, stops
    /// the workers and returns their per-shard reports (ordered by shard
    /// index).
    #[must_use]
    pub fn shutdown(mut self) -> Vec<ShardReport> {
        let _ = self.drain();
        let ShardedEngine {
            senders,
            reports,
            workers,
            ..
        } = self;
        drop(senders); // closes the request channels
        for worker in workers {
            worker.join().expect("shard worker panicked");
        }
        let mut reports: Vec<ShardReport> = reports.try_iter().collect();
        reports.sort_by_key(|r| r.shard);
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RtSpec;
    use rts_model::delta::{DeltaEvent, MonitorMode, MonitorSpec};
    use rts_model::time::Duration;

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn rover_requests(tenant: u64) -> Vec<Request> {
        vec![
            Request::Register {
                tenant,
                cores: 2,
                rt: vec![
                    RtSpec {
                        wcet: ms(240),
                        period: ms(500),
                        core: 0,
                    },
                    RtSpec {
                        wcet: ms(1120),
                        period: ms(5000),
                        core: 1,
                    },
                ],
            },
            Request::Delta {
                tenant,
                event: DeltaEvent::Arrival {
                    monitor: MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
                },
            },
            Request::Delta {
                tenant,
                event: DeltaEvent::Arrival {
                    monitor: MonitorSpec::fixed(ms(223), ms(10_000)).unwrap(),
                },
            },
        ]
    }

    /// The same mixed-tenant workload answered identically for every
    /// shard count — the sharding layer must be semantically invisible.
    #[test]
    fn answers_are_identical_for_every_shard_count() {
        let workload: Vec<Request> = (0..6).flat_map(rover_requests).collect();
        let reference: Vec<Response> = {
            let mut engine = AdaptEngine::new(CarryInStrategy::TopDiff);
            workload.iter().map(|r| engine.handle(r)).collect()
        };
        for shards in [1, 2, 5] {
            let mut pool = ShardedEngine::new(CarryInStrategy::TopDiff, shards);
            let answers = pool.process(workload.clone());
            assert_eq!(answers, reference, "shards={shards}");
            let reports = pool.shutdown();
            assert_eq!(reports.len(), shards);
            let handled: u64 = reports.iter().map(|r| r.handled).sum();
            assert_eq!(handled, workload.len() as u64);
            let tenants: usize = reports.iter().map(|r| r.tenants).sum();
            assert_eq!(tenants, 6);
        }
    }

    /// Structurally identical tenants reuse each other's solved
    /// configurations through the pool-wide store, and every surface
    /// (store stats, shutdown reports) accounts the shared hits.
    #[test]
    fn identical_tenants_share_solver_work_across_shards() {
        let workload: Vec<Request> = (0..6).flat_map(rover_requests).collect();
        let mut pool = ShardedEngine::new(CarryInStrategy::TopDiff, 3);
        let answers = pool.process(workload);
        assert!(answers.iter().all(Response::is_admitted));
        let store = pool.shared_store_stats();
        // Six rovers submit the same two arrival configurations; by
        // pigeonhole at least one shard serves two of them sequentially,
        // so at least that tenant's two configs come from the store.
        assert!(store.hits >= 2, "store: {store:?}");
        let reports = pool.shutdown();
        let shared: u64 = reports.iter().map(|r| r.memo.shared_hits).sum();
        assert_eq!(shared, store.hits, "every store hit belongs to a tenant");
        let solved: u64 = reports.iter().map(|r| r.memo.misses).sum();
        // 6 registrations (empty config, solved before the store attaches)
        // plus the distinct non-empty configurations actually solved.
        assert_eq!(solved + shared, 6 + 12, "hits replace solves one-for-one");
    }

    #[test]
    fn per_tenant_order_is_preserved_across_batches() {
        let mut pool = ShardedEngine::new(CarryInStrategy::TopDiff, 3);
        let setup = rover_requests(42);
        let _ = pool.process(setup);
        // Escalate, calm, escalate: final state must be Active.
        for mode in [
            MonitorMode::Active,
            MonitorMode::Passive,
            MonitorMode::Active,
        ] {
            let out = pool.process(vec![Request::Delta {
                tenant: 42,
                event: DeltaEvent::ModeChange { slot: 1, mode },
            }]);
            assert!(out[0].is_admitted());
        }
        let q = pool.process(vec![Request::Query { tenant: 42 }]);
        let Response::Admitted(_) = &q[0] else {
            panic!()
        };
        let reports = pool.shutdown();
        // 3 setup requests + 3 mode switches + 1 query.
        assert_eq!(reports.iter().map(|r| r.handled).sum::<u64>(), 7);
    }

    /// Hand-off composes with the worker pool: tenants exported from one
    /// pool and imported into another (with a different shard count)
    /// answer bit-identically, and the drained pool forgets them. The
    /// verbs travel the ordinary dispatch path, so the export sees
    /// exactly the state after the deltas submitted before it.
    #[test]
    fn export_import_across_pools_with_different_shard_counts() {
        let mut a = ShardedEngine::new(CarryInStrategy::TopDiff, 3);
        let tenants = [11u64, 12, 13];
        for &t in &tenants {
            let answers = a.process(rover_requests(t));
            assert!(answers.iter().all(Response::is_admitted));
        }
        let before: Vec<Response> = a.process(
            tenants
                .iter()
                .map(|&t| Request::Query { tenant: t })
                .collect(),
        );
        // Export all three in one batch (mixed with a query, to show the
        // verbs interleave with normal traffic).
        let mut round: Vec<Request> = tenants
            .iter()
            .map(|&t| Request::Export { tenant: t })
            .collect();
        round.push(Request::Query { tenant: 11 });
        let exported = a.process(round);
        let mut b = ShardedEngine::new(CarryInStrategy::TopDiff, 2);
        let imports: Vec<Request> = exported[..3]
            .iter()
            .map(|r| {
                let Response::Exported { tenant, history } = r else {
                    panic!("expected export, got {r:?}");
                };
                Request::Import {
                    tenant: *tenant,
                    history: history.clone(),
                }
            })
            .collect();
        assert!(b.process(imports).iter().all(Response::is_admitted));
        let after: Vec<Response> = b.process(
            tenants
                .iter()
                .map(|&t| Request::Query { tenant: t })
                .collect(),
        );
        assert_eq!(before, after, "imported tenants must answer identically");
        // Drain side: evict on A; the tenants are gone there, alive on B.
        let evictions = a.process(
            tenants
                .iter()
                .map(|&t| Request::Evict { tenant: t })
                .collect(),
        );
        for (r, &t) in evictions.iter().zip(&tenants) {
            assert!(
                matches!(r, Response::Evicted { tenant, .. } if *tenant == t),
                "{r:?}"
            );
        }
        for &t in &tenants {
            assert!(matches!(
                a.process(vec![Request::Query { tenant: t }])[0],
                Response::Error { .. }
            ));
            assert!(b.process(vec![Request::Query { tenant: t }])[0].is_admitted());
        }
        let _ = a.shutdown();
        let _ = b.shutdown();
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let pool = ShardedEngine::new(CarryInStrategy::TopDiff, 4);
        for tenant in 0..100 {
            let s = pool.shard_of(tenant);
            assert!(s < 4);
            assert_eq!(s, pool.shard_of(tenant));
        }
        // The hash actually spreads tenants around.
        let hit: std::collections::HashSet<usize> = (0..100).map(|t| pool.shard_of(t)).collect();
        assert_eq!(hit.len(), 4);
        let _ = pool.shutdown();
    }

    #[test]
    fn recv_returns_none_when_idle() {
        let mut pool = ShardedEngine::new(CarryInStrategy::TopDiff, 2);
        assert_eq!(pool.in_flight(), 0);
        assert!(pool.recv().is_none());
        assert!(pool.try_recv().is_none());
        let _ = pool.shutdown();
    }

    /// A worker rings the notifier right after it sends the batch, so a
    /// receiver can see the answers a moment before the ring: wait for
    /// it, bounded.
    fn await_wake(wakes: &AtomicU64) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while wakes.load(Ordering::Relaxed) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "worker never notified"
            );
            std::thread::yield_now();
        }
    }

    /// The notifier fires for every processed batch, and try_recv +
    /// snapshots expose the pool's live state without shutting it down.
    #[test]
    fn notifier_fires_and_snapshots_track_live_state() {
        let wakes = Arc::new(AtomicU64::new(0));
        let counting = Arc::clone(&wakes);
        let mut pool = ShardedEngine::with_telemetry(
            CarryInStrategy::TopDiff,
            2,
            None,
            Some(Arc::new(move || {
                counting.fetch_add(1, Ordering::Relaxed);
            })),
            Telemetry::new(),
        );
        let requests = rover_requests(5);
        let n = requests.len() as u64;
        pool.submit_batch(
            requests
                .into_iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r))
                .collect(),
        );
        // Drain via the non-blocking path, waiting on the notifier's
        // promise that responses eventually appear.
        let mut got = 0u64;
        while got < n {
            match pool.try_recv() {
                Some(_) => got += 1,
                None => std::thread::yield_now(),
            }
        }
        assert!(pool.try_recv().is_none());
        await_wake(&wakes);
        let snaps = pool.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps.iter().map(|s| s.handled).sum::<u64>(), n);
        assert_eq!(snaps.iter().map(|s| s.queue_depth).sum::<u64>(), 0);
        assert_eq!(snaps.iter().map(|s| s.tenants).sum::<usize>(), 1);
        let memo_total: u64 = snaps.iter().map(|s| s.memo_hits + s.memo_misses).sum();
        assert!(memo_total > 0, "selections must be accounted");
        for s in &snaps {
            let rate = s.memo_hit_rate();
            assert!((0.0..=1.0).contains(&rate));
        }
        let _ = pool.shutdown();
    }
}
