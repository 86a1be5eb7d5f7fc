//! The protocol-agnostic request/response surface and the
//! single-threaded admission engine.
//!
//! [`AdaptEngine`] owns a map of tenants and answers eight request
//! kinds: `Register` (freeze a tenant's legacy RT system), `Delta`
//! (apply one [`DeltaEvent`] transactionally), `Query` (read the
//! committed configuration), the hand-off trio — `Export` (emit the
//! tenant's portable state as a [`TenantHistory`]), `Import` (re-admit
//! and install such a state) and `Evict` (drop the tenant and retire its
//! journal) — and the standby pair, `Replicate` and `Adopt`, whose
//! replica side lives in [`crate::replication`]. One engine instance is
//! single-threaded by design — the scale-out story is *sharding*
//! ([`crate::shard`]), not locking: tenants are independent, so hashing
//! them across engine instances preserves exact per-tenant semantics
//! with zero synchronization on the hot path; the hand-off verbs travel
//! the same tenant-hashed dispatch path as everything else, so they
//! compose with the worker pool for free.
//!
//! Journal writes are group-committed (see [`crate::journal`]):
//! [`AdaptEngine::handle_deferred`] answers a request with its appends
//! written but not yet synced or replicated, and [`AdaptEngine::commit`]
//! makes everything written since the last commit durable. A caller
//! must not release an answer before the commit that follows it — the
//! shard workers commit once per group of queued batches, and
//! [`AdaptEngine::handle`] is the one-request group.

use std::collections::HashMap;
use std::sync::Arc;

use hydra_core::incremental::MemoStats;
use hydra_core::{SelectionError, SharedSelectionStore};
use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::DeltaEvent;
use rts_model::time::Duration;
use rts_model::{CoreId, Partition, Platform, RtTask, RtTaskSet, SecurityTaskSet, System};

use crate::journal::{self, AppendGroup, JournalDir, ReplayError, TenantHistory, TenantSnapshot};
use crate::replication::{ReplPayload, ReplicaStore};
use crate::tenant::{ApplyError, MonitorEntry, TenantState};

/// One legacy RT task as it crosses the registration boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RtSpec {
    /// Worst-case execution time.
    pub wcet: Duration,
    /// Period (implicit deadline).
    pub period: Duration,
    /// Core the task is pinned to.
    pub core: usize,
}

/// One request to the admission service.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Freeze (or replace) tenant `tenant`'s legacy RT system. The RT
    /// tasks are ordered rate-monotonically by the engine (the paper's
    /// priority assumption); the per-task core pinning travels with each
    /// task through the sort.
    Register {
        /// Tenant identifier.
        tenant: u64,
        /// Core count `M` of the tenant's platform.
        cores: usize,
        /// The partitioned RT tasks.
        rt: Vec<RtSpec>,
    },
    /// Apply one delta event to `tenant`'s security workload.
    Delta {
        /// Tenant identifier.
        tenant: u64,
        /// The event.
        event: DeltaEvent,
    },
    /// Read `tenant`'s committed configuration without changing it.
    Query {
        /// Tenant identifier.
        tenant: u64,
    },
    /// Emit `tenant`'s portable state — registration plus a snapshot of
    /// the committed configuration — for hand-off to another daemon.
    /// Read-only: the tenant keeps serving here until evicted.
    Export {
        /// Tenant identifier.
        tenant: u64,
    },
    /// Install a tenant from a hand-off payload (an [`Export`]'s output,
    /// or a journal file converted to the single-object history form —
    /// see [`crate::journal`]). The history is **re-admitted**, not
    /// trusted: snapshot restore and tail replay run the full analysis,
    /// and a history that no longer admits is rejected. Replaces any
    /// existing tenant with the same id, like `Register`.
    ///
    /// [`Export`]: Request::Export
    Import {
        /// Tenant identifier.
        tenant: u64,
        /// The portable state to install.
        history: TenantHistory,
    },
    /// Drop `tenant` from the engine and retire its journal, so a
    /// restart does not resurrect it — the drain side of a hand-off.
    Evict {
        /// Tenant identifier.
        tenant: u64,
    },
    /// Apply one replicated journal mutation to this daemon's *replica
    /// store* (the standby role — see [`crate::replication`]). Replica
    /// files are invisible to recovery and queries until adopted.
    Replicate {
        /// Tenant identifier.
        tenant: u64,
        /// The primary the op came from.
        source: String,
        /// The mirrored journal mutation.
        payload: ReplPayload,
    },
    /// Failover: promote `tenant`'s replica to a live tenant. The
    /// replica history is **re-admitted** through the full analysis
    /// (exactly like [`Import`]), installed, compacted into this
    /// daemon's own journal, and the replica file retired.
    ///
    /// [`Import`]: Request::Import
    Adopt {
        /// Tenant identifier.
        tenant: u64,
    },
}

impl Request {
    /// The tenant the request addresses (the sharding key).
    #[must_use]
    pub fn tenant(&self) -> u64 {
        match *self {
            Request::Register { tenant, .. }
            | Request::Delta { tenant, .. }
            | Request::Query { tenant }
            | Request::Export { tenant }
            | Request::Import { tenant, .. }
            | Request::Evict { tenant }
            | Request::Replicate { tenant, .. }
            | Request::Adopt { tenant } => tenant,
        }
    }
}

/// A successful answer: the committed (possibly refreshed) configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Admitted {
    /// The tenant.
    pub tenant: u64,
    /// Admitted periods, index-aligned with the tenant's monitor table.
    pub periods: Vec<Duration>,
    /// Worst-case response times under those periods.
    pub response_times: Vec<Duration>,
    /// Digest of the admitted security configuration.
    pub fingerprint: u64,
    /// Whether the answer came from the selection memo (always `false`
    /// for `Register`, always `true` for `Query`).
    pub cached: bool,
}

/// One answer from the admission service.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// The request's target configuration is (still) admitted.
    Admitted(Admitted),
    /// The delta (or registration) was *rejected by the analysis*; for
    /// deltas the previously committed configuration remains in force.
    Rejected {
        /// The tenant.
        tenant: u64,
        /// Human-readable rejection reason.
        reason: String,
    },
    /// The request itself was unusable (unknown tenant, bad slot,
    /// invalid parameters) — nothing was analysed.
    Error {
        /// The tenant (0 when the request never parsed far enough).
        tenant: u64,
        /// What went wrong.
        reason: String,
    },
    /// An [`Request::Export`]'s payload: the tenant's portable state.
    Exported {
        /// The tenant.
        tenant: u64,
        /// Registration plus a snapshot of the committed configuration
        /// (the tail is empty — an export is always compacted).
        history: TenantHistory,
    },
    /// An [`Request::Evict`] completed: the tenant no longer lives here.
    Evicted {
        /// The tenant.
        tenant: u64,
        /// Digest of the configuration that was committed at eviction —
        /// the operator cross-checks it against the importing daemon's
        /// answer.
        fingerprint: u64,
    },
    /// A [`Request::Replicate`] was handled by the standby.
    Replicated {
        /// The tenant.
        tenant: u64,
        /// Whether the op changed the replica store. `false` means the
        /// op was *deliberately ignored* (see [`crate::replication`]) —
        /// a success for the protocol, a no-op for the disk.
        applied: bool,
    },
}

impl Response {
    /// Whether this is an [`Response::Admitted`] answer.
    #[must_use]
    pub fn is_admitted(&self) -> bool {
        matches!(self, Response::Admitted(_))
    }

    /// The tenant the response concerns.
    #[must_use]
    pub fn tenant(&self) -> u64 {
        match *self {
            Response::Admitted(Admitted { tenant, .. })
            | Response::Rejected { tenant, .. }
            | Response::Error { tenant, .. }
            | Response::Exported { tenant, .. }
            | Response::Evicted { tenant, .. }
            | Response::Replicated { tenant, .. } => tenant,
        }
    }
}

/// One resident tenant: its frozen registration (kept for snapshots and
/// exports, which must reproduce the register line exactly), the live
/// state, and the journal-tail bookkeeping behind automatic compaction.
#[derive(Debug)]
struct TenantSlot {
    cores: usize,
    rt: Vec<RtSpec>,
    state: TenantState,
    /// Accepted deltas appended to the journal since its last snapshot
    /// (equals the on-disk tail length while the journal is healthy).
    tail_len: usize,
}

/// The single-threaded multi-tenant admission engine.
#[derive(Debug)]
pub struct AdaptEngine {
    strategy: CarryInStrategy,
    /// Boxed, so an empty bucket of the map costs a pointer, not a slot.
    tenants: HashMap<u64, Box<TenantSlot>>,
    /// Optional event-log persistence: registrations and *accepted*
    /// deltas are appended per tenant (see [`crate::journal`]). Journal
    /// I/O failures are reported on stderr but never change an admission
    /// verdict — the journal is a durability channel, not a gatekeeper.
    /// The journal's compaction policy ([`JournalDir::compact_every`])
    /// is enforced here, off the no-journal hot path.
    journal: Option<JournalDir>,
    /// Optional cross-tenant selection memo (see
    /// [`hydra_core::shared_store`]): when set, every tenant this engine
    /// creates — by registration, journal recovery, import or adopt —
    /// gets the store before its first selection, so structurally
    /// identical tenants share solved configurations. The sharded pool
    /// hands all its workers one store.
    shared: Option<Arc<SharedSelectionStore>>,
    /// What [`AdaptEngine::memo_stats`] answers, kept current as
    /// tenants change: the live tenants' entries, and counters that also
    /// keep the counts of every tenant the engine dropped (evicted, or
    /// replaced by a registration, import or adopt of the same id), so
    /// they never go backwards.
    totals: MemoStats,
    /// The standby role's replica store, beside `journal`: written by
    /// [`Request::Replicate`], promoted by [`Request::Adopt`], and never
    /// seen by recovery or queries.
    replica: Option<ReplicaStore>,
    /// Appends to `journal` not yet committed.
    group: AppendGroup,
}

impl AdaptEngine {
    /// Creates an empty engine; every tenant's analyses run under
    /// `strategy`.
    #[must_use]
    pub fn new(strategy: CarryInStrategy) -> Self {
        AdaptEngine {
            strategy,
            tenants: HashMap::new(),
            journal: None,
            shared: None,
            totals: MemoStats::default(),
            replica: None,
            group: AppendGroup::default(),
        }
    }

    /// Like [`AdaptEngine::new`], with per-tenant event-log persistence
    /// under `journal`. Existing journals are *not* replayed here — call
    /// [`AdaptEngine::recover_journaled`] for boot-time recovery (the
    /// sharded daemon does).
    #[must_use]
    pub fn with_journal(strategy: CarryInStrategy, journal: JournalDir) -> Self {
        AdaptEngine {
            strategy,
            tenants: HashMap::new(),
            replica: Some(ReplicaStore::open(&journal)),
            journal: Some(journal),
            shared: None,
            totals: MemoStats::default(),
            group: AppendGroup::default(),
        }
    }

    /// Attaches a cross-tenant [`SharedSelectionStore`] and returns the
    /// engine: every tenant created from now on — boot recovery
    /// included, so attach before [`AdaptEngine::recover_journaled`] —
    /// consults and publishes to it from its first selection. An engine
    /// without a store behaves exactly as before — per-tenant memos
    /// only.
    #[must_use]
    pub fn with_shared_store(mut self, store: Arc<SharedSelectionStore>) -> Self {
        self.shared = Some(store);
        self
    }

    /// A new tenant's state for `system` at `monitors` (empty for a
    /// registration), with the engine's store attached before its first
    /// selection: every way this engine creates a tenant goes through
    /// here.
    fn new_state(
        &self,
        system: &System,
        monitors: Vec<MonitorEntry>,
    ) -> Result<TenantState, SelectionError> {
        TenantState::restore_shared(system, self.strategy, monitors, self.shared.clone())
    }

    /// Rebuilds a resident slot from a history (journal recovery,
    /// import and adopt share this path): replay, then keep the
    /// registration for future snapshots/exports. The tail length
    /// continues from the on-disk tail so the compaction policy keeps
    /// counting correctly across restarts.
    fn replay_slot(&self, history: &TenantHistory) -> Result<Box<TenantSlot>, ReplayError> {
        let state =
            journal::replay_from(history, |system, monitors| self.new_state(system, monitors))?;
        Ok(Box::new(TenantSlot {
            cores: history.cores,
            rt: history.rt.clone(),
            state,
            tail_len: history.events.len(),
        }))
    }

    /// Installs `slot` as `tenant`, keeping the memo counts of the
    /// tenant it replaces, if any.
    fn install(&mut self, tenant: u64, slot: Box<TenantSlot>) {
        self.totals += slot.state.memo_stats();
        if let Some(replaced) = self.tenants.insert(tenant, slot) {
            self.drop_entries(&replaced);
        }
    }

    /// Takes a dropped tenant's memo entries out of `totals`; its
    /// counters stay.
    fn drop_entries(&mut self, slot: &TenantSlot) {
        self.totals.entries -= slot.state.memo_stats().entries;
    }

    /// Boot-time recovery: replays every journaled tenant accepted by
    /// `filter` (the sharded pool passes its tenant-hash predicate so
    /// each tenant is restored on exactly one shard) and installs the
    /// rebuilt states. Returns `(restored, failed)`; a tenant whose
    /// journal fails to replay is reported on stderr and skipped — its
    /// file is left untouched for inspection, and a later
    /// re-registration truncates it. A torn final line (an append that
    /// was never synced, so never acknowledged) is cut off, not fatal
    /// (see [`JournalDir::recover_tenant`]).
    pub fn recover_journaled(&mut self, filter: impl Fn(u64) -> bool) -> (usize, usize) {
        let Some(journal) = self.journal.clone() else {
            return (0, 0);
        };
        let (mut restored, mut failed) = (0, 0);
        for tenant in journal.tenants().into_iter().filter(|&t| filter(t)) {
            let replayed = journal
                .recover_tenant(tenant)
                .and_then(|history| self.replay_slot(&history));
            match replayed {
                Ok(slot) => {
                    self.install(tenant, slot);
                    restored += 1;
                }
                Err(e) => {
                    eprintln!("journal: tenant {tenant} not recovered: {e}");
                    failed += 1;
                }
            }
        }
        (restored, failed)
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Aggregated memo statistics: the live tenants' entries, and
    /// counters that also keep the counts of every tenant the engine
    /// dropped, so they never go backwards. Kept as running totals, so a
    /// read costs the same at any tenant count (shard workers read them
    /// after every group).
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.totals
    }

    /// Read-only access to a tenant's state (for validation harnesses).
    #[must_use]
    pub fn tenant(&self, tenant: u64) -> Option<&TenantState> {
        self.tenants.get(&tenant).map(|slot| &slot.state)
    }

    /// Whether this engine journals (and therefore has commits to make).
    #[must_use]
    pub fn journals(&self) -> bool {
        self.journal.is_some()
    }

    /// Answers one request and commits it: the one-request group.
    pub fn handle(&mut self, request: &Request) -> Response {
        let response = self.handle_deferred(request);
        self.commit();
        response
    }

    /// Answers one request, leaving its journal appends written but not
    /// yet synced or replicated. The answer must not be released before
    /// the next [`AdaptEngine::commit`].
    pub fn handle_deferred(&mut self, request: &Request) -> Response {
        match request {
            Request::Register { tenant, cores, rt } => self.register(*tenant, *cores, rt),
            Request::Delta { tenant, event } => self.delta(*tenant, event),
            Request::Query { tenant } => self.query(*tenant),
            Request::Export { tenant } => self.export(*tenant),
            Request::Import { tenant, history } => self.import(*tenant, history),
            Request::Evict { tenant } => self.evict(*tenant),
            Request::Replicate {
                tenant,
                source,
                payload,
            } => self.replicate(*tenant, source, payload),
            Request::Adopt { tenant } => self.adopt(*tenant),
        }
    }

    /// Commits every append written since the last commit (see
    /// [`JournalDir::commit`]): one fsync per touched file, then the
    /// group's replication ops. A failed sync poisons that tenant's
    /// journal (or replica). A no-op without a journal.
    pub fn commit(&mut self) {
        if let Some(journal) = &self.journal {
            for (tenant, e) in journal.commit(&mut self.group) {
                eprintln!("journal: could not sync tenant {tenant}: {e}");
                poison_after_failed_write(journal, tenant);
            }
        }
        if let Some(replica) = &mut self.replica {
            replica.commit();
        }
    }

    fn register(&mut self, tenant: u64, cores: usize, rt: &[RtSpec]) -> Response {
        let system = match build_rt_system(cores, rt) {
            Ok(s) => s,
            Err(reason) => return Response::Error { tenant, reason },
        };
        match self.new_state(&system, Vec::new()) {
            Ok(state) => {
                let fingerprint = state.admitted_fingerprint();
                self.install(
                    tenant,
                    Box::new(TenantSlot {
                        cores,
                        rt: rt.to_vec(),
                        state,
                        tail_len: 0,
                    }),
                );
                self.commit();
                if let Some(journal) = &self.journal {
                    if let Err(e) = journal.begin_tenant(tenant, cores, rt) {
                        eprintln!("journal: could not begin tenant {tenant}: {e}");
                        poison_after_failed_write(journal, tenant);
                    }
                }
                Response::Admitted(Admitted {
                    tenant,
                    periods: Vec::new(),
                    response_times: Vec::new(),
                    fingerprint,
                    cached: false,
                })
            }
            Err(e) => Response::Rejected {
                tenant,
                reason: e.to_string(),
            },
        }
    }

    fn delta(&mut self, tenant: u64, event: &DeltaEvent) -> Response {
        let Some(slot) = self.tenants.get_mut(&tenant) else {
            return unknown_tenant(tenant);
        };
        // Move `totals` with the tenant's counters, also when the solver
        // panics: the shard worker contains the panic and serves on.
        let before = slot.state.memo_stats();
        let applied =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.state.apply(event)));
        recount(&mut self.totals, before, slot.state.memo_stats());
        let out = match applied.unwrap_or_else(|payload| std::panic::resume_unwind(payload)) {
            Ok(out) => out,
            Err(ApplyError::Rejected(e)) => {
                return Response::Rejected {
                    tenant,
                    reason: e.to_string(),
                }
            }
            Err(usage @ (ApplyError::BadSlot { .. } | ApplyError::Invalid(_))) => {
                return Response::Error {
                    tenant,
                    reason: usage.to_string(),
                }
            }
        };
        let response = admitted_answer(tenant, &slot.state, out.cached);
        let Some(journal) = &self.journal else {
            return response;
        };
        match journal.append_deferred(&mut self.group, tenant, event) {
            Ok(_) => {
                slot.tail_len += 1;
                if journal
                    .compact_every()
                    .is_some_and(|every| slot.tail_len >= every)
                {
                    // A snapshot rewrites the file: commit the group
                    // first. Failure is logged and poisoned inside; the
                    // verdict already stands.
                    self.commit();
                    if let (Some(journal), Some(slot)) =
                        (&self.journal, self.tenants.get_mut(&tenant))
                    {
                        let _ = compact_slot(journal, tenant, slot);
                    }
                }
            }
            Err(e) => {
                eprintln!("journal: could not append for tenant {tenant}: {e}");
                poison_after_failed_write(journal, tenant);
            }
        }
        response
    }

    fn query(&self, tenant: u64) -> Response {
        let Some(slot) = self.tenants.get(&tenant) else {
            return unknown_tenant(tenant);
        };
        admitted_answer(tenant, &slot.state, true)
    }

    fn export(&self, tenant: u64) -> Response {
        let Some(slot) = self.tenants.get(&tenant) else {
            return unknown_tenant(tenant);
        };
        Response::Exported {
            tenant,
            history: TenantHistory {
                cores: slot.cores,
                rt: slot.rt.clone(),
                snapshot: Some(TenantSnapshot::of(&slot.state)),
                events: Vec::new(),
            },
        }
    }

    fn import(&mut self, tenant: u64, history: &TenantHistory) -> Response {
        self.install_history(tenant, history)
    }

    /// Re-admits a portable history and installs the tenant — the shared
    /// back half of `import` (hand-off) and `adopt` (failover). The
    /// history is analysed, never trusted; on success the tenant's own
    /// journal here starts compacted.
    fn install_history(&mut self, tenant: u64, history: &TenantHistory) -> Response {
        self.commit();
        let mut slot = match self.replay_slot(history) {
            Ok(slot) => slot,
            // The payload's configuration does not admit here — an
            // analysis verdict, like a rejected registration.
            Err(e @ (ReplayError::SnapshotDiverged { .. } | ReplayError::Diverged { .. })) => {
                return Response::Rejected {
                    tenant,
                    reason: e.to_string(),
                }
            }
            // The payload itself is unusable.
            Err(e) => {
                return Response::Error {
                    tenant,
                    reason: e.to_string(),
                }
            }
        };
        let response = admitted_answer(tenant, &slot.state, false);
        if let Some(journal) = &self.journal {
            // The imported tenant's journal starts compacted: one
            // registration + one snapshot of the re-admitted state. A
            // failure is logged and poisoned inside compact_slot — like
            // any journal write, it never changes the admission answer.
            let _ = compact_slot(journal, tenant, &mut slot);
        }
        self.install(tenant, slot);
        response
    }

    fn evict(&mut self, tenant: u64) -> Response {
        let Some(slot) = self.tenants.get(&tenant) else {
            return unknown_tenant(tenant);
        };
        let fingerprint = slot.state.admitted_fingerprint();
        self.commit();
        if let Some(journal) = &self.journal {
            if let Err(retire) = journal.retire_tenant(tenant) {
                // The file could not be moved aside; poison it so a
                // restart cannot resurrect the handed-off tenant. If
                // even that fails, the eviction is *refused*: answering
                // "evicted" while the journal can still replay the
                // tenant would invite split-brain after a restart of
                // this daemon (the importer serves the tenant too).
                eprintln!("journal: could not retire evicted tenant {tenant}: {retire}");
                if let Err(poison) = journal.poison_tenant(tenant) {
                    return Response::Error {
                        tenant,
                        reason: format!(
                            "eviction refused: the tenant's journal could be neither \
                             retired ({retire}) nor poisoned ({poison}); a restart \
                             would resurrect the tenant here"
                        ),
                    };
                }
            }
        }
        if let Some(evicted) = self.tenants.remove(&tenant) {
            self.drop_entries(&evicted);
        }
        Response::Evicted {
            tenant,
            fingerprint,
        }
    }

    /// The standby half of [`crate::replication`]: applies one mirrored
    /// journal mutation to the replica store.
    fn replicate(&mut self, tenant: u64, source: &str, payload: &ReplPayload) -> Response {
        let Some(replica) = &mut self.replica else {
            return Response::Error {
                tenant,
                reason: "replication requires a journal on the standby (start with --journal)"
                    .into(),
            };
        };
        match replica.apply(tenant, source, payload) {
            Ok(applied) => Response::Replicated { tenant, applied },
            Err(reason) => Response::Error { tenant, reason },
        }
    }

    /// Failover: promote a replicated tenant to live service. The
    /// replica history runs the full re-admission analysis (identical
    /// to an import, so the zero-divergence replay guarantee carries
    /// over); on success the replica is released.
    fn adopt(&mut self, tenant: u64) -> Response {
        self.commit();
        let Some(replica) = &self.replica else {
            return Response::Error {
                tenant,
                reason: "adoption requires a journal on the standby (start with --journal)".into(),
            };
        };
        let history = match replica.load(tenant) {
            Ok(history) => history,
            Err(reason) => return Response::Error { tenant, reason },
        };
        let response = self.install_history(tenant, &history);
        if let (true, Some(replica)) = (response.is_admitted(), &mut self.replica) {
            replica.release(tenant);
        }
        response
    }

    /// Forces a snapshot compaction of one tenant's journal, regardless
    /// of the automatic policy (operators and tests cut the tail at
    /// arbitrary points). Returns whether a snapshot was written —
    /// `false` when the engine has no journal or no such tenant.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error after poisoning the tenant's journal
    /// (the on-disk state is unknown, exactly like a failed append).
    pub fn compact_tenant(&mut self, tenant: u64) -> std::io::Result<bool> {
        self.commit();
        let Some(journal) = self.journal.clone() else {
            return Ok(false);
        };
        let Some(slot) = self.tenants.get_mut(&tenant) else {
            return Ok(false);
        };
        compact_slot(&journal, tenant, slot).map(|()| true)
    }
}

/// One snapshot-compaction step — the single place the engine rewrites
/// a journal as registration + snapshot (automatic policy, manual
/// compaction and import all go through here). On success the slot's
/// tail counter resets to match the now-empty on-disk tail; on failure
/// the journal is poisoned (the rename either happened or it did not —
/// recovery must not guess) and the error is returned for callers that
/// surface it.
fn compact_slot(journal: &JournalDir, tenant: u64, slot: &mut TenantSlot) -> std::io::Result<()> {
    match journal.snapshot_tenant(
        tenant,
        slot.cores,
        &slot.rt,
        &TenantSnapshot::of(&slot.state),
    ) {
        Ok(()) => {
            slot.tail_len = 0;
            Ok(())
        }
        Err(e) => {
            eprintln!("journal: could not snapshot tenant {tenant}: {e}");
            poison_after_failed_write(journal, tenant);
            Err(e)
        }
    }
}

/// After a failed journal write the tenant's on-disk history is
/// incomplete; leaving it readable would let a restart replay it to a
/// *different* committed state than the live one. Poisoning makes
/// recovery fail loudly instead (see [`JournalDir::poison_tenant`]).
pub(crate) fn poison_after_failed_write(journal: &JournalDir, tenant: u64) {
    if let Err(e) = journal.poison_tenant(tenant) {
        eprintln!(
            "journal: could not poison tenant {tenant}'s incomplete journal: {e} — \
             a restart may recover a DIVERGENT state for this tenant"
        );
    }
}

/// Moves `totals` from counting one tenant's memo at `before` to
/// counting it at `after`, a later reading of the same selector: its
/// counters only grow, and `totals.entries` includes `before.entries`,
/// so nothing underflows.
fn recount(totals: &mut MemoStats, before: MemoStats, after: MemoStats) {
    totals.hits += after.hits - before.hits;
    totals.shared_hits += after.shared_hits - before.shared_hits;
    totals.misses += after.misses - before.misses;
    totals.flushes += after.flushes - before.flushes;
    totals.entries = totals.entries - before.entries + after.entries;
}

/// The `Admitted` answer carrying `state`'s committed configuration.
fn admitted_answer(tenant: u64, state: &TenantState, cached: bool) -> Response {
    let sel = state.admitted();
    Response::Admitted(Admitted {
        tenant,
        periods: sel.periods.as_slice().to_vec(),
        response_times: sel.response_times.clone(),
        fingerprint: state.admitted_fingerprint(),
        cached,
    })
}

fn unknown_tenant(tenant: u64) -> Response {
    Response::Error {
        tenant,
        reason: format!("unknown tenant {tenant} (register it first)"),
    }
}

/// Most cores a platform may have. The analysis keeps per-core state, so
/// an unbounded count lets one protocol line ask for an allocation whose
/// failure aborts the whole daemon; this is far above the 2- and 4-core
/// platforms of the paper and the benchmark.
const MAX_CORES: usize = 1024;

/// Builds the frozen RT [`System`] a registration describes: RM-sorts the
/// `(task, core)` pairs together, validates tasks, platform (at most
/// [`MAX_CORES`] cores) and partition. Shared with [`crate::journal`]'s
/// replay, which must freeze a replayed tenant exactly the way
/// registration did, so register, import, adopt and journal recovery
/// all refuse the same platforms.
pub(crate) fn build_rt_system(cores: usize, rt: &[RtSpec]) -> Result<System, String> {
    if cores > MAX_CORES {
        return Err(format!("{cores} cores exceed the limit of {MAX_CORES}"));
    }
    let platform = Platform::new(cores).map_err(|e| e.to_string())?;
    let mut specs = rt.to_vec();
    // Rate-monotonic order with the same tie-breaks as
    // `RtTaskSet::new_rate_monotonic`, keeping each task's core pinned.
    specs.sort_by(|a, b| a.period.cmp(&b.period).then_with(|| a.wcet.cmp(&b.wcet)));
    let mut tasks = Vec::with_capacity(specs.len());
    let mut assignment = Vec::with_capacity(specs.len());
    for spec in &specs {
        tasks.push(RtTask::new(spec.wcet, spec.period).map_err(|e| e.to_string())?);
        assignment.push(CoreId::new(spec.core));
    }
    let partition = Partition::new(platform, assignment).map_err(|e| e.to_string())?;
    System::new(
        platform,
        RtTaskSet::new(tasks),
        partition,
        SecurityTaskSet::default(),
    )
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_model::delta::{MonitorMode, MonitorSpec};

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn rover_register(tenant: u64) -> Request {
        Request::Register {
            tenant,
            cores: 2,
            rt: vec![
                RtSpec {
                    wcet: ms(1120),
                    period: ms(5000),
                    core: 1,
                },
                RtSpec {
                    wcet: ms(240),
                    period: ms(500),
                    core: 0,
                },
            ],
        }
    }

    #[test]
    fn register_then_integrate_matches_the_paper() {
        let mut engine = AdaptEngine::new(CarryInStrategy::Exhaustive);
        assert!(engine.handle(&rover_register(7)).is_admitted());
        assert_eq!(engine.tenant_count(), 1);
        let tripwire = MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap();
        let kmod = MonitorSpec::fixed(ms(223), ms(10_000)).unwrap();
        engine.handle(&Request::Delta {
            tenant: 7,
            event: DeltaEvent::Arrival { monitor: tripwire },
        });
        let out = engine.handle(&Request::Delta {
            tenant: 7,
            event: DeltaEvent::Arrival { monitor: kmod },
        });
        let Response::Admitted(a) = out else {
            panic!("expected admission, got {out:?}");
        };
        assert_eq!(a.periods, vec![ms(7582), ms(2783)]);
        // Query reads the same configuration back.
        let q = engine.handle(&Request::Query { tenant: 7 });
        let Response::Admitted(qa) = q else { panic!() };
        assert_eq!(qa.periods, a.periods);
        assert_eq!(qa.fingerprint, a.fingerprint);
        assert!(qa.cached);
    }

    #[test]
    fn registration_sorts_rate_monotonically_with_cores_attached() {
        // The register above lists the camera task first; RM order must
        // put navigation (500 ms) on core 0 first — visible through the
        // admitted response times of a probe monitor.
        let mut engine = AdaptEngine::new(CarryInStrategy::Exhaustive);
        engine.handle(&rover_register(1));
        let out = engine.handle(&Request::Delta {
            tenant: 1,
            event: DeltaEvent::Arrival {
                monitor: MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
            },
        });
        let Response::Admitted(a) = out else { panic!() };
        // Tripwire's binding constraint is the camera core: R = 7582 ms.
        assert_eq!(a.response_times, vec![ms(7582)]);
    }

    #[test]
    fn unknown_tenant_and_bad_requests_are_errors() {
        let mut engine = AdaptEngine::new(CarryInStrategy::TopDiff);
        let out = engine.handle(&Request::Query { tenant: 9 });
        assert!(matches!(out, Response::Error { tenant: 9, .. }));
        // Core index out of range at registration.
        let out = engine.handle(&Request::Register {
            tenant: 9,
            cores: 1,
            rt: vec![RtSpec {
                wcet: ms(1),
                period: ms(10),
                core: 5,
            }],
        });
        assert!(matches!(out, Response::Error { .. }));
        assert_eq!(engine.tenant_count(), 0);
    }

    #[test]
    fn rt_infeasible_registration_is_rejected_not_registered() {
        let mut engine = AdaptEngine::new(CarryInStrategy::TopDiff);
        let out = engine.handle(&Request::Register {
            tenant: 3,
            cores: 1,
            rt: vec![
                RtSpec {
                    wcet: ms(6),
                    period: ms(10),
                    core: 0,
                },
                RtSpec {
                    wcet: ms(5),
                    period: ms(10),
                    core: 0,
                },
            ],
        });
        assert!(matches!(out, Response::Rejected { tenant: 3, .. }));
        assert_eq!(engine.tenant_count(), 0);
    }

    #[test]
    fn rejected_delta_keeps_previous_configuration_queryable() {
        let mut engine = AdaptEngine::new(CarryInStrategy::Exhaustive);
        engine.handle(&rover_register(1));
        engine.handle(&Request::Delta {
            tenant: 1,
            event: DeltaEvent::Arrival {
                monitor: MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
            },
        });
        let before = engine.handle(&Request::Query { tenant: 1 });
        let out = engine.handle(&Request::Delta {
            tenant: 1,
            event: DeltaEvent::Arrival {
                monitor: MonitorSpec::fixed(ms(9000), ms(10_000)).unwrap(),
            },
        });
        assert!(matches!(out, Response::Rejected { .. }));
        let after = engine.handle(&Request::Query { tenant: 1 });
        assert_eq!(before, after);
    }

    #[test]
    fn export_import_moves_a_tenant_bit_identically() {
        let mut a = AdaptEngine::new(CarryInStrategy::Exhaustive);
        a.handle(&rover_register(7));
        a.handle(&Request::Delta {
            tenant: 7,
            event: DeltaEvent::Arrival {
                monitor: MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap(),
            },
        });
        a.handle(&Request::Delta {
            tenant: 7,
            event: DeltaEvent::ModeChange {
                slot: 0,
                mode: MonitorMode::Active,
            },
        });
        let before = a.handle(&Request::Query { tenant: 7 });
        let Response::Exported { tenant: 7, history } = a.handle(&Request::Export { tenant: 7 })
        else {
            panic!("export must answer with the portable state");
        };
        assert!(history.snapshot.is_some());
        assert!(history.events.is_empty(), "exports are compacted");
        // Import on a fresh engine: the re-admitted state answers
        // queries identically (periods, response times, fingerprint).
        let mut b = AdaptEngine::new(CarryInStrategy::Exhaustive);
        let imported = b.handle(&Request::Import { tenant: 7, history });
        assert!(imported.is_admitted());
        let after = b.handle(&Request::Query { tenant: 7 });
        assert_eq!(before, after);
        assert_eq!(
            a.tenant(7).unwrap().monitors(),
            b.tenant(7).unwrap().monitors()
        );
        assert_eq!(
            a.tenant(7).unwrap().admitted(),
            b.tenant(7).unwrap().admitted()
        );
        // Evicting on A reports the same fingerprint the import
        // produced, and the tenant is gone afterwards.
        let Response::Evicted {
            tenant: 7,
            fingerprint,
        } = a.handle(&Request::Evict { tenant: 7 })
        else {
            panic!("evict must confirm");
        };
        assert_eq!(fingerprint, b.tenant(7).unwrap().admitted_fingerprint());
        assert!(matches!(
            a.handle(&Request::Query { tenant: 7 }),
            Response::Error { .. }
        ));
        assert!(matches!(
            a.handle(&Request::Evict { tenant: 7 }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn import_of_an_inadmissible_history_is_rejected_and_installs_nothing() {
        use crate::journal::{TenantHistory, TenantSnapshot};
        use crate::tenant::MonitorEntry;
        let mut engine = AdaptEngine::new(CarryInStrategy::Exhaustive);
        // A snapshot claiming a 9-second monitor beside Tripwire cannot
        // re-admit on the rover.
        let heavy = TenantHistory {
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
            snapshot: Some(TenantSnapshot {
                monitors: vec![
                    MonitorEntry {
                        spec: MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
                        mode: MonitorMode::Passive,
                    },
                    MonitorEntry {
                        spec: MonitorSpec::fixed(ms(9000), ms(10_000)).unwrap(),
                        mode: MonitorMode::Passive,
                    },
                ],
                // Value irrelevant: restore rejects before the check.
                fingerprint: 0,
            }),
            events: Vec::new(),
        };
        assert!(matches!(
            engine.handle(&Request::Import {
                tenant: 4,
                history: heavy
            }),
            Response::Rejected { tenant: 4, .. }
        ));
        assert_eq!(engine.tenant_count(), 0);
    }

    /// A platform above the core bound is refused before anything is
    /// sized by it: one line asking for 2^40 cores must be an error
    /// answer, never an allocation that aborts the daemon.
    #[test]
    fn platforms_above_the_core_bound_are_answered_with_an_error() {
        use crate::journal::TenantHistory;
        assert!(build_rt_system(1 << 40, &[]).is_err());
        assert!(build_rt_system(1024, &[]).is_ok());
        // One core above the bound (`MAX_CORES` is 1 024).
        let cores = 1025;
        let rt = vec![RtSpec {
            wcet: ms(240),
            period: ms(500),
            core: 0,
        }];
        let mut engine = AdaptEngine::new(CarryInStrategy::TopDiff);
        let register = engine.handle(&Request::Register {
            tenant: 1,
            cores,
            rt: rt.clone(),
        });
        assert!(
            matches!(&register, Response::Error { tenant: 1, reason } if reason.contains("cores")),
            "{register:?}"
        );
        let import = engine.handle(&Request::Import {
            tenant: 2,
            history: TenantHistory {
                cores,
                rt,
                snapshot: None,
                events: Vec::new(),
            },
        });
        assert!(
            matches!(&import, Response::Error { tenant: 2, reason } if reason.contains("cores")),
            "{import:?}"
        );
        assert_eq!(engine.tenant_count(), 0);
        // The engine keeps serving.
        assert!(engine.handle(&rover_register(3)).is_admitted());
    }

    #[test]
    fn automatic_compaction_keeps_the_tail_bounded_and_state_recoverable() {
        let dir = std::env::temp_dir().join(format!("hydra_engine_compact_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = JournalDir::at(&dir).with_compaction(2);
        let mut engine = AdaptEngine::with_journal(CarryInStrategy::Exhaustive, journal.clone());
        engine.handle(&rover_register(1));
        let modal = MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap();
        engine.handle(&Request::Delta {
            tenant: 1,
            event: DeltaEvent::Arrival { monitor: modal },
        });
        // One accepted delta: tail of 1, below the threshold.
        let history = journal.load_tenant(1).unwrap();
        assert!(history.snapshot.is_none());
        assert_eq!(history.events.len(), 1);
        // Second accepted delta trips the policy: snapshot, empty tail.
        engine.handle(&Request::Delta {
            tenant: 1,
            event: DeltaEvent::ModeChange {
                slot: 0,
                mode: MonitorMode::Active,
            },
        });
        let history = journal.load_tenant(1).unwrap();
        let snapshot = history.snapshot.as_ref().expect("compacted");
        assert!(history.events.is_empty());
        assert_eq!(snapshot.monitors.len(), 1);
        assert_eq!(snapshot.monitors[0].mode, MonitorMode::Active);
        // The compacted journal replays to the live state.
        let replayed = journal
            .replay_tenant(1, CarryInStrategy::Exhaustive)
            .unwrap();
        assert_eq!(replayed.admitted(), engine.tenant(1).unwrap().admitted());
        assert_eq!(
            replayed.admitted_fingerprint(),
            engine.tenant(1).unwrap().admitted_fingerprint()
        );
        // Manual compaction works at any point, including right after.
        assert!(engine.compact_tenant(1).unwrap());
        assert!(!engine.compact_tenant(99).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mode_switches_report_memo_hits() {
        let mut engine = AdaptEngine::new(CarryInStrategy::Exhaustive);
        engine.handle(&rover_register(1));
        engine.handle(&Request::Delta {
            tenant: 1,
            event: DeltaEvent::Arrival {
                monitor: MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap(),
            },
        });
        for (i, mode) in [
            MonitorMode::Active,
            MonitorMode::Passive,
            MonitorMode::Active,
            MonitorMode::Passive,
        ]
        .into_iter()
        .enumerate()
        {
            let out = engine.handle(&Request::Delta {
                tenant: 1,
                event: DeltaEvent::ModeChange { slot: 0, mode },
            });
            let Response::Admitted(a) = out else { panic!() };
            // Switch 0 (first escalation) runs Algorithm 1; every later
            // switch re-visits a memoized configuration (the passive one
            // was cached by the arrival itself).
            assert_eq!(a.cached, i >= 1, "switch {i}");
        }
        let stats = engine.memo_stats();
        assert_eq!(stats.hits, 3);
    }

    /// A request whose solve panics still moves the running totals with
    /// its tenant's counters (the miss it counted), and the engine
    /// serves on. Needs overflow checks, which make the solver panic on
    /// a monitor whose WCET is near `u64::MAX` ticks.
    #[cfg(debug_assertions)]
    #[test]
    fn memo_stats_stay_exact_when_the_solver_panics() {
        let mut engine = AdaptEngine::new(CarryInStrategy::TopDiff);
        engine.handle(&rover_register(1));
        let huge = MonitorSpec::fixed(
            Duration::from_ticks(u64::MAX - 10),
            Duration::from_ticks(u64::MAX),
        )
        .unwrap();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.handle(&Request::Delta {
                tenant: 1,
                event: DeltaEvent::Arrival { monitor: huge },
            })
        }));
        assert!(panicked.is_err(), "the solver must overflow");
        let tenant = engine.tenant(1).unwrap().memo_stats();
        assert_eq!(tenant.misses, 2, "the registration and the panicked solve");
        assert_eq!(engine.memo_stats(), tenant);
        let out = engine.handle(&Request::Delta {
            tenant: 1,
            event: DeltaEvent::Arrival {
                monitor: MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
            },
        });
        let Response::Admitted(a) = out else {
            panic!("expected admission, got {out:?}");
        };
        assert_eq!(a.periods, vec![ms(7582)]);
        assert_eq!(engine.memo_stats(), engine.tenant(1).unwrap().memo_stats());
    }

    /// The engine's running memo totals equal the fold over its tenants
    /// (plus the counters of the tenants it dropped) after every request
    /// of a seeded sequence that registers, re-registers live ids,
    /// applies deltas, queries, exports, imports and evicts.
    #[test]
    fn memo_stats_equal_the_full_fold_after_every_request() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const IDS: u64 = 6;
        let mut engine = AdaptEngine::new(CarryInStrategy::TopDiff)
            .with_shared_store(SharedSelectionStore::new());
        let monitors = [
            MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap(),
            MonitorSpec::fixed(ms(223), ms(10_000)).unwrap(),
            MonitorSpec::modal(ms(40), ms(90), ms(2000)).unwrap(),
            MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
        ];
        let mut rng = StdRng::seed_from_u64(30);
        let mut exported = None;
        let mut dropped = MemoStats::default();
        let (mut replaced, mut evicted, mut imported) = (0, 0, 0);
        for step in 0..800 {
            let tenant = rng.gen_range(1..=IDS);
            let slot = rng.gen_range(0..3usize);
            let request = match rng.gen_range(0..12) {
                0 | 1 => rover_register(tenant),
                2..=4 => Request::Delta {
                    tenant,
                    event: DeltaEvent::Arrival {
                        monitor: monitors[rng.gen_range(0..monitors.len())],
                    },
                },
                5 | 6 => Request::Delta {
                    tenant,
                    event: DeltaEvent::ModeChange {
                        slot,
                        mode: if rng.gen_range(0..2) == 0 {
                            MonitorMode::Active
                        } else {
                            MonitorMode::Passive
                        },
                    },
                },
                7 => Request::Delta {
                    tenant,
                    event: DeltaEvent::Departure { slot },
                },
                8 => Request::Query { tenant },
                9 | 10 => match exported.take() {
                    Some(history) => Request::Import { tenant, history },
                    None => Request::Export { tenant },
                },
                _ => Request::Evict { tenant },
            };
            let prior = engine.tenant(tenant).map(TenantState::memo_stats);
            let response = engine.handle(&request);
            let drops = match (&request, &response) {
                (Request::Register { .. }, Response::Admitted(_)) => prior.is_some(),
                (Request::Import { .. }, Response::Admitted(_)) => {
                    imported += 1;
                    prior.is_some()
                }
                (Request::Evict { .. }, Response::Evicted { .. }) => true,
                (_, Response::Exported { history, .. }) => {
                    exported = Some(history.clone());
                    false
                }
                _ => false,
            };
            if let (true, Some(prior)) = (drops, prior) {
                match request {
                    Request::Evict { .. } => evicted += 1,
                    _ => replaced += 1,
                }
                dropped += MemoStats {
                    entries: 0,
                    ..prior
                };
            }
            let fold = (1..=IDS)
                .filter_map(|id| engine.tenant(id))
                .map(TenantState::memo_stats)
                .fold(dropped, |mut total, stats| {
                    total += stats;
                    total
                });
            assert_eq!(engine.memo_stats(), fold, "step {step}: {request:?}");
        }
        let totals = engine.memo_stats();
        assert!(
            replaced > 0 && evicted > 0 && imported > 0,
            "{replaced} replaced, {evicted} evicted, {imported} imported"
        );
        assert!(totals.hits > 0 && totals.shared_hits > 0 && totals.misses > 0);
    }
}
