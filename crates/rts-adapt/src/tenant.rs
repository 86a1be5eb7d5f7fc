//! Per-tenant adaptation state: the monitor table and its admitted
//! configuration.
//!
//! A tenant is one legacy RT system (platform + partitioned RT tasks,
//! frozen at registration) plus a mutable, priority-ordered table of
//! security monitors. Every [`DeltaEvent`] is applied transactionally:
//! the post-event configuration is re-admitted through the memoized
//! incremental selector, and **only an admitted configuration is
//! committed** — a rejected event leaves the table and the running
//! periods exactly as they were (see the crate docs for why this
//! preserves schedulability). The committed configuration is the
//! selector's memo entry itself, shared with the memo (and with every
//! tenant of the same RT profile through an attached store), never a
//! copy of it.

use std::sync::Arc;

use hydra_core::incremental::{IncrementalSelector, MemoStats, SolvedSelection};
use hydra_core::{PeriodSelection, SelectionError, SharedSelectionStore};
use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::{DeltaEvent, MonitorMode, MonitorSpec};
use rts_model::{SecurityTaskSet, System};

/// One row of a tenant's monitor table: the admission-relevant spec plus
/// the mode its next sweep runs in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MonitorEntry {
    /// Per-mode WCETs and the designer bound `T^max`.
    pub spec: MonitorSpec,
    /// Current mode (determines the WCET admission charges).
    pub mode: MonitorMode,
}

impl MonitorEntry {
    /// The security task this entry contributes to admission — the
    /// monitor at its *current* mode's WCET.
    #[must_use]
    pub fn admission_task(&self) -> rts_model::SecurityTask {
        self.spec.task_in(self.mode)
    }
}

/// Why a delta could not be applied.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ApplyError {
    /// The event referenced a slot outside the monitor table — a protocol
    /// usage error, not an admission verdict.
    BadSlot {
        /// The offending slot.
        slot: usize,
        /// Current table size.
        len: usize,
    },
    /// The event's parameters fail model validation (e.g. a WCET update
    /// with `active < passive`, or exceeding the monitor's `T^max`).
    Invalid(String),
    /// The post-event configuration is not schedulable; the previous
    /// configuration remains committed.
    Rejected(SelectionError),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::BadSlot { slot, len } => {
                write!(f, "slot {slot} out of range (tenant has {len} monitors)")
            }
            ApplyError::Invalid(msg) => write!(f, "invalid monitor parameters: {msg}"),
            ApplyError::Rejected(e) => write!(f, "{e}"),
        }
    }
}

/// An accepted delta's outcome. The newly committed configuration is
/// the tenant's [`TenantState::admitted`] selection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdmittedDelta {
    /// Whether the tenant's own memo answered (`true`), rather than the
    /// shared store or a run of Algorithm 1.
    pub cached: bool,
}

/// One tenant's complete adaptation state.
#[derive(Clone, Debug)]
pub struct TenantState {
    selector: IncrementalSelector,
    monitors: Vec<MonitorEntry>,
    /// The committed memo entry; its outcome is always admitted.
    admitted: Arc<SolvedSelection>,
}

impl TenantState {
    /// Creates the tenant from its legacy RT system (the system's own
    /// security task set is ignored — monitors arrive as deltas).
    ///
    /// # Errors
    ///
    /// [`SelectionError::RtUnschedulable`] if the frozen RT side already
    /// fails Eq. 1 — such a tenant can never admit anything, so
    /// registration itself is refused.
    pub fn new(system: &System, strategy: CarryInStrategy) -> Result<Self, SelectionError> {
        // The empty table always admits: only Eq. 1 can refuse it.
        TenantState::restore(system, strategy, Vec::new())
    }

    /// Rebuilds a tenant directly at a snapshotted monitor table, in one
    /// admission: the full table's configuration is re-selected through
    /// Algorithm 1 and committed. Because period selection is a pure
    /// function of (frozen RT system, security configuration, strategy),
    /// the restored state's committed selection — periods *and* response
    /// times — and fingerprint are bit-identical to the live tenant the
    /// snapshot was taken from. Nothing is trusted from the snapshot
    /// beyond the configuration itself: the restore re-verifies it (the
    /// service's "no configuration ever runs unverified" invariant holds
    /// across recovery and hand-off too).
    ///
    /// # Errors
    ///
    /// [`SelectionError::RtUnschedulable`] if the frozen RT side fails
    /// Eq. 1; any other [`SelectionError`] if the snapshot's
    /// configuration does not re-admit (a strategy mismatch or a
    /// corrupted snapshot — the caller reports divergence).
    pub fn restore(
        system: &System,
        strategy: CarryInStrategy,
        monitors: Vec<MonitorEntry>,
    ) -> Result<Self, SelectionError> {
        TenantState::restore_shared(system, strategy, monitors, None)
    }

    /// Like [`TenantState::restore`], with `store` (when given) attached
    /// before the first selection, so even the restoring one consults
    /// and publishes to it (see [`TenantState::attach_shared`]): the
    /// store's entry for the identical problem may answer it, exactly
    /// as Algorithm 1 would.
    ///
    /// # Errors
    ///
    /// As for [`TenantState::restore`].
    pub(crate) fn restore_shared(
        system: &System,
        strategy: CarryInStrategy,
        monitors: Vec<MonitorEntry>,
        store: Option<Arc<SharedSelectionStore>>,
    ) -> Result<Self, SelectionError> {
        let mut selector = match store {
            Some(store) => IncrementalSelector::with_store(system, strategy, store),
            None => IncrementalSelector::new(system, strategy),
        };
        if !selector.rt_schedulable() {
            return Err(SelectionError::RtUnschedulable);
        }
        let sec: SecurityTaskSet = monitors.iter().map(MonitorEntry::admission_task).collect();
        let admitted = selector.select(&sec);
        admitted.outcome()?;
        Ok(TenantState {
            selector,
            monitors,
            admitted,
        })
    }

    /// The monitor table (priority order).
    #[must_use]
    pub fn monitors(&self) -> &[MonitorEntry] {
        &self.monitors
    }

    /// The currently committed period selection (index-aligned with
    /// [`TenantState::monitors`]) — the memo entry's own allocation.
    #[must_use]
    pub fn admitted(&self) -> &PeriodSelection {
        self.admitted
            .outcome()
            .expect("only an admitted configuration is committed")
    }

    /// Digest of the committed configuration.
    #[must_use]
    pub fn admitted_fingerprint(&self) -> u64 {
        self.admitted.digest()
    }

    /// Attaches a cross-tenant shared selection store to this tenant's
    /// selector (see [`IncrementalSelector::attach_shared`]). Shared
    /// hits are *not* reported as `cached` in [`AdmittedDelta`] — that
    /// flag means "this tenant's own memo answered", which stays
    /// deterministic regardless of how tenants are sharded.
    pub fn attach_shared(&mut self, store: Arc<SharedSelectionStore>) {
        self.selector.attach_shared(store);
    }

    /// Memo statistics of the tenant's incremental selector.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        self.selector.stats()
    }

    /// The security task set admission currently charges (each monitor at
    /// its current mode's WCET).
    #[must_use]
    pub fn admission_task_set(&self) -> SecurityTaskSet {
        self.monitors
            .iter()
            .map(MonitorEntry::admission_task)
            .collect()
    }

    /// Applies `event` transactionally: re-admit the post-event
    /// configuration and commit it on acceptance.
    ///
    /// # Errors
    ///
    /// * [`ApplyError::BadSlot`] / [`ApplyError::Invalid`] — the event is
    ///   malformed; nothing was attempted;
    /// * [`ApplyError::Rejected`] — the post-event configuration is
    ///   unschedulable; the previous configuration remains committed.
    pub fn apply(&mut self, event: &DeltaEvent) -> Result<AdmittedDelta, ApplyError> {
        let next = self.post_event_table(event)?;
        let sec: SecurityTaskSet = next.iter().map(MonitorEntry::admission_task).collect();
        let hits_before = self.selector.stats().hits;
        let solved = self.selector.select(&sec);
        solved.outcome().map_err(ApplyError::Rejected)?;
        self.monitors = next;
        self.admitted = solved;
        Ok(AdmittedDelta {
            cached: self.selector.stats().hits > hits_before,
        })
    }

    /// The monitor table `event` would produce, without committing it.
    fn post_event_table(&self, event: &DeltaEvent) -> Result<Vec<MonitorEntry>, ApplyError> {
        let mut next = self.monitors.clone();
        match *event {
            DeltaEvent::Arrival { monitor } => {
                next.push(MonitorEntry {
                    spec: monitor,
                    mode: MonitorMode::Passive,
                });
            }
            DeltaEvent::Departure { slot } => {
                self.check_slot(slot)?;
                next.remove(slot);
            }
            DeltaEvent::WcetUpdate {
                slot,
                passive_wcet,
                active_wcet,
            } => {
                self.check_slot(slot)?;
                let spec = MonitorSpec::modal(passive_wcet, active_wcet, next[slot].spec.t_max())
                    .map_err(|e| ApplyError::Invalid(e.to_string()))?;
                next[slot].spec = spec;
            }
            DeltaEvent::ModeChange { slot, mode } => {
                self.check_slot(slot)?;
                next[slot].mode = mode;
            }
        }
        Ok(next)
    }

    fn check_slot(&self, slot: usize) -> Result<(), ApplyError> {
        if slot < self.monitors.len() {
            Ok(())
        } else {
            Err(ApplyError::BadSlot {
                slot,
                len: self.monitors.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_model::time::Duration;
    use rts_model::{
        CoreId, Partition, Platform, RtTask, RtTaskSet, SecurityTask, SecurityTaskSet,
    };

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn rover() -> System {
        let platform = Platform::dual_core();
        let rt = RtTaskSet::new_rate_monotonic(vec![
            RtTask::new(ms(240), ms(500)).unwrap(),
            RtTask::new(ms(1120), ms(5000)).unwrap(),
        ]);
        let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(1)]).unwrap();
        System::new(platform, rt, partition, SecurityTaskSet::default()).unwrap()
    }

    fn tenant() -> TenantState {
        TenantState::new(&rover(), CarryInStrategy::Exhaustive).unwrap()
    }

    #[test]
    fn arrival_commits_the_papers_periods() {
        let mut t = tenant();
        let tripwire = MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap();
        let kmod = MonitorSpec::fixed(ms(223), ms(10_000)).unwrap();
        t.apply(&DeltaEvent::Arrival { monitor: tripwire }).unwrap();
        assert_eq!(t.admitted().periods[0], ms(7582));
        t.apply(&DeltaEvent::Arrival { monitor: kmod }).unwrap();
        assert_eq!(t.admitted().periods[0], ms(7582));
        assert_eq!(t.admitted().periods[1], ms(2783));
        assert_eq!(t.monitors().len(), 2);
        assert_eq!(t.admitted().periods.len(), 2);
    }

    #[test]
    fn rejected_arrival_rolls_back() {
        let mut t = tenant();
        t.apply(&DeltaEvent::Arrival {
            monitor: MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
        })
        .unwrap();
        let before_periods = t.admitted().clone();
        let before_fp = t.admitted_fingerprint();
        // A second heavy monitor that cannot fit beside Tripwire.
        let err = t
            .apply(&DeltaEvent::Arrival {
                monitor: MonitorSpec::fixed(ms(9000), ms(10_000)).unwrap(),
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ApplyError::Rejected(SelectionError::SecurityUnschedulable { task: 1 })
        ));
        assert_eq!(t.monitors().len(), 1, "table must be untouched");
        assert_eq!(t.admitted(), &before_periods);
        assert_eq!(t.admitted_fingerprint(), before_fp);
    }

    #[test]
    fn mode_oscillation_hits_the_memo() {
        let mut t = tenant();
        let modal = MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap();
        t.apply(&DeltaEvent::Arrival { monitor: modal }).unwrap();
        let passive = t.admitted().clone();
        let up = t
            .apply(&DeltaEvent::ModeChange {
                slot: 0,
                mode: MonitorMode::Active,
            })
            .unwrap();
        assert!(!up.cached, "first escalation runs Algorithm 1");
        let active = t.admitted().clone();
        assert!(
            active.periods[0] > passive.periods[0],
            "the active sweep needs a longer period"
        );
        // Calm down, escalate again: both answers come from the memo.
        let down = t
            .apply(&DeltaEvent::ModeChange {
                slot: 0,
                mode: MonitorMode::Passive,
            })
            .unwrap();
        assert!(down.cached);
        assert_eq!(t.admitted(), &passive);
        let up2 = t
            .apply(&DeltaEvent::ModeChange {
                slot: 0,
                mode: MonitorMode::Active,
            })
            .unwrap();
        assert!(up2.cached);
        assert_eq!(t.admitted(), &active);
        let stats = t.memo_stats();
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn tenants_share_each_solved_selection_instead_of_copying_it() {
        let store = hydra_core::SharedSelectionStore::new();
        let (mut a, mut b) = (tenant(), tenant());
        a.attach_shared(Arc::clone(&store));
        b.attach_shared(Arc::clone(&store));
        let modal = MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap();
        let arrival = DeltaEvent::Arrival { monitor: modal };
        a.apply(&arrival).unwrap();
        let adopted = b.apply(&arrival).unwrap();
        assert!(!adopted.cached, "a shared hit is not the tenant's own memo");
        assert_eq!(b.memo_stats().shared_hits, 1);
        // Two tenants of one RT profile that admit the same
        // configuration commit the same allocation.
        assert!(std::ptr::eq(a.admitted(), b.admitted()));

        // A tenant that returns to a configuration through its own memo
        // gets that same allocation back.
        let passive: *const PeriodSelection = b.admitted();
        let flip = |mode| DeltaEvent::ModeChange { slot: 0, mode };
        b.apply(&flip(MonitorMode::Active)).unwrap();
        assert!(!std::ptr::eq(b.admitted(), passive));
        assert!(b.apply(&flip(MonitorMode::Passive)).unwrap().cached);
        assert!(std::ptr::eq(b.admitted(), passive));
        assert!(std::ptr::eq(b.admitted(), a.admitted()));
    }

    #[test]
    fn mode_aware_admission_beats_conservative() {
        // The whole point: passive-mode periods selected for the passive
        // WCET are shorter than what conservative (active-WCET) admission
        // would grant.
        let mut t = tenant();
        let modal = MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap();
        t.apply(&DeltaEvent::Arrival { monitor: modal }).unwrap();
        let passive_period = t.admitted().periods[0];
        let conservative = {
            let sec = SecurityTaskSet::new(vec![SecurityTask::new(ms(350), ms(5000)).unwrap()]);
            let sys = System::new(
                rover().platform(),
                rover().rt_tasks().clone(),
                rover().partition().clone(),
                sec,
            )
            .unwrap();
            hydra_core::select_periods(&sys, CarryInStrategy::Exhaustive)
                .unwrap()
                .periods[0]
        };
        assert!(
            passive_period < conservative,
            "passive {passive_period:?} must beat conservative {conservative:?}"
        );
    }

    #[test]
    fn wcet_update_and_departure_reshape_the_table() {
        let mut t = tenant();
        let a = MonitorSpec::fixed(ms(200), ms(5000)).unwrap();
        let b = MonitorSpec::modal(ms(50), ms(80), ms(2000)).unwrap();
        t.apply(&DeltaEvent::Arrival { monitor: a }).unwrap();
        t.apply(&DeltaEvent::Arrival { monitor: b }).unwrap();
        t.apply(&DeltaEvent::WcetUpdate {
            slot: 0,
            passive_wcet: ms(250),
            active_wcet: ms(250),
        })
        .unwrap();
        assert_eq!(t.admitted().periods.len(), 2);
        assert_eq!(t.monitors()[0].spec.passive_wcet(), ms(250));
        t.apply(&DeltaEvent::Departure { slot: 0 }).unwrap();
        assert_eq!(t.monitors().len(), 1);
        assert_eq!(t.monitors()[0].spec, b);
    }

    #[test]
    fn bad_slots_and_invalid_updates_are_usage_errors() {
        let mut t = tenant();
        assert!(matches!(
            t.apply(&DeltaEvent::Departure { slot: 0 }),
            Err(ApplyError::BadSlot { slot: 0, len: 0 })
        ));
        t.apply(&DeltaEvent::Arrival {
            monitor: MonitorSpec::fixed(ms(10), ms(1000)).unwrap(),
        })
        .unwrap();
        // active < passive is invalid, and must not touch the table.
        let err = t
            .apply(&DeltaEvent::WcetUpdate {
                slot: 0,
                passive_wcet: ms(20),
                active_wcet: ms(10),
            })
            .unwrap_err();
        assert!(matches!(err, ApplyError::Invalid(_)));
        assert_eq!(t.monitors()[0].spec.passive_wcet(), ms(10));
    }

    #[test]
    fn restore_reproduces_a_live_table_bit_identically() {
        // Build up a table through deltas, then restore it in one shot:
        // the committed selection (periods and response times) and
        // fingerprint must match — the snapshot-recovery guarantee.
        let mut live = tenant();
        live.apply(&DeltaEvent::Arrival {
            monitor: MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap(),
        })
        .unwrap();
        live.apply(&DeltaEvent::Arrival {
            monitor: MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
        })
        .unwrap();
        live.apply(&DeltaEvent::ModeChange {
            slot: 0,
            mode: MonitorMode::Active,
        })
        .unwrap();
        let restored = TenantState::restore(
            &rover(),
            CarryInStrategy::Exhaustive,
            live.monitors().to_vec(),
        )
        .unwrap();
        assert_eq!(restored.monitors(), live.monitors());
        assert_eq!(restored.admitted(), live.admitted());
        assert_eq!(restored.admitted_fingerprint(), live.admitted_fingerprint());
    }

    #[test]
    fn restore_refuses_an_unschedulable_table() {
        // Two monitors that cannot coexist on the rover: restore
        // re-verifies and rejects rather than trusting the snapshot.
        let table = vec![
            MonitorEntry {
                spec: MonitorSpec::fixed(ms(5342), ms(10_000)).unwrap(),
                mode: MonitorMode::Passive,
            },
            MonitorEntry {
                spec: MonitorSpec::fixed(ms(9000), ms(10_000)).unwrap(),
                mode: MonitorMode::Passive,
            },
        ];
        assert!(matches!(
            TenantState::restore(&rover(), CarryInStrategy::Exhaustive, table),
            Err(SelectionError::SecurityUnschedulable { .. })
        ));
    }

    #[test]
    fn rt_infeasible_registration_is_refused() {
        let platform = Platform::uniprocessor();
        let rt = RtTaskSet::new_rate_monotonic(vec![
            RtTask::new(ms(6), ms(10)).unwrap(),
            RtTask::new(ms(5), ms(10)).unwrap(),
        ]);
        let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(0)]).unwrap();
        let sys = System::new(platform, rt, partition, SecurityTaskSet::default()).unwrap();
        assert_eq!(
            TenantState::new(&sys, CarryInStrategy::TopDiff).err(),
            Some(SelectionError::RtUnschedulable)
        );
    }
}
