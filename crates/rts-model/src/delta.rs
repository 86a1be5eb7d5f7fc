//! Delta events — the vocabulary of *online* period adaptation.
//!
//! The paper's Algorithm 1 is a design-time procedure: it sees one frozen
//! security task set and emits one period vector. Its §6 future-work
//! discussion (and the Contego line of work) asks for the runtime
//! counterpart: monitors arrive and depart, WCETs get re-profiled, and
//! *reactive* monitors escalate between a routine Passive sweep and a
//! deeper Active sweep as findings come in. This module defines the
//! model-level events such a service consumes; the `rts-adapt` crate
//! turns a stream of them into admission verdicts and refreshed periods.
//!
//! Everything here is plain data over the [`crate::time::Duration`] tick
//! base — no analysis, no policy. The two-mode state *machine* (when to
//! escalate, when to calm down) lives in `ids_sim::reactive`; this module
//! only fixes the shared vocabulary ([`MonitorMode`], [`MonitorSpec`],
//! [`DeltaEvent`]) so the model, the IDS substrate, and the adaptation
//! service agree on what a mode switch *is*.

use std::fmt;

use crate::error::ModelError;
use crate::task::SecurityTask;
use crate::time::Duration;

/// The two monitoring depths of a reactive (multi-mode) security monitor.
///
/// The paper's §6 sketch: job `j` performs the routine action `a₀`
/// (*Passive*); if it observes an anomaly, job `j+1` performs `a₀` plus
/// the deeper check `a₁` (*Active*), e.g. also auditing the syscall list.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum MonitorMode {
    /// Routine checking (`a₀`).
    #[default]
    Passive,
    /// Escalated checking (`a₀ + a₁`).
    Active,
}

impl MonitorMode {
    /// The other mode.
    #[must_use]
    pub fn flipped(self) -> MonitorMode {
        match self {
            MonitorMode::Passive => MonitorMode::Active,
            MonitorMode::Active => MonitorMode::Passive,
        }
    }
}

impl fmt::Display for MonitorMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MonitorMode::Passive => "passive",
            MonitorMode::Active => "active",
        })
    }
}

/// The admission-relevant description of one (possibly reactive) security
/// monitor: a WCET per [`MonitorMode`] plus the designer bound `T^max`.
///
/// A single-mode monitor is the degenerate case `C_p = C_a`
/// ([`MonitorSpec::fixed`]). The invariants `0 < C_p ≤ C_a ≤ T^max` are
/// enforced at construction, so every mode projects to a valid
/// [`SecurityTask`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MonitorSpec {
    passive_wcet: Duration,
    active_wcet: Duration,
    t_max: Duration,
}

impl MonitorSpec {
    /// Creates a two-mode monitor spec.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ZeroWcet`] if either WCET is zero;
    /// * [`ModelError::WcetExceedsDeadline`] if `active_wcet < passive_wcet`
    ///   (the escalated sweep includes the routine one, so it cannot be
    ///   shorter);
    /// * [`ModelError::WcetExceedsMaxPeriod`] if `active_wcet > t_max`.
    pub fn modal(
        passive_wcet: Duration,
        active_wcet: Duration,
        t_max: Duration,
    ) -> Result<Self, ModelError> {
        if passive_wcet.is_zero() || active_wcet.is_zero() {
            return Err(ModelError::ZeroWcet);
        }
        if active_wcet < passive_wcet {
            return Err(ModelError::WcetExceedsDeadline {
                wcet: passive_wcet,
                deadline: active_wcet,
            });
        }
        if active_wcet > t_max {
            return Err(ModelError::WcetExceedsMaxPeriod {
                wcet: active_wcet,
                t_max,
            });
        }
        Ok(MonitorSpec {
            passive_wcet,
            active_wcet,
            t_max,
        })
    }

    /// A single-mode monitor: both sweeps cost `wcet`.
    ///
    /// # Errors
    ///
    /// Same as [`MonitorSpec::modal`].
    pub fn fixed(wcet: Duration, t_max: Duration) -> Result<Self, ModelError> {
        MonitorSpec::modal(wcet, wcet, t_max)
    }

    /// WCET of the routine (Passive) sweep.
    #[must_use]
    pub fn passive_wcet(&self) -> Duration {
        self.passive_wcet
    }

    /// WCET of the escalated (Active) sweep.
    #[must_use]
    pub fn active_wcet(&self) -> Duration {
        self.active_wcet
    }

    /// The designer's maximum-period bound `T^max`.
    #[must_use]
    pub fn t_max(&self) -> Duration {
        self.t_max
    }

    /// The WCET the monitor demands in `mode`.
    #[must_use]
    pub fn wcet_in(&self, mode: MonitorMode) -> Duration {
        match mode {
            MonitorMode::Passive => self.passive_wcet,
            MonitorMode::Active => self.active_wcet,
        }
    }

    /// The [`SecurityTask`] to hand to the admission analysis when the
    /// monitor runs in `mode` — the heart of true mode-aware admission,
    /// as opposed to always integrating at the conservative active WCET.
    ///
    /// Cannot fail for a validly constructed spec (the invariants imply
    /// `0 < wcet_in(mode) ≤ t_max`).
    #[must_use]
    pub fn task_in(&self, mode: MonitorMode) -> SecurityTask {
        SecurityTask::new(self.wcet_in(mode), self.t_max)
            .expect("MonitorSpec invariants guarantee 0 < C <= T^max for every mode")
    }
}

/// One runtime change to a tenant's security workload.
///
/// Slots index the tenant's monitor table in *priority order* (slot 0 =
/// highest-priority monitor), mirroring
/// [`crate::taskset::SecurityTaskSet`] indexing. Arrivals append at the
/// lowest priority; a departure shifts every later monitor up one slot.
///
/// Each event is answered with an accept/reject verdict: the adaptation
/// service re-runs period selection on the *post-event* configuration and
/// commits it only when schedulable, so a rejected event leaves the
/// previously admitted configuration running (see `rts-adapt` for what
/// this verifies, and what it does not yet).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeltaEvent {
    /// A new monitor asks to be integrated (at the lowest security
    /// priority, in its default Passive mode).
    Arrival {
        /// The monitor's admission-relevant parameters.
        monitor: MonitorSpec,
    },
    /// Monitor `slot` leaves the system.
    Departure {
        /// Priority slot of the departing monitor.
        slot: usize,
    },
    /// Monitor `slot` was re-profiled: replace both WCETs (its `T^max`
    /// and current mode are unchanged).
    WcetUpdate {
        /// Priority slot of the re-profiled monitor.
        slot: usize,
        /// New routine-sweep WCET.
        passive_wcet: Duration,
        /// New escalated-sweep WCET.
        active_wcet: Duration,
    },
    /// Monitor `slot` switches mode — escalation (`Passive → Active`) on
    /// findings, de-escalation after a clean streak, as decided by the
    /// reactive state machine in `ids_sim::reactive`.
    ModeChange {
        /// Priority slot of the switching monitor.
        slot: usize,
        /// The mode the monitor's next sweep will run in.
        mode: MonitorMode,
    },
}

impl DeltaEvent {
    /// The priority slot the event targets, if any (`Arrival` creates a
    /// new slot instead of targeting one).
    #[must_use]
    pub fn slot(&self) -> Option<usize> {
        match *self {
            DeltaEvent::Arrival { .. } => None,
            DeltaEvent::Departure { slot }
            | DeltaEvent::WcetUpdate { slot, .. }
            | DeltaEvent::ModeChange { slot, .. } => Some(slot),
        }
    }

    /// Whether the event changes the number of monitors (arrival or
    /// departure, as opposed to reshaping an existing one).
    #[must_use]
    pub fn is_structural(&self) -> bool {
        matches!(
            self,
            DeltaEvent::Arrival { .. } | DeltaEvent::Departure { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    #[test]
    fn modal_spec_validates_ordering() {
        assert!(MonitorSpec::modal(ms(100), ms(350), ms(5000)).is_ok());
        assert_eq!(
            MonitorSpec::modal(Duration::ZERO, ms(350), ms(5000)),
            Err(ModelError::ZeroWcet)
        );
        assert!(MonitorSpec::modal(ms(400), ms(350), ms(5000)).is_err());
        assert!(MonitorSpec::modal(ms(100), ms(6000), ms(5000)).is_err());
    }

    #[test]
    fn fixed_spec_collapses_the_modes() {
        let spec = MonitorSpec::fixed(ms(223), ms(10_000)).unwrap();
        assert_eq!(spec.wcet_in(MonitorMode::Passive), ms(223));
        assert_eq!(spec.wcet_in(MonitorMode::Active), ms(223));
    }

    #[test]
    fn task_projection_follows_the_mode() {
        let spec = MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap();
        let passive = spec.task_in(MonitorMode::Passive);
        let active = spec.task_in(MonitorMode::Active);
        assert_eq!(passive.wcet(), ms(100));
        assert_eq!(active.wcet(), ms(350));
        assert_eq!(passive.t_max(), ms(5000));
        assert_eq!(active.t_max(), ms(5000));
    }

    #[test]
    fn mode_flip_roundtrips() {
        assert_eq!(MonitorMode::Passive.flipped(), MonitorMode::Active);
        assert_eq!(MonitorMode::Active.flipped(), MonitorMode::Passive);
        assert_eq!(MonitorMode::Passive.to_string(), "passive");
        assert_eq!(MonitorMode::Active.to_string(), "active");
    }

    #[test]
    fn event_slot_and_structure() {
        let spec = MonitorSpec::fixed(ms(1), ms(100)).unwrap();
        assert_eq!(DeltaEvent::Arrival { monitor: spec }.slot(), None);
        assert!(DeltaEvent::Arrival { monitor: spec }.is_structural());
        assert_eq!(DeltaEvent::Departure { slot: 2 }.slot(), Some(2));
        assert!(DeltaEvent::Departure { slot: 2 }.is_structural());
        let update = DeltaEvent::WcetUpdate {
            slot: 1,
            passive_wcet: ms(1),
            active_wcet: ms(2),
        };
        assert_eq!(update.slot(), Some(1));
        assert!(!update.is_structural());
        let mode = DeltaEvent::ModeChange {
            slot: 0,
            mode: MonitorMode::Active,
        };
        assert_eq!(mode.slot(), Some(0));
        assert!(!mode.is_structural());
    }
}
