//! Multi-phase simulation of runtime mode switches.
//!
//! The `rts-adapt` service commits a new configuration (periods and, for
//! reactive monitors, a new WCET) at every accepted delta. At runtime
//! that produces a *sequence* of configurations, each analysed in
//! isolation. This module simulates such sequences one configuration
//! at a time: every [`ModePhase`] starts from a **synchronous release**,
//! the critical instant of the fixed-priority analysis for a task set
//! that stays fixed. Zero misses across all phases therefore witnesses
//! the admission analysis of each configuration on its own.
//!
//! The transition between two configurations is **not** verified. A
//! real switch leaves jobs of the old configuration pending, and that
//! can be *harder* than a synchronous release: when a de-escalation
//! shrinks a higher-priority period while a lower-priority job released
//! under the old configuration is still pending, that job meets more
//! interference than the old analysis charged it (the fixed-priority
//! mode-change problem of Tindell, Burns & Wellings, Real-Time Systems
//! 1992). An in-place switch that keeps each pending job's old
//! parameters, and a switch rule the analysis covers, are item 1 of the
//! ROADMAP. RT tasks are immune by construction: they outrank every
//! security task, so their schedule is identical in every phase
//! regardless of what the monitors do.

use rts_model::time::Duration;
use rts_model::Platform;

use crate::engine::{SimConfig, Simulation};
use crate::metrics::Metrics;
use crate::task::TaskSpec;

/// One admitted configuration and how long the system ran under it.
#[derive(Clone, Debug)]
pub struct ModePhase {
    /// Human-readable phase name (for reports and assertions).
    pub label: String,
    /// The complete task specification of the configuration (RT tasks
    /// plus security tasks at their admitted periods and mode WCETs, as
    /// built by [`crate::scenario::system_specs`]).
    pub specs: Vec<TaskSpec>,
    /// Simulated length of the phase.
    pub horizon: Duration,
}

impl ModePhase {
    /// Creates a phase.
    #[must_use]
    pub fn new(label: impl Into<String>, specs: Vec<TaskSpec>, horizon: Duration) -> Self {
        ModePhase {
            label: label.into(),
            specs,
            horizon,
        }
    }
}

/// Simulation result of one phase.
#[derive(Clone, Debug)]
pub struct PhaseOutcome {
    /// The phase's label.
    pub label: String,
    /// Metrics of the phase's run.
    pub metrics: Metrics,
}

impl PhaseOutcome {
    /// Whether the phase completed without a single deadline miss.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.metrics.total_deadline_misses() == 0
    }
}

/// Simulates `phases` back to back on `platform`, each from a
/// synchronous release, so each configuration is verified on its own;
/// the transition between two phases is not (see the module docs).
/// `seed` feeds each phase's randomized arrival/demand models, offset
/// per phase index so phases draw independent streams.
#[must_use]
pub fn simulate_phases(platform: Platform, phases: &[ModePhase], seed: u64) -> Vec<PhaseOutcome> {
    phases
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            let sim = Simulation::new(platform, phase.specs.clone());
            let config = SimConfig::new(phase.horizon).with_seed(seed ^ (i as u64) << 32);
            PhaseOutcome {
                label: phase.label.clone(),
                metrics: sim.run(&config).metrics,
            }
        })
        .collect()
}

/// Total deadline misses across all `outcomes`.
#[must_use]
pub fn total_misses(outcomes: &[PhaseOutcome]) -> u64 {
    outcomes
        .iter()
        .map(|o| o.metrics.total_deadline_misses())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Affinity;
    use rts_model::CoreId;

    fn t(v: u64) -> Duration {
        Duration::from_ticks(v)
    }

    fn rt_spec() -> TaskSpec {
        TaskSpec::new("rt", t(4), t(10), 0, Affinity::Pinned(CoreId::new(0)))
    }

    #[test]
    fn phases_simulate_independently() {
        let passive = ModePhase::new(
            "passive",
            vec![
                rt_spec(),
                TaskSpec::new("mon", t(2), t(20), 1, Affinity::Migrating),
            ],
            t(200),
        );
        let active = ModePhase::new(
            "active",
            vec![
                rt_spec(),
                TaskSpec::new("mon", t(5), t(40), 1, Affinity::Migrating),
            ],
            t(200),
        );
        let outcomes = simulate_phases(Platform::dual_core(), &[passive, active], 7);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].label, "passive");
        assert!(outcomes.iter().all(PhaseOutcome::clean));
        assert_eq!(total_misses(&outcomes), 0);
        // Both phases actually released work.
        for o in &outcomes {
            assert!(o.metrics.tasks[1].released > 0, "{}", o.label);
        }
    }

    #[test]
    fn an_unschedulable_phase_reports_misses() {
        // A monitor with period shorter than feasible on a saturated core.
        let bad = ModePhase::new(
            "overloaded",
            vec![
                TaskSpec::new("rt", t(9), t(10), 0, Affinity::Pinned(CoreId::new(0))),
                TaskSpec::new("mon", t(5), t(10), 1, Affinity::Pinned(CoreId::new(0))),
            ],
            t(400),
        );
        let outcomes = simulate_phases(Platform::uniprocessor(), &[bad], 0);
        assert!(!outcomes[0].clean());
        assert!(total_misses(&outcomes) > 0);
    }
}
