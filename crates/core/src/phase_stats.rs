//! Process-wide counters over the Algorithm 1/2 solver phases.
//!
//! The benchmark harnesses want to know *where* a period-selection run
//! spends its solves: how many Algorithm 2 feasibility probes ran, how
//! many cascades they triggered, and how many per-task fixed points those
//! cascades computed. The events happen inside `period_selection`'s probe
//! closure, below anything a harness could thread a counter through, so —
//! like `rts_analysis::phase_stats`, which counts the fixed-point walks
//! one level further down — they live in relaxed process-wide atomics.
//! Harnesses [`reset`] before a measured phase and [`snapshot`] after it;
//! concurrent sweep workers add into the same counters.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static SELECTIONS: AtomicU64 = AtomicU64::new(0);
static PROBES: AtomicU64 = AtomicU64::new(0);
static CASCADES: AtomicU64 = AtomicU64::new(0);
static CASCADE_TASKS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the selection-phase counters since the last [`reset`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SelectionStats {
    /// Algorithm 1 runs ([`crate::select_periods_with_env`] calls).
    pub selections: u64,
    /// Algorithm 2 binary-search feasibility probes evaluated.
    pub probes: u64,
    /// Response-time cascades computed (one per probe, plus one initial
    /// full-vector cascade per run).
    pub cascades: u64,
    /// Per-task fixed points solved across all cascades.
    pub cascade_tasks: u64,
}

impl SelectionStats {
    /// Mean fixed points per cascade (`0` before any cascade).
    #[must_use]
    pub fn mean_cascade_tasks(&self) -> f64 {
        if self.cascades == 0 {
            0.0
        } else {
            self.cascade_tasks as f64 / self.cascades as f64
        }
    }
}

/// Reads the counters.
#[must_use]
pub fn snapshot() -> SelectionStats {
    SelectionStats {
        selections: SELECTIONS.load(Relaxed),
        probes: PROBES.load(Relaxed),
        cascades: CASCADES.load(Relaxed),
        cascade_tasks: CASCADE_TASKS.load(Relaxed),
    }
}

/// Zeroes the counters (start of a measured phase).
pub fn reset() {
    SELECTIONS.store(0, Relaxed);
    PROBES.store(0, Relaxed);
    CASCADES.store(0, Relaxed);
    CASCADE_TASKS.store(0, Relaxed);
}

/// Records one Algorithm 1 run with its probe/cascade totals. Called once
/// per selection — the run accumulates locally so the hot loops never
/// touch shared cache lines.
pub(crate) fn record_selection(probes: u64, cascades: u64, cascade_tasks: u64) {
    SELECTIONS.fetch_add(1, Relaxed);
    PROBES.fetch_add(probes, Relaxed);
    CASCADES.fetch_add(cascades, Relaxed);
    CASCADE_TASKS.fetch_add(cascade_tasks, Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_the_empty_snapshot() {
        assert_eq!(SelectionStats::default().mean_cascade_tasks(), 0.0);
        let s = SelectionStats {
            selections: 1,
            probes: 8,
            cascades: 9,
            cascade_tasks: 18,
        };
        assert!((s.mean_cascade_tasks() - 2.0).abs() < 1e-12);
    }
}
