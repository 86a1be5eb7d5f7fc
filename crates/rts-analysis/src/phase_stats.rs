//! Process-wide counters over the top-difference fixed-point walks.
//!
//! The benchmark harnesses (`experiments::bench_report`) want a
//! solver-phase breakdown — how many walks ran, how many evaluation
//! points they visited, and how many were confirmed straight from a
//! carried evaluation without seeding a single segment memo. Those events
//! happen deep inside `crate::crossing`, far below any struct a harness
//! could thread a counter through, so they are counted here in relaxed
//! process-wide atomics: cheap enough for the hottest loop (two
//! `fetch_add`s per *walk*, not per evaluation), exact enough for a
//! benchmark report, and deliberately not a per-environment statistic.
//!
//! Counters only ever increase; harnesses [`reset`] before a measured
//! phase and [`snapshot`] after it. Concurrent sweeps add into the same
//! counters, which is what a whole-process benchmark wants.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static WALKS: AtomicU64 = AtomicU64::new(0);
static EVALS: AtomicU64 = AtomicU64::new(0);
static QUICK_CONFIRMS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the walk-phase counters since the last [`reset`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WalkStats {
    /// Top-difference fixed-point walks performed (one per Eq. 7 solve
    /// under [`crate::semi::CarryInStrategy::TopDiff`]).
    pub walks: u64,
    /// Evaluation points visited across all walks (a carried-evaluation
    /// confirmation counts as one).
    pub evals: u64,
    /// Walks answered by re-validating the carried evaluation of the
    /// previous walk at the warm-start floor, with no segment seeding.
    pub quick_confirms: u64,
}

impl WalkStats {
    /// Mean evaluation points per walk (`0` before any walk).
    #[must_use]
    pub fn mean_evals(&self) -> f64 {
        if self.walks == 0 {
            0.0
        } else {
            self.evals as f64 / self.walks as f64
        }
    }
}

/// Reads the counters.
#[must_use]
pub fn snapshot() -> WalkStats {
    WalkStats {
        walks: WALKS.load(Relaxed),
        evals: EVALS.load(Relaxed),
        quick_confirms: QUICK_CONFIRMS.load(Relaxed),
    }
}

/// Zeroes the counters (start of a measured phase).
pub fn reset() {
    WALKS.store(0, Relaxed);
    EVALS.store(0, Relaxed);
    QUICK_CONFIRMS.store(0, Relaxed);
}

/// Records one completed top-difference walk.
pub(crate) fn record_topdiff_walk(evals: u64, quick_confirm: bool) {
    WALKS.fetch_add(1, Relaxed);
    EVALS.fetch_add(evals, Relaxed);
    if quick_confirm {
        QUICK_CONFIRMS.fetch_add(1, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_zero_before_any_walk() {
        assert_eq!(WalkStats::default().mean_evals(), 0.0);
        let s = WalkStats {
            walks: 4,
            evals: 10,
            quick_confirms: 1,
        };
        assert!((s.mean_evals() - 2.5).abs() < 1e-12);
    }
}
