//! HYDRA-C — period adaptation for continuous security monitoring in
//! multicore real-time systems.
//!
//! This crate is the primary contribution of the reproduced paper
//! (Hasan, Mohan, Pellizzoni & Bobba, DATE 2020): given a legacy
//! partitioned RT system and a set of security monitoring tasks, find the
//! *minimum* period for every security task — maximizing monitoring
//! frequency and hence minimizing intrusion-detection latency — while
//! provably preserving every deadline, with the security tasks free to
//! migrate across cores at the lowest priority (semi-partitioned
//! scheduling).
//!
//! * [`period_selection`] — the paper's Algorithm 1;
//! * [`feasible_period`] — the paper's Algorithm 2 (logarithmic search);
//! * [`incremental`] — Algorithm 1 as a memoized *query* over changing
//!   security task sets (the `rts-adapt` service's engine room);
//! * [`schemes`] — HYDRA-C plus the three baselines the paper evaluates
//!   against (HYDRA, HYDRA-TMax, GLOBAL-TMax);
//! * [`assemble`] — workload → partitioned [`rts_model::System`] glue.
//!
//! # Quickstart
//!
//! ```
//! use hydra_core::prelude::*;
//! use rts_model::prelude::*;
//!
//! // The paper's rover: two RT tasks pinned to two cores...
//! let platform = Platform::dual_core();
//! let rt = RtTaskSet::new_rate_monotonic(vec![
//!     RtTask::new(Duration::from_ms(240), Duration::from_ms(500))?,
//!     RtTask::new(Duration::from_ms(1120), Duration::from_ms(5000))?,
//! ]);
//! let partition = Partition::new(platform, vec![CoreId::new(0), CoreId::new(1)])?;
//! // ...plus Tripwire and a kernel-module checker as security tasks.
//! let sec = SecurityTaskSet::new(vec![
//!     SecurityTask::new(Duration::from_ms(5342), Duration::from_ms(10_000))?,
//!     SecurityTask::new(Duration::from_ms(223), Duration::from_ms(10_000))?,
//! ]);
//! let system = System::new(platform, rt, partition, sec)?;
//!
//! // Select the minimum feasible monitoring periods (Algorithm 1).
//! let selection = select_periods(&system, CarryInStrategy::Exhaustive)?;
//! assert!(selection.periods[0] < Duration::from_ms(10_000));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assemble;
pub mod error;
pub mod feasible_period;
pub mod incremental;
pub mod period_selection;
pub mod phase_stats;
pub mod schemes;
pub mod sensitivity;
pub mod shared_store;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::assemble::assemble_system;
    pub use crate::error::SelectionError;
    pub use crate::incremental::{IncrementalSelector, MemoStats, SecFingerprint, SolvedSelection};
    pub use crate::period_selection::{select_periods, PeriodSelection};
    pub use crate::schemes::{Scheme, SchemeOutcome};
    pub use rts_analysis::semi::CarryInStrategy;
}

pub use assemble::assemble_system;
pub use error::SelectionError;
pub use incremental::{IncrementalSelector, MemoStats, SecFingerprint, SolvedSelection};
pub use period_selection::{
    rt_environment, select_periods, select_periods_with_env, PeriodSelection,
};
pub use schemes::{Scheme, SchemeOutcome};
pub use sensitivity::{rt_wcet_margin, security_task_slack, security_wcet_margin};
pub use shared_store::{SharedSelectionStore, SharedStoreStats, SystemIdentity};
