//! Synthetic real-time taskset generation.
//!
//! Reproduces the workload pipeline of the HYDRA-C paper's design-space
//! exploration (§5.2.1, Table 3):
//!
//! * [`randfixedsum`](crate::randfixedsum::randfixedsum) — unbiased
//!   utilization vectors (Emberson/Stafford, the paper's citation \[51\]);
//! * [`periods`] — log-uniform period sampling;
//! * [`table3`] — the full Table 3 generator with the ten
//!   base-utilization groups.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use rts_taskgen::table3::{generate_workload, Table3Config, UtilizationGroup};
//!
//! let config = Table3Config::for_cores(2);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let workload = generate_workload(&config, UtilizationGroup::new(4), &mut rng);
//! assert!(workload.rt_tasks.len() >= 6);
//! assert!(workload.normalized_utilization() <= 0.55);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod periods;
pub mod randfixedsum;
pub mod table3;
pub mod uunifast;

pub use periods::log_uniform_period;
pub use randfixedsum::randfixedsum as randfixedsum_vec;
pub use table3::{
    generate_workload, GeneratedWorkload, Table3Config, UtilizationGroup, NUM_GROUPS,
    TASKSETS_PER_GROUP,
};
pub use uunifast::{uunifast, uunifast_discard};
