//! Intrusion-detection substrate for the HYDRA-C reproduction.
//!
//! Replaces the paper's physical security stack with faithful synthetic
//! equivalents. The reproduction reads two things off a monitor: its
//! scheduling footprint (WCET, period) and the instant its scan reaches
//! an attacked object. Each substitute keeps those — the objects it
//! scans, the order it scans them in, and the attacks it must find:
//!
//! * [`filesystem`] + [`hashing`] + [`tripwire`] — the image data store
//!   and the Tripwire-style integrity checker;
//! * [`kmod`] — the kernel-module registry, expected-profile checker and
//!   rootkit manifestations;
//! * [`attack`] — the two rover attacks at random instants;
//! * [`detection`] — the scan-progress model mapping scheduler traces to
//!   detection instants (the paper's "detection time" measurement);
//! * [`rover`] — the §5.1 platform: task parameters, Table 2, the Fig. 5
//!   trial runner;
//! * [`reactive`] — the paper's §6 multi-mode (reactive) monitor sketch;
//! * [`catalog`] — Table 1.
//!
//! # Example
//!
//! ```
//! use ids_sim::rover::{run_trial, RoverConfiguration, RoverScheme};
//!
//! let config = RoverConfiguration::select(RoverScheme::HydraC);
//! let outcome = run_trial(&config, 1);
//! assert!(outcome.file_detection > rts_model::Duration::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod catalog;
pub mod detection;
pub mod filesystem;
pub mod hashing;
pub mod kmod;
pub mod reactive;
pub mod rover;
pub mod tripwire;

pub use attack::{Attack, AttackKind};
pub use detection::ScanModel;
pub use filesystem::ObjectStore;
pub use kmod::{ExpectedProfile, ModuleRegistry};
pub use reactive::{ModalMonitor, MonitorMode};
pub use rover::{run_trial, RoverConfiguration, RoverScheme, TrialOutcome};
pub use tripwire::BaselineDb;
