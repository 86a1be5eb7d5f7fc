//! `rts-adapt` — an online admission-control and period-adaptation
//! service over HYDRA-C's Algorithm 1.
//!
//! The paper's Algorithm 1 is a design-time procedure: one frozen system
//! in, one period vector out. This crate turns it into a long-running,
//! multi-tenant **query service**: each tenant registers its legacy RT
//! system once, then streams [`DeltaEvent`](rts_model::delta::DeltaEvent)s
//! — monitor arrival and departure, WCET re-profiling, and
//! Passive↔Active mode switches from reactive monitors
//! (`ids_sim::reactive`) — and every event is answered with an
//! accept/reject verdict plus freshly selected periods.
//!
//! * [`tenant`] — per-tenant state: the monitor table, delta application
//!   with commit-on-accept/rollback-on-reject semantics, and the
//!   memoized incremental selector
//!   ([`hydra_core::incremental::IncrementalSelector`]);
//! * [`engine`] — the protocol-agnostic request/response surface
//!   ([`engine::Request`], [`engine::Response`]) and the single-threaded
//!   [`engine::AdaptEngine`];
//! * [`shard`] — the scale-out layer: tenants hashed onto a pool of
//!   worker shards with request batching and per-tenant FIFO ordering;
//! * [`json`] / [`proto`] — a dependency-free JSON subset and the
//!   line-delimited wire protocol;
//! * [`reactor`] — the TCP front end of the `rts_adaptd` binary: one
//!   epoll reactor that owns its listener, its connections and its shard
//!   pool, with no per-connection threads;
//! * [`server`] — the stdin front end: one request stream pumped
//!   through the shard pool in batches;
//! * [`telemetry`] — the observability spine: lock-free stage-latency
//!   histograms, the monotonic tick source, and the worst-N
//!   slow-request ring behind the `{"op":"metrics"}` verb and the
//!   Prometheus text exposition;
//! * [`journal`] — per-tenant event-log persistence: registrations and
//!   accepted deltas appended as line JSON, snapshot compaction that
//!   truncates the delta tail (write-then-rename, automatic via
//!   `--compact-every`), and a replay entry point that rebuilds tenant
//!   state bit-identically — snapshot restore re-runs Algorithm 1, so
//!   recovery never installs an unverified configuration. The same
//!   history shape is the hand-off payload behind the protocol's
//!   `export`/`import`/`evict` verbs, which move a tenant between two
//!   daemons with bit-identical subsequent answers;
//! * [`client`] — the bounded-retry dial-out path (connect backoff
//!   through daemon restart windows, line-protocol round trips) shared
//!   by the replicator, the fleet coordinator and the smoke harnesses;
//! * [`replication`] — warm-standby streaming: every journal-file
//!   mutation is mirrored, in order, to a standby daemon's replica
//!   store over the `replicate` protocol verb, and the `adopt` verb
//!   fails a dead primary's tenants over through the same re-admission
//!   analysis recovery uses — so failover inherits the bit-identical
//!   replay guarantee instead of needing its own. Both halves of the
//!   protocol live here: the primary's forwarder repairs every lost op
//!   by one debt rule (a cut offset or a retire per tenant, one repair
//!   after each fully answered batch), and the standby's
//!   `ReplicaStore` owns the offset and owner guards, the owner
//!   sidecars and the replica append group.
//!
//! # What mode-aware re-admission verifies
//!
//! The conservative stance (`ids_sim::reactive`'s design-time
//! integration, `ids-sim`'s `conservative_task`) admits every reactive
//! monitor at its **active** WCET once and never re-visits the decision.
//! That is sound for any mode sequence, but the common passive case then
//! inherits periods provisioned for the rare active one: monitoring runs
//! *less frequently than schedulability allows* almost all the time.
//! This service instead re-runs Algorithm 1 at every mode switch with
//! the WCET vector of the modes actually entered. What is verified, and
//! what is not yet:
//!
//! 1. **RT tasks are untouchable by construction.** Every security task
//!    runs strictly below every RT task (the paper's priority bands), so
//!    no security reconfiguration — admitted or not — can affect an RT
//!    deadline. The paper's Eq. 1 guarantee for the legacy system holds
//!    *unconditionally*, independent of anything this service decides.
//! 2. **No configuration runs unverified.** A delta is applied by
//!    re-selecting periods for the *post-event* configuration; only an
//!    admitted configuration (every `R_s ≤ T_s ≤ T^max_s` under the full
//!    Eq. 6–8 analysis) is committed. A rejected delta leaves the
//!    previously admitted configuration in force — in particular, an
//!    escalation that does not fit is refused *before* any active-WCET
//!    job is released, and the monitor keeps sweeping at its admitted
//!    passive parameters (the detection latency of the deep check is
//!    deferred, never a deadline).
//! 3. **Steady state is exactly the paper's analysis.** Within one
//!    admitted configuration the task set is sporadic with fixed
//!    parameters, and the admission RTA bounds the worst-case phasing
//!    (synchronous release); the validation scenario (`rts_sim::modes`)
//!    simulates every configuration on its own from a synchronous
//!    release.
//! 4. **The transition is not verified yet.** A mode switch takes effect
//!    at the switching monitor's next release, so jobs of the old
//!    configuration can still be pending when the new periods start.
//!    Such a job is *not* covered by the old configuration's analysis:
//!    when a de-escalation shrinks a higher-priority period while a
//!    lower-priority job released under the old configuration is still
//!    pending, that job meets more interference than the old analysis
//!    charged it (the fixed-priority mode-change problem; Tindell, Burns
//!    & Wellings, Real-Time Systems 1992). A scratch probe over admitted
//!    Table 3 pairs found security deadline misses at some switch
//!    instant in 44 of 134 pairs under TopDiff. RT deadlines are never
//!    at risk (point 1). A switch rule the analysis covers is ROADMAP
//!    item 1.
//!
//! Every configuration the service commits is therefore verified, where
//! the old always-conservative admission verified one upper bound; and
//! passive-mode periods come out of Algorithm 1's minimization for the
//! passive WCETs, i.e. as short as the analysis can prove, instead of
//! being inflated by an escalation that is not happening. The price is
//! the unverified transition above.
//!
//! # Quickstart
//!
//! ```
//! use rts_adapt::prelude::*;
//! use rts_model::time::Duration;
//!
//! let ms = Duration::from_ms;
//! let mut engine = AdaptEngine::new(CarryInStrategy::Exhaustive);
//! // Register the paper's rover as tenant 1...
//! let reg = engine.handle(&Request::Register {
//!     tenant: 1,
//!     cores: 2,
//!     rt: vec![
//!         RtSpec { wcet: ms(240), period: ms(500), core: 0 },
//!         RtSpec { wcet: ms(1120), period: ms(5000), core: 1 },
//!     ],
//! });
//! assert!(reg.is_admitted());
//! // ...then integrate Tripwire online.
//! let spec = MonitorSpec::fixed(ms(5342), ms(10_000))?;
//! let out = engine.handle(&Request::Delta {
//!     tenant: 1,
//!     event: DeltaEvent::Arrival { monitor: spec },
//! });
//! let Response::Admitted(admitted) = out else { panic!() };
//! assert_eq!(admitted.periods, vec![ms(7582)]); // the paper's Fig. 5 value
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod engine;
pub mod journal;
pub mod json;
pub mod proto;
pub mod reactor;
pub mod replication;
pub mod server;
pub mod shard;
pub mod telemetry;
pub mod tenant;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::engine::{AdaptEngine, Admitted, Request, Response, RtSpec};
    pub use crate::shard::ShardedEngine;
    pub use crate::tenant::{ApplyError, TenantState};
    pub use rts_analysis::semi::CarryInStrategy;
    pub use rts_model::delta::{DeltaEvent, MonitorMode, MonitorSpec};
}

pub use client::{connect_with_retry, LineClient, RetryPolicy};
pub use engine::{AdaptEngine, Admitted, Request, Response, RtSpec};
pub use journal::{replay, JournalDir, ReplayError, TenantHistory, TenantSnapshot};
pub use reactor::{serve_reactor, ReactorOptions, ReactorSummary, Shutdown};
pub use replication::{ReplPayload, ReplStats, Replicator};
pub use server::serve;
pub use shard::ShardedEngine;
pub use telemetry::{Histogram, SlowRequest, Stage, StageSummary, Telemetry};
pub use tenant::{ApplyError, MonitorEntry, TenantState};
