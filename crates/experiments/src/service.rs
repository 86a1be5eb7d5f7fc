//! The `rts-adapt` load harness: a synthetic multi-tenant fleet plus a
//! seeded admission/adaptation request stream.
//!
//! The fleet is **profile-templated**: tenants are stamped from
//! [`PROFILES`] structural profiles (tenant `index` uses profile
//! `index % PROFILES`), each a Table 3 workload (2 cores, light to
//! heavy utilization) whose security tasks become *reactive* monitors.
//! Every tenant of a profile registers the *same* RT system and builds
//! its monitor table from the *same* discrete spec catalog — arrivals
//! append the catalog entry for the next slot, departures drop the last
//! slot, and WCET re-profiling flips a slot between its quantized
//! catalog variants — so a tenant's table is always a catalog prefix
//! and siblings revisit each other's admission problems. That is the
//! fleet shape a real monitoring service has (many devices of one
//! hardware/monitor SKU), and it is what the engine's cross-tenant
//! [`hydra_core::SharedSelectionStore`] exploits: one sibling solves a
//! configuration, the rest reuse the verdict.
//!
//! The stream mixes the four delta kinds with mode switches dominating —
//! the steady state of a monitoring fleet — driven through the real
//! [`ids_sim::reactive::ModalMonitor`] state machines, so escalations
//! and de-escalations arrive exactly as a live detection substrate would
//! emit them. Every request's latency is measured from batch submission
//! to response arrival; the populations (accepted / rejected / errors)
//! are deterministic per seed and identical for every shard count, which
//! is what the benchmark and the CI smoke job assert.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use ids_sim::reactive::{ModalMonitor, SweepOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rts_adapt::engine::{AdaptEngine, Request, Response, RtSpec};
use rts_adapt::json::{self, Json};
use rts_adapt::proto::render_request;
use rts_adapt::reactor::{bind_reuseport_listeners, serve_reactors, ReactorOptions, Shutdown};
use rts_adapt::shard::{ShardReport, ShardedEngine};
use rts_adapt::telemetry::{StageSummary, Telemetry};
use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::{DeltaEvent, MonitorSpec};
use rts_model::time::Duration;
use rts_model::System;
use rts_partition::FitHeuristic;
use rts_taskgen::table3::{generate_workload, Table3Config, UtilizationGroup};

use hydra_core::assemble::assemble_system;

/// Load-harness parameters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceConfig {
    /// Number of tenant systems.
    pub tenants: usize,
    /// Total adaptation requests to stream (beyond registration).
    pub requests: usize,
    /// Worker shards of the engine pool.
    pub shards: usize,
    /// Requests per submitted batch.
    pub batch: usize,
    /// RNG seed; the verdict populations are deterministic per seed.
    pub seed: u64,
}

impl ServiceConfig {
    /// The tracked benchmark configuration at `requests` total requests:
    /// 64 tenants, 4 shards, 512-request batches, fixed seed.
    #[must_use]
    pub fn new(requests: usize) -> Self {
        ServiceConfig {
            tenants: 64,
            requests,
            shards: 4,
            batch: 512,
            seed: 0xADA0,
            // The strategy is fixed to TopDiff (the sweep default) so the
            // tracked numbers stay comparable across PRs.
        }
    }
}

/// Outcome of one load run.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// The configuration that ran.
    pub config: ServiceConfig,
    /// Wall time of the streaming phase (registration excluded).
    pub wall_secs: f64,
    /// Per-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<f64>,
    /// Requests answered `accept`.
    pub accepted: u64,
    /// Requests answered `reject`.
    pub rejected: u64,
    /// Requests answered `error` (must be zero for a healthy run).
    pub errors: u64,
    /// Per-shard worker reports (tenant counts, memo statistics).
    pub shards: Vec<ShardReport>,
    /// Per-stage latency summaries from the pool's telemetry registry.
    /// The in-process harness has no serving front, so only the worker
    /// stages (`queue`, `solve`) carry samples; all eight stages are
    /// present either way. Empty counts everywhere with telemetry off.
    pub stages: Vec<StageSummary>,
}

impl ServiceReport {
    /// Responses received during the streaming phase.
    #[must_use]
    pub fn responses(&self) -> u64 {
        self.accepted + self.rejected + self.errors
    }

    /// Requests per second over the streaming phase.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_secs == 0.0 {
            0.0
        } else {
            self.latencies_us.len() as f64 / self.wall_secs
        }
    }

    /// Latency percentile (`q` in `(0, 1]`), in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if no latencies were recorded or `q` is out of range.
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> f64 {
        percentile(&self.latencies_us, q)
    }

    /// Aggregated per-tenant memo hits across all shards.
    #[must_use]
    pub fn memo_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.memo.hits).sum()
    }

    /// Aggregated cross-tenant shared-store hits across all shards.
    #[must_use]
    pub fn memo_shared_hits(&self) -> u64 {
        self.shards.iter().map(|s| s.memo.shared_hits).sum()
    }

    /// Aggregated memo misses (full solves) across all shards.
    #[must_use]
    pub fn memo_misses(&self) -> u64 {
        self.shards.iter().map(|s| s.memo.misses).sum()
    }

    /// Combined memo hit rate: the fraction of selections answered
    /// without a solve, whether by the tenant's own memo or by the
    /// cross-tenant shared store.
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        let hits = self.memo_hits() + self.memo_shared_hits();
        let total = hits + self.memo_misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Percentile of an ascending-sorted latency population (`q` in
/// `(0, 1]`), in microseconds.
fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    assert!(q > 0.0 && q <= 1.0, "q must be in (0, 1]");
    assert!(!sorted_us.is_empty(), "no latencies recorded");
    let n = sorted_us.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted_us[rank - 1]
}

/// Per-monitor generator state: the admission spec the engine holds for
/// the slot, plus the reactive state machine that drives its mode flips.
struct MonitorSlot {
    spec: MonitorSpec,
    machine: ModalMonitor,
}

/// Generator-side view of one tenant.
struct TenantSim {
    id: u64,
    /// Index into the fleet's profile table (`index % PROFILES`).
    profile: usize,
    monitors: Vec<MonitorSlot>,
    /// A structural event (arrival/departure) is in flight this batch —
    /// no further events for the tenant until it reconciles, so slot
    /// indices can never race ahead of the engine's table.
    locked: bool,
}

/// What reconciliation must do when a response arrives.
enum Pending {
    Arrival {
        tenant: usize,
        spec: MonitorSpec,
    },
    Departure {
        tenant: usize,
        slot: usize,
    },
    WcetUpdate {
        tenant: usize,
        slot: usize,
        spec: MonitorSpec,
    },
    Other,
}

/// Caps on a tenant's monitor table. Small tables keep each tenant's
/// mode hypercube (2^k configurations) warm in the selection memo, which
/// is the steady state the benchmark is about — and they bound the
/// per-profile configuration space the shared store must cover: with
/// `k <= MAX_MONITORS` slots of `WCET_VARIANTS x 2` (variant, mode)
/// states each, a profile's siblings can only ever ask the solver for a
/// few hundred distinct problems between them.
const MIN_MONITORS: usize = 1;
const MAX_MONITORS: usize = 4;

/// Structural profiles the fleet is stamped from. Tenant `index` uses
/// profile `index % PROFILES` (capped at the tenant count), so the
/// canonical 64-tenant fleet has 8 siblings per profile.
pub const PROFILES: usize = 8;

/// Quantized WCET variants per catalog slot: the base profile plus one
/// re-profiled alternative. WCET updates draw from this set instead of a
/// continuous range, so siblings re-converge on configurations the
/// shared store has already solved.
const WCET_VARIANTS: usize = 2;

/// One structural profile: the RT system every sibling registers
/// verbatim plus the discrete monitor catalog their tables are built
/// from. `catalog[slot]` holds the [`WCET_VARIANTS`] specs table slot
/// `slot` may carry (index 0 is the base); tables are always catalog
/// prefixes, so two siblings at the same (length, variants, modes)
/// state pose bit-identical admission problems.
struct TenantProfile {
    system: System,
    catalog: Vec<[MonitorSpec; WCET_VARIANTS]>,
    /// Slots filled at setup; the rest are runtime-arrival headroom.
    init_len: usize,
}

/// The quantized re-profiling variant of a base spec: 1.5× the base
/// sweep costs, clamped into the spec invariants, same `T^max` (a WCET
/// update cannot change the deadline bound).
fn reprofiled(base: MonitorSpec) -> MonitorSpec {
    let t_max = base.t_max();
    let cap = (t_max.as_ticks() / 2).max(1);
    let passive = (base.passive_wcet().as_ticks() * 3 / 2).clamp(1, cap);
    let active = (base.active_wcet().as_ticks() * 3 / 2).clamp(passive, cap);
    MonitorSpec::modal(
        Duration::from_ticks(passive),
        Duration::from_ticks(active),
        t_max,
    )
    .expect("clamped into the base spec's invariants")
}

/// Synthesizes one profile (2 cores, cycling through light/moderate/
/// heavy utilization groups), re-drawing until the RT side is
/// partitionable — the sweep's regeneration rule. The generator is
/// Table 3 with deliberately smaller task counts (the config's fields
/// are public for exactly this kind of deviation): a *service* tenant
/// is one embedded system, not a design-space stress sample.
fn synthesize_profile(index: usize, rng: &mut StdRng) -> TenantProfile {
    let table3 = Table3Config {
        rt_count: (4, 10),
        sec_count: (2, 4),
        ..Table3Config::for_cores(2)
    };
    // Spread the fleet over light, moderate and heavy profiles (U/M up
    // to ~0.7): the heavy third is where simultaneous escalations
    // genuinely reject, so the stream exercises both verdicts.
    let group = UtilizationGroup::new(2 + 2 * (index % 3));
    loop {
        let w = generate_workload(&table3, group, rng);
        let Ok(system) = assemble_system(
            w.platform,
            w.rt_tasks,
            w.security_tasks,
            FitHeuristic::BestFit,
        ) else {
            continue;
        };
        // Slot 0 is a deliberately tiny anchor monitor, so every
        // tenant's table is non-empty (a 10-tick sweep always fits) and
        // slot events always have a target.
        let anchor = MonitorSpec::modal(
            Duration::from_ticks(10),
            Duration::from_ticks(20),
            Duration::from_ms(3000),
        )
        .expect("valid by construction");
        let mut catalog = vec![[anchor, reprofiled(anchor)]];
        for task in system.security_tasks().iter().take(MAX_MONITORS - 1) {
            // Passive = half the drawn WCET; active = up to 2× (the
            // deep sweep), capped so the spec stays valid — heavy
            // enough that simultaneous escalations can genuinely
            // reject at the upper utilization groups.
            let drawn = task.wcet().as_ticks();
            let passive = (drawn / 2).max(1);
            let active = (drawn * 2).clamp(passive, task.t_max().as_ticks() / 2);
            let base = MonitorSpec::modal(
                Duration::from_ticks(passive),
                Duration::from_ticks(active.max(passive)),
                task.t_max(),
            )
            .expect("0 < C/2 <= active <= T^max by construction");
            catalog.push([base, reprofiled(base)]);
        }
        // Pad to the table cap so runtime arrivals always have a next
        // catalog entry to append.
        while catalog.len() < MAX_MONITORS {
            catalog.push({
                let base = random_arrival_spec(rng);
                [base, reprofiled(base)]
            });
        }
        // Leave at least one slot of arrival headroom at setup.
        let init_len = catalog.len().min(MAX_MONITORS - 1);
        return TenantProfile {
            system,
            catalog,
            init_len,
        };
    }
}

/// The registration request for a synthesized tenant.
fn register_request(id: u64, system: &System) -> Request {
    let rt = system
        .rt_tasks()
        .iter()
        .enumerate()
        .map(|(i, task)| RtSpec {
            wcet: task.wcet(),
            period: task.period(),
            core: system.partition().core_of(i).index(),
        })
        .collect();
    Request::Register {
        tenant: id,
        cores: system.num_cores(),
        rt,
    }
}

/// Forces the slot's reactive machine through sweeps until it emits a
/// transition: findings escalate a passive monitor immediately; clean
/// sweeps calm an active one within its `calm_after` streak.
fn next_mode_event(slot: usize, machine: &mut ModalMonitor) -> DeltaEvent {
    loop {
        let outcome = match machine.mode() {
            rts_model::MonitorMode::Passive => SweepOutcome::Findings(1),
            rts_model::MonitorMode::Active => SweepOutcome::Clean,
        };
        if let Some(event) = machine.observe_delta(slot, outcome) {
            return event;
        }
    }
}

/// A padding monitor for the catalog's arrival-headroom slots: small-ish
/// passive sweep, an active sweep up to 12× heavier, `T^max` in the
/// Table 3 band. Drawn once per profile at synthesis time — runtime
/// arrivals replay the catalog entry, never a fresh draw.
fn random_arrival_spec(rng: &mut StdRng) -> MonitorSpec {
    let t_max = Duration::from_ms(rng.gen_range(1500..=3000u64));
    let passive_ticks = rng.gen_range(10..=t_max.as_ticks() / 40);
    let active_ticks =
        rng.gen_range(passive_ticks..=(passive_ticks * 12).min(t_max.as_ticks() / 2));
    MonitorSpec::modal(
        Duration::from_ticks(passive_ticks),
        Duration::from_ticks(active_ticks),
        t_max,
    )
    .expect("drawn within the invariants")
}

/// The seeded request generator behind both the in-process load and the
/// recorded (reactor/TCP) workload: fleet state, batch-windowed draws,
/// verdict reconciliation. Both consumers must consume the RNG
/// identically, so the draw and reconcile steps live here exactly once —
/// this is what keeps the recorded stream's verdict populations
/// byte-identical to the in-process benchmark's for the same seed.
struct StreamGenerator {
    rng: StdRng,
    profiles: Vec<TenantProfile>,
    tenants: Vec<TenantSim>,
}

impl StreamGenerator {
    /// Runs the untimed fleet setup through `handle` (registrations plus
    /// initial arrivals), recording every issued request in `setup`.
    fn setup(
        config: &ServiceConfig,
        mut handle: impl FnMut(Request) -> Response,
        setup: &mut Vec<Request>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let profile_count = PROFILES.min(config.tenants).max(1);
        let profiles: Vec<TenantProfile> = (0..profile_count)
            .map(|p| synthesize_profile(p, &mut rng))
            .collect();
        let mut tenants: Vec<TenantSim> = Vec::with_capacity(config.tenants);
        let mut issue = |req: Request, handle: &mut dyn FnMut(Request) -> Response| {
            setup.push(req.clone());
            handle(req)
        };
        for index in 0..config.tenants {
            let id = 1 + index as u64;
            let profile = index % profiles.len();
            let answer = issue(register_request(id, &profiles[profile].system), &mut handle);
            assert!(
                answer.is_admitted(),
                "tenant {id} registration failed: {answer:?} (assemble_system guarantees Eq. 1)"
            );
            let mut sim = TenantSim {
                id,
                profile,
                monitors: Vec::new(),
                locked: false,
            };
            for slot in 0..profiles[profile].init_len {
                let spec = profiles[profile].catalog[slot][0];
                let answer = issue(
                    Request::Delta {
                        tenant: id,
                        event: DeltaEvent::Arrival { monitor: spec },
                    },
                    &mut handle,
                );
                if !answer.is_admitted() {
                    // Rejections are deterministic per profile, so every
                    // sibling stops at the same prefix length — tables
                    // stay catalog prefixes and stay identical across
                    // the profile.
                    break;
                }
                sim.monitors.push(MonitorSlot {
                    spec,
                    machine: ModalMonitor::from_spec(spec, 1 + (slot as u32 % 2)),
                });
            }
            assert!(
                !sim.monitors.is_empty(),
                "the anchor monitor (catalog slot 0) must always fit"
            );
            tenants.push(sim);
        }
        StreamGenerator {
            rng,
            profiles,
            tenants,
        }
    }

    /// Draws one batch of `round` requests. A tenant with a structural
    /// event in flight is locked until the verdict reconciles, so slot
    /// indices can never race ahead of the engine's table.
    fn draw_round(&mut self, round: usize) -> (Vec<(u64, Request)>, HashMap<u64, Pending>) {
        let mut batch: Vec<(u64, Request)> = Vec::with_capacity(round);
        let mut pending: HashMap<u64, Pending> = HashMap::with_capacity(round);
        let mut seq = 0u64;
        let mut locked_count = 0usize;
        while batch.len() < round {
            let tenant_index = self.rng.gen_range(0..self.tenants.len());
            if self.tenants[tenant_index].locked {
                continue; // structural event in flight; pick another tenant
            }
            // Locking the last unlocked tenant would livelock the batch
            // builder, so structural events require a spare tenant; the
            // fallback is always a mode switch (tables never go empty —
            // MIN_MONITORS is maintained below).
            let can_lock = locked_count + 1 < self.tenants.len();
            let sim = &mut self.tenants[tenant_index];
            let catalog = &self.profiles[sim.profile].catalog;
            debug_assert!(!sim.monitors.is_empty());
            let roll = self.rng.gen_range(0..100u32);
            let (event, action) = if (94..96).contains(&roll) {
                // WCET re-profiling: flip the slot onto one of its
                // quantized catalog variants (possibly the one it
                // already carries — a memo hit by construction).
                let slot = self.rng.gen_range(0..sim.monitors.len());
                let variant = self.rng.gen_range(0..WCET_VARIANTS);
                let spec = catalog[slot][variant];
                (
                    DeltaEvent::WcetUpdate {
                        slot,
                        passive_wcet: spec.passive_wcet(),
                        active_wcet: spec.active_wcet(),
                    },
                    Pending::WcetUpdate {
                        tenant: tenant_index,
                        slot,
                        spec,
                    },
                )
            } else if (96..98).contains(&roll) && sim.monitors.len() < catalog.len() && can_lock {
                // Arrival: tables are always catalog prefixes, so the
                // next slot's base spec is the only thing that arrives.
                let spec = catalog[sim.monitors.len()][0];
                sim.locked = true;
                locked_count += 1;
                (
                    DeltaEvent::Arrival { monitor: spec },
                    Pending::Arrival {
                        tenant: tenant_index,
                        spec,
                    },
                )
            } else if roll >= 98 && sim.monitors.len() > MIN_MONITORS && can_lock {
                // Departure: always the last slot, preserving the prefix
                // shape siblings share.
                let slot = sim.monitors.len() - 1;
                sim.locked = true;
                locked_count += 1;
                (
                    DeltaEvent::Departure { slot },
                    Pending::Departure {
                        tenant: tenant_index,
                        slot,
                    },
                )
            } else {
                // Mode switch from the reactive machine — the dominant
                // case (~94 %) and the fallback for everything else.
                let slot = self.rng.gen_range(0..sim.monitors.len());
                let event = next_mode_event(slot, &mut sim.monitors[slot].machine);
                (event, Pending::Other)
            };
            pending.insert(seq, action);
            batch.push((
                seq,
                Request::Delta {
                    tenant: sim.id,
                    event,
                },
            ));
            seq += 1;
        }
        (batch, pending)
    }

    /// Reconciles one verdict with the generator's tables. RNG-free and
    /// per-tenant independent, so reconciliation order across tenants
    /// does not affect the drawn stream.
    fn reconcile(&mut self, action: Pending, verdict_accepted: bool) {
        match action {
            Pending::Arrival { tenant, spec } => {
                let sim = &mut self.tenants[tenant];
                if verdict_accepted {
                    let slot = sim.monitors.len();
                    sim.monitors.push(MonitorSlot {
                        spec,
                        machine: ModalMonitor::from_spec(spec, 1 + (slot as u32 % 2)),
                    });
                }
                sim.locked = false;
            }
            Pending::Departure { tenant, slot } => {
                let sim = &mut self.tenants[tenant];
                assert!(verdict_accepted, "a valid departure is always admitted");
                sim.monitors.remove(slot);
                sim.locked = false;
            }
            Pending::WcetUpdate { tenant, slot, spec } => {
                if verdict_accepted {
                    self.tenants[tenant].monitors[slot].spec = spec;
                }
            }
            Pending::Other => {}
        }
    }
}

/// A pre-recorded service workload: the setup requests (registrations
/// plus initial arrivals, untimed), the adaptation stream in submission
/// order, and the exact verdict populations the stream produces.
/// Because tenants are fully independent and each tenant's events are in
/// stream order, replaying this stream — through any engine, any shard
/// count, any connection fan-out that preserves per-tenant order —
/// reproduces the populations bit-identically. This is what lets the
/// reactor benchmark drive real TCP connections while still asserting
/// the exact populations of the in-process baseline.
#[derive(Clone, Debug)]
pub struct RecordedWorkload {
    /// The configuration that was recorded.
    pub config: ServiceConfig,
    /// Fleet setup requests, in issue order.
    pub setup: Vec<Request>,
    /// The adaptation stream, in submission order.
    pub stream: Vec<Request>,
    /// Stream requests answered `accept` on the recording run.
    pub accepted: u64,
    /// Stream requests answered `reject` on the recording run.
    pub rejected: u64,
    /// Seconds the recording engine spent inside `handle` for the
    /// stream — the single-threaded solver floor of this workload.
    pub solve_secs: f64,
}

/// Records the seeded workload by driving the generator against one
/// inline [`AdaptEngine`]. The RNG consumption is identical to
/// [`run_service_load`]'s (same batch-windowed draws, same
/// reconciliation effects), so the recorded stream and its populations
/// match the in-process benchmark exactly for the same config.
///
/// # Panics
///
/// Panics if a registration fails or the stream produces a usage error —
/// both would invalidate the benchmark populations.
#[must_use]
pub fn record_workload(config: &ServiceConfig) -> RecordedWorkload {
    let mut engine = AdaptEngine::new(CarryInStrategy::TopDiff);
    let mut setup = Vec::new();
    let mut generator = StreamGenerator::setup(config, |req| engine.handle(&req), &mut setup);
    let mut stream: Vec<Request> = Vec::with_capacity(config.requests);
    let (mut accepted, mut rejected) = (0u64, 0u64);
    let mut solve = std::time::Duration::ZERO;
    let mut remaining = config.requests;
    while remaining > 0 {
        let round = remaining.min(config.batch.max(1));
        let (batch, mut pending) = generator.draw_round(round);
        for (seq, request) in batch {
            let solved_at = Instant::now();
            let response = engine.handle(&request);
            solve += solved_at.elapsed();
            let verdict_accepted = match &response {
                Response::Admitted(_) => {
                    accepted += 1;
                    true
                }
                Response::Rejected { .. } => {
                    rejected += 1;
                    false
                }
                other => panic!("recording run hit a non-verdict answer: {other:?}"),
            };
            let action = pending.remove(&seq).expect("every request was drawn");
            generator.reconcile(action, verdict_accepted);
            stream.push(request);
        }
        remaining -= round;
    }
    RecordedWorkload {
        config: *config,
        setup,
        stream,
        accepted,
        rejected,
        solve_secs: solve.as_secs_f64(),
    }
}

/// Runs the load: registers the fleet, streams `config.requests`
/// adaptation requests in batches, measures per-request latency.
///
/// # Panics
///
/// Panics if the engine ever loses a request (every submitted request
/// must be answered exactly once) or a registration fails — both would
/// invalidate the benchmark populations.
#[must_use]
pub fn run_service_load(config: &ServiceConfig) -> ServiceReport {
    run_service_load_with(config, true)
}

/// [`run_service_load`] with the pool's telemetry registry switched on
/// or off — the two sides of the overhead budget (`service_bench
/// --overhead-budget`). The request stream, the RNG consumption, and
/// therefore the verdict populations are bit-identical either way;
/// only the clock reads and histogram updates differ.
///
/// # Panics
///
/// As [`run_service_load`].
#[must_use]
pub fn run_service_load_with(config: &ServiceConfig, telemetry_on: bool) -> ServiceReport {
    let telemetry = if telemetry_on {
        Telemetry::new()
    } else {
        Telemetry::off()
    };
    let mut pool = ShardedEngine::with_telemetry(
        CarryInStrategy::TopDiff,
        config.shards,
        None,
        None,
        telemetry,
    );

    // ---- Fleet setup (untimed): register + initial arrivals. ----
    let mut setup = Vec::new();
    let mut generator = StreamGenerator::setup(
        config,
        |req| {
            pool.process(vec![req])
                .pop()
                .expect("one answer per request")
        },
        &mut setup,
    );

    // ---- The timed stream. ----
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(config.requests);
    let (mut accepted, mut rejected, mut errors) = (0u64, 0u64, 0u64);
    let mut remaining = config.requests;
    let started = Instant::now();
    while remaining > 0 {
        let round = remaining.min(config.batch.max(1));
        let (batch, mut pending) = generator.draw_round(round);
        let submitted_at = Instant::now();
        pool.submit_batch(batch);
        while let Some((answer_seq, response)) = pool.recv() {
            latencies_ns.push(submitted_at.elapsed().as_nanos() as u64);
            let verdict_accepted = match &response {
                Response::Admitted(_) => {
                    accepted += 1;
                    true
                }
                Response::Rejected { .. } => {
                    rejected += 1;
                    false
                }
                Response::Error { .. } => {
                    errors += 1;
                    false
                }
                Response::Exported { .. }
                | Response::Evicted { .. }
                | Response::Replicated { .. } => {
                    unreachable!("the load harness issues no export/evict/replicate requests")
                }
            };
            // Reconcile the generator's table with the engine's verdict.
            let action = pending
                .remove(&answer_seq)
                .expect("every response matches a submitted request");
            generator.reconcile(action, verdict_accepted);
        }
        remaining -= round;
    }
    let wall_secs = started.elapsed().as_secs_f64();

    let stages = pool.telemetry().stage_summaries();
    let shards = pool.shutdown();
    let mut latencies_us: Vec<f64> = latencies_ns
        .into_iter()
        .map(|ns| ns as f64 / 1000.0)
        .collect();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    ServiceReport {
        config: *config,
        wall_secs,
        latencies_us,
        accepted,
        rejected,
        errors,
        shards,
        stages,
    }
}

/// Outcome of one reactor (TCP) replay at a fixed connection count.
#[derive(Clone, Debug)]
pub struct ReactorLoadReport {
    /// Connections opened against the reactor (idle ones included when
    /// there are more connections than tenants).
    pub conns: usize,
    /// `SO_REUSEPORT` reactor threads that served the replay.
    pub reactors: usize,
    /// Pipelining window per connection during the timed stream.
    pub window: usize,
    /// Wall time of the timed stream (setup excluded).
    pub wall_secs: f64,
    /// Client-side send→receive latencies in microseconds, sorted.
    pub latencies_us: Vec<f64>,
    /// Stream requests answered `accept`.
    pub accepted: u64,
    /// Stream requests answered `reject`.
    pub rejected: u64,
    /// Stream requests answered anything else (must be zero).
    pub errors: u64,
    /// Server-side per-stage latency summaries, fetched over the wire
    /// with `{"op":"metrics"}` after the timed stream (all eight
    /// lifecycle stages; zero counts when the reactor ran with
    /// telemetry off). This is the breakdown that localizes the fan-in
    /// ceiling to a stage instead of a guess.
    pub stages: Vec<StageSummary>,
}

impl ReactorLoadReport {
    /// Responses received during the timed stream.
    #[must_use]
    pub fn responses(&self) -> u64 {
        self.accepted + self.rejected + self.errors
    }

    /// Requests per second over the timed stream.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_secs == 0.0 {
            0.0
        } else {
            self.latencies_us.len() as f64 / self.wall_secs
        }
    }

    /// Latency percentile (`q` in `(0, 1]`), in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if no latencies were recorded or `q` is out of range.
    #[must_use]
    pub fn percentile_us(&self, q: f64) -> f64 {
        percentile(&self.latencies_us, q)
    }
}

/// The tenant a request addresses (every protocol request names one).
fn tenant_of(request: &Request) -> u64 {
    match request {
        Request::Register { tenant, .. }
        | Request::Delta { tenant, .. }
        | Request::Query { tenant }
        | Request::Export { tenant }
        | Request::Import { tenant, .. }
        | Request::Evict { tenant }
        | Request::Replicate { tenant, .. }
        | Request::Adopt { tenant } => *tenant,
    }
}

/// Queries a live serving front for its metrics report over one fresh
/// connection and returns the parsed JSON line (panics on a malformed
/// answer — the metrics verb is part of the protocol surface under
/// test).
fn fetch_metrics(addr: SocketAddr) -> Json {
    let mut sock = TcpStream::connect(addr).expect("connect for the metrics query");
    sock.write_all(b"{\"op\":\"metrics\"}\n")
        .expect("metrics request write");
    let mut reader = BufReader::new(sock);
    let mut line = String::new();
    reader.read_line(&mut line).expect("metrics response read");
    let value = json::parse(line.trim()).expect("metrics response is valid JSON");
    assert_eq!(
        value.get("verdict").and_then(Json::as_str),
        Some("metrics"),
        "unexpected metrics answer: {line}"
    );
    value
}

/// Asserts the metrics line carries every cataloged series block — the
/// structural half of the CI `metrics-smoke` contract (value-level
/// assertions live in `service_bench`). Every unified counter family
/// must be present: connection gauges, shard snapshots, stage
/// histograms, solver and walk phase counters, shared-store and journal
/// counters, and the slow-request ring.
fn verify_metrics_catalog(metrics: &Json) {
    for key in [
        "conns",
        "reactors",
        "shards",
        "stages",
        "solver",
        "walks",
        "shared_store",
        "journal",
        "slow",
    ] {
        assert!(
            metrics.get(key).is_some(),
            "metrics answer is missing the {key:?} block"
        );
    }
    for (block, fields) in [
        ("conns", &["live", "refused", "max"][..]),
        (
            "solver",
            &[
                "selections",
                "probes",
                "cascades",
                "cascade_tasks",
                "mean_cascade_tasks",
            ][..],
        ),
        (
            "walks",
            &["walks", "evals", "quick_confirms", "mean_evals"][..],
        ),
        (
            "shared_store",
            &["hits", "misses", "entries", "flushes"][..],
        ),
        (
            "journal",
            &["appends", "snapshots", "fsyncs", "commits", "torn_tails"][..],
        ),
    ] {
        let value = metrics.get(block).expect("presence checked above");
        for field in fields {
            assert!(
                value.get(field).is_some(),
                "metrics {block:?} block is missing {field:?}"
            );
        }
    }
    // The reactors block is an array with one entry per serving reactor,
    // each carrying the full per-reactor gauge/counter catalog.
    let reactors = metrics
        .get("reactors")
        .and_then(Json::as_array)
        .expect("metrics reactors block is an array");
    assert!(!reactors.is_empty(), "metrics reactors array is empty");
    for entry in reactors {
        for field in [
            "reactor",
            "live",
            "refused",
            "max",
            "flush_passes",
            "iovecs_written",
        ] {
            assert!(
                entry.get(field).is_some(),
                "metrics reactors entry is missing {field:?}"
            );
        }
    }
}

/// Extracts the per-stage summaries from a parsed metrics line, in the
/// report's stage order.
fn parse_stage_summaries(metrics: &Json) -> Vec<StageSummary> {
    let stages = metrics.get("stages").expect("metrics carries stages");
    rts_adapt::telemetry::Stage::ALL
        .iter()
        .map(|stage| {
            let entry = stages
                .get(stage.name())
                .unwrap_or_else(|| panic!("metrics stages missing {:?}", stage.name()));
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| panic!("stage {:?} missing {key}", stage.name()))
            };
            StageSummary {
                stage: stage.name().to_string(),
                count: entry
                    .get("count")
                    .and_then(Json::as_u64)
                    .expect("stage count"),
                p50_us: field("p50_us"),
                p90_us: field("p90_us"),
                p99_us: field("p99_us"),
                max_us: field("max_us"),
                mean_us: field("mean_us"),
            }
        })
        .collect()
}

#[derive(Default)]
struct ClientTotals {
    latencies_us: Vec<f64>,
    accepted: u64,
    rejected: u64,
    errors: u64,
}

/// Windowed pipelining over one connection: at most `window` requests
/// outstanding, so neither side's backlog can deadlock the replay. In
/// the timed phase every response's send→receive latency is recorded;
/// in the untimed setup phase error verdicts are fatal (the recorded
/// setup never errors).
fn pump(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    lines: &[String],
    window: usize,
    timed: bool,
    totals: &mut ClientTotals,
) {
    let mut sent = 0usize;
    let mut received = 0usize;
    let mut stamps: VecDeque<Instant> = VecDeque::with_capacity(window);
    let mut line = String::new();
    while received < lines.len() {
        while sent < lines.len() && sent - received < window {
            writer
                .write_all(lines[sent].as_bytes())
                .expect("request write");
            writer.write_all(b"\n").expect("request write");
            if timed {
                stamps.push_back(Instant::now());
            }
            sent += 1;
        }
        line.clear();
        let n = reader.read_line(&mut line).expect("response read");
        assert!(n > 0, "reactor closed the connection mid-replay");
        if timed {
            let stamp = stamps.pop_front().expect("a stamp per response");
            totals
                .latencies_us
                .push(stamp.elapsed().as_nanos() as f64 / 1000.0);
            if line.contains("\"verdict\":\"accept\"") {
                totals.accepted += 1;
            } else if line.contains("\"verdict\":\"reject\"") {
                totals.rejected += 1;
            } else {
                totals.errors += 1;
            }
        } else {
            assert!(
                !line.contains("\"verdict\":\"error\""),
                "setup request errored over TCP: {line}"
            );
        }
        received += 1;
    }
}

/// One client connection of the reactor replay: untimed setup, a
/// barrier, the timed stream, a barrier (idle connections — empty
/// scripts — just hold their slot open across the timed phase).
fn drive_connection(
    addr: SocketAddr,
    setup: Vec<String>,
    stream: Vec<String>,
    window: usize,
    start: &Barrier,
    finish: &Barrier,
) -> ClientTotals {
    let sock = TcpStream::connect(addr).expect("connect to the reactor");
    sock.set_nodelay(true).expect("set TCP_NODELAY");
    let mut reader = BufReader::new(sock.try_clone().expect("clone the stream"));
    let mut writer = sock;
    let mut totals = ClientTotals::default();
    pump(
        &mut writer,
        &mut reader,
        &setup,
        window.max(16),
        false,
        &mut totals,
    );
    start.wait();
    pump(&mut writer, &mut reader, &stream, window, true, &mut totals);
    finish.wait();
    totals
}

/// Replays a recorded workload against a live [`serve_reactors`] front over
/// real TCP with `conns` connections. Tenants are assigned to
/// connections with per-tenant affinity (a tenant's requests all ride
/// one connection, in stream order), which is the only ordering the
/// verdict populations need — so `accepted`/`rejected` must equal the
/// recorded run's exactly, at every connection count. When `conns`
/// exceeds the tenant count, the surplus connections are opened and
/// held idle across the timed phase: the connection axis then also
/// measures the reactor's slot-table overhead, not just parallelism.
///
/// The per-connection pipelining window is scaled so roughly 64
/// requests are outstanding across the whole replay regardless of the
/// connection count, keeping the shard queues saturated without
/// letting queueing dominate the client-side latencies.
///
/// # Panics
///
/// Panics on connection failures, on a reactor error, or if the replay
/// loses a request.
#[must_use]
pub fn run_reactor_load(workload: &RecordedWorkload, conns: usize) -> ReactorLoadReport {
    run_reactor_load_at(workload, conns, 1, true)
}

/// [`run_reactor_load`] with the reactor's telemetry switched on or
/// off. The populations are identical either way; with telemetry off
/// the post-run metrics query still answers, with every stage at zero
/// count.
///
/// # Panics
///
/// As [`run_reactor_load`].
#[must_use]
pub fn run_reactor_load_with(
    workload: &RecordedWorkload,
    conns: usize,
    telemetry: bool,
) -> ReactorLoadReport {
    run_reactor_load_at(workload, conns, 1, telemetry)
}

/// The full replay: `reactors` `SO_REUSEPORT` reactor threads over one
/// shared shard pool (`reactors == 1` is the classic single-reactor
/// serve). The kernel spreads the client connections across the
/// listeners, so which reactor serves a given tenant varies run to run —
/// but per-tenant order still holds (affinity keeps a tenant on one
/// connection, and a connection lives on one reactor), so the verdict
/// populations must equal the recorded run's at every point of the
/// (conns × reactors) grid.
///
/// # Panics
///
/// As [`run_reactor_load`].
#[must_use]
pub fn run_reactor_load_at(
    workload: &RecordedWorkload,
    conns: usize,
    reactors: usize,
    telemetry: bool,
) -> ReactorLoadReport {
    assert!(conns >= 1, "at least one connection");
    assert!(reactors >= 1, "at least one reactor");
    let active = conns.min(workload.config.tenants.max(1));
    let window = (64 / active).max(1);
    let listeners =
        bind_reuseport_listeners("127.0.0.1:0".parse().expect("loopback address"), reactors)
            .expect("bind the reactor listeners");
    let addr = listeners[0].local_addr().expect("listener address");
    let shutdown = Shutdown::new();
    let server = {
        let shutdown = Arc::clone(&shutdown);
        let mut options = ReactorOptions::new(CarryInStrategy::TopDiff, workload.config.shards);
        // The global budget is split evenly across reactors but the
        // kernel's SO_REUSEPORT hash is not: give every reactor's share
        // room for the whole client fleet so an uneven spread can never
        // refuse a replay connection (the +8 keeps the post-run metrics
        // query connectable).
        options.max_conns = (conns + 8) * reactors;
        options.telemetry = telemetry;
        std::thread::spawn(move || serve_reactors(listeners, &options, &shutdown))
    };

    // Tenant ids start at 1; affinity keeps a tenant's setup and stream
    // on one connection, in order.
    let conn_of = |tenant: u64| ((tenant - 1) as usize) % active;
    let mut setup: Vec<Vec<String>> = vec![Vec::new(); conns];
    for request in &workload.setup {
        setup[conn_of(tenant_of(request))].push(render_request(request));
    }
    let mut stream: Vec<Vec<String>> = vec![Vec::new(); conns];
    for request in &workload.stream {
        stream[conn_of(tenant_of(request))].push(render_request(request));
    }

    let start = Arc::new(Barrier::new(conns + 1));
    let finish = Arc::new(Barrier::new(conns + 1));
    let clients: Vec<_> = setup
        .into_iter()
        .zip(stream)
        .map(|(setup, stream)| {
            let start = Arc::clone(&start);
            let finish = Arc::clone(&finish);
            std::thread::spawn(move || {
                drive_connection(addr, setup, stream, window, &start, &finish)
            })
        })
        .collect();

    start.wait();
    let started = Instant::now();
    finish.wait();
    let wall_secs = started.elapsed().as_secs_f64();

    let mut totals = ClientTotals::default();
    for client in clients {
        let t = client.join().expect("client thread");
        totals.latencies_us.extend(t.latencies_us);
        totals.accepted += t.accepted;
        totals.rejected += t.rejected;
        totals.errors += t.errors;
    }
    // The timed stream is over (the finish barrier passed); fetch the
    // server-side stage breakdown before asking the reactor to drain.
    // `max_conns = conns + 8` left headroom for exactly this query.
    let metrics = fetch_metrics(addr);
    verify_metrics_catalog(&metrics);
    let stages = parse_stage_summaries(&metrics);
    shutdown.request();
    server
        .join()
        .expect("reactor thread")
        .expect("reactor run failed");
    totals
        .latencies_us
        .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    ReactorLoadReport {
        conns,
        reactors,
        window,
        wall_secs,
        latencies_us: totals.latencies_us,
        accepted: totals.accepted,
        rejected: totals.rejected,
        errors: totals.errors,
        stages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServiceConfig {
        ServiceConfig {
            tenants: 4,
            requests: 300,
            shards: 2,
            batch: 64,
            seed: 0xADA0,
        }
    }

    #[test]
    fn every_request_is_answered_and_none_error() {
        let report = run_service_load(&tiny());
        assert_eq!(report.responses(), 300);
        assert_eq!(report.latencies_us.len(), 300);
        assert_eq!(report.errors, 0, "the generator never sends bad slots");
        assert!(report.accepted > 0);
        assert!(report.throughput_rps() > 0.0);
        // Percentiles are ordered and drawn from the sorted population.
        let p50 = report.percentile_us(0.50);
        let p95 = report.percentile_us(0.95);
        let p99 = report.percentile_us(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(report.percentile_us(1.0) >= p99);
        // Mode churn dominates, so the memo must be doing real work.
        assert!(report.memo_hits() > 0);
    }

    #[test]
    fn verdict_populations_are_shard_invariant() {
        let base = run_service_load(&tiny());
        for shards in [1, 3] {
            let run = run_service_load(&ServiceConfig { shards, ..tiny() });
            assert_eq!(run.accepted, base.accepted, "shards={shards}");
            assert_eq!(run.rejected, base.rejected, "shards={shards}");
            assert_eq!(run.errors, 0);
        }
    }

    /// Profile siblings pose bit-identical admission problems, so the
    /// pool's shared selection store must serve real cross-tenant hits
    /// and the combined hit rate must dominate the miss count.
    #[test]
    fn profile_siblings_share_solver_work() {
        // 16 tenants over 8 profiles: every profile has a sibling pair.
        let config = ServiceConfig {
            tenants: 16,
            requests: 600,
            shards: 2,
            batch: 64,
            seed: 0xADA0,
        };
        let report = run_service_load(&config);
        assert_eq!(report.errors, 0);
        assert!(
            report.memo_shared_hits() > 0,
            "siblings must reuse each other's solves (shared_hits = 0)"
        );
        assert!(
            report.memo_hit_rate() > 0.5,
            "combined hit rate collapsed: {:.3}",
            report.memo_hit_rate()
        );
    }

    /// The TCP replay reproduces the recorded populations exactly at
    /// every point of the (connections × reactors) grid — including
    /// more connections than tenants (the surplus held idle) and more
    /// reactors than connections (the surplus listeners never accept).
    #[test]
    fn reactor_replay_reproduces_recorded_populations_at_any_fan_out() {
        let recorded = record_workload(&tiny());
        assert_eq!(recorded.stream.len(), 300);
        for (conns, reactors) in [(1, 1), (3, 1), (7, 1), (1, 2), (3, 2), (7, 4)] {
            let replay = run_reactor_load_at(&recorded, conns, reactors, true);
            let at = format!("conns={conns} reactors={reactors}");
            assert_eq!(replay.responses(), 300, "{at}");
            assert_eq!(replay.errors, 0, "{at}");
            assert_eq!(replay.accepted, recorded.accepted, "{at}");
            assert_eq!(replay.rejected, recorded.rejected, "{at}");
            assert!(replay.percentile_us(0.5) > 0.0);
        }
    }

    /// The determinism pin for the telemetry spine: histograms are
    /// observers, never participants. The same workload produces
    /// bit-identical verdict populations with telemetry on and off —
    /// in-process and over TCP — while the stage counts flip between
    /// "every request sampled" and "nothing recorded at all".
    #[test]
    fn telemetry_never_changes_the_populations() {
        let on = run_service_load_with(&tiny(), true);
        let off = run_service_load_with(&tiny(), false);
        assert_eq!(
            (on.accepted, on.rejected, on.errors),
            (off.accepted, off.rejected, off.errors),
            "telemetry changed the verdicts"
        );
        let count = |report: &ServiceReport, name: &str| {
            report
                .stages
                .iter()
                .find(|s| s.stage == name)
                .unwrap()
                .count
        };
        for name in ["queue", "solve"] {
            assert!(
                count(&on, name) > 0,
                "stage {name} unsampled with telemetry on"
            );
            assert_eq!(
                count(&off, name),
                0,
                "stage {name} sampled with telemetry off"
            );
        }

        // Over TCP with telemetry off: same populations, and the metrics
        // verb still answers with the full (all-zero) catalog.
        let recorded = record_workload(&tiny());
        let replay = run_reactor_load_with(&recorded, 3, false);
        assert_eq!(replay.errors, 0);
        assert_eq!(replay.accepted, recorded.accepted);
        assert_eq!(replay.rejected, recorded.rejected);
        assert!(replay.stages.iter().all(|s| s.count == 0));
    }
}
