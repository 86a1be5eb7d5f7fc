//! The layer ladder of the traced run: the same recorded stream fed in
//! at every layer, each call timed from here.
//!
//! Rungs, bottom up: `taskgen`/`partition` (sweep population draws),
//! `solver` (cold `select_periods`), `tenant` (`TenantState::apply`),
//! `engine` (`AdaptEngine::handle`), `shard` (`ShardedEngine`
//! submit/recv), `proto` (parse/render), `journal`
//! (`JournalDir::append_event`, snapshot, load) with `replication`
//! (`Replicator` append/flush to a standby daemon), and finally a small
//! durable fleet for `reactor` (the `metrics` verb) and `coord`
//! (`Coordinator::route` / `fail_over`).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hydra_core::period_selection::select_periods;
use hydra_core::{phase_stats, SharedSelectionStore};
use hydra_experiments::service::RecordedWorkload;
use rts_adapt::client::RetryPolicy;
use rts_adapt::engine::{AdaptEngine, Request, Response, RtSpec};
use rts_adapt::journal::{self, JournalDir, TenantHistory, TenantSnapshot};
use rts_adapt::json::Json;
use rts_adapt::proto::{parse_request, render_request, render_response};
use rts_adapt::replication::Replicator;
use rts_adapt::shard::ShardedEngine;
use rts_adapt::telemetry::Telemetry;
use rts_adapt::tenant::TenantState;
use rts_analysis::semi::CarryInStrategy;
use rts_model::{CoreId, Partition, Platform, RtTask, RtTaskSet, SecurityTaskSet, System};

use crate::fleet::{self, Daemon, Mode};
use crate::serve::{self, ServeScale, DURABLE_CHUNK};
use crate::stats::{self, mean, nearest_rank, ratio};
use crate::sweep;
use crate::trace::Tracer;
use crate::Outcome;

const STRATEGY: CarryInStrategy = CarryInStrategy::TopDiff;

/// Requests outstanding in the shard rung (the load client's two
/// windows of 32).
const SHARD_WINDOW: usize = 64;

/// Size of the ladder.
#[derive(Clone, Copy, Debug)]
pub struct LadderScale {
    /// The recorded stream every rung is fed.
    pub stream: ServeScale,
    /// Stream configurations re-solved cold by the solver rung.
    pub solver_samples: usize,
    /// Task sets per group and core count for the taskgen rung.
    pub sweep_per_group: usize,
}

/// The tenant's frozen RT system, built the way the engine builds it at
/// registration (rate-monotonic order, cores pinned).
fn rt_system(cores: usize, rt: &[RtSpec]) -> System {
    let mut specs = rt.to_vec();
    specs.sort_by(|a, b| a.period.cmp(&b.period).then_with(|| a.wcet.cmp(&b.wcet)));
    let platform = Platform::new(cores).expect("registered core count");
    let tasks = specs
        .iter()
        .map(|s| RtTask::new(s.wcet, s.period).expect("registered RT task"))
        .collect();
    let cores_of = specs.iter().map(|s| CoreId::new(s.core)).collect();
    let partition = Partition::new(platform, cores_of).expect("registered partition");
    System::new(
        platform,
        RtTaskSet::new(tasks),
        partition,
        SecurityTaskSet::default(),
    )
    .expect("registered system")
}

/// Percentile of an unsorted sample in the sample's unit.
fn pct(mut values: Vec<f64>, q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    stats::sort(&mut values);
    nearest_rank(&values, q)
}

fn verdicts(responses: &[Response]) -> (u64, u64) {
    let accepted = responses.iter().filter(|r| r.is_admitted()).count() as u64;
    let rejected = responses
        .iter()
        .filter(|r| matches!(r, Response::Rejected { .. }))
        .count() as u64;
    (accepted, rejected)
}

/// Runs every rung. The outcome's metrics are the per-layer metrics.
///
/// # Errors
///
/// A daemon could not be started.
pub fn run(
    bin: &Path,
    dir: &Path,
    seed: u64,
    scale: &LadderScale,
    tracer: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let fleets = serve::record(&scale.stream, seed);
    let recorded = &fleets[0];
    let expect = (recorded.accepted, recorded.rejected);
    let n = recorded.stream.len() as f64;
    out.attempted += recorded.stream.len() as u64;

    // taskgen / partition: the sweep population's draws.
    let rung = tracer.start("ladder.taskgen", None, 0);
    let (mut records, mut draws) = (0, 0);
    for cores in sweep::CORES {
        let (population, drawn) =
            sweep::prepare(cores, scale.sweep_per_group, seed + cores as u64, tracer);
        records += population.len() as u64;
        draws += drawn;
    }
    tracer.end(rung);
    out.metric(
        "taskgen.generate_us",
        mean(&tracer.durations_us("taskgen.generate")),
        "us",
    );
    out.metric(
        "partition.assemble_us",
        mean(&tracer.durations_us("partition.assemble")),
        "us",
    );
    out.metric(
        "taskgen.draws_per_record",
        ratio(draws as f64, records as f64),
        "ratio",
    );

    // tenant: TenantState::apply per stream event, siblings sharing one
    // cross-tenant store as the shard pool's tenants do.
    let store = SharedSelectionStore::new();
    let mut systems: BTreeMap<u64, System> = BTreeMap::new();
    let mut states: BTreeMap<u64, TenantState> = BTreeMap::new();
    for request in &recorded.setup {
        match request {
            Request::Register { tenant, cores, rt } => {
                let system = rt_system(*cores, rt);
                let mut state = TenantState::new(&system, STRATEGY).expect("registered tenant");
                state.attach_shared(Arc::clone(&store));
                states.insert(*tenant, state);
                systems.insert(*tenant, system);
            }
            Request::Delta { tenant, event } => {
                let _ = states.get_mut(tenant).expect("registered").apply(event);
            }
            _ => {}
        }
    }
    let memo_before = memo_totals(&states);
    let rung = tracer.start("ladder.tenant", None, 0);
    let (mut accepted, mut rejected) = (0, 0);
    let mut samples: Vec<(u64, SecurityTaskSet)> = Vec::new();
    for (i, request) in recorded.stream.iter().enumerate() {
        let Request::Delta { tenant, event } = request else {
            continue;
        };
        let state = states.get_mut(tenant).expect("registered");
        match tracer.time("tenant.apply", rung, i as u64, || state.apply(event)) {
            Ok(_) => accepted += 1,
            Err(_) => rejected += 1,
        }
        if samples.len() < scale.solver_samples {
            samples.push((*tenant, state.admission_task_set()));
        }
    }
    tracer.end(rung);
    out.check((accepted, rejected) == expect, || {
        format!("tenant rung verdicts {accepted}/{rejected}, recorded {expect:?}")
    });
    let memo_after = memo_totals(&states);
    let (own, shared, misses) = (
        memo_after.0 - memo_before.0,
        memo_after.1 - memo_before.1,
        memo_after.2 - memo_before.2,
    );
    let selections = own + shared + misses;
    out.metric("tenant.memo_hit_ratio", ratio(own, selections), "ratio");
    out.metric(
        "tenant.shared_hit_ratio",
        ratio(shared, selections),
        "ratio",
    );
    out.metric("tenant.selections", selections, "count");
    out.metric(
        "tenant.apply_us",
        mean(&tracer.durations_us("tenant.apply")),
        "us",
    );

    // solver: the stream's committed configurations, each re-solved cold.
    let solver0 = phase_stats::snapshot();
    let walks0 = rts_analysis::phase_stats::snapshot();
    let rung = tracer.start("ladder.solver", None, 0);
    for (i, (tenant, sec)) in samples.into_iter().enumerate() {
        let base = &systems[&tenant];
        let system = System::new(
            base.platform(),
            base.rt_tasks().clone(),
            base.partition().clone(),
            sec,
        )
        .expect("admitted configuration");
        let selected = tracer.time("solver.select", rung, i as u64, || {
            select_periods(&system, STRATEGY)
        });
        out.check(selected.is_ok(), || {
            format!("cold select rejected a committed configuration of tenant {tenant}")
        });
    }
    tracer.end(rung);
    let solver = phase_stats::snapshot();
    let walks = rts_analysis::phase_stats::snapshot();
    let select_us = tracer.durations_us("solver.select");
    out.metric("solver.select_us_p50", pct(select_us.clone(), 0.50), "us");
    out.metric("solver.select_us_p99", pct(select_us, 0.99), "us");
    out.metric(
        "solver.probes_per_selection",
        ratio(
            (solver.probes - solver0.probes) as f64,
            (solver.selections - solver0.selections) as f64,
        ),
        "ratio",
    );
    let walk_count = (walks.walks - walks0.walks) as f64;
    out.metric(
        "solver.evals_per_walk",
        ratio((walks.evals - walks0.evals) as f64, walk_count),
        "ratio",
    );
    out.metric(
        "solver.quick_confirm_ratio",
        ratio(
            (walks.quick_confirms - walks0.quick_confirms) as f64,
            walk_count,
        ),
        "ratio",
    );

    // engine: AdaptEngine::handle.
    let mut engine = AdaptEngine::new(STRATEGY);
    let setup_responses: Vec<Response> = recorded.setup.iter().map(|r| engine.handle(r)).collect();
    let rung = tracer.start("ladder.engine", None, 0);
    let responses: Vec<Response> = recorded
        .stream
        .iter()
        .enumerate()
        .map(|(i, r)| tracer.time("engine.handle", rung, i as u64, || engine.handle(r)))
        .collect();
    tracer.end(rung);
    out.check(verdicts(&responses) == expect, || {
        format!(
            "engine rung verdicts {:?}, recorded {expect:?}",
            verdicts(&responses)
        )
    });
    let handle_us = tracer.durations_us("engine.handle");
    out.metric("engine.handle_us_p50", pct(handle_us.clone(), 0.50), "us");
    out.metric("engine.handle_us_p99", pct(handle_us.clone(), 0.99), "us");

    shard_rung(recorded, expect, mean(&handle_us), &mut out, tracer);
    proto_rung(recorded, &responses, &mut out, tracer);
    journal_rung(
        bin,
        dir,
        recorded,
        &setup_responses,
        &responses,
        &states,
        &mut out,
        tracer,
    )?;

    // reactor / coord: a small durable fleet, the same stream.
    let (fleet_out, layers) = serve::run(
        Mode::Durable,
        bin,
        &dir.join("fleet"),
        &fleets,
        &scale.stream,
        tracer,
    )?;
    out.attempted += fleet_out.attempted;
    out.failed += fleet_out.failed;
    out.problems.extend(fleet_out.problems);
    reactor_metrics(layers.metrics.as_ref(), &mut out);
    out.metric(
        "coord.route_us",
        mean(&tracer.durations_us("coord.route")),
        "us",
    );
    out.metric(
        "coord.adopt_ms_per_tenant",
        ratio(layers.failover_s * 1e3, layers.adopted as f64),
        "ms",
    );
    out.metric("coord.failover_ms", layers.failover_s * 1e3, "ms");
    out.info.push(format!(
        "ladder stream={} solver_samples={}",
        n, scale.solver_samples
    ));
    Ok(out)
}

/// Summed (own hits, shared hits, misses) over every tenant.
fn memo_totals(states: &BTreeMap<u64, TenantState>) -> (f64, f64, f64) {
    states.values().fold((0.0, 0.0, 0.0), |t, s| {
        let m = s.memo_stats();
        (
            t.0 + m.hits as f64,
            t.1 + m.shared_hits as f64,
            t.2 + m.misses as f64,
        )
    })
}

/// ShardedEngine submit/recv, closed loop with [`SHARD_WINDOW`] requests
/// outstanding; each refill is one submitted batch.
fn shard_rung(
    recorded: &RecordedWorkload,
    expect: (u64, u64),
    handle_mean_us: f64,
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let mut pool = ShardedEngine::with_telemetry(STRATEGY, 2, None, None, Telemetry::off());
    let _ = pool.process(recorded.setup.clone());
    let rung = tracer.start("ladder.shard", None, 0);
    let stream = &recorded.stream;
    let mut submitted_at = vec![Instant::now(); stream.len()];
    let (mut sent, mut received) = (0usize, 0usize);
    let mut batches: Vec<f64> = Vec::new();
    let mut roundtrip_us = Vec::with_capacity(stream.len());
    let mut answers: Vec<Response> = Vec::with_capacity(stream.len());
    while received < stream.len() {
        let refill = (stream.len() - sent).min(SHARD_WINDOW - (sent - received));
        if refill > 0 {
            let now = Instant::now();
            let batch: Vec<(u64, Request)> = (sent..sent + refill)
                .map(|i| {
                    submitted_at[i] = now;
                    (i as u64, stream[i].clone())
                })
                .collect();
            pool.submit_batch(batch);
            batches.push(refill as f64);
            sent += refill;
        }
        let Some(first) = pool.recv() else { break };
        let mut ready = vec![first];
        while let Some(more) = pool.try_recv() {
            ready.push(more);
        }
        for (seq, response) in ready {
            let done = Instant::now();
            let start = submitted_at[seq as usize];
            roundtrip_us.push(done.duration_since(start).as_nanos() as f64 / 1e3);
            tracer.record("shard.roundtrip", rung, seq, start, done);
            answers.push(response);
            received += 1;
        }
    }
    tracer.end(rung);
    let _ = pool.shutdown();
    out.check(
        verdicts(&answers) == expect && answers.len() == stream.len(),
        || {
            format!(
                "shard rung verdicts {:?}, recorded {expect:?}",
                verdicts(&answers)
            )
        },
    );
    let mean_roundtrip = mean(&roundtrip_us);
    out.metric(
        "shard.roundtrip_us_p50",
        pct(roundtrip_us.clone(), 0.50),
        "us",
    );
    out.metric("shard.roundtrip_us_p99", pct(roundtrip_us, 0.99), "us");
    out.metric("shard.queue_wait_us", mean_roundtrip - handle_mean_us, "us");
    out.metric("shard.batch_mean", mean(&batches), "count");
}

/// The wire codec: parse every stream line, render every verdict.
fn proto_rung(
    recorded: &RecordedWorkload,
    responses: &[Response],
    out: &mut Outcome,
    tracer: &mut Tracer,
) {
    let lines: Vec<String> = recorded.stream.iter().map(render_request).collect();
    let n = lines.len() as f64;
    let rung = tracer.start("ladder.proto", None, 0);
    let started = Instant::now();
    let parsed: Vec<Result<Request, String>> = tracer.time("proto.parse", rung, 0, || {
        lines
            .iter()
            .map(|l| parse_request(std::hint::black_box(l)))
            .collect()
    });
    let parse_ns = started.elapsed().as_nanos() as f64 / n;
    let started = Instant::now();
    let rendered: Vec<String> = tracer.time("proto.render", rung, 0, || {
        responses
            .iter()
            .enumerate()
            .map(|(i, r)| render_response(i as u64, std::hint::black_box(r)))
            .collect()
    });
    let render_ns = started.elapsed().as_nanos() as f64 / n;
    tracer.end(rung);
    let round_trips = parsed
        .iter()
        .zip(&recorded.stream)
        .all(|(p, r)| p.as_ref().is_ok_and(|p| p == r));
    out.check(round_trips, || {
        "a rendered request did not parse back to itself".into()
    });
    let bytes: usize = lines.iter().chain(&rendered).map(|l| l.len() + 1).sum();
    out.metric("proto.parse_ns", parse_ns, "ns");
    out.metric("proto.render_ns", render_ns, "ns");
    out.metric("proto.bytes_per_req", bytes as f64 / n, "bytes");
}

/// JournalDir::append_event for every accepted delta, each mirrored by
/// `Replicator::append` to a standby daemon; then load and snapshot.
#[allow(clippy::too_many_arguments)]
fn journal_rung(
    bin: &Path,
    dir: &Path,
    recorded: &RecordedWorkload,
    setup_responses: &[Response],
    responses: &[Response],
    states: &BTreeMap<u64, TenantState>,
    out: &mut Outcome,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let jdir = dir.join("journal");
    let standby_dir = dir.join("standby");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut standby = Daemon::spawn(
        bin,
        &dir.join("standby.log"),
        &[
            "--shards".into(),
            "2".into(),
            "--journal".into(),
            standby_dir.display().to_string(),
        ],
    )?;
    let journal = JournalDir::at(&jdir);
    let repl = Replicator::spawn(
        "ladder",
        standby.addr,
        RetryPolicy::quick(),
        Some(JournalDir::at(&jdir)),
    );
    let mut registered: BTreeMap<u64, (usize, Vec<RtSpec>)> = BTreeMap::new();
    let mut io_ok = true;
    let append = |tenant: u64, event, parent, req, tracer: &mut Tracer| {
        let at = std::fs::metadata(journal.path_for(tenant)).map_or(0, |m| m.len());
        let ok = tracer.time("journal.append", parent, req, || {
            journal.append_event(tenant, event)
        });
        tracer.time("replication.enqueue", parent, req, || {
            repl.append(tenant, *event, at)
        });
        ok.is_ok()
    };
    for (request, response) in recorded.setup.iter().zip(setup_responses) {
        match request {
            Request::Register { tenant, cores, rt } => {
                io_ok &= journal.begin_tenant(*tenant, *cores, rt).is_ok();
                repl.reset(
                    *tenant,
                    TenantHistory {
                        cores: *cores,
                        rt: rt.clone(),
                        snapshot: None,
                        events: Vec::new(),
                    },
                );
                registered.insert(*tenant, (*cores, rt.clone()));
            }
            Request::Delta { tenant, event } if response.is_admitted() => {
                io_ok &= append(*tenant, event, None, 0, tracer);
            }
            _ => {}
        }
    }
    let flushed_setup = repl.flush(Duration::from_secs(60));
    let bytes0 = dir_bytes(&jdir);
    let fsyncs0 = journal::stats().fsyncs;
    let rung = tracer.start("ladder.journal", None, 0);
    // The replicator is flushed every `DURABLE_CHUNK` appends, as the
    // serving workload's barriers do, so its bounded backlog never drops.
    let mut appended = 0u64;
    let (mut flushed, mut flush_s) = (true, 0.0);
    let flush = |tracer: &mut Tracer, req| {
        let started = Instant::now();
        let ok = tracer.time("replication.flush", rung, req, || {
            repl.flush(Duration::from_secs(60))
        });
        (ok, started.elapsed().as_secs_f64())
    };
    for (i, (request, response)) in recorded.stream.iter().zip(responses).enumerate() {
        if let (Request::Delta { tenant, event }, true) = (request, response.is_admitted()) {
            io_ok &= append(*tenant, event, rung, i as u64, tracer);
            appended += 1;
        }
        if (i + 1) % DURABLE_CHUNK == 0 || i + 1 == recorded.stream.len() {
            let (ok, secs) = flush(tracer, i as u64);
            flushed &= ok;
            flush_s += secs;
        }
    }
    tracer.end(rung);
    let fsyncs = journal::stats().fsyncs - fsyncs0;
    let bytes = dir_bytes(&jdir) - bytes0;
    let catchup_ms = flush_s * 1e3;
    let tenants: Vec<u64> = registered.keys().copied().collect();
    let synced = fleet::wait_replicas(
        &jdir,
        &standby_dir.join("replica"),
        &tenants,
        Duration::from_secs(30),
    );
    let flushed = flushed && flushed_setup;
    out.check(flushed && synced && io_ok, || {
        format!("journal rung: flushed={flushed} replicas_identical={synced} io_ok={io_ok}")
    });
    let repl_stats = repl.stats();

    // Load every tenant's full tail (what failover reads), check it
    // replays to the tenant rung's state, then compact.
    for &tenant in &tenants {
        let loaded = tracer.time("journal.load", None, tenant, || journal.load_tenant(tenant));
        let same = loaded
            .ok()
            .and_then(|history| journal::replay(&history, STRATEGY).ok())
            .is_some_and(|state| {
                state.admitted_fingerprint() == states[&tenant].admitted_fingerprint()
            });
        out.check(same, || {
            format!("journal of tenant {tenant} does not replay to its live state")
        });
        let (cores, rt) = &registered[&tenant];
        let snapshot = TenantSnapshot::of(&states[&tenant]);
        let written = tracer.time("journal.snapshot", None, tenant, || {
            journal.snapshot_tenant(tenant, *cores, rt, &snapshot)
        });
        out.check(written.is_ok(), || {
            format!("snapshot of tenant {tenant} failed")
        });
    }
    drop(repl);
    standby.stop();

    let append_us = tracer.durations_us("journal.append");
    out.metric("journal.append_us_p50", pct(append_us.clone(), 0.50), "us");
    out.metric("journal.append_us_p99", pct(append_us, 0.99), "us");
    out.metric(
        "journal.fsyncs_per_accept",
        ratio(fsyncs as f64, appended as f64),
        "ratio",
    );
    out.metric(
        "journal.bytes_per_accept",
        ratio(bytes as f64, appended as f64),
        "bytes",
    );
    out.metric(
        "journal.snapshot_us",
        mean(&tracer.durations_us("journal.snapshot")),
        "us",
    );
    out.metric(
        "journal.load_us",
        mean(&tracer.durations_us("journal.load")),
        "us",
    );
    out.metric(
        "replication.enqueue_us",
        mean(&tracer.durations_us("replication.enqueue")),
        "us",
    );
    out.metric(
        "replication.delivered_ratio",
        ratio(repl_stats.delivered as f64, repl_stats.enqueued as f64),
        "ratio",
    );
    out.metric("replication.dropped", repl_stats.dropped as f64, "count");
    out.metric("replication.heals", repl_stats.heals as f64, "count");
    out.metric("replication.catchup_ms", catchup_ms, "ms");
    Ok(())
}

/// Total bytes of the journal files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir).map_or(0, |entries| {
        entries
            .flatten()
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    })
}

/// Reactor stages from a `{"op":"metrics"}` answer (worker stages are
/// sampled 1 in 8).
fn reactor_metrics(metrics: Option<&Json>, out: &mut Outcome) {
    let stage = |name: &str, field: &str| {
        metrics
            .and_then(|m| m.get("stages")?.get(name)?.get(field)?.as_f64())
            .unwrap_or(0.0)
    };
    for name in ["queue", "respond", "flush"] {
        for (q, field) in [("p50", "p50_us"), ("p99", "p99_us")] {
            let metric = format!("reactor.{name}_us_{q}");
            out.metric(metric, stage(name, field), "us");
        }
    }
    out.metric("reactor.sampled", stage("queue", "count"), "count");
    let reactors = metrics
        .and_then(|m| m.get("reactors")?.as_array())
        .unwrap_or_default();
    let sum = |field: &str| -> f64 { reactors.iter().filter_map(|r| r.get(field)?.as_f64()).sum() };
    out.metric(
        "reactor.iovecs_per_flush_pass",
        ratio(sum("iovecs_written"), sum("flush_passes")),
        "ratio",
    );
}

/// Self time per layer from every span of the run, in milliseconds.
pub fn self_times(tracer: &Tracer, out: &mut Outcome) {
    let times = crate::trace::self_time_ns(tracer.spans());
    for layer in LAYERS {
        let ns = times.get(layer).copied().unwrap_or(0);
        out.metric(format!("{layer}.self_ms"), ns as f64 / 1e6, "ms");
    }
}

/// Layers whose self time the traced run reports.
pub const LAYERS: [&str; 13] = [
    "taskgen",
    "partition",
    "solver",
    "tenant",
    "engine",
    "shard",
    "proto",
    "journal",
    "replication",
    "coord",
    "client",
    "daemon",
    "fleet",
];
