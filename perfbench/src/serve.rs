//! The two serving workloads: the recorded fleet stream replayed over
//! loopback TCP to `rts_adaptd`, with and without journal and
//! replication.

use std::path::Path;
use std::time::Instant;

use hydra_experiments::service::{record_workload, RecordedWorkload, ServiceConfig};
use rts_adapt::engine::{Admitted, Response};
use rts_adapt::journal::JournalDir;
use rts_adapt::json::Json;
use rts_adapt::proto::render_response;
use rts_analysis::semi::CarryInStrategy;

use crate::fleet::{self, Fleet, Mode, LOAD_CONNS, PRIMARY};
use crate::stats;
use crate::trace::Tracer;
use crate::{env, Outcome};

/// Size of one serving run.
#[derive(Clone, Copy, Debug)]
pub struct ServeScale {
    /// Independently seeded fleets, each with its own recorded stream.
    pub fleets: usize,
    /// Tenants per fleet (8 profiles are shared among them).
    pub tenants: usize,
    /// Requests in each fleet's recorded stream.
    pub requests: usize,
    /// Times each stream is replayed, each pass against fresh tenant ids.
    pub passes: usize,
    /// Fleet set-ups timed for `setup_s` (the last one serves).
    pub setups: usize,
    /// Outstanding requests per connection.
    pub window: usize,
}

/// The recorded workloads for `seed`, one per fleet (fleet `k` is seeded
/// `1000·seed + k`): each fleet's setup requests, its stream, and the
/// verdict populations of the in-process recording.
#[must_use]
pub fn record(scale: &ServeScale, seed: u64) -> Vec<RecordedWorkload> {
    (0..scale.fleets as u64)
        .map(|k| {
            record_workload(&ServiceConfig {
                tenants: scale.tenants,
                requests: scale.requests,
                shards: 2,
                batch: 512,
                seed: seed.wrapping_mul(1000).wrapping_add(k),
            })
        })
        .collect()
}

/// Requests between two replica barriers on the durable fleet. The
/// primary's replication backlog holds 1024 ops and drops the oldest
/// when full; a dropped compaction reset leaves every later append of
/// that tenant looking like a late duplicate to the standby, so the
/// replica stays stale for good. A chunk of 900 requests enqueues at
/// most 900 appends plus one reset per compacting tenant, which always
/// fits.
pub const DURABLE_CHUNK: usize = 900;

/// Layer readings a serving run leaves for the traced report.
#[derive(Debug, Default)]
pub struct ServeTrace {
    /// The primary's `{"op":"metrics"}` answer after the stream.
    pub metrics: Option<Json>,
    /// Total replica-barrier wait during the stream, in ms (durable only).
    pub catchup_ms: f64,
    /// `Coordinator::fail_over` wall seconds (durable only).
    pub failover_s: f64,
    /// Tenants adopted by the failover.
    pub adopted: usize,
}

/// Runs one serving workload. `dir` holds the journals and logs.
///
/// # Errors
///
/// A daemon could not be started; checks that fail are reported in the
/// outcome instead.
pub fn run(
    mode: Mode,
    bin: &Path,
    dir: &Path,
    fleets: &[RecordedWorkload],
    scale: &ServeScale,
    tracer: &mut Tracer,
) -> Result<(Outcome, ServeTrace), String> {
    let mut out = Outcome::default();
    let mut layers = ServeTrace::default();
    let tenants = scale.tenants as u64;

    // Set-up: spawn the daemons, register the fleet through the
    // coordinator. Timed several times; the last fleet serves.
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for i in 0..scale.setups.max(1) {
        let sdir = dir.join(format!("fleet{i}"));
        let span = tracer.start("fleet.setup", None, i as u64);
        let started = Instant::now();
        let mut f = Fleet::start(bin, &sdir, mode)?;
        let (attempted, failed) = f.register(&fleets[0].setup, 0, tracer, span);
        setup_s.push(started.elapsed().as_secs_f64());
        tracer.end(span);
        out.attempted += attempted;
        out.failed += failed;
        if i + 1 < scale.setups {
            drop(f);
            let _ = std::fs::remove_dir_all(&sdir);
        } else {
            fleet = Some(f);
        }
    }
    let mut fleet = fleet.expect("at least one set-up ran");
    out.metric("setup_s", stats::median(&setup_s), "s");

    // The timed stream, pass by pass. A durable pass is cut into chunks
    // of at most `DURABLE_CHUNK` requests with a replica barrier after
    // each, and the barrier waits count as stream time.
    let chunk = match mode {
        Mode::Durable => DURABLE_CHUNK,
        Mode::Volatile => usize::MAX,
    };
    let served: usize = fleets.iter().map(|f| f.stream.len() * scale.passes).sum();
    let mut rounds = stats::Rounds::default();
    let round_ops = served.div_ceil(stats::ROUNDS);
    let (mut stream_s, mut daemon_cpu_us, mut client_cpu_us) = (0.0, 0.0, 0.0);
    let (mut peak_threads, mut barrier_s) = (0, 0.0);
    let stream_span = tracer.start("client.stream", None, 0);
    let mut conns: Vec<fleet::Conn> = (0..LOAD_CONNS)
        .map(|_| fleet::Conn::open(fleet.primary.addr))
        .collect::<Result<_, _>>()?;
    let passes = fleets
        .iter()
        .flat_map(|f| std::iter::repeat_n(f, scale.passes));
    for (pass, recorded) in (0u64..).zip(passes) {
        let len = recorded.stream.len();
        let offset = pass * tenants;
        if pass > 0 {
            let (attempted, failed) = fleet.register(&recorded.setup, offset, tracer, stream_span);
            out.attempted += attempted;
            out.failed += failed;
        }
        if mode == Mode::Durable {
            // Start the pass with the replication backlog empty.
            let synced = fleet.replicas_synced(offset + 1..=offset + tenants);
            out.check(synced, || {
                format!("replicas never caught up with the registration of pass {pass}")
            });
        }
        let (mut accepted, mut rejected, mut errors) = (0, 0, 0);
        let mut from = 0;
        while from < len {
            let to = from.saturating_add(chunk).min(len);
            let scripts = fleet::scripts(&recorded.stream, from..to, offset);
            let (cpu0, client0) = (fleet.cpu_us(), env::cpu_us("self"));
            let started = Instant::now();
            let (totals, threads) = fleet::drive(&mut conns, &scripts, scale.window);
            if mode == Mode::Durable {
                let span = tracer.start("replication.barrier", stream_span, from as u64);
                let waited = Instant::now();
                let synced = fleet.replicas_synced(offset + 1..=offset + tenants);
                barrier_s += waited.elapsed().as_secs_f64();
                tracer.end(span);
                out.check(synced, || {
                    format!("a replica never became byte-identical to its primary journal (requests {from}..{to})")
                });
            }
            let secs = started.elapsed().as_secs_f64();
            stream_s += secs;
            daemon_cpu_us += fleet.cpu_us() - cpu0;
            client_cpu_us += env::cpu_us("self") - client0;
            peak_threads = peak_threads.max(threads);
            let mut latencies_us = Vec::with_capacity(to - from);
            for conn in totals {
                accepted += conn.accepted;
                rejected += conn.rejected;
                errors += conn.errors;
                for (id, sent, done, ok) in conn.samples {
                    tracer.record("daemon.request", stream_span, id, sent, done);
                    // A failed request misses every latency limit.
                    latencies_us.push(if ok {
                        done.duration_since(sent).as_nanos() as f64 / 1e3
                    } else {
                        f64::INFINITY
                    });
                }
            }
            rounds.add(to - from, secs, latencies_us);
            if rounds.open_ops() >= round_ops {
                rounds.close();
            }
            from = to;
        }
        out.attempted += len as u64;
        out.failed += errors;
        out.check(
            (accepted, rejected) == (recorded.accepted, recorded.rejected),
            || {
                format!(
                    "pass {pass}: verdicts {accepted}/{rejected} accepted/rejected, \
                     the in-process recording has {}/{}",
                    recorded.accepted, recorded.rejected
                )
            },
        );
    }
    drop(conns);
    rounds.close();
    layers.catchup_ms = barrier_s * 1e3;
    tracer.end(stream_span);
    out.measured_s = stream_s;

    let served = served as f64;
    out.metric("throughput_per_s", rounds.throughput(), "1/s");
    out.metric("latency_p50_us", rounds.latency(0.50), "us");
    out.metric("latency_p99_us", rounds.latency(0.99), "us");
    out.metric("cpu_us_per_op", daemon_cpu_us / served, "us");
    out.metric("rss_peak_mb", fleet.peak_rss_mb(), "MB");
    out.info.push(format!(
        "rounds={} round_rate_range={:.3} samples_per_round>={} beyond_p99>={} overall_per_s={:.1} \
         client_cpu_us_per_op={:.3} load_threads={} load_conns={LOAD_CONNS} window={} \
         fleets={}x{} passes={}",
        rounds.len(),
        rounds.throughput_range(),
        rounds.min_samples(),
        stats::samples_beyond(rounds.min_samples(), 0.99),
        served / stream_s,
        client_cpu_us / served,
        peak_threads,
        scale.window,
        scale.fleets,
        scale.requests,
        scale.passes,
    ));
    let nproc = env::nproc();
    out.check(peak_threads <= nproc && LOAD_CONNS <= nproc, || {
        format!(
            "load client used {peak_threads} threads / {LOAD_CONNS} connections on {nproc} cores"
        )
    });

    if tracer.is_on() {
        match fleet::scrape_metrics(fleet.primary.addr) {
            Ok(metrics) => layers.metrics = Some(metrics),
            Err(e) => out.problems.push(format!("metrics verb: {e}")),
        }
    }

    if mode == Mode::Durable {
        let all: Vec<u64> = (1..=tenants * (scale.fleets * scale.passes) as u64).collect();
        out.attempted += all.len() as u64;
        fail_over(&mut fleet, &all, &mut out, &mut layers, tracer)?;
    }
    fleet.primary.stop();
    if let Some(standby) = &mut fleet.standby {
        standby.stop();
    }
    Ok((out, layers))
}

/// SIGKILLs the primary, fails its tenants over to the standby and
/// checks every answer against the pre-kill recording and against a
/// replay of the dead primary's journal directory.
fn fail_over(
    fleet: &mut Fleet,
    tenants: &[u64],
    out: &mut Outcome,
    layers: &mut ServeTrace,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let before = fleet.query_all(tenants)?;
    fleet.primary.kill();
    let span = tracer.start("coord.fail_over", None, 0);
    let started = Instant::now();
    let report = fleet.coord.fail_over(PRIMARY);
    layers.failover_s = started.elapsed().as_secs_f64();
    tracer.end(span);
    layers.adopted = report.adopted.len();
    out.info.push(format!(
        "failover_s={:.6} adopted={} catchup_ms={:.3}",
        layers.failover_s, layers.adopted, layers.catchup_ms
    ));
    out.check(
        report.errors.is_empty() && report.adopted.len() == tenants.len(),
        || {
            format!(
                "failover adopted {} of {}: {:?}",
                report.adopted.len(),
                tenants.len(),
                report.errors
            )
        },
    );
    let after = fleet.query_all(tenants)?;
    let replayed = JournalDir::at(fleet.dir.join("primary"));
    for ((&tenant, before), after) in tenants.iter().zip(&before).zip(&after) {
        let replay = match replayed.replay_tenant(tenant, CarryInStrategy::TopDiff) {
            Ok(state) => {
                let sel = state.admitted();
                fleet::strip_seq(&render_response(
                    0,
                    &Response::Admitted(Admitted {
                        tenant,
                        periods: sel.periods.as_slice().to_vec(),
                        response_times: sel.response_times.clone(),
                        fingerprint: state.admitted_fingerprint(),
                        cached: true,
                    }),
                ))
            }
            Err(e) => format!("replay failed: {e}"),
        };
        let ok = after == before && &replay == before;
        if !ok {
            out.failed += 1;
        }
        out.check(ok, || {
            format!("tenant {tenant}: pre-kill {before} / adopted {after} / replayed {replay}")
        });
    }
    Ok(())
}
