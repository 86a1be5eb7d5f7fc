//! The line-delimited wire protocol: one JSON object per line in, one
//! per line out.
//!
//! ## Requests
//!
//! ```json
//! {"op":"register","tenant":1,"cores":2,"rt":[{"wcet_ms":240,"period_ms":500,"core":0}]}
//! {"op":"arrival","tenant":1,"passive_ms":100,"active_ms":350,"t_max_ms":5000}
//! {"op":"departure","tenant":1,"slot":0}
//! {"op":"wcet_update","tenant":1,"slot":0,"passive_ms":120,"active_ms":400}
//! {"op":"mode","tenant":1,"slot":0,"mode":"active"}
//! {"op":"query","tenant":1}
//! {"op":"export","tenant":1}
//! {"op":"import","tenant":1,"journal":{"cores":2,"rt":[...],"snapshot":{...},"events":[...]}}
//! {"op":"evict","tenant":1}
//! {"op":"replicate","tenant":1,"source":"d0","kind":"reset","journal":{...}}
//! {"op":"replicate","tenant":1,"source":"d0","kind":"append","at":184,"entry":{"event":"mode",...}}
//! {"op":"replicate","tenant":1,"source":"d0","kind":"retire"}
//! {"op":"adopt","tenant":1}
//! ```
//!
//! `active_ms` may be omitted on `arrival` for a single-mode monitor.
//! Durations are milliseconds (fractions allowed down to the 100 µs tick
//! resolution) — except inside `import`'s `journal` payload, which uses
//! the journal's integer-tick encoding (see [`crate::journal`]) so a
//! hand-off round trip involves no floating-point rounding at all.
//!
//! ## Responses
//!
//! ```json
//! {"seq":0,"tenant":1,"verdict":"accept","cached":false,
//!  "fingerprint":"f00dcafe00000000","periods_ms":[7582],"response_times_ms":[7582]}
//! {"seq":1,"tenant":1,"verdict":"reject","reason":"security task 1 cannot ..."}
//! {"seq":2,"tenant":9,"verdict":"error","reason":"unknown tenant 9 (register it first)"}
//! {"seq":3,"tenant":1,"verdict":"export","fingerprint":"…","journal":{...}}
//! {"seq":4,"tenant":1,"verdict":"evicted","fingerprint":"…"}
//! {"seq":5,"tenant":1,"verdict":"replicated","applied":true}
//! ```
//!
//! The `replicate` verb is the warm-standby stream (see
//! [`crate::replication`]): each op mirrors one journal-file mutation on
//! the primary — `reset` replaces the standby's replica file with the
//! `journal` history (journal integer-tick encoding, like `import`),
//! `append` adds one journal *line* (the `entry` object is exactly a
//! journal file line; `at` is the byte offset the line starts at in the
//! primary's journal, the standby's idempotence guard), `retire`
//! archives it. `adopt` promotes a replica
//! to a live tenant through the full re-admission analysis and answers
//! like `import`.
//!
//! An `export` response's `journal` value is exactly what `import`
//! accepts on another daemon — the hand-off runbook is: `export` on A,
//! feed `{"op":"import","tenant":N,"journal":<that value>}` to B, then
//! `evict` on A (see the README's Operations section).
//!
//! `seq` echoes the request's position in the input stream, so clients
//! may pipeline: responses to *different tenants* can arrive out of
//! submission order, while each tenant's own answers stay ordered (see
//! [`crate::shard`]).

use std::fmt::Write as _;

use rts_model::delta::{DeltaEvent, MonitorMode, MonitorSpec};
use rts_model::time::{Duration, TICKS_PER_MS};

use crate::engine::{Admitted, Request, Response, RtSpec};
use crate::journal;
use crate::json::{self, Json};
use crate::replication::ReplPayload;
use crate::shard::ShardSnapshot;
use crate::telemetry::{Histogram, SlowRequest, Stage};

/// One parsed protocol line: either a request for the engine, or an
/// observability verb the *serving layer* answers itself (`stats` and
/// `metrics` need per-shard queue depths, connection gauges and stage
/// histograms no single engine worker can see).
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// An ordinary engine request, dispatched to the tenant's shard.
    Engine(Request),
    /// `stats` or `metrics` — answered immediately by the front end
    /// from one [`MetricsReport`] in the requested format, never
    /// entering a shard queue.
    Report(ReportFormat),
}

/// How an observability verb renders the front's [`MetricsReport`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReportFormat {
    /// `{"op":"stats"}` — connection, reactor and shard gauges
    /// ([`render_stats`]).
    Stats,
    /// `{"op":"metrics"}` — the full report as one JSON line
    /// ([`render_metrics`]).
    Json,
    /// `{"op":"metrics","format":"prometheus"}` — the same report as a
    /// Prometheus-style text exposition, wrapped in one JSON line (the
    /// `text` field) so it stays line-protocol-safe
    /// ([`render_metrics_text`]).
    Prometheus,
}

/// Parses one protocol line into a [`Command`].
///
/// # Errors
///
/// A human-readable description of the first problem (syntax, missing
/// field, out-of-range value). The caller turns it into a
/// `verdict:"error"` response.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let value = json::parse(line)?;
    let op = value
        .get("op")
        .and_then(Json::as_str)
        .ok_or("missing string field \"op\"")?;
    match op {
        "stats" => Ok(Command::Report(ReportFormat::Stats)),
        "metrics" => Ok(Command::Report(
            match value.get("format").and_then(Json::as_str) {
                Some("prometheus") => ReportFormat::Prometheus,
                _ => ReportFormat::Json,
            },
        )),
        _ => parse_engine_request(&value, op).map(Command::Engine),
    }
}

/// Parses one request line for the engine. `stats` and `metrics` —
/// serving-layer verbs — are rejected here; front ends use
/// [`parse_command`].
///
/// # Errors
///
/// As for [`parse_command`].
pub fn parse_request(line: &str) -> Result<Request, String> {
    match parse_command(line)? {
        Command::Engine(request) => Ok(request),
        Command::Report(_) => Err(
            "\"stats\" and \"metrics\" are answered by the serving layer, not the engine".into(),
        ),
    }
}

fn parse_engine_request(value: &Json, op: &str) -> Result<Request, String> {
    let tenant = field_u64(value, "tenant")?;
    match op {
        "register" => {
            let cores = field_u64(value, "cores")? as usize;
            let rt_items = value
                .get("rt")
                .and_then(Json::as_array)
                .ok_or("missing array field \"rt\"")?;
            let mut rt = Vec::with_capacity(rt_items.len());
            for (i, item) in rt_items.iter().enumerate() {
                rt.push(RtSpec {
                    wcet: field_duration(item, "wcet_ms").map_err(|e| format!("rt[{i}]: {e}"))?,
                    period: field_duration(item, "period_ms")
                        .map_err(|e| format!("rt[{i}]: {e}"))?,
                    core: item
                        .get("core")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("rt[{i}]: missing integer field \"core\""))?
                        as usize,
                });
            }
            Ok(Request::Register { tenant, cores, rt })
        }
        "arrival" => {
            let passive = field_duration(value, "passive_ms")?;
            let active = match value.get("active_ms") {
                Some(_) => field_duration(value, "active_ms")?,
                None => passive,
            };
            let t_max = field_duration(value, "t_max_ms")?;
            let monitor = MonitorSpec::modal(passive, active, t_max).map_err(|e| e.to_string())?;
            Ok(Request::Delta {
                tenant,
                event: DeltaEvent::Arrival { monitor },
            })
        }
        "departure" => Ok(Request::Delta {
            tenant,
            event: DeltaEvent::Departure {
                slot: field_u64(value, "slot")? as usize,
            },
        }),
        "wcet_update" => Ok(Request::Delta {
            tenant,
            event: DeltaEvent::WcetUpdate {
                slot: field_u64(value, "slot")? as usize,
                passive_wcet: field_duration(value, "passive_ms")?,
                active_wcet: field_duration(value, "active_ms")?,
            },
        }),
        "mode" => {
            let mode = match value.get("mode").and_then(Json::as_str) {
                Some("passive") => MonitorMode::Passive,
                Some("active") => MonitorMode::Active,
                Some(other) => return Err(format!("unknown mode \"{other}\"")),
                None => return Err("missing string field \"mode\"".into()),
            };
            Ok(Request::Delta {
                tenant,
                event: DeltaEvent::ModeChange {
                    slot: field_u64(value, "slot")? as usize,
                    mode,
                },
            })
        }
        "query" => Ok(Request::Query { tenant }),
        "export" => Ok(Request::Export { tenant }),
        "import" => {
            let payload = value.get("journal").ok_or("missing field \"journal\"")?;
            let history = journal::parse_history(payload).map_err(|e| format!("journal: {e}"))?;
            Ok(Request::Import { tenant, history })
        }
        "evict" => Ok(Request::Evict { tenant }),
        "replicate" => {
            let source = value
                .get("source")
                .and_then(Json::as_str)
                .ok_or("missing string field \"source\"")?
                .to_string();
            let payload = match value.get("kind").and_then(Json::as_str) {
                Some("reset") => {
                    let payload = value.get("journal").ok_or("missing field \"journal\"")?;
                    let history =
                        journal::parse_history(payload).map_err(|e| format!("journal: {e}"))?;
                    ReplPayload::Reset { history }
                }
                Some("append") => {
                    let entry = value.get("entry").ok_or("missing field \"entry\"")?;
                    let event =
                        journal::event_from_value(entry).map_err(|e| format!("entry: {e}"))?;
                    let at = field_u64(value, "at")?;
                    ReplPayload::Append { event, at }
                }
                Some("retire") => ReplPayload::Retire,
                Some(other) => return Err(format!("unknown replicate kind \"{other}\"")),
                None => return Err("missing string field \"kind\"".into()),
            };
            Ok(Request::Replicate {
                tenant,
                source,
                payload,
            })
        }
        "adopt" => Ok(Request::Adopt { tenant }),
        other => Err(format!("unknown op \"{other}\"")),
    }
}

fn field_u64(value: &Json, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing non-negative integer field \"{key}\""))
}

/// A `*_ms` field to ticks: milliseconds at the workspace resolution,
/// rounded to the nearest tick.
fn field_duration(value: &Json, key: &str) -> Result<Duration, String> {
    let ms = value
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing number field \"{key}\""))?;
    if !(0.0..=1e15).contains(&ms) {
        return Err(format!("field \"{key}\" out of range"));
    }
    Ok(Duration::from_ticks(
        (ms * TICKS_PER_MS as f64).round() as u64
    ))
}

/// Renders one response line (no trailing newline).
#[must_use]
pub fn render_response(seq: u64, response: &Response) -> String {
    let mut out = String::with_capacity(96);
    match response {
        Response::Admitted(Admitted {
            tenant,
            periods,
            response_times,
            fingerprint,
            cached,
        }) => {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"tenant\":{tenant},\"verdict\":\"accept\",\"cached\":{cached},\
                 \"fingerprint\":\"{fingerprint:016x}\",\"periods_ms\":"
            );
            write_ms_array(&mut out, periods);
            out.push_str(",\"response_times_ms\":");
            write_ms_array(&mut out, response_times);
            out.push('}');
        }
        Response::Rejected { tenant, reason } => {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"tenant\":{tenant},\"verdict\":\"reject\",\"reason\":"
            );
            json::write_escaped(&mut out, reason);
            out.push('}');
        }
        Response::Error { tenant, reason } => {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"tenant\":{tenant},\"verdict\":\"error\",\"reason\":"
            );
            json::write_escaped(&mut out, reason);
            out.push('}');
        }
        Response::Exported { tenant, history } => {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"tenant\":{tenant},\"verdict\":\"export\""
            );
            if let Some(snapshot) = &history.snapshot {
                let _ = write!(out, ",\"fingerprint\":\"{:016x}\"", snapshot.fingerprint);
            }
            out.push_str(",\"journal\":");
            out.push_str(&journal::render_history(history));
            out.push('}');
        }
        Response::Evicted {
            tenant,
            fingerprint,
        } => {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"tenant\":{tenant},\"verdict\":\"evicted\",\
                 \"fingerprint\":\"{fingerprint:016x}\"}}"
            );
        }
        Response::Replicated { tenant, applied } => {
            let _ = write!(
                out,
                "{{\"seq\":{seq},\"tenant\":{tenant},\"verdict\":\"replicated\",\
                 \"applied\":{applied}}}"
            );
        }
    }
    out
}

/// Connection gauges of the TCP front end, as reported by the `stats`
/// and `metrics` verbs. The stdin front end reports zeros (it has no
/// connections).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ConnStats {
    /// Connections currently being served.
    pub live: usize,
    /// Connections refused over the cap since startup.
    pub refused: u64,
    /// The `--max-conns` cap (0 when no cap applies).
    pub max: usize,
}

/// The serving reactor's egress counters, as reported by the `stats`
/// and `metrics` verbs. Both fronts render them as the one entry of the
/// `reactors` array (reactor 0), next to the [`ConnStats`] gauges that
/// one reactor serves, so the field set — pinned by the cross-front
/// byte-shape parity test — never depends on the front; the stdin front
/// has no gathered egress, so its counters are zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReactorStats {
    /// Gathered-writev flush passes the reactor has run.
    pub flush_passes: u64,
    /// Total iovecs submitted across those passes (responses per
    /// syscall ≈ `iovecs_written / flush_passes`).
    pub iovecs_written: u64,
}

/// Opens a serving-layer answer with the prefix `stats` and `metrics`
/// share — `seq`, `verdict`, the `conns` gauges, the one-entry
/// `reactors` array (the gauges again, with the egress counters) and
/// one `shards` entry per shard (queue depth, handled count, memo
/// statistics, tenant count) — leaving the object open for the caller
/// to continue or close.
fn write_front_prefix(out: &mut String, seq: u64, verdict: &str, report: &MetricsReport) {
    let ConnStats { live, refused, max } = report.conns;
    let ReactorStats {
        flush_passes,
        iovecs_written,
    } = report.reactor;
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"verdict\":\"{verdict}\",\"conns\":{{\"live\":{live},\
         \"refused\":{refused},\"max\":{max}}},\"reactors\":[{{\"reactor\":0,\"live\":{live},\
         \"refused\":{refused},\"max\":{max},\"flush_passes\":{flush_passes},\
         \"iovecs_written\":{iovecs_written}}}],\"shards\":[",
    );
    for (i, s) in report.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"queue_depth\":{},\"handled\":{},\"memo_hits\":{},\
             \"memo_shared_hits\":{},\"memo_misses\":{},\"memo_hit_rate\":{:.4},\
             \"tenants\":{}}}",
            s.shard,
            s.queue_depth,
            s.handled,
            s.memo_hits,
            s.memo_shared_hits,
            s.memo_misses,
            s.memo_hit_rate(),
            s.tenants
        );
    }
    out.push(']');
}

/// Renders the answer to the `stats` verb — the report's connection
/// gauges, reactor entry and shard entries — as a single JSON line (no
/// trailing newline).
#[must_use]
pub fn render_stats(seq: u64, report: &MetricsReport) -> String {
    let mut out = String::with_capacity(288 + 96 * report.shards.len());
    write_front_prefix(&mut out, seq, "stats", report);
    out.push('}');
    out
}

/// Renders an observability verb's answer in the requested format —
/// the one call every front makes for `stats` and both `metrics`
/// variants.
#[must_use]
pub(crate) fn render_report(seq: u64, format: ReportFormat, report: &MetricsReport) -> String {
    match format {
        ReportFormat::Stats => render_stats(seq, report),
        ReportFormat::Json => render_metrics(seq, report),
        ReportFormat::Prometheus => render_metrics_text(seq, report),
    }
}

/// Everything the `{"op":"metrics"}` verb reports, assembled in one
/// place (see [`crate::shard::ShardedEngine::metrics_report`]) so the
/// reactor and stdin fronts render byte-shape-identical answers to
/// `stats` and both `metrics` formats from the same code path (see
/// [`render_stats`], [`render_metrics`], [`render_metrics_text`]). This
/// is the unification point for every previously ad-hoc counter in the
/// workspace: connection gauges, shard snapshots (memo statistics
/// included), stage-latency histograms, the solver's
/// selection/probe/cascade counters, the analysis layer's fixed-point
/// walk counters, the cross-tenant shared-store counters, the journal's
/// durability counters, and the worst-N slow-request ring.
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Connection gauges of the serving front (zeros on stdin).
    pub conns: ConnStats,
    /// The reactor's egress counters (zeros on stdin).
    pub reactor: ReactorStats,
    /// Per-shard live snapshots, ordered by shard index.
    pub shards: Vec<ShardSnapshot>,
    /// Stage-latency histograms in [`Stage::ALL`] order.
    pub stages: Vec<(Stage, Histogram)>,
    /// Algorithm 1/2 phase counters (process-wide).
    pub solver: hydra_core::phase_stats::SelectionStats,
    /// Fixed-point walk counters (process-wide).
    pub walks: rts_analysis::phase_stats::WalkStats,
    /// Cross-tenant shared selection store counters.
    pub shared_store: hydra_core::SharedStoreStats,
    /// Journal durability counters (process-wide).
    pub journal: journal::JournalStats,
    /// The worst-N slow requests, worst first.
    pub slow: Vec<SlowRequest>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn write_stage_summary(out: &mut String, histogram: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"p50_us\":{:.1},\"p90_us\":{:.1},\"p99_us\":{:.1},\
         \"max_us\":{:.1},\"mean_us\":{:.1}}}",
        histogram.count(),
        us(histogram.quantile_ns(0.50)),
        us(histogram.quantile_ns(0.90)),
        us(histogram.quantile_ns(0.99)),
        us(histogram.max_ns()),
        histogram.mean_ns() / 1000.0,
    );
}

/// Renders the answer to the `{"op":"metrics"}` verb as a single JSON
/// line (no trailing newline). Every cataloged series is always
/// present — empty histograms render with `count:0` — so the field set
/// is identical across fronts and load states by construction.
#[must_use]
pub fn render_metrics(seq: u64, report: &MetricsReport) -> String {
    let mut out = String::with_capacity(1024 + 96 * report.shards.len());
    write_front_prefix(&mut out, seq, "metrics", report);
    out.push_str(",\"stages\":{");
    for (i, (stage, histogram)) in report.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":", stage.name());
        write_stage_summary(&mut out, histogram);
    }
    let solver = &report.solver;
    let _ = write!(
        out,
        "}},\"solver\":{{\"selections\":{},\"probes\":{},\"cascades\":{},\
         \"cascade_tasks\":{},\"mean_cascade_tasks\":{:.2}}}",
        solver.selections,
        solver.probes,
        solver.cascades,
        solver.cascade_tasks,
        solver.mean_cascade_tasks()
    );
    let walks = &report.walks;
    let _ = write!(
        out,
        ",\"walks\":{{\"walks\":{},\"evals\":{},\"quick_confirms\":{},\"mean_evals\":{:.2}}}",
        walks.walks,
        walks.evals,
        walks.quick_confirms,
        walks.mean_evals()
    );
    let store = &report.shared_store;
    let _ = write!(
        out,
        ",\"shared_store\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"flushes\":{}}}",
        store.hits, store.misses, store.entries, store.flushes
    );
    let journal = &report.journal;
    let _ = write!(
        out,
        ",\"journal\":{{\"appends\":{},\"snapshots\":{},\"fsyncs\":{},\"commits\":{},\
         \"torn_tails\":{}}}",
        journal.appends, journal.snapshots, journal.fsyncs, journal.commits, journal.torn_tails
    );
    out.push_str(",\"slow\":[");
    for (i, slow) in report.slow.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"tenant\":{},\"conn\":{},\"seq\":{},\"parse_us\":{:.1},\"queue_us\":{:.1},\
             \"solve_us\":{:.1},\"persist_us\":{:.1},\"respond_us\":{:.1},\"flush_us\":{:.1},\
             \"total_us\":{:.1}}}",
            slow.tenant,
            slow.conn,
            slow.seq,
            us(slow.parse_ns),
            us(slow.queue_ns),
            us(slow.solve_ns),
            us(slow.persist_ns),
            us(slow.respond_ns),
            us(slow.flush_ns),
            us(slow.total_ns)
        );
    }
    out.push_str("]}");
    out
}

/// The Prometheus `le` ladder for stage latencies, in microseconds
/// (the exposition's bucket granularity; the JSON verb keeps the full
/// log2 resolution).
const PROMETHEUS_LE_US: [u64; 6] = [10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// Renders the same report as a Prometheus-style text exposition
/// (`# TYPE` headers, cumulative `_bucket{le=...}` histograms, labeled
/// per-shard counters). Multi-line text — serve it via
/// [`render_metrics_text`] on the line protocol or dump it raw.
#[must_use]
pub fn render_prometheus(report: &MetricsReport) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# TYPE rts_adapt_conns_live gauge\n");
    let _ = writeln!(out, "rts_adapt_conns_live {}", report.conns.live);
    out.push_str("# TYPE rts_adapt_conns_refused counter\n");
    let _ = writeln!(out, "rts_adapt_conns_refused {}", report.conns.refused);
    out.push_str("# TYPE rts_adapt_conns_max gauge\n");
    let _ = writeln!(out, "rts_adapt_conns_max {}", report.conns.max);
    for (name, kind, value) in [
        ("live", "gauge", report.conns.live as u64),
        ("refused", "counter", report.conns.refused),
        ("max", "gauge", report.conns.max as u64),
        ("flush_passes", "counter", report.reactor.flush_passes),
        ("iovecs_written", "counter", report.reactor.iovecs_written),
    ] {
        let _ = writeln!(out, "# TYPE rts_adapt_reactor_{name} {kind}");
        let _ = writeln!(out, "rts_adapt_reactor_{name}{{reactor=\"0\"}} {value}");
    }
    for (name, kind) in [
        ("queue_depth", "gauge"),
        ("handled", "counter"),
        ("memo_hits", "counter"),
        ("memo_shared_hits", "counter"),
        ("memo_misses", "counter"),
        ("tenants", "gauge"),
    ] {
        let _ = writeln!(out, "# TYPE rts_adapt_shard_{name} {kind}");
        for s in &report.shards {
            let value = match name {
                "queue_depth" => s.queue_depth,
                "handled" => s.handled,
                "memo_hits" => s.memo_hits,
                "memo_shared_hits" => s.memo_shared_hits,
                "memo_misses" => s.memo_misses,
                _ => s.tenants as u64,
            };
            let _ = writeln!(
                out,
                "rts_adapt_shard_{name}{{shard=\"{}\"}} {value}",
                s.shard
            );
        }
    }
    out.push_str("# TYPE rts_adapt_stage_latency_us histogram\n");
    for (stage, histogram) in &report.stages {
        let stage = stage.name();
        for le in PROMETHEUS_LE_US {
            let _ = writeln!(
                out,
                "rts_adapt_stage_latency_us_bucket{{stage=\"{stage}\",le=\"{le}\"}} {}",
                histogram.count_le_ns(le * 1_000)
            );
        }
        let _ = writeln!(
            out,
            "rts_adapt_stage_latency_us_bucket{{stage=\"{stage}\",le=\"+Inf\"}} {}",
            histogram.count()
        );
        let _ = writeln!(
            out,
            "rts_adapt_stage_latency_us_sum{{stage=\"{stage}\"}} {:.1}",
            us(histogram.sum_ns())
        );
        let _ = writeln!(
            out,
            "rts_adapt_stage_latency_us_count{{stage=\"{stage}\"}} {}",
            histogram.count()
        );
    }
    // Solver and walk counter names come from the crates that own them
    // (`phase_stats::*Stats::series`), so an added counter shows up here
    // without this renderer learning about it.
    let flat = report
        .solver
        .series()
        .into_iter()
        .chain(report.walks.series())
        .chain([
            ("shared_store_hits", report.shared_store.hits),
            ("shared_store_misses", report.shared_store.misses),
            ("shared_store_flushes", report.shared_store.flushes),
            ("journal_appends", report.journal.appends),
            ("journal_snapshots", report.journal.snapshots),
            ("journal_fsyncs", report.journal.fsyncs),
            ("journal_commits", report.journal.commits),
            ("journal_torn_tails", report.journal.torn_tails),
        ]);
    for (name, value) in flat {
        let _ = writeln!(out, "# TYPE rts_adapt_{name} counter");
        let _ = writeln!(out, "rts_adapt_{name} {value}");
    }
    out.push_str("# TYPE rts_adapt_shared_store_entries gauge\n");
    let _ = writeln!(
        out,
        "rts_adapt_shared_store_entries {}",
        report.shared_store.entries
    );
    out
}

/// Wraps the Prometheus exposition in one JSON line for the line
/// protocol: `{"seq":N,"verdict":"metrics_text","content_type":...,
/// "text":"..."}` with the text JSON-escaped.
#[must_use]
pub fn render_metrics_text(seq: u64, report: &MetricsReport) -> String {
    let mut out = String::with_capacity(4096);
    let _ = write!(
        out,
        "{{\"seq\":{seq},\"verdict\":\"metrics_text\",\
         \"content_type\":\"text/plain; version=0.0.4\",\"text\":"
    );
    json::write_escaped(&mut out, &render_prometheus(report));
    out.push('}');
    out
}

/// Renders one request as a protocol line (no trailing newline) — the
/// inverse of [`parse_request`] for every op, pinned by a round-trip
/// test. Protocol *clients* use this: the replication forwarder ships
/// its appends with it, and perfbench replays a recorded workload over
/// real TCP connections to the daemons with it.
#[must_use]
pub fn render_request(request: &Request) -> String {
    let mut out = String::with_capacity(96);
    match request {
        Request::Register { tenant, cores, rt } => {
            let _ = write!(
                out,
                "{{\"op\":\"register\",\"tenant\":{tenant},\"cores\":{cores},\"rt\":["
            );
            for (i, spec) in rt.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"wcet_ms\":");
                write_ms(&mut out, spec.wcet);
                out.push_str(",\"period_ms\":");
                write_ms(&mut out, spec.period);
                let _ = write!(out, ",\"core\":{}}}", spec.core);
            }
            out.push_str("]}");
        }
        Request::Delta { tenant, event } => match event {
            DeltaEvent::Arrival { monitor } => {
                let _ = write!(
                    out,
                    "{{\"op\":\"arrival\",\"tenant\":{tenant},\"passive_ms\":"
                );
                write_ms(&mut out, monitor.passive_wcet());
                out.push_str(",\"active_ms\":");
                write_ms(&mut out, monitor.active_wcet());
                out.push_str(",\"t_max_ms\":");
                write_ms(&mut out, monitor.t_max());
                out.push('}');
            }
            DeltaEvent::Departure { slot } => {
                let _ = write!(
                    out,
                    "{{\"op\":\"departure\",\"tenant\":{tenant},\"slot\":{slot}}}"
                );
            }
            DeltaEvent::WcetUpdate {
                slot,
                passive_wcet,
                active_wcet,
            } => {
                let _ = write!(
                    out,
                    "{{\"op\":\"wcet_update\",\"tenant\":{tenant},\"slot\":{slot},\"passive_ms\":"
                );
                write_ms(&mut out, *passive_wcet);
                out.push_str(",\"active_ms\":");
                write_ms(&mut out, *active_wcet);
                out.push('}');
            }
            DeltaEvent::ModeChange { slot, mode } => {
                let mode = match mode {
                    MonitorMode::Passive => "passive",
                    MonitorMode::Active => "active",
                };
                let _ = write!(
                    out,
                    "{{\"op\":\"mode\",\"tenant\":{tenant},\"slot\":{slot},\"mode\":\"{mode}\"}}"
                );
            }
        },
        Request::Query { tenant } => {
            let _ = write!(out, "{{\"op\":\"query\",\"tenant\":{tenant}}}");
        }
        Request::Export { tenant } => {
            let _ = write!(out, "{{\"op\":\"export\",\"tenant\":{tenant}}}");
        }
        Request::Import { tenant, history } => {
            let _ = write!(out, "{{\"op\":\"import\",\"tenant\":{tenant},\"journal\":");
            out.push_str(&journal::render_history(history));
            out.push('}');
        }
        Request::Evict { tenant } => {
            let _ = write!(out, "{{\"op\":\"evict\",\"tenant\":{tenant}}}");
        }
        Request::Replicate {
            tenant,
            source,
            payload,
        } => {
            let _ = write!(
                out,
                "{{\"op\":\"replicate\",\"tenant\":{tenant},\"source\":"
            );
            json::write_escaped(&mut out, source);
            match payload {
                ReplPayload::Reset { history } => {
                    out.push_str(",\"kind\":\"reset\",\"journal\":");
                    out.push_str(&journal::render_history(history));
                }
                ReplPayload::Append { event, at } => {
                    let _ = write!(out, ",\"kind\":\"append\",\"at\":{at},\"entry\":");
                    out.push_str(&journal::render_event(event));
                }
                ReplPayload::Retire => out.push_str(",\"kind\":\"retire\""),
            }
            out.push('}');
        }
        Request::Adopt { tenant } => {
            let _ = write!(out, "{{\"op\":\"adopt\",\"tenant\":{tenant}}}");
        }
    }
    out
}

/// One duration as an exact decimal `*_ms` value (ticks are tenths of
/// a millisecond), so a render→parse round trip loses nothing.
fn write_ms(out: &mut String, d: Duration) {
    let ticks = d.as_ticks();
    if ticks % TICKS_PER_MS == 0 {
        let _ = write!(out, "{}", ticks / TICKS_PER_MS);
    } else {
        let _ = write!(out, "{}.{}", ticks / TICKS_PER_MS, ticks % TICKS_PER_MS);
    }
}

fn write_ms_array(out: &mut String, durations: &[Duration]) {
    out.push('[');
    for (i, d) in durations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_ms(out, *d);
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    #[test]
    fn parses_every_op() {
        let reg = parse_request(
            r#"{"op":"register","tenant":1,"cores":2,"rt":[{"wcet_ms":240,"period_ms":500,"core":0}]}"#,
        )
        .unwrap();
        assert_eq!(
            reg,
            Request::Register {
                tenant: 1,
                cores: 2,
                rt: vec![RtSpec {
                    wcet: ms(240),
                    period: ms(500),
                    core: 0
                }],
            }
        );
        let arr = parse_request(
            r#"{"op":"arrival","tenant":1,"passive_ms":100,"active_ms":350,"t_max_ms":5000}"#,
        )
        .unwrap();
        assert_eq!(
            arr,
            Request::Delta {
                tenant: 1,
                event: DeltaEvent::Arrival {
                    monitor: MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap()
                }
            }
        );
        // Single-mode arrival: active defaults to passive.
        let fixed =
            parse_request(r#"{"op":"arrival","tenant":1,"passive_ms":223,"t_max_ms":10000}"#)
                .unwrap();
        assert_eq!(
            fixed,
            Request::Delta {
                tenant: 1,
                event: DeltaEvent::Arrival {
                    monitor: MonitorSpec::fixed(ms(223), ms(10_000)).unwrap()
                }
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"departure","tenant":1,"slot":2}"#).unwrap(),
            Request::Delta {
                tenant: 1,
                event: DeltaEvent::Departure { slot: 2 }
            }
        );
        assert_eq!(
            parse_request(
                r#"{"op":"wcet_update","tenant":1,"slot":0,"passive_ms":120,"active_ms":400}"#
            )
            .unwrap(),
            Request::Delta {
                tenant: 1,
                event: DeltaEvent::WcetUpdate {
                    slot: 0,
                    passive_wcet: ms(120),
                    active_wcet: ms(400),
                }
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"mode","tenant":1,"slot":0,"mode":"active"}"#).unwrap(),
            Request::Delta {
                tenant: 1,
                event: DeltaEvent::ModeChange {
                    slot: 0,
                    mode: MonitorMode::Active
                }
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"query","tenant":6}"#).unwrap(),
            Request::Query { tenant: 6 }
        );
    }

    #[test]
    fn fractional_milliseconds_round_to_ticks() {
        let req =
            parse_request(r#"{"op":"arrival","tenant":1,"passive_ms":0.15,"t_max_ms":10.24}"#)
                .unwrap();
        let Request::Delta {
            event: DeltaEvent::Arrival { monitor },
            ..
        } = req
        else {
            panic!()
        };
        assert_eq!(monitor.passive_wcet(), Duration::from_ticks(2)); // 0.15 ms -> 1.5 -> 2 ticks
        assert_eq!(monitor.t_max(), Duration::from_ticks(102));
    }

    #[test]
    fn bad_requests_report_the_field() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request(r#"{"op":"query"}"#)
            .unwrap_err()
            .contains("tenant"));
        assert!(parse_request(r#"{"op":"warp","tenant":1}"#)
            .unwrap_err()
            .contains("warp"));
        assert!(parse_request(r#"{"op":"mode","tenant":1,"slot":0,"mode":"calm"}"#).is_err());
        assert!(
            parse_request(r#"{"op":"register","tenant":1,"cores":2,"rt":[{"period_ms":5}]}"#)
                .unwrap_err()
                .contains("rt[0]")
        );
        // Invalid monitor shape caught at parse time.
        assert!(parse_request(
            r#"{"op":"arrival","tenant":1,"passive_ms":400,"active_ms":100,"t_max_ms":5000}"#
        )
        .is_err());
    }

    #[test]
    fn stats_is_a_serving_layer_command() {
        assert_eq!(
            parse_command(r#"{"op":"stats"}"#).unwrap(),
            Command::Report(ReportFormat::Stats)
        );
        // The engine-request parser refuses it with a pointed reason…
        assert!(parse_request(r#"{"op":"stats"}"#)
            .unwrap_err()
            .contains("serving layer"));
        // …while ordinary requests round-trip through parse_command.
        assert_eq!(
            parse_command(r#"{"op":"query","tenant":6}"#).unwrap(),
            Command::Engine(Request::Query { tenant: 6 })
        );
    }

    #[test]
    fn stats_renders_as_a_single_json_line() {
        let shards = vec![
            ShardSnapshot {
                shard: 0,
                queue_depth: 3,
                handled: 100,
                memo_hits: 50,
                memo_shared_hits: 10,
                memo_misses: 40,
                tenants: 7,
            },
            ShardSnapshot {
                shard: 1,
                queue_depth: 0,
                handled: 50,
                memo_hits: 0,
                memo_shared_hits: 0,
                memo_misses: 0,
                tenants: 2,
            },
        ];
        let report = MetricsReport {
            conns: ConnStats {
                live: 12,
                refused: 4,
                max: 64,
            },
            reactor: ReactorStats {
                flush_passes: 5,
                iovecs_written: 31,
            },
            shards,
            ..sample_metrics_report()
        };
        let line = render_stats(9, &report);
        // `stats` is the head of `metrics`: both open with one writer.
        let metrics = render_metrics(9, &report);
        let head = line
            .strip_suffix('}')
            .unwrap()
            .replace("\"stats\"", "\"metrics\"");
        assert!(metrics.starts_with(&head), "{line}\n{metrics}");
        assert_eq!(render_report(9, ReportFormat::Stats, &report), line);
        assert_eq!(render_report(9, ReportFormat::Json, &report), metrics);
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(parsed.get("seq").and_then(Json::as_u64), Some(9));
        assert_eq!(parsed.get("verdict").and_then(Json::as_str), Some("stats"));
        let conns = parsed.get("conns").unwrap();
        assert_eq!(conns.get("live").and_then(Json::as_u64), Some(12));
        assert_eq!(conns.get("refused").and_then(Json::as_u64), Some(4));
        assert_eq!(conns.get("max").and_then(Json::as_u64), Some(64));
        let rendered_reactors = parsed.get("reactors").and_then(Json::as_array).unwrap();
        assert_eq!(rendered_reactors.len(), 1);
        // The one reactor serves every connection: its entry repeats
        // the gauges next to its egress counters.
        for (field, value) in [
            ("reactor", 0),
            ("live", 12),
            ("refused", 4),
            ("max", 64),
            ("flush_passes", 5),
            ("iovecs_written", 31),
        ] {
            assert_eq!(
                rendered_reactors[0].get(field).and_then(Json::as_u64),
                Some(value),
                "reactors[0].{field}"
            );
        }
        let rendered_shards = parsed.get("shards").and_then(Json::as_array).unwrap();
        assert_eq!(rendered_shards.len(), 2);
        assert_eq!(
            rendered_shards[0].get("queue_depth").and_then(Json::as_u64),
            Some(3)
        );
        let rate = rendered_shards[0]
            .get("memo_hit_rate")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((rate - 0.6).abs() < 1e-9, "{rate}");
        assert_eq!(
            rendered_shards[0]
                .get("memo_shared_hits")
                .and_then(Json::as_u64),
            Some(10)
        );
        assert_eq!(
            rendered_shards[1].get("tenants").and_then(Json::as_u64),
            Some(2)
        );
    }

    #[test]
    fn responses_render_as_single_json_lines() {
        let admitted = Response::Admitted(Admitted {
            tenant: 1,
            periods: vec![ms(7582), Duration::from_ticks(27_835)],
            response_times: vec![ms(7582), Duration::from_ticks(27_835)],
            fingerprint: 0xf00d_cafe,
            cached: true,
        });
        let line = render_response(3, &admitted);
        assert_eq!(
            line,
            "{\"seq\":3,\"tenant\":1,\"verdict\":\"accept\",\"cached\":true,\
             \"fingerprint\":\"00000000f00dcafe\",\"periods_ms\":[7582,2783.5],\
             \"response_times_ms\":[7582,2783.5]}"
        );
        // The line must itself parse as JSON.
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(parsed.get("verdict").and_then(Json::as_str), Some("accept"));
        let rejected = render_response(
            4,
            &Response::Rejected {
                tenant: 2,
                reason: "a \"quoted\" reason".into(),
            },
        );
        let parsed = crate::json::parse(&rejected).unwrap();
        assert_eq!(
            parsed.get("reason").and_then(Json::as_str),
            Some("a \"quoted\" reason")
        );
        assert_eq!(parsed.get("seq").and_then(Json::as_u64), Some(4));
    }

    /// `render_request` is the exact inverse of `parse_request`,
    /// including fractional-millisecond durations.
    #[test]
    fn requests_render_and_reparse_identically() {
        let modal = MonitorSpec::modal(
            Duration::from_ticks(53_421), // 5342.1 ms: exercises the decimal
            Duration::from_ticks(60_000),
            Duration::from_ticks(100_005),
        )
        .unwrap();
        let requests = vec![
            Request::Register {
                tenant: 7,
                cores: 2,
                rt: vec![
                    RtSpec {
                        wcet: ms(240),
                        period: Duration::from_ticks(5_005),
                        core: 0,
                    },
                    RtSpec {
                        wcet: ms(1120),
                        period: ms(5000),
                        core: 1,
                    },
                ],
            },
            Request::Delta {
                tenant: 7,
                event: DeltaEvent::Arrival { monitor: modal },
            },
            Request::Delta {
                tenant: 7,
                event: DeltaEvent::Departure { slot: 2 },
            },
            Request::Delta {
                tenant: 7,
                event: DeltaEvent::WcetUpdate {
                    slot: 1,
                    passive_wcet: Duration::from_ticks(1_234),
                    active_wcet: Duration::from_ticks(4_321),
                },
            },
            Request::Delta {
                tenant: 7,
                event: DeltaEvent::ModeChange {
                    slot: 0,
                    mode: MonitorMode::Active,
                },
            },
            Request::Query { tenant: 7 },
            Request::Export { tenant: 7 },
            Request::Evict { tenant: 7 },
            Request::Replicate {
                tenant: 7,
                source: "d\"0\"".into(), // exercises source escaping
                payload: crate::replication::ReplPayload::Reset {
                    history: crate::journal::TenantHistory {
                        cores: 2,
                        rt: vec![RtSpec {
                            wcet: ms(240),
                            period: Duration::from_ticks(5_005),
                            core: 0,
                        }],
                        snapshot: None,
                        events: vec![DeltaEvent::Departure { slot: 1 }],
                    },
                },
            },
            Request::Replicate {
                tenant: 7,
                source: "d1".into(),
                payload: crate::replication::ReplPayload::Append {
                    event: DeltaEvent::Arrival { monitor: modal },
                    at: 184,
                },
            },
            Request::Replicate {
                tenant: 7,
                source: "d1".into(),
                payload: crate::replication::ReplPayload::Retire,
            },
            Request::Adopt { tenant: 7 },
        ];
        for request in requests {
            let line = render_request(&request);
            assert_eq!(
                parse_request(&line).unwrap(),
                request,
                "round trip failed for {line}"
            );
        }
    }

    #[test]
    fn replicated_response_renders_verdict_and_applied() {
        let line = render_response(
            9,
            &Response::Replicated {
                tenant: 4,
                applied: false,
            },
        );
        assert_eq!(
            line,
            "{\"seq\":9,\"tenant\":4,\"verdict\":\"replicated\",\"applied\":false}"
        );
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("verdict").and_then(Json::as_str),
            Some("replicated")
        );
    }

    #[test]
    fn metrics_is_a_serving_layer_command() {
        assert_eq!(
            parse_command(r#"{"op":"metrics"}"#).unwrap(),
            Command::Report(ReportFormat::Json)
        );
        assert_eq!(
            parse_command(r#"{"op":"metrics","format":"prometheus"}"#).unwrap(),
            Command::Report(ReportFormat::Prometheus)
        );
        // Unknown formats fall back to the JSON report rather than erroring.
        assert_eq!(
            parse_command(r#"{"op":"metrics","format":"xml"}"#).unwrap(),
            Command::Report(ReportFormat::Json)
        );
        assert!(parse_request(r#"{"op":"metrics"}"#)
            .unwrap_err()
            .contains("serving layer"));
    }

    fn sample_metrics_report() -> MetricsReport {
        let mut stages: Vec<(Stage, Histogram)> = Stage::ALL
            .iter()
            .map(|&stage| (stage, Histogram::new()))
            .collect();
        for (stage, histogram) in &mut stages {
            if *stage == Stage::Solve {
                for ns in [800, 1_500, 2_000_000] {
                    histogram.record(ns);
                }
            }
            if *stage == Stage::Persist {
                histogram.record(150_000);
            }
        }
        MetricsReport {
            conns: ConnStats {
                live: 3,
                refused: 1,
                max: 64,
            },
            reactor: ReactorStats {
                flush_passes: 6,
                iovecs_written: 18,
            },
            shards: vec![ShardSnapshot {
                shard: 0,
                queue_depth: 2,
                handled: 10,
                memo_hits: 4,
                memo_shared_hits: 1,
                memo_misses: 5,
                tenants: 3,
            }],
            stages,
            solver: hydra_core::phase_stats::SelectionStats {
                selections: 5,
                probes: 40,
                cascades: 41,
                cascade_tasks: 50,
            },
            walks: rts_analysis::phase_stats::WalkStats {
                walks: 7,
                evals: 70,
                quick_confirms: 2,
            },
            shared_store: hydra_core::SharedStoreStats {
                hits: 3,
                misses: 2,
                entries: 2,
                flushes: 1,
            },
            journal: journal::JournalStats {
                appends: 9,
                snapshots: 1,
                fsyncs: 4,
                commits: 3,
                torn_tails: 1,
            },
            slow: vec![SlowRequest {
                tenant: 4,
                conn: 2,
                seq: 11,
                parse_ns: 1_000,
                queue_ns: 2_000,
                solve_ns: 3_000,
                persist_ns: 150_000,
                respond_ns: 4_000,
                flush_ns: 5_000,
                total_ns: 165_000,
            }],
        }
    }

    /// Every cataloged series is present in the JSON report even when
    /// its histogram is empty — the field set never depends on load.
    #[test]
    fn metrics_render_carries_every_cataloged_series() {
        let line = render_metrics(42, &sample_metrics_report());
        let parsed = crate::json::parse(&line).unwrap();
        assert_eq!(parsed.get("seq").and_then(Json::as_u64), Some(42));
        assert_eq!(
            parsed.get("verdict").and_then(Json::as_str),
            Some("metrics")
        );
        let stages = parsed.get("stages").unwrap();
        for stage in Stage::ALL {
            let entry = stages
                .get(stage.name())
                .unwrap_or_else(|| panic!("stage {} missing", stage.name()));
            for field in ["count", "p50_us", "p90_us", "p99_us", "max_us", "mean_us"] {
                assert!(entry.get(field).is_some(), "{}.{field}", stage.name());
            }
        }
        assert_eq!(
            stages
                .get("solve")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(3)
        );
        // Quantiles are bucket upper edges: the p50 of {0.8µs, 1.5µs,
        // 2ms} lands in the bucket holding 1.5µs, never above 2ms.
        let p50 = stages
            .get("solve")
            .and_then(|s| s.get("p50_us"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((1.5..2.0).contains(&p50), "{p50}");
        assert!(parsed.get("shards").and_then(Json::as_array).is_some());
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
            let value = parsed
                .get(block)
                .unwrap_or_else(|| panic!("block {block} missing"));
            for field in fields {
                assert!(value.get(field).is_some(), "{block}.{field}");
            }
        }
        let reactors = parsed.get("reactors").and_then(Json::as_array).unwrap();
        assert_eq!(reactors.len(), 1);
        for field in [
            "reactor",
            "live",
            "refused",
            "max",
            "flush_passes",
            "iovecs_written",
        ] {
            assert!(reactors[0].get(field).is_some(), "reactors[0].{field}");
        }
        assert_eq!(
            reactors[0].get("flush_passes").and_then(Json::as_u64),
            Some(6)
        );
        let solver = parsed.get("solver").unwrap();
        assert_eq!(solver.get("probes").and_then(Json::as_u64), Some(40));
        let walks = parsed.get("walks").unwrap();
        assert_eq!(walks.get("quick_confirms").and_then(Json::as_u64), Some(2));
        let store = parsed.get("shared_store").unwrap();
        assert_eq!(store.get("flushes").and_then(Json::as_u64), Some(1));
        assert_eq!(
            stages
                .get("persist")
                .and_then(|s| s.get("count"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let journal = parsed.get("journal").unwrap();
        assert_eq!(journal.get("fsyncs").and_then(Json::as_u64), Some(4));
        assert_eq!(journal.get("commits").and_then(Json::as_u64), Some(3));
        assert!(
            line.contains("\"fsyncs\":4,\"commits\":3,\"torn_tails\":1}"),
            "{line}"
        );
        assert_eq!(journal.get("torn_tails").and_then(Json::as_u64), Some(1));
        let slow = parsed.get("slow").and_then(Json::as_array).unwrap();
        assert_eq!(slow[0].get("tenant").and_then(Json::as_u64), Some(4));
        assert_eq!(slow[0].get("conn").and_then(Json::as_u64), Some(2));
        assert_eq!(
            slow[0].get("persist_us").and_then(Json::as_f64),
            Some(150.0)
        );
    }

    /// The Prometheus exposition is structurally sound: cumulative
    /// non-decreasing buckets capped by `+Inf` = `_count`, and the
    /// line-protocol wrapper carries it byte-for-byte.
    #[test]
    fn prometheus_exposition_is_well_formed() {
        let report = sample_metrics_report();
        let text = render_prometheus(&report);
        for series in [
            "rts_adapt_conns_live",
            "rts_adapt_shard_handled",
            "rts_adapt_solver_probes",
            "rts_adapt_walks_total",
            "rts_adapt_shared_store_hits",
            "rts_adapt_journal_fsyncs",
            "rts_adapt_journal_commits 3",
            "rts_adapt_journal_torn_tails 1",
            "rts_adapt_stage_latency_us_count{stage=\"persist\"} 1",
            "rts_adapt_reactor_live{reactor=\"0\"} 3",
            "rts_adapt_reactor_max{reactor=\"0\"} 64",
            "rts_adapt_reactor_flush_passes{reactor=\"0\"} 6",
            "rts_adapt_reactor_iovecs_written{reactor=\"0\"} 18",
        ] {
            assert!(text.contains(series), "missing series {series}");
        }
        let solve_buckets: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("rts_adapt_stage_latency_us_bucket{stage=\"solve\""))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(solve_buckets.len(), PROMETHEUS_LE_US.len() + 1);
        assert!(
            solve_buckets.windows(2).all(|w| w[0] <= w[1]),
            "buckets must be cumulative: {solve_buckets:?}"
        );
        assert_eq!(*solve_buckets.last().unwrap(), 3);

        let wrapped = render_metrics_text(7, &report);
        let parsed = crate::json::parse(&wrapped).unwrap();
        assert_eq!(
            parsed.get("verdict").and_then(Json::as_str),
            Some("metrics_text")
        );
        assert_eq!(
            parsed.get("content_type").and_then(Json::as_str),
            Some("text/plain; version=0.0.4")
        );
        assert_eq!(parsed.get("text").and_then(Json::as_str), Some(&*text));
    }
}
