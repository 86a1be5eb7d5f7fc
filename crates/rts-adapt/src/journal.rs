//! Per-tenant event-log persistence: append-only deltas, snapshot
//! compaction, replay, and the portable hand-off payload.
//!
//! The admission service's durable state is tiny: a tenant is fully
//! determined by its frozen registration (platform + partitioned RT
//! tasks) and the sequence of **accepted** [`DeltaEvent`]s — rejected
//! deltas never change the committed configuration, so they are not
//! logged. This module writes that history as one line-JSON file per
//! tenant (`tenant_<id>.jsonl`, via the crate's own [`crate::json`]
//! codec) and rebuilds a [`TenantState`] from it.
//!
//! # File format
//!
//! ```text
//! line 1            {"event":"register","cores":M,"rt":[...]}
//! line 2 (optional) {"event":"snapshot","fingerprint":"…","monitors":[...]}
//! lines 3+          one accepted delta per line (the *tail*)
//! ```
//!
//! The snapshot line is what keeps journals from growing without bound:
//! [`JournalDir::snapshot_tenant`] atomically replaces the file with a
//! registration + snapshot pair (write-then-rename), truncating the
//! delta log beneath it. A journal written before snapshots existed —
//! registration followed directly by deltas — is still a valid journal
//! and recovers tail-only (backward compatibility is pinned by the
//! `journal_props` battery).
//!
//! # Why replay is exact
//!
//! [`replay`] rebuilds the snapshot's configuration through
//! [`TenantState::restore`] — one full Algorithm 1 admission of the
//! snapshotted monitor table — then re-applies the tail, in order,
//! through the very same [`TenantState::apply`] the live service used.
//! Admission is a pure function of (frozen RT system, committed monitor
//! table, event), so every replayed step re-admits with the same verdict
//! and the same selected periods, and the replayed state's monitor
//! table, committed period selection (periods *and* response times) and
//! configuration fingerprint are **bit-identical** to the live tenant's,
//! wherever the snapshot was cut (the `journal_props` property battery
//! pins all three equivalences: snapshot+tail ≡ full log ≡ live). Memo
//! statistics are *not* part of that guarantee: the live engine may have
//! analysed rejected configurations the journal deliberately forgets.
//!
//! Nothing is *trusted* from a snapshot beyond the configuration itself:
//! restore re-verifies it through the analysis, and the recorded
//! fingerprint must match the restored one — so recovery and hand-off
//! never install a configuration the analysis has not re-admitted.
//!
//! # Group commit
//!
//! Appends are durable before they are acknowledged, but they do not pay
//! one `fsync` each. A serving engine collects the appends of one group
//! — every request its shard worker found queued — in an [`AppendGroup`]:
//! [`JournalDir::append_deferred`] issues one `write(2)` per event (line
//! plus newline, no user-space buffer) to a handle the group holds open,
//! and [`JournalDir::commit`] then fsyncs every touched file once and
//! only afterwards hands the group's appends to the replication stream.
//! The engine releases the group's answers after the commit, so
//! "acknowledged ⇒ durable" holds and a replica never receives bytes its
//! primary has not synced. Whole-file rewrites (registration, snapshot,
//! import, retire) commit the group so far first, which keeps every
//! tenant's replication ops in journal order. [`JournalDir::append_event`]
//! is the one-event group: write, fsync, replicate.
//!
//! A crash inside a group can leave an unterminated final line — an
//! event that was never synced, hence never acknowledged.
//! [`JournalDir::load_tenant`] ignores such a torn tail, and boot
//! recovery ([`JournalDir::recover_tenant`]) truncates it away (counted
//! as [`JournalStats::torn_tails`]). A malformed line that *is*
//! newline-terminated was written whole and still fails the load.
//!
//! A journal is only trustworthy if it is *complete*: a file missing one
//! accepted event would still replay cleanly — to the wrong state. The
//! engine therefore [`poison`](JournalDir::poison_tenant)s a tenant's
//! journal the moment a write for it fails (including a failed snapshot
//! rewrite), renaming the partial history out of recovery's sight; a
//! restart then reports the tenant as not recovered (loud, actionable)
//! instead of serving a silently divergent configuration.
//!
//! # Hand-off
//!
//! [`TenantHistory`] doubles as the hand-off payload between daemons:
//! [`render_history`]/[`parse_history`] give it a single-object JSON
//! form carried by the protocol's `export`/`import` verbs (see
//! [`crate::proto`]). An export is a compacted history (snapshot, empty
//! tail); import accepts any snapshot+tail shape and replays it, so a
//! journal file's content can be handed off too — convert it with
//! [`JournalDir::load_tenant`] + [`render_history`] (pasting the
//! multi-line file itself is refused, not silently truncated).
//!
//! All durations are serialized as integer **ticks** (not the wire
//! protocol's fractional milliseconds), so the round trip involves no
//! floating-point rounding at all.

use std::collections::HashMap;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::{DeltaEvent, MonitorMode, MonitorSpec};
use rts_model::time::Duration;

use crate::engine::{build_rt_system, RtSpec};
use crate::json::{self, Json};
use crate::tenant::{MonitorEntry, TenantState};

fn mode_str(mode: MonitorMode) -> &'static str {
    match mode {
        MonitorMode::Passive => "passive",
        MonitorMode::Active => "active",
    }
}

/// Renders one accepted event as a journal line (no trailing newline).
#[must_use]
pub fn render_event(event: &DeltaEvent) -> String {
    match *event {
        DeltaEvent::Arrival { monitor } => format!(
            "{{\"event\":\"arrival\",\"passive_ticks\":{},\"active_ticks\":{},\"t_max_ticks\":{}}}",
            monitor.passive_wcet().as_ticks(),
            monitor.active_wcet().as_ticks(),
            monitor.t_max().as_ticks(),
        ),
        DeltaEvent::Departure { slot } => {
            format!("{{\"event\":\"departure\",\"slot\":{slot}}}")
        }
        DeltaEvent::WcetUpdate {
            slot,
            passive_wcet,
            active_wcet,
        } => format!(
            "{{\"event\":\"wcet_update\",\"slot\":{slot},\"passive_ticks\":{},\"active_ticks\":{}}}",
            passive_wcet.as_ticks(),
            active_wcet.as_ticks(),
        ),
        DeltaEvent::ModeChange { slot, mode } => format!(
            "{{\"event\":\"mode\",\"slot\":{slot},\"mode\":\"{}\"}}",
            mode_str(mode)
        ),
    }
}

fn field_ticks(value: &Json, key: &str) -> Result<Duration, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .map(Duration::from_ticks)
        .ok_or_else(|| format!("missing tick field \"{key}\""))
}

fn field_usize(value: &Json, key: &str) -> Result<usize, String> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("missing integer field \"{key}\""))
}

fn field_mode(value: &Json, key: &str) -> Result<MonitorMode, String> {
    match value.get(key).and_then(Json::as_str) {
        Some("passive") => Ok(MonitorMode::Passive),
        Some("active") => Ok(MonitorMode::Active),
        other => Err(format!("unknown mode {other:?}")),
    }
}

/// Parses one journal event line.
///
/// # Errors
///
/// A description of the first syntax or schema problem.
pub fn parse_event(line: &str) -> Result<DeltaEvent, String> {
    event_from_value(&json::parse(line)?)
}

/// Parses one journal event from its already-parsed JSON object (also
/// the element shape of a [`TenantHistory`]'s `events` array).
///
/// # Errors
///
/// A description of the first schema problem.
pub fn event_from_value(value: &Json) -> Result<DeltaEvent, String> {
    match value.get("event").and_then(Json::as_str) {
        Some("arrival") => {
            let monitor = MonitorSpec::modal(
                field_ticks(value, "passive_ticks")?,
                field_ticks(value, "active_ticks")?,
                field_ticks(value, "t_max_ticks")?,
            )
            .map_err(|e| e.to_string())?;
            Ok(DeltaEvent::Arrival { monitor })
        }
        Some("departure") => Ok(DeltaEvent::Departure {
            slot: field_usize(value, "slot")?,
        }),
        Some("wcet_update") => Ok(DeltaEvent::WcetUpdate {
            slot: field_usize(value, "slot")?,
            passive_wcet: field_ticks(value, "passive_ticks")?,
            active_wcet: field_ticks(value, "active_ticks")?,
        }),
        Some("mode") => Ok(DeltaEvent::ModeChange {
            slot: field_usize(value, "slot")?,
            mode: field_mode(value, "mode")?,
        }),
        other => Err(format!("unknown event {other:?}")),
    }
}

fn render_rt_array(out: &mut String, rt: &[RtSpec]) {
    out.push('[');
    for (i, spec) in rt.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"wcet_ticks\":{},\"period_ticks\":{},\"core\":{}}}",
            spec.wcet.as_ticks(),
            spec.period.as_ticks(),
            spec.core,
        ));
    }
    out.push(']');
}

fn render_registration(cores: usize, rt: &[RtSpec]) -> String {
    let mut out = format!("{{\"event\":\"register\",\"cores\":{cores},\"rt\":");
    render_rt_array(&mut out, rt);
    out.push('}');
    out
}

fn parse_rt_array(value: &Json) -> Result<Vec<RtSpec>, String> {
    let items = value
        .get("rt")
        .and_then(Json::as_array)
        .ok_or("missing array field \"rt\"")?;
    let mut rt = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        rt.push(RtSpec {
            wcet: field_ticks(item, "wcet_ticks").map_err(|e| format!("rt[{i}]: {e}"))?,
            period: field_ticks(item, "period_ticks").map_err(|e| format!("rt[{i}]: {e}"))?,
            core: field_usize(item, "core").map_err(|e| format!("rt[{i}]: {e}"))?,
        });
    }
    Ok(rt)
}

fn parse_registration(line: &str) -> Result<(usize, Vec<RtSpec>), String> {
    let value = json::parse(line)?;
    if value.get("event").and_then(Json::as_str) != Some("register") {
        return Err("journal must start with a register line".into());
    }
    Ok((field_usize(&value, "cores")?, parse_rt_array(&value)?))
}

/// A snapshot of a tenant's full admitted state: the monitor table
/// (specs and current modes) plus the committed configuration's
/// fingerprint as an integrity cross-check. Periods and response times
/// are deliberately *not* recorded — restore re-derives them through the
/// analysis, so a snapshot can never smuggle in an unverified
/// configuration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TenantSnapshot {
    /// The monitor table at the snapshot instant (priority order).
    pub monitors: Vec<MonitorEntry>,
    /// Digest of the committed configuration at the snapshot instant;
    /// replay verifies the restored state reproduces it.
    pub fingerprint: u64,
}

impl TenantSnapshot {
    /// Captures a live tenant's state.
    #[must_use]
    pub fn of(state: &TenantState) -> Self {
        TenantSnapshot {
            monitors: state.monitors().to_vec(),
            fingerprint: state.admitted_fingerprint(),
        }
    }
}

/// Renders a snapshot as its journal line (no trailing newline).
#[must_use]
pub fn render_snapshot(snapshot: &TenantSnapshot) -> String {
    let mut out = format!(
        "{{\"event\":\"snapshot\",\"fingerprint\":\"{:016x}\",\"monitors\":[",
        snapshot.fingerprint
    );
    for (i, entry) in snapshot.monitors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"passive_ticks\":{},\"active_ticks\":{},\"t_max_ticks\":{},\"mode\":\"{}\"}}",
            entry.spec.passive_wcet().as_ticks(),
            entry.spec.active_wcet().as_ticks(),
            entry.spec.t_max().as_ticks(),
            mode_str(entry.mode),
        ));
    }
    out.push_str("]}");
    out
}

/// Parses a snapshot from its JSON object form (the journal line or the
/// embedded `snapshot` member of a [`TenantHistory`] payload).
///
/// # Errors
///
/// A description of the first schema problem.
pub fn snapshot_from_value(value: &Json) -> Result<TenantSnapshot, String> {
    let fingerprint = value
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or("missing string field \"fingerprint\"")
        .and_then(|s| u64::from_str_radix(s, 16).map_err(|_| "fingerprint is not a hex integer"))?;
    let items = value
        .get("monitors")
        .and_then(Json::as_array)
        .ok_or("missing array field \"monitors\"")?;
    let mut monitors = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let spec = MonitorSpec::modal(
            field_ticks(item, "passive_ticks").map_err(|e| format!("monitors[{i}]: {e}"))?,
            field_ticks(item, "active_ticks").map_err(|e| format!("monitors[{i}]: {e}"))?,
            field_ticks(item, "t_max_ticks").map_err(|e| format!("monitors[{i}]: {e}"))?,
        )
        .map_err(|e| format!("monitors[{i}]: {e}"))?;
        monitors.push(MonitorEntry {
            spec,
            mode: field_mode(item, "mode").map_err(|e| format!("monitors[{i}]: {e}"))?,
        });
    }
    Ok(TenantSnapshot {
        monitors,
        fingerprint,
    })
}

/// Everything a tenant journal records: the frozen registration, an
/// optional snapshot, and the accepted tail beneath it. Also the
/// portable hand-off payload (see [`render_history`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TenantHistory {
    /// Core count `M` of the tenant's platform.
    pub cores: usize,
    /// The partitioned RT tasks, as registered.
    pub rt: Vec<RtSpec>,
    /// The compaction snapshot, if the journal has one. `None` is the
    /// pre-snapshot format: the whole accepted history lives in
    /// `events`.
    pub snapshot: Option<TenantSnapshot>,
    /// Accepted deltas since the snapshot (or since registration, when
    /// there is no snapshot), in commit order.
    pub events: Vec<DeltaEvent>,
}

/// Renders a history as one JSON object — the `export`/`import` wire
/// payload. Durations are integer ticks, exactly as in the journal
/// files, so hand-off involves no floating-point rounding.
#[must_use]
pub fn render_history(history: &TenantHistory) -> String {
    let mut out = format!("{{\"cores\":{},\"rt\":", history.cores);
    render_rt_array(&mut out, &history.rt);
    if let Some(snapshot) = &history.snapshot {
        out.push_str(",\"snapshot\":");
        out.push_str(&render_snapshot(snapshot));
    }
    out.push_str(",\"events\":[");
    for (i, event) in history.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_event(event));
    }
    out.push_str("]}");
    out
}

/// Parses a history from its single-object JSON form (the inverse of
/// [`render_history`]; the `snapshot` member is optional, `events` may
/// be absent for an empty tail).
///
/// # Errors
///
/// A description of the first schema problem.
pub fn parse_history(value: &Json) -> Result<TenantHistory, String> {
    // A history payload never carries an "event" key — that is the shape
    // of a single journal *line*. An operator pasting a journal file's
    // registration line here would otherwise import an empty tenant
    // silently (the snapshot/tail lines of the file having been lost to
    // line splitting); refuse with a pointer at the mistake instead.
    if value.get("event").is_some() {
        return Err(
            "this is a journal line, not a hand-off payload — export the tenant \
             (or convert the journal file) to get the single-object form"
                .into(),
        );
    }
    let cores = field_usize(value, "cores")?;
    let rt = parse_rt_array(value)?;
    let snapshot = match value.get("snapshot") {
        Some(v) => Some(snapshot_from_value(v).map_err(|e| format!("snapshot: {e}"))?),
        None => None,
    };
    let mut events = Vec::new();
    if let Some(tail) = value.get("events") {
        // Only an *absent* key means an empty tail — a present
        // non-array "events" is a mangled payload, and silently
        // dropping its deltas would install a divergent state.
        let items = tail.as_array().ok_or("field \"events\" must be an array")?;
        events.reserve(items.len());
        for (i, item) in items.iter().enumerate() {
            events.push(event_from_value(item).map_err(|e| format!("events[{i}]: {e}"))?);
        }
    }
    Ok(TenantHistory {
        cores,
        rt,
        snapshot,
        events,
    })
}

/// Why a journal could not be replayed.
#[derive(Debug)]
pub enum ReplayError {
    /// The journal file could not be read.
    Io(io::Error),
    /// A line failed to parse, or the file shape is wrong (including a
    /// snapshot whose recorded fingerprint does not match its own
    /// configuration).
    Malformed(String),
    /// The snapshot's configuration was not re-admitted — the journal
    /// does not match the code that replays it (e.g. a strategy
    /// mismatch, or a hand-edited file).
    SnapshotDiverged {
        /// The rejection reason.
        reason: String,
    },
    /// A journaled tail event was rejected on re-application.
    Diverged {
        /// Index of the failing event within the journal's tail.
        event: usize,
        /// The rejection/usage error text.
        reason: String,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "journal I/O error: {e}"),
            ReplayError::Malformed(msg) => write!(f, "malformed journal: {msg}"),
            ReplayError::SnapshotDiverged { reason } => {
                write!(f, "journal snapshot diverged: {reason}")
            }
            ReplayError::Diverged { event, reason } => {
                write!(f, "journal diverged at event {event}: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<io::Error> for ReplayError {
    fn from(e: io::Error) -> Self {
        ReplayError::Io(e)
    }
}

/// Process-wide durability counters, fed by every [`JournalDir`] write
/// path. Like the solver's phase counters they live in relaxed statics:
/// journal writes happen on whichever shard worker owns the tenant, far
/// below anything the metrics verb could thread a handle through, and
/// the numbers are monitoring telemetry, not synchronization.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct JournalStats {
    /// Accepted events appended (registration lines included).
    pub appends: u64,
    /// Snapshot compactions written (write-then-rename cycles).
    pub snapshots: u64,
    /// `fsync` calls issued: one per file a group commit touched, plus
    /// one per whole-file rewrite and per torn-tail truncation. The
    /// journal's syscall cost in the stage picture; `fsyncs / appends`
    /// falls below 1 as groups grow.
    pub fsyncs: u64,
    /// Group commits that synced at least one appended file (see
    /// [`JournalDir::commit`]).
    pub commits: u64,
    /// Unterminated final lines cut off by boot recovery (see
    /// [`JournalDir::recover_tenant`]).
    pub torn_tails: u64,
}

static APPENDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static SNAPSHOTS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static FSYNCS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static COMMITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static TORN_TAILS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Reads the process-wide journal counters.
#[must_use]
pub fn stats() -> JournalStats {
    use std::sync::atomic::Ordering::Relaxed;
    JournalStats {
        appends: APPENDS.load(Relaxed),
        snapshots: SNAPSHOTS.load(Relaxed),
        fsyncs: FSYNCS.load(Relaxed),
        commits: COMMITS.load(Relaxed),
        torn_tails: TORN_TAILS.load(Relaxed),
    }
}

fn count(counter: &std::sync::atomic::AtomicU64) {
    counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// The appends of one group commit: an open handle to every file the
/// group wrote to (with its length, when replicating), and the
/// replication ops held back until those files are synced. Filled by
/// [`JournalDir::append_deferred`], emptied by [`JournalDir::commit`] on
/// the same directory. Dropping a non-empty group closes its handles
/// without syncing them and discards the held ops.
#[derive(Debug, Default)]
pub struct AppendGroup {
    files: HashMap<u64, GroupFile>,
    held: Vec<(u64, DeltaEvent, u64)>,
}

#[derive(Debug)]
struct GroupFile {
    file: std::fs::File,
    len: u64,
}

impl AppendGroup {
    /// Drops `tenant`'s handle and held ops (its file is about to be
    /// poisoned, so nothing of it may be synced or replicated).
    fn forget(&mut self, tenant: u64) {
        self.files.remove(&tenant);
        self.held.retain(|&(t, _, _)| t != tenant);
    }
}

/// The length of the complete-line prefix of a journal's bytes: a
/// crash mid-append leaves an unterminated final line, which was never
/// synced, so never acknowledged.
fn complete_len(bytes: &[u8]) -> usize {
    bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
}

/// Best-effort removal of the `tenant_*.jsonl.tmp` strays in `dir` (see
/// [`JournalDir::at`]). A missing directory is a clean no-op.
fn sweep_stray_tmp(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("tenant_") && name.ends_with(".jsonl.tmp") {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// A directory of per-tenant journals, with an optional automatic
/// compaction policy that the owning engine consults, an optional
/// archive-retention cap, and an optional replication stream that
/// mirrors every journal mutation to a warm standby.
#[derive(Clone, Debug)]
pub struct JournalDir {
    dir: PathBuf,
    compact_every: Option<usize>,
    retain_archives: Option<usize>,
    replicate: Option<crate::replication::Replicator>,
}

impl JournalDir {
    /// A journal rooted at `dir` (created on first write), without
    /// automatic compaction. Opening the directory sweeps any stray
    /// `tenant_<id>.jsonl.tmp` left by a crash between the snapshot
    /// rewrite's `create` and `rename`, in `dir` and in its
    /// [`replica`](JournalDir::replica) store — such a file is never
    /// read by recovery (the rename never happened, so the previous
    /// journal is the truth) and would otherwise sit on disk forever.
    /// The sweep runs here, once, and never from a view derived from an
    /// open directory: a shard worker starting up must not delete a
    /// sibling worker's in-flight rewrite.
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        let dir = JournalDir {
            dir: dir.into(),
            compact_every: None,
            retain_archives: None,
            replicate: None,
        };
        sweep_stray_tmp(&dir.dir);
        sweep_stray_tmp(&dir.dir.join("replica"));
        dir
    }

    /// Sets the automatic compaction policy: the engine snapshots a
    /// tenant's journal once its tail reaches `every` accepted deltas
    /// (`0` disables). The policy travels with the directory handle, so
    /// it reaches every shard worker without extra plumbing.
    #[must_use]
    pub fn with_compaction(mut self, every: usize) -> Self {
        self.compact_every = (every > 0).then_some(every);
        self
    }

    /// The automatic compaction threshold, if enabled.
    #[must_use]
    pub fn compact_every(&self) -> Option<usize> {
        self.compact_every
    }

    /// Caps how many `.jsonl.retired` / `.jsonl.corrupt` archives are
    /// kept per tenant (`0` disables the cap). The coordinator's
    /// rebalancing retires a journal on every hand-off, so an unbounded
    /// fleet would otherwise grow archives without limit; with a cap,
    /// each new archive prunes the oldest ones beyond `keep`.
    #[must_use]
    pub fn with_archive_retention(mut self, keep: usize) -> Self {
        self.retain_archives = (keep > 0).then_some(keep);
        self
    }

    /// The archive-retention cap, if enabled.
    #[must_use]
    pub fn retain_archives(&self) -> Option<usize> {
        self.retain_archives
    }

    /// Attaches a replication stream: every journal mutation (begin,
    /// append, snapshot rewrite, retire) is mirrored to the replicator —
    /// appends once their group commit has synced them — which forwards
    /// it to a warm standby over the line protocol. The
    /// handle travels with clones, so every shard worker streams
    /// through the same forwarder. Journal writes never block on the
    /// network — replication is asynchronous by design.
    #[must_use]
    pub fn with_replication(mut self, replicator: crate::replication::Replicator) -> Self {
        self.replicate = Some(replicator);
        self
    }

    /// The replica store a *standby* keeps under this journal: a
    /// sibling `replica/` directory holding the mirrored journals of
    /// remote primaries. Kept strictly apart from the standby's own
    /// journals so boot recovery never installs a replica as a live
    /// tenant; no compaction and no onward replication apply (the
    /// replica mirrors the primary's compaction decisions verbatim).
    /// A pure view: it touches no file (crash strays were swept when
    /// the directory was opened).
    #[must_use]
    pub fn replica(&self) -> JournalDir {
        JournalDir {
            dir: self.dir.join("replica"),
            compact_every: None,
            retain_archives: self.retain_archives,
            replicate: None,
        }
    }

    /// The journal file of one tenant.
    #[must_use]
    pub fn path_for(&self, tenant: u64) -> PathBuf {
        self.dir.join(format!("tenant_{tenant}.jsonl"))
    }

    /// Starts (or restarts) a tenant's journal with its registration
    /// line. A re-registration truncates: the old history described a
    /// tenant that no longer exists.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn begin_tenant(&self, tenant: u64, cores: usize, rt: &[RtSpec]) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let mut f = std::fs::File::create(self.path_for(tenant))?;
        let mut line = render_registration(cores, rt);
        line.push('\n');
        f.write_all(line.as_bytes())?;
        f.sync_all()?;
        count(&APPENDS);
        count(&FSYNCS);
        if let Some(repl) = &self.replicate {
            repl.reset(
                tenant,
                TenantHistory {
                    cores,
                    rt: rt.to_vec(),
                    snapshot: None,
                    events: Vec::new(),
                },
            );
        }
        Ok(())
    }

    /// Appends one accepted event to a tenant's journal and syncs it —
    /// a group commit of one event (see [`JournalDir::append_deferred`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; [`io::ErrorKind::NotFound`] means the
    /// tenant was never journaled (no registration line), since the
    /// append deliberately does not create files.
    pub fn append_event(&self, tenant: u64, event: &DeltaEvent) -> io::Result<()> {
        let mut group = AppendGroup::default();
        self.append_deferred(&mut group, tenant, event)?;
        match self.commit(&mut group).into_iter().next() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    /// Appends one accepted event to a tenant's journal inside `group`:
    /// one `write(2)` of the line and its newline to the group's handle
    /// for the file (opened on the tenant's first append of the group).
    /// Nothing is synced or replicated until [`JournalDir::commit`]. On
    /// failure the tenant's handle and held ops leave the group; the
    /// caller poisons the journal.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; [`io::ErrorKind::NotFound`] means the
    /// tenant was never journaled (no registration line), since the
    /// append deliberately does not create files.
    pub fn append_deferred(
        &self,
        group: &mut AppendGroup,
        tenant: u64,
        event: &DeltaEvent,
    ) -> io::Result<()> {
        let mut line = render_event(event);
        line.push('\n');
        let entry = match group.files.entry(tenant) {
            std::collections::hash_map::Entry::Occupied(entry) => entry.into_mut(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                let file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(self.path_for(tenant))?;
                // The replicated op carries the byte offset its line
                // starts at; the byte-identical replica uses it to drop
                // late duplicates and to detect gaps (see
                // `crate::replication`). Only paid when replication is on.
                let len = match &self.replicate {
                    Some(_) => file.metadata()?.len(),
                    None => 0,
                };
                slot.insert(GroupFile { file, len })
            }
        };
        let at = entry.len;
        if let Err(e) = entry.file.write_all(line.as_bytes()) {
            group.forget(tenant);
            return Err(e);
        }
        entry.len += line.len() as u64;
        count(&APPENDS);
        if self.replicate.is_some() {
            group.held.push((tenant, *event, at));
        }
        Ok(())
    }

    /// Commits a group: fsyncs every file it appended to — once per
    /// file, however many events the file took — closes the handles,
    /// and only then streams the held appends, in append order, to the
    /// replicator. Returns the tenants whose sync failed (their
    /// appends are not replicated; the caller poisons their journals).
    pub fn commit(&self, group: &mut AppendGroup) -> Vec<(u64, io::Error)> {
        if group.files.is_empty() {
            return Vec::new();
        }
        let mut failed = Vec::new();
        for (tenant, entry) in group.files.drain() {
            count(&FSYNCS);
            if let Err(e) = entry.file.sync_all() {
                failed.push((tenant, e));
            }
        }
        count(&COMMITS);
        if let Some(repl) = &self.replicate {
            for (tenant, event, at) in group.held.drain(..) {
                if failed.iter().all(|&(t, _)| t != tenant) {
                    repl.append(tenant, event, at);
                }
            }
        }
        group.held.clear();
        failed
    }

    /// Compacts (or initializes) a tenant's journal to a registration +
    /// snapshot pair, truncating any delta tail beneath it. The new file
    /// is written beside the old one and atomically renamed into place,
    /// so a crash mid-snapshot leaves the previous journal intact.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors — the caller must treat a failure exactly
    /// like a failed append (poison: the on-disk state is unknown).
    pub fn snapshot_tenant(
        &self,
        tenant: u64,
        cores: usize,
        rt: &[RtSpec],
        snapshot: &TenantSnapshot,
    ) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(tenant);
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut text = render_registration(cores, rt);
            text.push('\n');
            text.push_str(&render_snapshot(snapshot));
            text.push('\n');
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            count(&FSYNCS);
        }
        std::fs::rename(&tmp, &path)?;
        count(&SNAPSHOTS);
        if let Some(repl) = &self.replicate {
            repl.reset(
                tenant,
                TenantHistory {
                    cores,
                    rt: rt.to_vec(),
                    snapshot: Some(snapshot.clone()),
                    events: Vec::new(),
                },
            );
        }
        Ok(())
    }

    /// Writes a tenant's journal file verbatim from a history — the
    /// standby's replica store uses this to mirror a primary's
    /// registration/snapshot rewrites. Same write-then-rename dance as
    /// [`JournalDir::snapshot_tenant`], so a crash mid-write leaves the
    /// previous replica intact; the rendered bytes are exactly what the
    /// primary's own journal holds (same renderers, tick-exact), so a
    /// healthy replica is byte-identical to its source file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_history(&self, tenant: u64, history: &TenantHistory) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path_for(tenant);
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(render_journal(history).as_bytes())?;
            f.sync_all()?;
            count(&FSYNCS);
        }
        std::fs::rename(&tmp, &path)?;
        count(&APPENDS);
        Ok(())
    }

    /// The sidecar recording which primary owns a replicated tenant's
    /// file (see [`JournalDir::record_owner`]).
    fn owner_path(&self, tenant: u64) -> PathBuf {
        self.dir.join(format!("tenant_{tenant}.owner"))
    }

    /// Records which primary (`source`) owns a replicated tenant's
    /// file, as a `tenant_<id>.owner` sidecar beside the replica. The
    /// replica file itself must stay byte-identical to the primary's
    /// journal, so ownership cannot live inside it; without the
    /// sidecar, a standby restart would forget every owner and a stale
    /// old primary's appends/retires could land on the new owner's
    /// replica. The standby rebuilds its owner map from these at
    /// startup (see [`JournalDir::owners`]). Torn sidecars are
    /// self-correcting: a mismatching owner rejects the true source's
    /// next append, whose self-heal reset rewrites the sidecar.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn record_owner(&self, tenant: u64, source: &str) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        std::fs::write(self.owner_path(tenant), source)
    }

    /// Removes a tenant's owner sidecar (the replica was retired or
    /// adopted). An absent sidecar is a clean no-op.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than [`io::ErrorKind::NotFound`].
    pub fn clear_owner(&self, tenant: u64) -> io::Result<()> {
        match std::fs::remove_file(self.owner_path(tenant)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// The recorded replica owners (tenant → source), read from the
    /// `tenant_<id>.owner` sidecars. The standby engine rebuilds its
    /// in-memory owner map from this at startup, so the source-owner
    /// guard survives restarts. Unreadable sidecars are skipped (their
    /// tenants then behave as unknown-owner: appends are rejected and
    /// the true primary self-heals with a reset).
    #[must_use]
    pub fn owners(&self) -> std::collections::HashMap<u64, String> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return std::collections::HashMap::new();
        };
        entries
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let name = entry.file_name();
                let tenant = name
                    .to_str()?
                    .strip_prefix("tenant_")?
                    .strip_suffix(".owner")?
                    .parse()
                    .ok()?;
                let source = std::fs::read_to_string(entry.path()).ok()?;
                Some((tenant, source))
            })
            .collect()
    }

    /// The tenants with a journal file in this directory, ascending. An
    /// absent directory is an empty (not an erroneous) journal.
    #[must_use]
    pub fn tenants(&self) -> Vec<u64> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut tenants: Vec<u64> = entries
            .filter_map(|entry| {
                let name = entry.ok()?.file_name();
                let name = name.to_str()?;
                name.strip_prefix("tenant_")?
                    .strip_suffix(".jsonl")?
                    .parse()
                    .ok()
            })
            .collect();
        tenants.sort_unstable();
        tenants
    }

    /// Poisons a tenant's journal after a failed write: the file is
    /// renamed to a unique `tenant_<id>.jsonl.corrupt[.k]` archive, so
    /// boot-time recovery reports the tenant as *absent* (and the
    /// operator finds the partial history preserved for inspection)
    /// instead of silently replaying a history with a hole in it — a
    /// journal that dropped one accepted event would otherwise replay
    /// cleanly to a *different* committed state, violating the
    /// bit-identical guarantee. Idempotent and best-effort: if even the
    /// rename fails there is nothing durable left to do, and the error
    /// says so.
    ///
    /// # Errors
    ///
    /// Propagates the rename error (missing files are fine — the tenant
    /// is already unrecoverable, which is the goal).
    pub fn poison_tenant(&self, tenant: u64) -> io::Result<()> {
        self.archive_aside(tenant, "corrupt")
    }

    /// Retires a tenant's journal after an eviction (hand-off drain):
    /// the file is renamed to `tenant_<id>.jsonl.retired` — or, when
    /// earlier retirements already archived this tenant, to the next
    /// free `tenant_<id>.jsonl.retired.<k>` — so a restart does not
    /// resurrect a tenant that now lives on another daemon, while every
    /// retired history stays on disk for the operator. Repeated
    /// evict/re-register cycles (the coordinator's rebalancing does
    /// this constantly) therefore never destroy an earlier archive;
    /// [`JournalDir::with_archive_retention`] bounds how many are kept.
    ///
    /// # Errors
    ///
    /// Propagates the rename error (missing files are fine — an
    /// unjournaled tenant has nothing to retire).
    pub fn retire_tenant(&self, tenant: u64) -> io::Result<()> {
        let result = self.archive_aside(tenant, "retired");
        if result.is_ok() {
            if let Some(repl) = &self.replicate {
                repl.retire(tenant);
            }
        }
        result
    }

    /// The existing archives of one tenant and kind, as
    /// `(generation, path)` pairs. The unsuffixed archive is
    /// generation 0; later ones carry `.1`, `.2`, … — generations are
    /// monotonically increasing, so ascending generation is exactly
    /// age order even after retention pruned older entries.
    fn archives(&self, tenant: u64, kind: &str) -> Vec<(u64, PathBuf)> {
        let prefix = format!("tenant_{tenant}.jsonl.{kind}");
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut found: Vec<(u64, PathBuf)> = entries
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let name = entry.file_name();
                let rest = name.to_str()?.strip_prefix(&prefix)?;
                let generation = if rest.is_empty() {
                    0
                } else {
                    rest.strip_prefix('.')?.parse().ok()?
                };
                Some((generation, entry.path()))
            })
            .collect();
        found.sort_unstable_by_key(|&(generation, _)| generation);
        found
    }

    /// Renames a journal aside to a unique archive name of `kind` and
    /// applies the retention cap. Missing journals are a no-op (and
    /// leave the archive set untouched).
    fn archive_aside(&self, tenant: u64, kind: &str) -> io::Result<()> {
        let path = self.path_for(tenant);
        let existing = self.archives(tenant, kind);
        let target = match existing.last() {
            None => path.with_extension(format!("jsonl.{kind}")),
            Some(&(latest, _)) => path.with_extension(format!("jsonl.{kind}.{}", latest + 1)),
        };
        match std::fs::rename(&path, &target) {
            Ok(()) => {
                if let Some(keep) = self.retain_archives {
                    let total = existing.len() + 1;
                    for (_, old) in existing.into_iter().take(total.saturating_sub(keep)) {
                        let _ = std::fs::remove_file(old);
                    }
                }
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Reads a tenant's full recorded history. An unterminated final
    /// line (a torn append) is ignored, not an error.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Io`] / [`ReplayError::Malformed`].
    pub fn load_tenant(&self, tenant: u64) -> Result<TenantHistory, ReplayError> {
        load_history(&self.path_for(tenant))
    }

    /// Boot recovery's read of a tenant's journal: like
    /// [`JournalDir::load_tenant`], but an unterminated final line is
    /// cut off the file itself (truncate, then fsync) and counted in
    /// [`JournalStats::torn_tails`], so later appends start on a line
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Io`] (including a failed truncation) /
    /// [`ReplayError::Malformed`].
    pub fn recover_tenant(&self, tenant: u64) -> Result<TenantHistory, ReplayError> {
        let path = self.path_for(tenant);
        let bytes = std::fs::read(&path)?;
        let complete = complete_len(&bytes);
        if complete < bytes.len() {
            let f = std::fs::OpenOptions::new().write(true).open(&path)?;
            f.set_len(complete as u64)?;
            f.sync_all()?;
            count(&FSYNCS);
            count(&TORN_TAILS);
        }
        parse_journal(&bytes[..complete])
    }

    /// A tenant's history as it stood when its journal file was `len`
    /// bytes long: the first `len` bytes, which must end on a line
    /// boundary. The replication stream heals a replica from such a
    /// prefix, because bytes past an op's end may belong to a group
    /// that is not committed yet.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Io`], or [`ReplayError::Malformed`] when the file
    /// is shorter than `len` or `len` cuts a line (the file was
    /// rewritten since).
    pub fn load_tenant_prefix(&self, tenant: u64, len: u64) -> Result<TenantHistory, ReplayError> {
        let bytes = std::fs::read(self.path_for(tenant))?;
        let end = usize::try_from(len).unwrap_or(usize::MAX);
        if end == 0 || end > bytes.len() || bytes[end - 1] != b'\n' {
            return Err(ReplayError::Malformed(format!(
                "{len} bytes is not a line boundary of the {}-byte journal",
                bytes.len()
            )));
        }
        parse_journal(&bytes[..end])
    }

    /// Rebuilds a tenant's state from its journal — snapshot restore (if
    /// present) followed by the tail, bit-identical committed
    /// configuration (see the module docs).
    ///
    /// # Errors
    ///
    /// Any [`ReplayError`]; `SnapshotDiverged`/`Diverged` if a recorded
    /// state is no longer admitted under `strategy`.
    pub fn replay_tenant(
        &self,
        tenant: u64,
        strategy: CarryInStrategy,
    ) -> Result<TenantState, ReplayError> {
        let history = self.load_tenant(tenant)?;
        replay(&history, strategy)
    }
}

/// Renders a history as the journal file that records it — the exact
/// bytes [`JournalDir::write_history`] writes.
#[must_use]
pub fn render_journal(history: &TenantHistory) -> String {
    let mut text = render_registration(history.cores, &history.rt);
    text.push('\n');
    if let Some(snapshot) = &history.snapshot {
        text.push_str(&render_snapshot(snapshot));
        text.push('\n');
    }
    for event in &history.events {
        text.push_str(&render_event(event));
        text.push('\n');
    }
    text
}

/// Reads a journal file into its registration, optional snapshot, and
/// event tail, ignoring an unterminated final line.
fn load_history(path: &Path) -> Result<TenantHistory, ReplayError> {
    let bytes = std::fs::read(path)?;
    parse_journal(&bytes[..complete_len(&bytes)])
}

/// Parses journal bytes (complete lines) into a history.
fn parse_journal(bytes: &[u8]) -> Result<TenantHistory, ReplayError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| ReplayError::Malformed(format!("journal is not UTF-8: {e}")))?;
    let mut lines = text.lines();
    let first = lines
        .next()
        .ok_or_else(|| ReplayError::Malformed("empty journal".into()))?;
    let (cores, rt) = parse_registration(first).map_err(ReplayError::Malformed)?;
    let mut snapshot = None;
    let mut events = Vec::new();
    for (i, line) in lines.enumerate() {
        let value = json::parse(line)
            .map_err(|e| ReplayError::Malformed(format!("line {}: {e}", i + 2)))?;
        if value.get("event").and_then(Json::as_str) == Some("snapshot") {
            if i != 0 {
                return Err(ReplayError::Malformed(
                    "snapshot must directly follow the registration".into(),
                ));
            }
            snapshot = Some(
                snapshot_from_value(&value)
                    .map_err(|e| ReplayError::Malformed(format!("snapshot: {e}")))?,
            );
        } else {
            events.push(
                event_from_value(&value)
                    .map_err(|e| ReplayError::Malformed(format!("event {}: {e}", events.len())))?,
            );
        }
    }
    Ok(TenantHistory {
        cores,
        rt,
        snapshot,
        events,
    })
}

/// Rebuilds a [`TenantState`] by restoring the snapshot (when present)
/// and re-admitting the recorded tail under `strategy`.
///
/// # Errors
///
/// [`ReplayError::Malformed`] if the registration itself is invalid or
/// RT-unschedulable, or if the snapshot's recorded fingerprint does not
/// match its own configuration; [`ReplayError::SnapshotDiverged`] /
/// [`ReplayError::Diverged`] if a recorded state is rejected on
/// re-application.
pub fn replay(
    history: &TenantHistory,
    strategy: CarryInStrategy,
) -> Result<TenantState, ReplayError> {
    let system = build_rt_system(history.cores, &history.rt).map_err(ReplayError::Malformed)?;
    let mut state = match &history.snapshot {
        Some(snapshot) => {
            let state = TenantState::restore(&system, strategy, snapshot.monitors.clone())
                .map_err(|e| match e {
                    hydra_core::SelectionError::RtUnschedulable => {
                        ReplayError::Malformed("registration not admissible".into())
                    }
                    other => ReplayError::SnapshotDiverged {
                        reason: other.to_string(),
                    },
                })?;
            if state.admitted_fingerprint() != snapshot.fingerprint {
                return Err(ReplayError::Malformed(format!(
                    "snapshot fingerprint {:016x} does not match its configuration's {:016x}",
                    snapshot.fingerprint,
                    state.admitted_fingerprint(),
                )));
            }
            state
        }
        None => TenantState::new(&system, strategy)
            .map_err(|e| ReplayError::Malformed(format!("registration not admissible: {e}")))?,
    };
    for (i, event) in history.events.iter().enumerate() {
        state.apply(event).map_err(|e| ReplayError::Diverged {
            event: i,
            reason: e.to_string(),
        })?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_ms(v)
    }

    fn rover_rt() -> Vec<RtSpec> {
        vec![
            RtSpec {
                wcet: ms(240),
                period: ms(500),
                core: 0,
            },
            RtSpec {
                wcet: ms(1120),
                period: ms(5000),
                core: 1,
            },
        ]
    }

    #[test]
    fn event_lines_round_trip() {
        let events = [
            DeltaEvent::Arrival {
                monitor: MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap(),
            },
            DeltaEvent::Arrival {
                monitor: MonitorSpec::fixed(Duration::from_ticks(2231), ms(10_000)).unwrap(),
            },
            DeltaEvent::Departure { slot: 3 },
            DeltaEvent::WcetUpdate {
                slot: 0,
                passive_wcet: Duration::from_ticks(1),
                active_wcet: Duration::from_ticks(7),
            },
            DeltaEvent::ModeChange {
                slot: 2,
                mode: MonitorMode::Active,
            },
            DeltaEvent::ModeChange {
                slot: 0,
                mode: MonitorMode::Passive,
            },
        ];
        for event in events {
            let line = render_event(&event);
            assert_eq!(parse_event(&line), Ok(event), "{line}");
            // Journal lines are themselves valid JSON documents.
            assert!(crate::json::parse(&line).is_ok());
        }
    }

    #[test]
    fn malformed_event_lines_are_rejected() {
        for bad in [
            "not json",
            "{}",
            "{\"event\":\"warp\"}",
            "{\"event\":\"departure\"}",
            "{\"event\":\"mode\",\"slot\":0,\"mode\":\"calm\"}",
            // active < passive: invalid monitor shape.
            "{\"event\":\"arrival\",\"passive_ticks\":5,\"active_ticks\":2,\"t_max_ticks\":100}",
        ] {
            assert!(parse_event(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn registration_round_trips_and_guards_the_first_line() {
        let rt = rover_rt();
        let line = render_registration(2, &rt);
        assert_eq!(parse_registration(&line), Ok((2, rt)));
        assert!(parse_registration("{\"event\":\"departure\",\"slot\":0}").is_err());
    }

    #[test]
    fn snapshot_lines_round_trip() {
        let snapshot = TenantSnapshot {
            monitors: vec![
                MonitorEntry {
                    spec: MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap(),
                    mode: MonitorMode::Active,
                },
                MonitorEntry {
                    spec: MonitorSpec::fixed(Duration::from_ticks(2231), ms(10_000)).unwrap(),
                    mode: MonitorMode::Passive,
                },
            ],
            fingerprint: 0xdead_beef_0123_4567,
        };
        let line = render_snapshot(&snapshot);
        let parsed = snapshot_from_value(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, snapshot);
        // Empty table snapshots round trip too.
        let empty = TenantSnapshot {
            monitors: Vec::new(),
            fingerprint: 7,
        };
        let parsed = snapshot_from_value(&json::parse(&render_snapshot(&empty)).unwrap()).unwrap();
        assert_eq!(parsed, empty);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        for bad in [
            "{\"event\":\"snapshot\"}",
            "{\"event\":\"snapshot\",\"fingerprint\":12,\"monitors\":[]}",
            "{\"event\":\"snapshot\",\"fingerprint\":\"zz\",\"monitors\":[]}",
            "{\"event\":\"snapshot\",\"fingerprint\":\"0f\",\"monitors\":[{}]}",
            // active < passive inside a snapshot entry.
            "{\"event\":\"snapshot\",\"fingerprint\":\"0f\",\"monitors\":[\
             {\"passive_ticks\":5,\"active_ticks\":2,\"t_max_ticks\":9,\"mode\":\"passive\"}]}",
        ] {
            assert!(
                snapshot_from_value(&json::parse(bad).unwrap()).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn history_payload_round_trips() {
        let history = TenantHistory {
            cores: 2,
            rt: rover_rt(),
            snapshot: Some(TenantSnapshot {
                monitors: vec![MonitorEntry {
                    spec: MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap(),
                    mode: MonitorMode::Passive,
                }],
                fingerprint: 42,
            }),
            events: vec![
                DeltaEvent::ModeChange {
                    slot: 0,
                    mode: MonitorMode::Active,
                },
                DeltaEvent::Departure { slot: 0 },
            ],
        };
        let text = render_history(&history);
        let parsed = parse_history(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, history);
        // Snapshot-less (PR 4 shape) histories round trip too.
        let plain = TenantHistory {
            snapshot: None,
            ..history
        };
        let parsed = parse_history(&json::parse(&render_history(&plain)).unwrap()).unwrap();
        assert_eq!(parsed, plain);
    }

    #[test]
    fn a_journal_line_is_not_a_history_payload() {
        // Pasting a journal file's registration line where the hand-off
        // payload belongs must be refused, not imported as an empty
        // tenant.
        let line = render_registration(2, &rover_rt());
        assert!(parse_history(&json::parse(&line).unwrap())
            .unwrap_err()
            .contains("journal line"));
    }

    #[test]
    fn history_with_a_non_array_tail_is_rejected_not_truncated() {
        // A present-but-mangled "events" must fail the parse: silently
        // treating it as an empty tail would install a state missing
        // every tail delta. Only an absent key means "no tail".
        let mangled = "{\"cores\":2,\"rt\":[],\"events\":\"oops\"}";
        assert!(parse_history(&json::parse(mangled).unwrap())
            .unwrap_err()
            .contains("events"));
        let absent = "{\"cores\":2,\"rt\":[]}";
        assert!(parse_history(&json::parse(absent).unwrap())
            .unwrap()
            .events
            .is_empty());
    }

    #[test]
    fn snapshot_rewrite_truncates_the_tail() {
        let dir = JournalDir::at(
            std::env::temp_dir().join(format!("hydra_journal_snap_{}", std::process::id())),
        );
        let _ = std::fs::remove_dir_all(&dir.dir);
        let rt = rover_rt();
        dir.begin_tenant(3, 2, &rt).unwrap();
        let arrival = DeltaEvent::Arrival {
            monitor: MonitorSpec::fixed(ms(223), ms(10_000)).unwrap(),
        };
        dir.append_event(3, &arrival).unwrap();
        dir.append_event(
            3,
            &DeltaEvent::ModeChange {
                slot: 0,
                mode: MonitorMode::Active,
            },
        )
        .unwrap();
        assert_eq!(dir.load_tenant(3).unwrap().events.len(), 2);
        let snapshot = TenantSnapshot {
            monitors: vec![MonitorEntry {
                spec: MonitorSpec::fixed(ms(223), ms(10_000)).unwrap(),
                mode: MonitorMode::Active,
            }],
            // The real fingerprint is computed by the engine; any value
            // round-trips through the file layer.
            fingerprint: 0xabc,
        };
        dir.snapshot_tenant(3, 2, &rt, &snapshot).unwrap();
        let history = dir.load_tenant(3).unwrap();
        assert_eq!(history.snapshot.as_ref(), Some(&snapshot));
        assert!(history.events.is_empty(), "tail must be truncated");
        assert_eq!(history.rt, rt);
        // Appends keep working beneath the snapshot.
        dir.append_event(3, &arrival).unwrap();
        let history = dir.load_tenant(3).unwrap();
        assert_eq!(history.events, vec![arrival]);
        assert!(history.snapshot.is_some());
        // No temp file left behind.
        assert!(!dir.path_for(3).with_extension("jsonl.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir.dir);
    }

    #[test]
    fn snapshot_must_directly_follow_registration() {
        let dir =
            std::env::temp_dir().join(format!("hydra_journal_snappos_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let journal = JournalDir::at(&dir);
        let path = journal.path_for(1);
        std::fs::write(
            &path,
            format!(
                "{}\n{}\n{}\n",
                render_registration(2, &rover_rt()),
                render_event(&DeltaEvent::Arrival {
                    monitor: MonitorSpec::fixed(ms(223), ms(10_000)).unwrap(),
                }),
                render_snapshot(&TenantSnapshot {
                    monitors: Vec::new(),
                    fingerprint: 0,
                }),
            ),
        )
        .unwrap();
        assert!(matches!(
            journal.load_tenant(1),
            Err(ReplayError::Malformed(msg)) if msg.contains("snapshot")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_fingerprint_mismatch_is_malformed() {
        let history = TenantHistory {
            cores: 2,
            rt: rover_rt(),
            snapshot: Some(TenantSnapshot {
                monitors: Vec::new(),
                fingerprint: 0x1234, // not the empty config's digest
            }),
            events: Vec::new(),
        };
        assert!(matches!(
            replay(&history, CarryInStrategy::TopDiff),
            Err(ReplayError::Malformed(msg)) if msg.contains("fingerprint")
        ));
    }

    #[test]
    fn compaction_policy_travels_with_the_handle() {
        let dir = JournalDir::at("/tmp/never-created");
        assert_eq!(dir.compact_every(), None);
        let dir = dir.with_compaction(16);
        assert_eq!(dir.compact_every(), Some(16));
        assert_eq!(dir.clone().compact_every(), Some(16));
        assert_eq!(dir.with_compaction(0).compact_every(), None);
    }

    #[test]
    fn poisoned_journals_disappear_from_recovery_but_stay_on_disk() {
        let dir = JournalDir::at(
            std::env::temp_dir().join(format!("hydra_journal_poison_{}", std::process::id())),
        );
        let rt = [RtSpec {
            wcet: ms(10),
            period: ms(100),
            core: 0,
        }];
        dir.begin_tenant(5, 1, &rt).unwrap();
        dir.append_event(5, &DeltaEvent::Departure { slot: 0 })
            .unwrap();
        assert_eq!(dir.tenants(), vec![5]);
        dir.poison_tenant(5).unwrap();
        // Recovery no longer sees the tenant, replay fails loudly, and
        // the partial history survives for inspection.
        assert!(dir.tenants().is_empty());
        assert!(matches!(
            dir.load_tenant(5),
            Err(ReplayError::Io(e)) if e.kind() == io::ErrorKind::NotFound
        ));
        assert!(dir.path_for(5).with_extension("jsonl.corrupt").exists());
        // Idempotent: poisoning an absent journal is fine.
        dir.poison_tenant(5).unwrap();
        dir.poison_tenant(99).unwrap();
        let _ = std::fs::remove_dir_all(dir.dir);
    }

    #[test]
    fn retired_journals_disappear_from_recovery_but_stay_on_disk() {
        let dir = JournalDir::at(
            std::env::temp_dir().join(format!("hydra_journal_retire_{}", std::process::id())),
        );
        let rt = [RtSpec {
            wcet: ms(10),
            period: ms(100),
            core: 0,
        }];
        dir.begin_tenant(6, 1, &rt).unwrap();
        dir.retire_tenant(6).unwrap();
        assert!(dir.tenants().is_empty());
        assert!(dir.path_for(6).with_extension("jsonl.retired").exists());
        // A re-registered-then-retired tenant archives under the next
        // free generation — BOTH histories survive on disk.
        dir.begin_tenant(6, 1, &rt).unwrap();
        dir.append_event(6, &DeltaEvent::Departure { slot: 0 })
            .unwrap();
        dir.retire_tenant(6).unwrap();
        assert!(dir.tenants().is_empty());
        assert!(dir.path_for(6).with_extension("jsonl.retired").exists());
        assert!(dir.path_for(6).with_extension("jsonl.retired.1").exists());
        // The generations are distinguishable: the first archive has no
        // tail, the second records the departure.
        let first =
            std::fs::read_to_string(dir.path_for(6).with_extension("jsonl.retired")).unwrap();
        let second =
            std::fs::read_to_string(dir.path_for(6).with_extension("jsonl.retired.1")).unwrap();
        assert_eq!(first.lines().count(), 1);
        assert_eq!(second.lines().count(), 2);
        // Retiring an absent journal is fine, and plants no archive.
        dir.retire_tenant(42).unwrap();
        assert!(!dir.path_for(42).with_extension("jsonl.retired").exists());
        let _ = std::fs::remove_dir_all(dir.dir);
    }

    #[test]
    fn stray_snapshot_tmp_is_swept_at_open_and_recovery_unaffected() {
        // A crash between the snapshot rewrite's File::create and
        // rename strands tenant_<id>.jsonl.tmp. Opening the directory
        // must remove the stray, and boot recovery must keep answering
        // from the intact journal it shadows.
        let root =
            std::env::temp_dir().join(format!("hydra_journal_tmpsweep_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let rt = rover_rt();
        {
            let dir = JournalDir::at(&root);
            dir.begin_tenant(4, 2, &rt).unwrap();
            dir.append_event(4, &DeltaEvent::Departure { slot: 0 })
                .unwrap();
        }
        // Plant the stray exactly where snapshot_tenant would write it,
        // and one where a standby's replica rewrite would.
        let stray = root.join("tenant_4.jsonl.tmp");
        std::fs::write(&stray, "{\"event\":\"register\"").unwrap();
        let replica_stray = root.join("replica").join("tenant_4.jsonl.tmp");
        std::fs::create_dir_all(root.join("replica")).unwrap();
        std::fs::write(&replica_stray, "{\"event\":\"register\"").unwrap();
        let unrelated = root.join("notes.tmp");
        std::fs::write(&unrelated, "operator scratch").unwrap();

        let dir = JournalDir::at(&root);
        assert!(!stray.exists(), "open must sweep the stray tmp");
        assert!(!replica_stray.exists(), "open must sweep the replica's too");
        assert!(unrelated.exists(), "only journal tmps are swept");
        assert_eq!(dir.tenants(), vec![4]);
        let history = dir.load_tenant(4).unwrap();
        assert_eq!(history.events, vec![DeltaEvent::Departure { slot: 0 }]);
        let _ = std::fs::remove_dir_all(&root);
    }

    /// Every shard worker derives a replica view when it starts. A
    /// worker starting late must not delete the tmp an earlier worker
    /// created and is about to rename: the rename would fail with
    /// ENOENT and the standby would answer that replica op with an
    /// error.
    #[test]
    fn replica_views_never_sweep_an_in_flight_rewrite() {
        let root =
            std::env::temp_dir().join(format!("hydra_journal_replica_view_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = JournalDir::at(&root);
        let first = dir.replica();
        std::fs::create_dir_all(&first.dir).unwrap();
        let in_flight = first.path_for(7).with_extension("jsonl.tmp");
        std::fs::write(&in_flight, "{\"event\":\"register\"").unwrap();
        let _second = dir.replica();
        let _worker = crate::engine::AdaptEngine::with_journal(CarryInStrategy::TopDiff, dir);
        assert!(
            in_flight.exists(),
            "a replica view swept another worker's in-flight rewrite"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn archive_retention_prunes_oldest_generations() {
        let dir = JournalDir::at(
            std::env::temp_dir().join(format!("hydra_journal_retain_{}", std::process::id())),
        )
        .with_archive_retention(2);
        assert_eq!(dir.retain_archives(), Some(2));
        assert_eq!(
            dir.clone().with_archive_retention(0).retain_archives(),
            None
        );
        let rt = [RtSpec {
            wcet: ms(10),
            period: ms(100),
            core: 0,
        }];
        for _ in 0..4 {
            dir.begin_tenant(9, 1, &rt).unwrap();
            dir.retire_tenant(9).unwrap();
        }
        // Generations 0..=3 were written; only the newest two survive.
        assert!(!dir.path_for(9).with_extension("jsonl.retired").exists());
        assert!(!dir.path_for(9).with_extension("jsonl.retired.1").exists());
        assert!(dir.path_for(9).with_extension("jsonl.retired.2").exists());
        assert!(dir.path_for(9).with_extension("jsonl.retired.3").exists());
        // The next retirement keeps counting upward — age order stays
        // generation order even after pruning.
        dir.begin_tenant(9, 1, &rt).unwrap();
        dir.retire_tenant(9).unwrap();
        assert!(!dir.path_for(9).with_extension("jsonl.retired.2").exists());
        assert!(dir.path_for(9).with_extension("jsonl.retired.4").exists());
        let _ = std::fs::remove_dir_all(dir.dir);
    }

    #[test]
    fn write_history_mirrors_journal_bytes_and_replica_stays_invisible() {
        let root =
            std::env::temp_dir().join(format!("hydra_journal_mirror_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir = JournalDir::at(&root);
        let rt = rover_rt();
        dir.begin_tenant(2, 2, &rt).unwrap();
        let arrival = DeltaEvent::Arrival {
            monitor: MonitorSpec::fixed(ms(223), ms(10_000)).unwrap(),
        };
        dir.append_event(2, &arrival).unwrap();

        // Mirror the same history into the replica store: the bytes
        // must match the source journal exactly (same renderers).
        let replica = dir.replica();
        let history = dir.load_tenant(2).unwrap();
        replica.write_history(2, &history).unwrap();
        replica.append_event(2, &arrival).unwrap();
        dir.append_event(2, &arrival).unwrap();
        let source = std::fs::read_to_string(dir.path_for(2)).unwrap();
        let mirrored = std::fs::read_to_string(replica.path_for(2)).unwrap();
        assert_eq!(source, mirrored, "replica must mirror the journal bytes");
        // Replica journals never leak into the parent's recovery scan,
        // and vice versa.
        assert_eq!(dir.tenants(), vec![2]);
        assert_eq!(replica.tenants(), vec![2]);
        replica.retire_tenant(2).unwrap();
        assert_eq!(dir.tenants(), vec![2]);
        assert!(replica.tenants().is_empty());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn prefixes_cut_on_line_boundaries_and_torn_tails_are_ignored() {
        let dir = JournalDir::at(
            std::env::temp_dir().join(format!("hydra_journal_prefix_{}", std::process::id())),
        );
        let _ = std::fs::remove_dir_all(&dir.dir);
        dir.begin_tenant(8, 2, &rover_rt()).unwrap();
        let departure = DeltaEvent::Departure { slot: 0 };
        dir.append_event(8, &departure).unwrap();
        let first = std::fs::metadata(dir.path_for(8)).unwrap().len();
        dir.append_event(8, &departure).unwrap();
        let full = std::fs::metadata(dir.path_for(8)).unwrap().len();
        assert_eq!(dir.load_tenant_prefix(8, full).unwrap().events.len(), 2);
        assert_eq!(dir.load_tenant_prefix(8, first).unwrap().events.len(), 1);
        for bad in [0, first - 1, full + 1] {
            assert!(matches!(
                dir.load_tenant_prefix(8, bad),
                Err(ReplayError::Malformed(_))
            ));
        }
        // An unterminated last line is a torn append: ignored on load,
        // and the file is left as it is.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.path_for(8))
            .unwrap();
        f.write_all(b"{\"event\":\"dep").unwrap();
        assert_eq!(dir.load_tenant(8).unwrap().events.len(), 2);
        assert_eq!(std::fs::metadata(dir.path_for(8)).unwrap().len(), full + 13);
        let _ = std::fs::remove_dir_all(&dir.dir);
    }

    #[test]
    fn append_without_registration_is_refused() {
        let dir = JournalDir::at(
            std::env::temp_dir().join(format!("hydra_journal_noreg_{}", std::process::id())),
        );
        let err = dir
            .append_event(7, &DeltaEvent::Departure { slot: 0 })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }
}
