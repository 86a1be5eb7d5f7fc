//! `rts_adaptd` — the admission & period-adaptation daemon.
//!
//! Usage:
//!
//! ```sh
//! rts_adaptd [--shards N] [--batch N] [--strategy topdiff|exhaustive]
//!            [--tcp ADDR] [--reactors 1] [--max-conns N]
//!            [--journal DIR] [--compact-every N]
//!            [--replicate-to ADDR --source ID]
//! ```
//!
//! Without `--tcp` the daemon speaks the line protocol on stdin/stdout
//! (one JSON request per line, one JSON response per line — see
//! `rts_adapt::proto`); `--batch` (default 256) bounds how many
//! buffered lines that stdin pump dispatches per round. With `--tcp
//! ADDR` it binds the address and serves up to `--max-conns`
//! connections (default 64) through the event-driven reactor
//! (`rts_adapt::reactor`): one epoll loop over one engine shard pool,
//! no per-connection threads, batches sized adaptively by arrival rate.
//! `--reactors` takes only the value 1, which existing launch lines
//! pass; the daemon always runs one reactor. An unknown flag, a missing
//! value or a value that does not parse or is out of range exits with
//! status 2 and the usage line.
//!
//! **Graceful shutdown**: in stdin mode, EOF ends the serve loop; in
//! TCP mode, a watcher thread waits for stdin EOF (Ctrl-D, or the
//! supervisor closing the pipe) and asks the reactor to drain — the
//! listener closes, already-connected clients are served until quiet,
//! and the shard workers are joined. A shard worker answers only after
//! the group commit that syncs the journal appends behind the answer,
//! so an orderly stop loses no accepted delta.
//!
//! With `--journal DIR` every registration and accepted delta is
//! appended to a per-tenant event log under `DIR`, and existing
//! journals are **replayed on startup** (snapshot restore, then the
//! tail) in every mode — a restarted daemon answers for every
//! previously journaled tenant without re-registration (see
//! `rts_adapt::journal`). A tenant's journal is automatically compacted
//! to a registration + snapshot pair once its tail reaches
//! `--compact-every` accepted deltas (default 512; `0` disables
//! compaction). Every retired or corrupt archive generation is kept.
//! The `export` / `import` / `evict` protocol verbs hand a
//! tenant off between two daemons (see the README's Operations section
//! for the runbook).
//!
//! With `--replicate-to ADDR` (requires `--journal` and `--source ID`)
//! every journal mutation is streamed to the standby daemon at `ADDR`
//! over the `replicate` protocol verb (see `rts_adapt::replication`),
//! stamped with this daemon's `--source ID` — which must be unique
//! among the daemons replicating to one standby, or the standby's
//! source-owner guard cannot tell their streams apart; the standby
//! keeps a lagged byte-identical replica of each tenant's journal and
//! promotes it on `{"op":"adopt"}` — the fleet coordinator (`rts-coord`)
//! drives that failover. Graceful shutdown flushes the replication
//! stream after the serve loop drains.
//!
//! Telemetry (stage-latency histograms, the slow-request ring, the
//! `{"op":"metrics"}` verb — see `rts_adapt::telemetry`) is always on,
//! in every mode; its CPU overhead is gated at 2 % in CI.

use std::collections::HashMap;
use std::io::{self, BufReader, Read};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use rts_adapt::client::RetryPolicy;
use rts_adapt::journal::JournalDir;
use rts_adapt::reactor::{serve_reactor, ReactorOptions, Shutdown};
use rts_adapt::replication::Replicator;
use rts_adapt::server::serve;
use rts_adapt::shard::{ShardReport, ShardedEngine};
use rts_adapt::telemetry::Telemetry;
use rts_analysis::semi::CarryInStrategy;

const USAGE: &str = "usage: rts_adaptd [--shards N] [--batch N] \
    [--strategy topdiff|exhaustive] [--tcp ADDR] [--reactors 1] [--max-conns N] \
    [--journal DIR] [--compact-every N] [--replicate-to ADDR --source ID]";

/// Every flag the daemon takes; each takes a value.
const FLAGS: [&str; 10] = [
    "--shards",
    "--batch",
    "--strategy",
    "--tcp",
    "--reactors",
    "--max-conns",
    "--journal",
    "--compact-every",
    "--replicate-to",
    "--source",
];

/// Exits with status 2 and the usage line: the daemon refuses what it
/// does not understand instead of guessing.
fn usage(e: impl std::fmt::Display) -> ! {
    eprintln!("rts_adaptd: {e}\n{USAGE}");
    std::process::exit(2);
}

/// The command line's flag values, by flag; an unknown argument or a
/// flag without its value is a usage error.
fn flag_values(args: &[String]) -> HashMap<&str, &str> {
    let mut values = HashMap::new();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if FLAGS.contains(&flag.as_str()) {
            let value = args
                .next()
                .unwrap_or_else(|| usage(format!("{flag} needs a value")));
            values.insert(flag.as_str(), value.as_str());
        } else {
            usage(format!("unknown argument {flag:?}"));
        }
    }
    values
}

/// `flag`'s value parsed, `None` when the flag is absent; a value that
/// does not parse is a usage error.
fn parsed<T: std::str::FromStr>(values: &HashMap<&str, &str>, flag: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    values.get(flag).map(|value| {
        value
            .parse()
            .unwrap_or_else(|e| usage(format!("{flag} {value:?}: {e}")))
    })
}

fn report_shards(reports: &[ShardReport]) {
    let handled: u64 = reports.iter().map(|r| r.handled).sum();
    let hits: u64 = reports.iter().map(|r| r.memo.hits).sum();
    let misses: u64 = reports.iter().map(|r| r.memo.misses).sum();
    eprintln!(
        "rts_adaptd: {} shards handled {handled} requests ({hits} memo hits, {misses} misses)",
        reports.len()
    );
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("rts_adaptd: {e}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let values = flag_values(&args);
    let shards = parsed(&values, "--shards").unwrap_or(4usize);
    let batch = parsed(&values, "--batch").unwrap_or(256usize);
    let strategy = match values.get("--strategy") {
        None | Some(&"topdiff") => CarryInStrategy::TopDiff,
        Some(&"exhaustive") => CarryInStrategy::Exhaustive,
        Some(other) => usage(format!(
            "unknown strategy {other:?} (use topdiff or exhaustive)"
        )),
    };
    if let Some(reactors) = parsed::<usize>(&values, "--reactors").filter(|&n| n != 1) {
        usage(format!(
            "--reactors {reactors}: the daemon runs one reactor"
        ));
    }
    let max_conns = parsed(&values, "--max-conns").unwrap_or(64usize);
    let compact_every = parsed(&values, "--compact-every").unwrap_or(512usize);
    let replicate_to: Option<SocketAddr> = parsed(&values, "--replicate-to");
    let tcp: Option<SocketAddr> = parsed(&values, "--tcp");

    // Replication piggybacks on the journal: the replicator mirrors
    // every journal-file mutation to the standby, and self-heals from
    // the journal files themselves (hence the pre-replication clone it
    // is handed). A replication stream without a journal has nothing to
    // mirror, so the combination is refused rather than half-working.
    let mut replicator: Option<Replicator> = None;
    let journal = match values.get("--journal") {
        Some(dir) => {
            let mut journal = JournalDir::at(dir).with_compaction(compact_every);
            if let Some(standby) = replicate_to {
                // No default source id: two primaries sharing one
                // standby with the same id would defeat the standby's
                // source-owner guard that makes hand-off races
                // harmless, so colliding silently is worse than
                // refusing to start.
                let source = *values.get("--source").unwrap_or_else(|| {
                    fail(
                        "--replicate-to requires --source ID \
                         (a stable id unique among every daemon replicating to this standby)",
                    )
                });
                // Fail fast on a dead standby: the forwarder already
                // rides a bounded drop-oldest backlog and self-heals
                // gaps with full resets, so short retries lose nothing
                // a long blocking policy would save.
                let handle =
                    Replicator::spawn(source, standby, RetryPolicy::quick(), Some(journal.clone()));
                replicator = Some(handle.clone());
                journal = journal.with_replication(handle);
            }
            Some(journal)
        }
        None => {
            if replicate_to.is_some() {
                fail("--replicate-to requires --journal (replication mirrors the journal)");
            }
            None
        }
    };

    match tcp {
        Some(addr) => {
            let listener = TcpListener::bind(addr).unwrap_or_else(|e| fail(e));
            if let Ok(local) = listener.local_addr() {
                eprintln!("rts_adaptd listening on {local}");
            }
            let mut options = ReactorOptions::new(strategy, shards);
            options.journal = journal;
            options.max_conns = max_conns;
            let shutdown = Shutdown::new();
            let watcher = Arc::clone(&shutdown);
            // Stdin EOF (Ctrl-D, or the supervisor closing the pipe)
            // requests the drain; any bytes before EOF are discarded.
            std::thread::spawn(move || {
                let mut sink = [0u8; 4096];
                let mut stdin = io::stdin().lock();
                loop {
                    match stdin.read(&mut sink) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
                watcher.request();
            });
            let summary = serve_reactor(listener, &options, &shutdown).unwrap_or_else(|e| fail(e));
            eprintln!(
                "rts_adaptd: {} requests ({} parse errors), {} connections accepted, {} refused",
                summary.requests,
                summary.parse_errors,
                summary.accepted_conns,
                summary.refused_conns
            );
            report_shards(&summary.reports);
            flush_replication(replicator.as_ref());
        }
        None => {
            let mut engine =
                ShardedEngine::with_telemetry(strategy, shards, journal, None, Telemetry::new());
            let stdin = io::stdin().lock();
            let stdout = io::stdout().lock();
            let result = serve(&mut engine, BufReader::new(stdin), stdout, batch);
            let reports = engine.shutdown();
            match result {
                Ok(summary) => {
                    eprintln!(
                        "rts_adaptd: {} requests, {} parse errors",
                        summary.requests, summary.parse_errors
                    );
                    report_shards(&reports);
                    flush_replication(replicator.as_ref());
                }
                Err(e) => fail(e),
            }
        }
    }
}

/// Quiesces the replication stream on graceful shutdown so an orderly
/// stop loses no replicated delta; a standby that cannot be reached in
/// time is reported, never waited on forever.
fn flush_replication(replicator: Option<&Replicator>) {
    if let Some(replicator) = replicator {
        if !replicator.flush(std::time::Duration::from_secs(10)) {
            eprintln!(
                "rts_adaptd: replication stream did not quiesce within 10s ({:?})",
                replicator.stats()
            );
        }
    }
}
