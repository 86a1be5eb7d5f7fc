//! `rts_adaptd` — the admission & period-adaptation daemon.
//!
//! Usage:
//!
//! ```sh
//! rts_adaptd [--shards N] [--tcp ADDR] [--reactors 1] [--max-conns N]
//!            [--journal DIR] [--compact-every N]
//!            [--replicate-to ADDR --source ID]
//! ```
//!
//! One event-driven reactor (`rts_adapt::reactor`) serves every
//! request: one epoll loop over one engine shard pool, no
//! per-connection threads, batches sized adaptively by arrival rate,
//! and one line-protocol machine (`rts_adapt::conn`) per connection.
//! Without `--tcp` the daemon speaks the line protocol on stdin/stdout
//! (one JSON request per line, one JSON response per line — see
//! `rts_adapt::proto`) as one more connection of that reactor: two
//! blocking copy threads bridge stdin and stdout to a Unix socket pair
//! whose other end the reactor serves. The bridge exists because epoll
//! cannot poll a regular file, and stdout must stay blocking because
//! its file description is shared with the parent. With `--tcp ADDR`
//! the daemon binds the address and serves up to `--max-conns`
//! connections (default 64); the cap must stay below the process's
//! soft open-file limit. `--reactors` takes only the value 1, which
//! existing launch lines pass. The carry-in analysis is always TopDiff.
//! An unknown flag, a missing value or a value that does not parse or
//! is out of range exits with status 2 and the usage line.
//!
//! **Graceful shutdown**: in stdin mode, EOF on stdin ends the session —
//! the reactor returns once every line has been answered and written,
//! and the daemon exits after the stdout copy has delivered the last
//! byte. In TCP mode, a watcher thread waits for stdin EOF (Ctrl-D, or
//! the supervisor closing the pipe) and asks the reactor to drain — the
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
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::thread::JoinHandle;

use hydra_core::incremental::MemoStats;
use rts_adapt::client::RetryPolicy;
use rts_adapt::journal::JournalDir;
use rts_adapt::reactor::{serve_reactor, serve_stream, ReactorOptions, ReactorSummary, Shutdown};
use rts_adapt::replication::Replicator;
use rts_analysis::semi::CarryInStrategy;

const USAGE: &str = "usage: rts_adaptd [--shards N] [--tcp ADDR] [--reactors 1] [--max-conns N] \
    [--journal DIR] [--compact-every N] [--replicate-to ADDR --source ID]";

/// Every flag the daemon takes; each takes a value.
const FLAGS: [&str; 8] = [
    "--shards",
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

/// The run's totals on stderr once serving is over.
fn report(summary: &ReactorSummary) {
    eprintln!(
        "rts_adaptd: {} requests ({} parse errors), {} connections accepted, {} refused",
        summary.requests, summary.parse_errors, summary.accepted_conns, summary.refused_conns
    );
    let shards = &summary.shards;
    let handled: u64 = shards.iter().map(|s| s.handled).sum();
    let memo: MemoStats = shards.iter().map(|s| s.memo).sum();
    eprintln!(
        "rts_adaptd: {} shards handled {handled} requests \
         ({} memo hits, {} shared hits, {} misses)",
        shards.len(),
        memo.hits,
        memo.shared_hits,
        memo.misses
    );
}

/// The soft limit on open files, read from `/proc/self/limits`; `None`
/// when it is unlimited or cannot be read.
fn open_file_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// Copies stdin into `bridge` and `bridge` into stdout on two blocking
/// threads. EOF on stdin closes the bridge's write half, which the
/// reactor reads as the end of the session; the returned thread ends
/// once the reactor has closed its end and the last answer is on
/// stdout.
fn bridge_stdio(bridge: UnixStream) -> io::Result<JoinHandle<io::Result<()>>> {
    let inbound = bridge.try_clone()?;
    // Left detached: if stdout fails first, this thread may stay blocked
    // on a stdin that never ends, and the daemon must still exit.
    std::thread::spawn(move || {
        let _ = copy_lines(io::stdin().lock(), &inbound);
        let _ = inbound.shutdown(std::net::Shutdown::Write);
    });
    Ok(std::thread::spawn(move || {
        let copied = copy_lines(&bridge, io::stdout().lock());
        if copied.is_err() {
            // Nobody reads the answers: fail the reactor's next write,
            // so it stops serving instead of filling the socket.
            let _ = bridge.shutdown(std::net::Shutdown::Both);
        }
        copied
    }))
}

/// Copies `from` into `to` until EOF, passing each read on at once.
/// Deliberately not `io::copy`, whose in-kernel `splice` path held
/// answers back from a piped stdout.
fn copy_lines(mut from: impl Read, mut to: impl Write) -> io::Result<()> {
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) => return to.flush(),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        to.write_all(&buf[..n])?;
        to.flush()?;
    }
}

fn fail(e: impl std::fmt::Display) -> ! {
    eprintln!("rts_adaptd: {e}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let values = flag_values(&args);
    let shards = parsed(&values, "--shards").unwrap_or(4usize);
    if let Some(reactors) = parsed::<usize>(&values, "--reactors").filter(|&n| n != 1) {
        usage(format!(
            "--reactors {reactors}: the daemon runs one reactor"
        ));
    }
    let max_conns = parsed(&values, "--max-conns").unwrap_or(64usize);
    let compact_every = parsed(&values, "--compact-every").unwrap_or(512usize);
    let replicate_to: Option<SocketAddr> = parsed(&values, "--replicate-to");
    let tcp: Option<SocketAddr> = parsed(&values, "--tcp");
    if let Some(limit) = open_file_limit().filter(|&limit| tcp.is_some() && max_conns >= limit) {
        usage(format!(
            "--max-conns {max_conns} is not below the open-file limit ({limit})"
        ));
    }

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

    let mut options = ReactorOptions::new(CarryInStrategy::TopDiff, shards);
    options.journal = journal;
    options.max_conns = max_conns;
    let summary = match tcp {
        Some(addr) => {
            let listener = TcpListener::bind(addr).unwrap_or_else(|e| fail(e));
            if let Ok(local) = listener.local_addr() {
                eprintln!("rts_adaptd listening on {local}");
            }
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
            serve_reactor(listener, &options, &shutdown).unwrap_or_else(|e| fail(e))
        }
        None => {
            let (stream, bridge) = UnixStream::pair().unwrap_or_else(|e| fail(e));
            let stdout_copy = bridge_stdio(bridge).unwrap_or_else(|e| fail(e));
            let summary = serve_stream(stream, &options).unwrap_or_else(|e| fail(e));
            match stdout_copy.join() {
                Ok(Ok(())) => summary,
                Ok(Err(e)) => fail(e),
                Err(_) => fail("the stdout copy thread panicked"),
            }
        }
    };
    report(&summary);
    flush_replication(replicator.as_ref());
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
