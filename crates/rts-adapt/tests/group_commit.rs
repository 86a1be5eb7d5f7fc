//! The group-commit contract, and the replication stream built on it.
//!
//! A journaling shard worker answers a whole group of queued requests
//! with one fsync per touched journal file, releases the answers only
//! after that commit, and only then hands the group's appends to the
//! pipelined replication forwarder. This battery pins:
//!
//! (a) one group of N accepted deltas over K tenants costs at most K
//!     fsyncs;
//! (b) every answered delta is already in its journal file, behind a
//!     finished commit, when its answer arrives;
//! (c) a compaction and an evict inside one group leave the replica
//!     byte-identical after a flush;
//! (d) appends rejected inside one pipelined batch heal their tenant
//!     once;
//! (e) a connection lost mid-batch is resent without duplicating a
//!     replica byte;
//! (f) ops evicted by a small backlog (a compaction reset included) are
//!     resynced, so the replica equals the primary after a flush;
//! (g) boot recovery cuts a torn final line off instead of losing the
//!     tenant.
//!
//! The journal counters are process-wide, so the tests of this binary
//! run one at a time (see [`serial`]). Standbys are in-process reactors,
//! the front the daemon runs; the [`Relay`] between a primary's
//! forwarder and its standby stalls and cuts the stream on demand.

mod common;

use std::io::{Read, Write};
use std::net::{Shutdown as SocketShutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration as StdDuration;

use common::{register_rover, retry, spawn_reactor, TempDir};
use rts_adapt::journal::{self, JournalDir};
use rts_adapt::{
    AdaptEngine, ReactorOptions, Replicator, Request, Response, RetryPolicy, ShardedEngine,
};
use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::{DeltaEvent, MonitorMode, MonitorSpec};
use rts_model::time::Duration;

const FLUSH: StdDuration = StdDuration::from_secs(20);

/// Runs the tests of this binary one at a time: each reads deltas of
/// the process-wide journal counters.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// The `k`-th of an always-admitted mode flip sequence on slot 0.
fn flip(tenant: u64, k: usize) -> Request {
    let mode = if k % 2 == 0 {
        MonitorMode::Active
    } else {
        MonitorMode::Passive
    };
    Request::Delta {
        tenant,
        event: DeltaEvent::ModeChange { slot: 0, mode },
    }
}

/// Flips `ks` of one tenant.
fn flips(tenant: u64, ks: std::ops::Range<usize>) -> Vec<Request> {
    ks.map(|k| flip(tenant, k)).collect()
}

/// Registration plus the monitor the flips switch: a small modal
/// monitor the rover admits in either mode.
fn setup(tenant: u64) -> Vec<Request> {
    let monitor = MonitorSpec::modal(ms(100), ms(350), ms(5000)).unwrap();
    vec![
        register_rover(tenant),
        Request::Delta {
            tenant,
            event: DeltaEvent::Arrival { monitor },
        },
    ]
}

fn handle_all(engine: &mut AdaptEngine, requests: &[Request]) {
    for request in requests {
        let answer = engine.handle(request);
        assert!(answer.is_admitted(), "{request:?} answered {answer:?}");
    }
}

/// Boots an in-process standby: a journaled reactor on a fresh port.
/// The serving thread is detached; it dies with the test process.
fn spawn_standby(dir: &Path) -> SocketAddr {
    spawn_reactor(ReactorOptions {
        journal: Some(JournalDir::at(dir)),
        ..ReactorOptions::new(CarryInStrategy::TopDiff, 2)
    })
    .0
}

fn replica_path(standby_dir: &Path, tenant: u64) -> std::path::PathBuf {
    standby_dir
        .join("replica")
        .join(format!("tenant_{tenant}.jsonl"))
}

fn assert_replica_identical(primary_dir: &Path, standby_dir: &Path, tenant: u64) {
    let primary =
        std::fs::read(primary_dir.join(format!("tenant_{tenant}.jsonl"))).expect("primary journal");
    let replica = std::fs::read(replica_path(standby_dir, tenant)).expect("replica");
    assert_eq!(
        String::from_utf8_lossy(&replica),
        String::from_utf8_lossy(&primary),
        "replica of tenant {tenant} differs from its primary journal"
    );
}

#[derive(Default)]
struct RelayState {
    held: bool,
    /// Request bytes the relay has read from its clients.
    received: usize,
    /// Answer lines to relay before cutting the connection.
    cut_after: Option<usize>,
}

/// A TCP relay between a forwarder and its standby. [`Relay::hold`]
/// stalls both directions (bytes already read wait in the relay);
/// [`Relay::cut_after`] closes the connection once that many more
/// answer lines have passed — later connections relay normally.
struct Relay {
    addr: SocketAddr,
    state: Arc<(Mutex<RelayState>, Condvar)>,
}

impl Relay {
    fn start(upstream: SocketAddr) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind relay");
        let addr = listener.local_addr().expect("relay address");
        let state = Arc::new((Mutex::new(RelayState::default()), Condvar::new()));
        let shared = Arc::clone(&state);
        std::thread::spawn(move || {
            for client in listener.incoming() {
                let Ok(client) = client else { return };
                let Ok(server) = TcpStream::connect(upstream) else {
                    return;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let pumps = [
                    (client.try_clone(), server.try_clone(), false),
                    (server.try_clone(), client.try_clone(), true),
                ];
                for (from, to, answers) in pumps {
                    let (Ok(from), Ok(to)) = (from, to) else {
                        return;
                    };
                    let state = Arc::clone(&shared);
                    std::thread::spawn(move || pump(from, to, answers, &state));
                }
            }
        });
        Relay { addr, state }
    }

    fn lock(&self) -> MutexGuard<'_, RelayState> {
        self.state.0.lock().expect("relay state")
    }

    fn hold(&self) {
        self.lock().held = true;
    }

    fn release(&self) {
        self.lock().held = false;
        self.state.1.notify_all();
    }

    fn received(&self) -> usize {
        self.lock().received
    }

    fn cut_after(&self, lines: usize) {
        self.lock().cut_after = Some(lines);
    }

    /// Blocks until a request sent after `before` reached the relay (so
    /// the forwarder has a batch in flight).
    fn wait_past(&self, before: usize) {
        retry("a batch to reach the relay", || {
            (self.received() > before).then_some(())
        });
    }
}

fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    answers: bool,
    state: &(Mutex<RelayState>, Condvar),
) {
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let mut chunk = &buf[..n];
        let mut cut = false;
        {
            let mut st = state.0.lock().expect("relay state");
            if !answers {
                st.received += n;
            }
            while st.held {
                st = state.1.wait(st).expect("relay state");
            }
            if answers {
                if let Some(left) = st.cut_after {
                    let newlines: Vec<usize> = chunk
                        .iter()
                        .enumerate()
                        .filter(|&(_, &b)| b == b'\n')
                        .map(|(i, _)| i)
                        .collect();
                    // `left` stays >= 1: it only shrinks while the
                    // chunks hold fewer newlines than it.
                    if newlines.len() >= left {
                        chunk = &chunk[..newlines[left - 1] + 1];
                        st.cut_after = None;
                        cut = true;
                    } else {
                        st.cut_after = Some(left - newlines.len());
                    }
                }
            }
        }
        if to.write_all(chunk).is_err() || cut {
            break;
        }
    }
    let _ = from.shutdown(SocketShutdown::Both);
    let _ = to.shutdown(SocketShutdown::Both);
}

/// A primary engine journaling under `dir` and replicating through
/// `standby` (usually a relay).
fn replicating_primary(
    dir: &Path,
    standby: SocketAddr,
    compact_every: usize,
    backlog_cap: Option<usize>,
) -> (AdaptEngine, Replicator) {
    let mut replicator = Replicator::spawn(
        "p0",
        standby,
        RetryPolicy::quick(),
        Some(JournalDir::at(dir)),
    );
    if let Some(cap) = backlog_cap {
        replicator = replicator.with_backlog_cap(cap);
    }
    let journal = JournalDir::at(dir)
        .with_compaction(compact_every)
        .with_replication(replicator.clone());
    (
        AdaptEngine::with_journal(CarryInStrategy::TopDiff, journal),
        replicator,
    )
}

#[test]
fn one_group_fsyncs_each_touched_file_once() {
    let _serial = serial();
    let dir = TempDir::new("gc_fsyncs");
    // One shard: the measured batch is one channel message, so exactly
    // one group.
    let mut pool =
        ShardedEngine::with_journal(CarryInStrategy::TopDiff, 1, JournalDir::at(dir.path()));
    let tenants = [1u64, 2, 3, 4];
    let answers = pool.process(tenants.iter().flat_map(|&t| setup(t)).collect());
    assert!(answers.iter().all(Response::is_admitted));

    let deltas: Vec<Request> = (0..32)
        .map(|k| flip(tenants[k % tenants.len()], k / tenants.len()))
        .collect();
    let before = journal::stats();
    let answers = pool.process(deltas);
    let after = journal::stats();
    assert!(answers.iter().all(Response::is_admitted), "{answers:?}");
    assert_eq!(after.appends - before.appends, 32);
    assert!(
        after.fsyncs - before.fsyncs <= tenants.len() as u64,
        "32 appends over {} tenants took {} fsyncs",
        tenants.len(),
        after.fsyncs - before.fsyncs
    );
    assert_eq!(after.commits - before.commits, 1, "one group, one commit");
    let _ = pool.shutdown();
}

#[test]
fn every_answered_delta_is_in_its_file_when_the_answer_arrives() {
    let _serial = serial();
    let dir = TempDir::new("gc_durable_answers");
    let journal = JournalDir::at(dir.path());
    let mut pool = ShardedEngine::with_journal(CarryInStrategy::TopDiff, 2, journal.clone());
    let tenants = [5u64, 6, 7];
    let answers = pool.process(tenants.iter().flat_map(|&t| setup(t)).collect());
    assert!(answers.iter().all(Response::is_admitted));
    let tails: Vec<usize> = tenants
        .iter()
        .map(|&t| journal.load_tenant(t).expect("journal").events.len())
        .collect();

    let deltas: Vec<(u64, Request)> = (0..60)
        .map(|k| (k as u64, flip(tenants[k % 3], k / 3)))
        .collect();
    let commits = journal::stats().commits;
    // Several submissions, so the workers may form several groups.
    for chunk in deltas.chunks(10) {
        pool.submit_batch(chunk.to_vec());
    }
    let mut answered = [0usize; 3];
    while let Some((seq, response)) = pool.recv() {
        assert!(response.is_admitted(), "{response:?}");
        assert!(
            journal::stats().commits > commits,
            "an answer left before any group commit"
        );
        let i = tenants
            .iter()
            .position(|&t| t == deltas[seq as usize].1.tenant())
            .expect("known tenant");
        answered[i] += 1;
        let on_disk = journal
            .load_tenant(tenants[i])
            .expect("journal")
            .events
            .len();
        assert!(
            on_disk >= tails[i] + answered[i],
            "tenant {}: {} deltas answered, {} in the file",
            tenants[i],
            answered[i],
            on_disk - tails[i]
        );
    }
    assert_eq!(answered, [20, 20, 20]);
    let _ = pool.shutdown();
}

#[test]
fn a_compaction_and_an_evict_inside_one_group_leave_the_replica_identical() {
    let _serial = serial();
    let primary_dir = TempDir::new("gc_compact_evict");
    let standby_dir = TempDir::new("gc_compact_evict_standby");
    let standby = spawn_standby(standby_dir.path());
    let replicator = Replicator::spawn(
        "p0",
        standby,
        RetryPolicy::quick(),
        Some(JournalDir::at(primary_dir.path())),
    );
    let journal = JournalDir::at(primary_dir.path())
        .with_compaction(4)
        .with_replication(replicator.clone());
    let mut pool = ShardedEngine::with_journal(CarryInStrategy::TopDiff, 1, journal);
    let answers = pool.process([setup(1), setup(2)].concat());
    assert!(answers.iter().all(Response::is_admitted));
    assert!(replicator.flush(FLUSH));

    // One batch, one group: tenant 1 compacts mid-group (tail 1 + 5
    // flips crosses 4) and keeps appending; tenant 2 appends, then is
    // evicted, inside the same group.
    let mut group: Vec<Request> = (0..5).map(|k| flip(1, k)).collect();
    group.push(flip(2, 0));
    group.push(Request::Evict { tenant: 2 });
    group.extend((5..7).map(|k| flip(1, k)));
    let answers = pool.process(group);
    assert!(
        matches!(answers[6], Response::Evicted { tenant: 2, .. }),
        "{answers:?}"
    );
    assert!(answers
        .iter()
        .enumerate()
        .all(|(i, a)| i == 6 || a.is_admitted()));
    assert!(replicator.flush(FLUSH));

    let history = JournalDir::at(primary_dir.path())
        .load_tenant(1)
        .expect("journal");
    assert!(history.snapshot.is_some(), "tenant 1 never compacted");
    assert_replica_identical(primary_dir.path(), standby_dir.path(), 1);
    assert!(!replica_path(standby_dir.path(), 2).exists());
    assert!(replica_path(standby_dir.path(), 2)
        .with_extension("jsonl.retired")
        .exists());
    let stats = replicator.stats();
    assert_eq!(stats.dropped, 0, "{stats:?}");
    assert_eq!(stats.delivered, stats.enqueued, "{stats:?}");
    let _ = pool.shutdown();
}

#[test]
fn a_rejection_inside_a_pipelined_batch_heals_once() {
    let _serial = serial();
    let primary_dir = TempDir::new("gc_heal_once");
    let standby_dir = TempDir::new("gc_heal_once_standby");
    let relay = Relay::start(spawn_standby(standby_dir.path()));

    // Tenant 2's journal starts before replication does: the standby
    // has no replica (and no owner) for it, so its appends are rejected.
    {
        let mut engine =
            AdaptEngine::with_journal(CarryInStrategy::TopDiff, JournalDir::at(primary_dir.path()));
        handle_all(&mut engine, &setup(2));
    }
    let (mut engine, replicator) = replicating_primary(primary_dir.path(), relay.addr, 0, None);
    assert_eq!(engine.recover_journaled(|_| true), (1, 0));
    handle_all(&mut engine, &setup(1));
    assert!(replicator.flush(FLUSH));

    // Stall the stream with one op in flight, queue four appends of
    // tenant 2 behind it, then let everything through: the four go out
    // as one pipelined batch, all four are rejected, one heal follows.
    relay.hold();
    let before = relay.received();
    handle_all(&mut engine, &[flip(1, 0)]);
    relay.wait_past(before);
    handle_all(&mut engine, &flips(2, 0..4));
    relay.release();
    assert!(replicator.flush(FLUSH));

    let stats = replicator.stats();
    assert_eq!(
        stats.heals, 1,
        "one batch of rejections, one heal: {stats:?}"
    );
    assert_eq!(stats.dropped, 0, "{stats:?}");
    assert_eq!(stats.delivered, stats.enqueued, "{stats:?}");
    assert_replica_identical(primary_dir.path(), standby_dir.path(), 1);
    assert_replica_identical(primary_dir.path(), standby_dir.path(), 2);
}

#[test]
fn a_reconnect_mid_batch_duplicates_no_replica_bytes() {
    let _serial = serial();
    let primary_dir = TempDir::new("gc_reconnect");
    let standby_dir = TempDir::new("gc_reconnect_standby");
    let relay = Relay::start(spawn_standby(standby_dir.path()));
    let (mut engine, replicator) = replicating_primary(primary_dir.path(), relay.addr, 0, None);
    handle_all(&mut engine, &setup(1));
    assert!(replicator.flush(FLUSH));

    // One op in flight, six queued behind it; the connection dies after
    // the in-flight answer and the first answer of the six-op batch.
    relay.hold();
    let before = relay.received();
    handle_all(&mut engine, &[flip(1, 0)]);
    relay.wait_past(before);
    handle_all(&mut engine, &flips(1, 1..7));
    relay.cut_after(2);
    relay.release();
    assert!(replicator.flush(FLUSH));

    let stats = replicator.stats();
    assert!(
        stats.reconnects >= 1,
        "the connection was never cut: {stats:?}"
    );
    assert_eq!(stats.dropped, 0, "{stats:?}");
    assert_eq!(stats.delivered, stats.enqueued, "{stats:?}");
    assert_replica_identical(primary_dir.path(), standby_dir.path(), 1);
}

#[test]
fn evicted_ops_are_resynced_and_the_replica_equals_the_primary_after_flush() {
    let _serial = serial();
    let primary_dir = TempDir::new("gc_evict_resync");
    let standby_dir = TempDir::new("gc_evict_resync_standby");
    let relay = Relay::start(spawn_standby(standby_dir.path()));
    let (mut engine, replicator) = replicating_primary(primary_dir.path(), relay.addr, 8, Some(4));
    for tenant in [1, 2, 3] {
        handle_all(&mut engine, &setup(tenant));
    }
    // Tenant 1's replica holds a long tail: 1 arrival + 6 flips, one
    // short of compaction.
    handle_all(&mut engine, &flips(1, 0..6));
    assert!(replicator.flush(FLUSH));
    assert_replica_identical(primary_dir.path(), standby_dir.path(), 1);

    // Phase 1: the standby stalls behind one in-flight op of tenant 2.
    // Tenant 1's next append compacts (append + reset); four more
    // appends overflow the cap of 4 and evict the compaction reset (the
    // in-flight op counted or not), so every later append carries an
    // offset below the stale replica's length.
    relay.hold();
    let before = relay.received();
    handle_all(&mut engine, &[flip(2, 0)]);
    relay.wait_past(before);
    handle_all(&mut engine, &flips(1, 6..11));
    let history = JournalDir::at(primary_dir.path())
        .load_tenant(1)
        .expect("journal");
    assert!(history.snapshot.is_some(), "tenant 1 never compacted");
    assert!(replicator.stats().dropped >= 2, "{:?}", replicator.stats());
    relay.release();
    assert!(replicator.flush(FLUSH));
    assert_replica_identical(primary_dir.path(), standby_dir.path(), 1);

    // Phase 2: tenant 1's last ops are evicted by another tenant's, so
    // only the flush can resync it.
    relay.hold();
    let before = relay.received();
    handle_all(&mut engine, &[flip(2, 1)]);
    relay.wait_past(before);
    handle_all(&mut engine, &flips(1, 11..14));
    handle_all(&mut engine, &flips(3, 0..3));
    relay.release();
    assert!(replicator.flush(FLUSH));
    for tenant in [1, 2, 3] {
        assert_replica_identical(primary_dir.path(), standby_dir.path(), tenant);
    }
    let stats = replicator.stats();
    assert!(stats.heals >= 2, "{stats:?}");
}

#[test]
fn boot_recovery_cuts_a_torn_tail_and_keeps_every_complete_event() {
    let _serial = serial();
    let dir = TempDir::new("gc_torn_tail");
    let path = dir.path().join("tenant_3.jsonl");
    let query = Request::Query { tenant: 3 };
    let live = {
        let mut engine =
            AdaptEngine::with_journal(CarryInStrategy::TopDiff, JournalDir::at(dir.path()));
        handle_all(&mut engine, &setup(3));
        handle_all(&mut engine, &flips(3, 0..3));
        engine.handle(&query)
    };
    // A crash mid-append: the line never got its newline.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("journal");
    file.write_all(b"{\"event\":\"arr").expect("torn write");
    drop(file);
    let complete = std::fs::metadata(&path).expect("journal").len() - 13;

    let torn = journal::stats().torn_tails;
    let mut pool =
        ShardedEngine::with_journal(CarryInStrategy::TopDiff, 2, JournalDir::at(dir.path()));
    assert_eq!(pool.process(vec![query.clone()]), vec![live]);
    assert_eq!(journal::stats().torn_tails, torn + 1);
    assert_eq!(std::fs::metadata(&path).expect("journal").len(), complete);

    // The truncated journal takes appends again and round-trips.
    assert!(pool.process(vec![flip(3, 3)])[0].is_admitted());
    let after = pool.process(vec![query.clone()]);
    let _ = pool.shutdown();
    let mut pool =
        ShardedEngine::with_journal(CarryInStrategy::TopDiff, 1, JournalDir::at(dir.path()));
    assert_eq!(pool.process(vec![query]), after);
    let _ = pool.shutdown();
    assert_eq!(journal::stats().torn_tails, torn + 1);

    // A malformed line that *was* terminated is not a torn append: the
    // tenant stays unrecovered.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .expect("journal");
    file.write_all(b"{\"event\":\"arr\n")
        .expect("malformed write");
    drop(file);
    let mut engine =
        AdaptEngine::with_journal(CarryInStrategy::TopDiff, JournalDir::at(dir.path()));
    assert_eq!(engine.recover_journaled(|_| true), (0, 1));
}
