//! Crash-injection battery for the coordinator: in-process daemons
//! (real sharded engines behind the reactor the daemon runs), a real
//! replication pipe, and deliberately induced failures at the worst
//! moments. Pins the PR-10 safety claims:
//!
//! * a daemon that dies **mid-rebalance** (its import target is
//!   unreachable) loses nothing: every tenant stays owned exactly
//!   once, on its original member, and still answers identically;
//! * a primary killed **mid-append** (severed replication pipe) fails
//!   over to the standby with the flushed prefix served byte-identical
//!   to the pre-kill recordings — survivors undisturbed;
//! * the fault hook's `Delay` and `DropConnection` actions fire on
//!   every step and never corrupt a move — dropped connections redial
//!   through the bounded-retry client and the move completes.
//!
//! The subprocess SIGKILL version of the same drill lives in the
//! `coordinator_smoke` binary (run by CI's coordinator-smoke job);
//! this battery keeps the logic under `cargo test` with no process
//! management.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration as StdDuration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rts_adapt::journal::JournalDir;
use rts_adapt::proto::render_request;
use rts_adapt::{
    serve_reactor, ReactorOptions, Replicator, Request, RetryPolicy, RtSpec, Shutdown,
};
use rts_analysis::semi::CarryInStrategy;
use rts_coord::{Coordinator, FaultAction, Step};
use rts_model::delta::{DeltaEvent, MonitorMode, MonitorSpec};
use rts_model::time::Duration;

/// A uniquely named temporary directory, removed on drop.
struct TempDir {
    path: std::path::PathBuf,
}

impl TempDir {
    fn new(prefix: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "hydra_coord_{prefix}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create test tempdir");
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Serves `options` on an in-process reactor bound to a fresh loopback
/// port and returns its address. The serve thread is detached; it dies
/// with the test process.
fn serve_daemon(options: ReactorOptions) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind daemon listener");
    let addr = listener.local_addr().expect("daemon address");
    std::thread::spawn(move || serve_reactor(listener, &options, &Shutdown::new()));
    addr
}

/// Boots an in-process daemon — a journaled reactor, optionally
/// replicating to `standby` — and returns its address (plus the
/// replicator handle when replicating, so tests can flush/sever it).
fn spawn_daemon(
    dir: &Path,
    standby: Option<(&str, SocketAddr)>,
) -> (SocketAddr, Option<Replicator>) {
    let mut journal = JournalDir::at(dir).with_compaction(8);
    let mut handle = None;
    if let Some((source, addr)) = standby {
        let replicator = Replicator::spawn(
            source,
            addr,
            RetryPolicy::quick(),
            Some(JournalDir::at(dir)),
        );
        handle = Some(replicator.clone());
        journal = journal.with_replication(replicator);
    }
    let addr = serve_daemon(ReactorOptions {
        journal: Some(journal),
        ..ReactorOptions::new(CarryInStrategy::TopDiff, 2)
    });
    (addr, handle)
}

/// An address that refuses every connection: bind an ephemeral port,
/// record it, drop the listener. Connecting gets ECONNREFUSED — the
/// same thing a coordinator sees when a daemon dies mid-rebalance. The
/// port is taken on 127.0.0.3, a loopback address no daemon binds (they
/// all listen on 127.0.0.1), so a parallel test's daemon can never be
/// handed the released port and answer in the dead daemon's place.
fn dead_address() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.3:0").expect("reserve a port");
    listener.local_addr().expect("reserved address")
}

/// The paper's rover registration as a routable line.
fn register_line(tenant: u64) -> String {
    render_request(&Request::Register {
        tenant,
        cores: 2,
        rt: vec![
            RtSpec {
                wcet: Duration::from_ms(240),
                period: Duration::from_ms(500),
                core: 0,
            },
            RtSpec {
                wcet: Duration::from_ms(1120),
                period: Duration::from_ms(5000),
                core: 1,
            },
        ],
    })
}

fn query_line(tenant: u64) -> String {
    render_request(&Request::Query { tenant })
}

/// A seeded delta line spanning accepted/rejected/errored shapes.
fn random_delta_line(rng: &mut StdRng, tenant: u64) -> String {
    let event = match rng.gen_range(0u32..10) {
        0..=4 => {
            let t_max = Duration::from_ms(rng.gen_range(2000..=12_000));
            let passive = Duration::from_ticks(rng.gen_range(1..=t_max.as_ticks() / 2));
            let active = Duration::from_ticks(rng.gen_range(passive.as_ticks()..=t_max.as_ticks()));
            DeltaEvent::Arrival {
                monitor: MonitorSpec::modal(passive, active, t_max).unwrap(),
            }
        }
        5 | 6 => DeltaEvent::Departure {
            slot: rng.gen_range(0..6),
        },
        _ => DeltaEvent::ModeChange {
            slot: rng.gen_range(0..6),
            mode: if rng.gen_bool(0.5) {
                MonitorMode::Active
            } else {
                MonitorMode::Passive
            },
        },
    };
    render_request(&Request::Delta { tenant, event })
}

/// Drops the positional `seq` echo so answers from different
/// connections (and different daemons) compare byte-for-byte.
fn strip_seq(line: &str) -> String {
    let rest = line
        .strip_prefix("{\"seq\":")
        .unwrap_or_else(|| panic!("answer without a seq prefix: {line}"));
    let comma = rest.find(',').expect("fields after seq");
    format!("{{{}", &rest[comma + 1..])
}

/// Queries every tenant through the coordinator, seq-stripped.
fn record_answers(
    coordinator: &mut Coordinator,
    tenants: impl IntoIterator<Item = u64>,
) -> BTreeMap<u64, String> {
    tenants
        .into_iter()
        .map(|t| {
            let answer = coordinator
                .route(t, &query_line(t))
                .unwrap_or_else(|e| panic!("query tenant {t}: {e}"));
            (t, strip_seq(&answer))
        })
        .collect()
}

/// Boots an in-process daemon with no journal — adoption on it always
/// fails ("adoption requires a journal"), which is exactly what the
/// quarantine drill needs.
fn spawn_journalless_daemon() -> SocketAddr {
    serve_daemon(ReactorOptions::new(CarryInStrategy::TopDiff, 2))
}

#[test]
fn a_failed_adoption_quarantines_the_tenant_instead_of_replacing_it() {
    let d0_dir = TempDir::new("quarantine_d0");
    let d1_dir = TempDir::new("quarantine_d1");
    // The standby cannot adopt anything: no journal, so no replicas.
    let standby = spawn_journalless_daemon();
    let (d0, _) = spawn_daemon(d0_dir.path(), None);
    let (d1, _) = spawn_daemon(d1_dir.path(), None);

    let mut coordinator = Coordinator::new(RetryPolicy::quick());
    coordinator.set_standby("standby", standby);
    assert!(coordinator.add_member("d0", d0).errors.is_empty());
    assert!(coordinator.add_member("d1", d1).errors.is_empty());
    let tenants: Vec<u64> = (1..=6).collect();
    for &t in &tenants {
        let answer = coordinator.route(t, &register_line(t)).expect("register");
        assert!(
            answer.contains("\"verdict\":\"accept\""),
            "register answered {answer}"
        );
    }
    let placements = coordinator.placements().clone();
    let victims: Vec<u64> = placements
        .iter()
        .filter(|(_, m)| *m == "d0")
        .map(|(t, _)| *t)
        .collect();
    let survivors: Vec<u64> = tenants
        .iter()
        .copied()
        .filter(|t| !victims.contains(t))
        .collect();
    assert!(
        !victims.is_empty() && !survivors.is_empty(),
        "the ring put everything on one member: {placements:?}"
    );

    // Every adoption fails, so every victim must land in quarantine —
    // reported, unplaced, and refusing to route.
    let report = coordinator.fail_over("d0");
    assert!(report.adopted.is_empty(), "adopted {:?}", report.adopted);
    assert_eq!(report.errors.len(), victims.len());
    let mut lost: Vec<u64> = coordinator.lost().keys().copied().collect();
    lost.sort_unstable();
    assert_eq!(lost, victims, "quarantine set ≠ the failed adoptions");
    for &t in &victims {
        let err = coordinator
            .route(t, &query_line(t))
            .expect_err("routing a lost tenant must error, not re-place it");
        assert!(
            err.to_string().contains("lost in a failover"),
            "unexpected routing error: {err}"
        );
        assert!(
            !coordinator.placements().contains_key(&t),
            "tenant {t} was silently re-placed"
        );
    }
    // Survivors keep routing normally.
    for &t in &survivors {
        coordinator
            .route(t, &query_line(t))
            .expect("query survivor");
    }

    // Operator action: declare one tenant recovered — it routes again
    // (by ring placement, as a fresh registration target), while the
    // others stay quarantined.
    let recovered = victims[0];
    assert!(coordinator.mark_recovered(recovered));
    assert!(!coordinator.mark_recovered(recovered), "double recovery");
    let answer = coordinator
        .route(recovered, &register_line(recovered))
        .expect("re-register the recovered tenant");
    assert!(
        answer.contains("\"verdict\":\"accept\""),
        "re-register answered {answer}"
    );
    for &t in &victims[1..] {
        coordinator
            .route(t, &query_line(t))
            .expect_err("still quarantined");
    }
}

#[test]
fn a_daemon_dead_mid_rebalance_loses_no_tenant() {
    let d0_dir = TempDir::new("deadimport_d0");
    let (d0, _) = spawn_daemon(d0_dir.path(), None);

    let mut coordinator = Coordinator::new(RetryPolicy::quick());
    assert!(coordinator.add_member("d0", d0).errors.is_empty());
    let tenants: Vec<u64> = (1..=6).collect();
    for &t in &tenants {
        let answer = coordinator.route(t, &register_line(t)).expect("register");
        assert!(
            answer.contains("\"verdict\":\"accept\""),
            "register answered {answer}"
        );
    }
    let mut rng = StdRng::seed_from_u64(0xDEAD);
    for _ in 0..40 {
        let t = tenants[rng.gen_range(0..tenants.len())];
        let line = random_delta_line(&mut rng, t);
        coordinator.route(t, &line).expect("delta round trip");
    }
    let before = record_answers(&mut coordinator, tenants.iter().copied());

    // "d1" died between joining and receiving its first import: every
    // move toward it must fail loudly after bounded retry…
    let report = coordinator.add_member("d1", dead_address());
    assert!(
        report.moved.is_empty(),
        "moved {:?} onto a dead daemon",
        report.moved
    );
    assert!(
        !report.errors.is_empty(),
        "the ring must send *some* tenant to a second member"
    );

    // …and leave every tenant owned exactly once, by its original
    // member, still answering identically.
    let placements = coordinator.placements().clone();
    assert_eq!(placements.len(), tenants.len());
    for (tenant, member) in &placements {
        assert_eq!(member, "d0", "tenant {tenant} stranded on {member}");
    }
    let after = record_answers(&mut coordinator, tenants.iter().copied());
    assert_eq!(after, before, "a failed rebalance disturbed tenant state");

    // Removing the dead member rebalances cleanly (nothing was ever
    // placed on it).
    let report = coordinator.remove_member("d1");
    assert!(
        report.moved.is_empty() && report.errors.is_empty(),
        "{report:?}"
    );
}

#[test]
fn fault_hook_delay_and_dropped_connections_never_corrupt_a_move() {
    let d0_dir = TempDir::new("faulthook_d0");
    let d1_dir = TempDir::new("faulthook_d1");
    let (d0, _) = spawn_daemon(d0_dir.path(), None);
    let (d1, _) = spawn_daemon(d1_dir.path(), None);

    let mut coordinator = Coordinator::new(RetryPolicy::quick());
    assert!(coordinator.add_member("d0", d0).errors.is_empty());
    let tenants: Vec<u64> = (1..=8).collect();
    for &t in &tenants {
        let answer = coordinator.route(t, &register_line(t)).expect("register");
        assert!(
            answer.contains("\"verdict\":\"accept\""),
            "register answered {answer}"
        );
    }
    let mut rng = StdRng::seed_from_u64(0xFA01);
    for _ in 0..50 {
        let t = tenants[rng.gen_range(0..tenants.len())];
        let line = random_delta_line(&mut rng, t);
        coordinator.route(t, &line).expect("delta round trip");
    }
    let before = record_answers(&mut coordinator, tenants.iter().copied());

    // The worst client: drop the coordinator's connection before every
    // export and import, and stall before every evict.
    let steps = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&steps);
    coordinator.on_step(move |ctx| {
        seen.fetch_add(1, Ordering::Relaxed);
        match ctx.step {
            Step::Export | Step::Import => FaultAction::DropConnection,
            Step::Evict | Step::Adopt => FaultAction::Delay(StdDuration::from_millis(2)),
        }
    });

    let report = coordinator.add_member("d1", d1);
    assert!(
        report.errors.is_empty(),
        "faulted moves failed: {:?}",
        report.errors
    );
    assert!(!report.moved.is_empty(), "the ring sent nothing to d1");
    assert!(steps.load(Ordering::Relaxed) >= report.moved.len() * 3);

    // Every tenant is still owned exactly once, the moved ones now by
    // d1, and every answer is byte-identical to before the move.
    let placements = coordinator.placements().clone();
    assert_eq!(placements.len(), tenants.len());
    for mv in &report.moved {
        assert_eq!(placements.get(&mv.tenant), Some(&mv.to));
        assert_eq!(mv.to, "d1");
    }
    let after = record_answers(&mut coordinator, tenants.iter().copied());
    assert_eq!(after, before, "a faulted rebalance disturbed tenant state");
}

#[test]
fn a_primary_killed_mid_append_fails_over_to_the_flushed_prefix() {
    let standby_dir = TempDir::new("midappend_standby");
    let d0_dir = TempDir::new("midappend_d0");
    let d1_dir = TempDir::new("midappend_d1");
    let (standby, _) = spawn_daemon(standby_dir.path(), None);
    let (d0, d0_repl) = spawn_daemon(d0_dir.path(), Some(("d0", standby)));
    let (d1, d1_repl) = spawn_daemon(d1_dir.path(), Some(("d1", standby)));
    let d0_repl = d0_repl.expect("d0 replicates");
    let d1_repl = d1_repl.expect("d1 replicates");

    let mut coordinator = Coordinator::new(RetryPolicy::quick());
    coordinator.set_standby("standby", standby);
    assert!(coordinator.add_member("d0", d0).errors.is_empty());
    assert!(coordinator.add_member("d1", d1).errors.is_empty());

    let tenants: Vec<u64> = (1..=8).collect();
    for &t in &tenants {
        let answer = coordinator.route(t, &register_line(t)).expect("register");
        assert!(
            answer.contains("\"verdict\":\"accept\""),
            "register answered {answer}"
        );
    }
    let mut rng = StdRng::seed_from_u64(0xF0F0);
    let mut accepted = 0u32;
    for _ in 0..80 {
        let t = tenants[rng.gen_range(0..tenants.len())];
        let line = random_delta_line(&mut rng, t);
        let answer = coordinator.route(t, &line).expect("delta round trip");
        accepted += u32::from(answer.contains("\"verdict\":\"accept\""));
    }
    assert!(accepted >= 10, "only {accepted} of 80 deltas accepted");
    let placements = coordinator.placements().clone();
    assert!(
        placements.values().any(|m| m == "d0") && placements.values().any(|m| m == "d1"),
        "the ring put everything on one member: {placements:?}"
    );

    // Quiesce both pipes, then record the crash-consistent answers.
    assert!(d0_repl.flush(StdDuration::from_secs(10)));
    assert!(d1_repl.flush(StdDuration::from_secs(10)));
    let before = record_answers(&mut coordinator, tenants.iter().copied());

    // Kill d0 mid-append: the pipe is severed, then more deltas land on
    // its tenants — accepted by the doomed live engine, never
    // replicated. At least one must be accepted or the drill is
    // vacuous.
    let victims: Vec<u64> = placements
        .iter()
        .filter(|(_, m)| *m == "d0")
        .map(|(t, _)| *t)
        .collect();
    let survivors: Vec<u64> = tenants
        .iter()
        .copied()
        .filter(|t| !victims.contains(t))
        .collect();
    d0_repl.sever();
    let mut lost = 0u32;
    while lost == 0 {
        for _ in 0..20 {
            let t = victims[rng.gen_range(0..victims.len())];
            let line = random_delta_line(&mut rng, t);
            let answer = coordinator.route(t, &line).expect("delta round trip");
            lost += u32::from(answer.contains("\"verdict\":\"accept\""));
        }
    }
    assert!(d0_repl.stats().dropped > 0, "sever black-holed nothing");

    let report = coordinator.fail_over("d0");
    assert!(
        report.errors.is_empty(),
        "failover errors: {:?}",
        report.errors
    );
    let mut adopted = report.adopted.clone();
    adopted.sort_unstable();
    assert_eq!(adopted, victims, "adopted set ≠ the dead member's tenants");

    // Victims answer from the standby with the flushed prefix —
    // byte-identical to the pre-kill recordings — and survivors are
    // untouched on d1.
    let placements = coordinator.placements().clone();
    for &t in &victims {
        assert_eq!(placements.get(&t).map(String::as_str), Some("standby"));
        let answer = strip_seq(&coordinator.route(t, &query_line(t)).expect("query victim"));
        assert_eq!(answer, before[&t], "tenant {t} diverged across failover");
    }
    for &t in &survivors {
        assert_eq!(placements.get(&t).map(String::as_str), Some("d1"));
        let answer = strip_seq(
            &coordinator
                .route(t, &query_line(t))
                .expect("query survivor"),
        );
        assert_eq!(answer, before[&t], "survivor {t} disturbed by failover");
    }

    // The failed-over fleet keeps serving: post-failover load on every
    // tenant still round-trips through the coordinator.
    for _ in 0..30 {
        let t = tenants[rng.gen_range(0..tenants.len())];
        let line = random_delta_line(&mut rng, t);
        coordinator.route(t, &line).expect("post-failover delta");
    }
}
