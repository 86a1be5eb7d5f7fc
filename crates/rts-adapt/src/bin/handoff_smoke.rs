//! `handoff_smoke` — the budgeted multi-daemon hand-off exerciser CI
//! runs (see `.github/workflows/ci.yml`).
//!
//! The scenario is the Operations runbook, end to end, over real TCP:
//!
//! 1. boot daemon A (journaled, compaction on) and drive a seeded load
//!    of registrations and deltas over a TCP client;
//! 2. record every tenant's query answer;
//! 3. hand three tenants off to daemon B (different shard count, its
//!    own journal): `export` on A → `import` on B → `evict` on A;
//! 4. assert B's query answers are byte-identical to A's pre-hand-off
//!    answers (modulo the `seq` echo), A no longer knows the moved
//!    tenants but still serves the rest;
//! 5. stop B, restart it from its journal directory alone and assert
//!    the moved tenants recover bit-identically.
//!
//! Exits non-zero (panics) on any mismatch; prints a one-line summary
//! on success. Wall time is well under a second — CI wraps it in a hard
//! `timeout` like the other smoke jobs.

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rts_adapt::client::{LineClient, RetryPolicy};
use rts_adapt::journal::JournalDir;
use rts_adapt::reactor::{serve_reactor, ReactorOptions, ReactorSummary, Shutdown};
use rts_adapt::{json, Request, Response, ShardedEngine};
use rts_analysis::semi::CarryInStrategy;

const TENANTS: u64 = 8;
const DELTAS: usize = 120;
const MOVED: [u64; 3] = [2, 5, 7];

/// The bounded-retry line client (`rts_adapt::client`) under the same
/// discipline the test suite's `retry` helper uses: a daemon still in
/// its restart window (first-connect `ECONNREFUSED`) is ridden out, a
/// genuinely dead one still fails the run in seconds.
struct Client {
    inner: LineClient,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let inner = LineClient::connect(addr, &RetryPolicy::default()).expect("connect to daemon");
        Client { inner }
    }

    fn request(&mut self, line: &str) -> String {
        self.inner.request(line).expect("daemon round trip")
    }
}

/// Strips the per-connection `"seq":N,` echo so answers from different
/// connections/daemons compare byte-identically.
fn strip_seq(line: &str) -> String {
    match (line.find("\"seq\":"), line.find(',')) {
        (Some(0..=1), Some(comma)) => format!("{{{}", &line[comma + 1..]),
        _ => line.to_string(),
    }
}

/// An in-process daemon: its address, drain handle and serve thread.
type Daemon = (
    SocketAddr,
    Arc<Shutdown>,
    JoinHandle<std::io::Result<ReactorSummary>>,
);

/// Boots a journaled reactor on an ephemeral port.
fn spawn_daemon(journal: JournalDir, shards: usize) -> Daemon {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind an ephemeral port");
    let addr = listener.local_addr().unwrap();
    let mut options = ReactorOptions::new(CarryInStrategy::TopDiff, shards);
    options.journal = Some(journal);
    let shutdown = Shutdown::new();
    let remote = Arc::clone(&shutdown);
    let serving = std::thread::spawn(move || serve_reactor(listener, &options, &remote));
    (addr, shutdown, serving)
}

/// Drains a daemon and joins its shard workers.
fn stop((_, shutdown, serving): Daemon) {
    shutdown.request();
    serving
        .join()
        .expect("the reactor thread never panics")
        .expect("the daemon drains cleanly");
}

fn main() {
    let started = std::time::Instant::now();
    let root = std::env::temp_dir().join(format!("hydra_handoff_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir_a = JournalDir::at(root.join("daemon_a")).with_compaction(8);
    let dir_b = JournalDir::at(root.join("daemon_b")).with_compaction(8);

    // 1. Daemon A under a seeded load.
    let daemon_a = spawn_daemon(dir_a, 3);
    let mut client = Client::connect(daemon_a.0);
    for t in 1..=TENANTS {
        let answer = client.request(&format!(
            "{{\"op\":\"register\",\"tenant\":{t},\"cores\":2,\"rt\":[\
             {{\"wcet_ms\":240,\"period_ms\":500,\"core\":0}},\
             {{\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}}]}}"
        ));
        assert!(answer.contains("\"verdict\":\"accept\""), "{answer}");
    }
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let (mut accepted, mut rejected, mut errored) = (0u32, 0u32, 0u32);
    for _ in 0..DELTAS {
        let tenant = rng.gen_range(1..=TENANTS);
        let line = match rng.gen_range(0u32..8) {
            0..=4 => {
                let t_max = rng.gen_range(2_000u64..=12_000);
                let passive = rng.gen_range(1..=t_max / 2);
                let active = rng.gen_range(passive..=t_max);
                format!(
                    "{{\"op\":\"arrival\",\"tenant\":{tenant},\"passive_ms\":{passive},\
                     \"active_ms\":{active},\"t_max_ms\":{t_max}}}"
                )
            }
            5 => format!(
                "{{\"op\":\"departure\",\"tenant\":{tenant},\"slot\":{}}}",
                rng.gen_range(0u32..5)
            ),
            _ => format!(
                "{{\"op\":\"mode\",\"tenant\":{tenant},\"slot\":{},\"mode\":\"{}\"}}",
                rng.gen_range(0u32..5),
                if rng.gen_bool(0.5) {
                    "active"
                } else {
                    "passive"
                },
            ),
        };
        let answer = client.request(&line);
        if answer.contains("\"verdict\":\"accept\"") {
            accepted += 1;
        } else if answer.contains("\"verdict\":\"reject\"") {
            rejected += 1;
        } else {
            errored += 1;
        }
    }
    assert!(accepted >= 30, "only {accepted} accepted — load too thin");
    assert!(rejected >= 1, "the load must exercise rejections");
    assert!(errored >= 1, "the load must exercise usage errors");

    // 2. Record every tenant's committed answer on A.
    let before: Vec<String> = (1..=TENANTS)
        .map(|t| strip_seq(&client.request(&format!("{{\"op\":\"query\",\"tenant\":{t}}}"))))
        .collect();

    // 3. Hand the chosen tenants off to daemon B.
    let daemon_b = spawn_daemon(dir_b.clone(), 2);
    let mut client_b = Client::connect(daemon_b.0);
    for &t in &MOVED {
        let export = client.request(&format!("{{\"op\":\"export\",\"tenant\":{t}}}"));
        assert!(export.contains("\"verdict\":\"export\""), "{export}");
        let payload = json::parse(&export).expect("export lines are valid JSON");
        let history = json::render(payload.get("journal").expect("export carries the journal"));
        let imported = client_b.request(&format!(
            "{{\"op\":\"import\",\"tenant\":{t},\"journal\":{history}}}"
        ));
        assert!(imported.contains("\"verdict\":\"accept\""), "{imported}");
        let evicted = client.request(&format!("{{\"op\":\"evict\",\"tenant\":{t}}}"));
        assert!(evicted.contains("\"verdict\":\"evicted\""), "{evicted}");
    }

    // 4. B answers the moved tenants exactly as A did; A forgot them
    // and still serves the others.
    for (t, expected) in (1..=TENANTS).zip(&before) {
        let on_b = strip_seq(&client_b.request(&format!("{{\"op\":\"query\",\"tenant\":{t}}}")));
        let on_a = strip_seq(&client.request(&format!("{{\"op\":\"query\",\"tenant\":{t}}}")));
        if MOVED.contains(&t) {
            assert_eq!(
                &on_b, expected,
                "tenant {t} must answer on B as it did on A"
            );
            assert!(
                on_a.contains("unknown tenant"),
                "tenant {t} must be gone from A"
            );
        } else {
            assert_eq!(&on_a, expected, "tenant {t} must be unaffected on A");
            assert!(
                on_b.contains("unknown tenant"),
                "tenant {t} never moved to B"
            );
        }
    }

    // 5. With B stopped, a daemon booted from B's journal alone
    // recovers the moved tenants bit-identically (periods, response
    // times, fingerprint all inside the compared line).
    drop(client_b);
    stop(daemon_b);
    let mut revived = ShardedEngine::with_journal(CarryInStrategy::TopDiff, 4, dir_b);
    for &t in &MOVED {
        let out = revived.process(vec![Request::Query { tenant: t }]);
        let Response::Admitted(_) = &out[0] else {
            panic!("tenant {t} did not recover from B's journal: {out:?}");
        };
        let line = strip_seq(&rts_adapt::proto::render_response(0, &out[0]));
        let expected = &before[(t - 1) as usize];
        assert_eq!(&line, expected, "tenant {t} post-restart answer");
    }
    let _ = revived.shutdown();
    drop(client);
    stop(daemon_a);
    let _ = std::fs::remove_dir_all(&root);
    println!(
        "handoff-smoke OK: {TENANTS} tenants, {DELTAS} deltas ({accepted} accepted, \
         {rejected} rejected, {errored} errors), {} handed off and recovered, {:.2}s",
        MOVED.len(),
        started.elapsed().as_secs_f64(),
    );
}
