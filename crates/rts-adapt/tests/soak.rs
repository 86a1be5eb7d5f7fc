//! Concurrency soak: several clients churn register/delta/query plus
//! the full hand-off cycle (export → evict → import) against **one**
//! reactor front over one shard pool, under `--max-conns` pressure
//! (more clients than connection slots, so refusals and re-admissions
//! happen for real), with journaling and aggressive compaction on.
//!
//! The correctness oracle is sequential replay: each client owns
//! disjoint tenants and records the deltas the live engine *accepted*,
//! in order. At the end, every tenant's committed state must equal a
//! fresh sequential replay of exactly that accepted-event order — and,
//! once the reactor has drained and stopped, a daemon restarted over
//! the soak's journal directory must agree too.

mod common;

use common::{random_event, retry, rover_rt, spawn_reactor, Client, TempDir};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rts_adapt::journal::{self, JournalDir, TenantHistory};
use rts_adapt::proto::render_request;
use rts_adapt::{json, ReactorOptions, Request, Response, ShardedEngine};
use rts_analysis::semi::CarryInStrategy;
use rts_model::delta::DeltaEvent;
use rts_model::time::TICKS_PER_MS;

const CLIENTS: usize = 6;
const MAX_CONNS: usize = 3;
const DELTAS_PER_CLIENT: usize = 24;

/// Connects until actually *served* (not refused): the first response
/// to a probe query must be a real engine answer, not the
/// connection-cap error line. Bounded by [`retry`]'s deadline.
fn connect_served(addr: std::net::SocketAddr, probe_tenant: u64) -> Client {
    retry("a free connection slot", || {
        let mut client = Client::connect(addr);
        // A refused socket may already be closed when we write — any
        // failure along the probe is just "try again".
        client
            .try_request(&format!("{{\"op\":\"query\",\"tenant\":{probe_tenant}}}"))
            .filter(|line| !line.contains("connection cap"))
            .map(|_| client)
    })
}

/// One client's script: register both tenants, churn seeded deltas and
/// queries, and put the first tenant through a full hand-off cycle
/// (export → evict → import of the exported payload) mid-stream.
/// Returns the accepted deltas per tenant, in commit order.
fn run_client(
    addr: std::net::SocketAddr,
    index: usize,
    tenants: [u64; 2],
) -> Vec<(u64, DeltaEvent)> {
    let mut client = connect_served(addr, tenants[0]);
    let mut rng = StdRng::seed_from_u64(0x50AC ^ ((index as u64) << 8));
    for &t in &tenants {
        let answer = client.request(&format!(
            "{{\"op\":\"register\",\"tenant\":{t},\"cores\":2,\"rt\":[\
             {{\"wcet_ms\":240,\"period_ms\":500,\"core\":0}},\
             {{\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}}]}}"
        ));
        assert!(answer.contains("\"verdict\":\"accept\""), "{answer}");
    }
    let mut accepted = Vec::new();
    for step in 0..DELTAS_PER_CLIENT {
        let tenant = tenants[rng.gen_range(0..2usize)];
        let event = random_event(&mut rng);
        let answer = client.request(&render_request(&Request::Delta { tenant, event }));
        if answer.contains("\"verdict\":\"accept\"") {
            accepted.push((tenant, event));
        }
        // Interleave reads, and mid-soak, a full hand-off cycle back
        // onto the same engine: semantically a no-op, operationally the
        // whole drain/import machinery under concurrency.
        if step == DELTAS_PER_CLIENT / 2 {
            let t = tenants[0];
            let export = client.request(&format!("{{\"op\":\"export\",\"tenant\":{t}}}"));
            assert!(export.contains("\"verdict\":\"export\""), "{export}");
            let payload = json::parse(&export).unwrap();
            let history = json::render(payload.get("journal").expect("export carries the state"));
            let evicted = client.request(&format!("{{\"op\":\"evict\",\"tenant\":{t}}}"));
            assert!(evicted.contains("\"verdict\":\"evicted\""), "{evicted}");
            let gone = client.request(&format!("{{\"op\":\"query\",\"tenant\":{t}}}"));
            assert!(gone.contains("unknown tenant"), "{gone}");
            let imported = client.request(&format!(
                "{{\"op\":\"import\",\"tenant\":{t},\"journal\":{history}}}"
            ));
            assert!(imported.contains("\"verdict\":\"accept\""), "{imported}");
        } else if step % 5 == 0 {
            let query = client.request(&format!("{{\"op\":\"query\",\"tenant\":{tenant}}}"));
            assert!(query.contains("\"verdict\":\"accept\""), "{query}");
        }
    }
    accepted
}

/// A fresh sequential replay of exactly the deltas accepted for tenant
/// `t`, in their commit order.
fn replay_accepted(accepted: &[(u64, DeltaEvent)], t: u64) -> rts_adapt::TenantState {
    let history = TenantHistory {
        cores: 2,
        rt: rover_rt(),
        snapshot: None,
        events: accepted
            .iter()
            .filter(|(tenant, _)| *tenant == t)
            .map(|(_, e)| *e)
            .collect(),
    };
    journal::replay(&history, CarryInStrategy::TopDiff)
        .expect("the accepted order must replay cleanly")
}

#[test]
fn soaked_engine_matches_sequential_replay_of_the_accepted_order() {
    let dir = TempDir::new("soak");
    let (addr, shutdown, serving) = spawn_reactor(ReactorOptions {
        journal: Some(JournalDir::at(dir.path()).with_compaction(4)),
        max_conns: MAX_CONNS,
        ..ReactorOptions::new(CarryInStrategy::TopDiff, 3)
    });

    // More clients than connection slots: some are refused and must
    // retry their way in; every script still completes.
    let accepted: Vec<(u64, DeltaEvent)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let tenants = [100 + 2 * i as u64, 101 + 2 * i as u64];
                scope.spawn(move || run_client(addr, i, tenants))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads must not panic"))
            .collect()
    });
    assert!(
        !accepted.is_empty(),
        "the soak must accept a nontrivial number of deltas"
    );

    // Oracle 1: every tenant's live state equals a sequential replay of
    // its accepted-event order.
    let mut checker = connect_served(addr, 100);
    for i in 0..CLIENTS {
        for t in [100 + 2 * i as u64, 101 + 2 * i as u64] {
            let replayed = replay_accepted(&accepted, t);
            let line = checker.request(&format!("{{\"op\":\"query\",\"tenant\":{t}}}"));
            let answer = json::parse(&line).unwrap();
            assert_eq!(
                answer.get("fingerprint").and_then(json::Json::as_str),
                Some(format!("{:016x}", replayed.admitted_fingerprint()).as_str()),
                "tenant {t}: live fingerprint vs sequential replay ({line})"
            );
            let expected_periods: Vec<f64> = replayed
                .admitted()
                .periods
                .as_slice()
                .iter()
                .map(|d| d.as_ticks() as f64 / TICKS_PER_MS as f64)
                .collect();
            let got_periods: Vec<f64> = answer
                .get("periods_ms")
                .and_then(json::Json::as_array)
                .unwrap()
                .iter()
                .map(|v| v.as_f64().unwrap())
                .collect();
            assert_eq!(got_periods, expected_periods, "tenant {t} periods ({line})");
        }
    }
    drop(checker);

    // Oracle 2: a real restart. Drain the serving reactor and join its
    // shard workers, then the journal written under all that
    // concurrency (with compaction every 4 deltas) must boot a fresh
    // daemon to the same states, at a different shard count.
    shutdown.request();
    let summary = serving
        .join()
        .expect("the reactor thread never panics")
        .expect("the reactor drains cleanly");
    assert_eq!(summary.requests, summary.responses);
    let mut revived =
        ShardedEngine::with_journal(CarryInStrategy::TopDiff, 2, JournalDir::at(dir.path()));
    for i in 0..CLIENTS {
        for t in [100 + 2 * i as u64, 101 + 2 * i as u64] {
            let replayed = replay_accepted(&accepted, t);
            let out = revived.process(vec![Request::Query { tenant: t }]);
            let Response::Admitted(a) = &out[0] else {
                panic!("tenant {t} not recovered after the soak: {out:?}");
            };
            assert_eq!(
                a.periods,
                replayed.admitted().periods.as_slice().to_vec(),
                "tenant {t} recovered periods"
            );
            assert_eq!(
                a.response_times,
                replayed.admitted().response_times.clone(),
                "tenant {t} recovered response times"
            );
            assert_eq!(
                a.fingerprint,
                replayed.admitted_fingerprint(),
                "tenant {t} recovered fingerprint"
            );
        }
    }
    let _ = revived.shutdown();
}
