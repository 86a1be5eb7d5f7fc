//! Protocol torture: malformed, truncated, adversarial and oversized
//! line-JSON — plus mid-request disconnects — against the reactor, over
//! TCP and over the Unix stream the daemon bridges stdin through. The
//! service contract under attack is simple: **every line gets a polite
//! `verdict:"error"`/`"reject"` answer, nothing panics, no worker
//! wedges, and the stream stays line-synchronized** so a well-formed
//! request after the garbage is still served. The
//! Export/Import/Evict verbs get the same treatment as the PR 4 ops —
//! including payloads that parse but must not install anything.
//!
//! The TCP connections get their own battery: slow-loris drip feeds,
//! clients that vanish with responses still in flight, a thousand idle
//! connections under one active one, over-cap refusal — plus the
//! invariance pin: the same scripted sessions at *different* shard
//! counts and telemetry settings must produce byte-identical response
//! streams, a loaded journaled reactor must sample every lifecycle
//! stage, and an orderly reactor shutdown must lose no accepted delta
//! from the journal.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;

use common::{retry, spawn_reactor, Client, Served, TempDir};
use rts_adapt::journal::JournalDir;
use rts_adapt::json::{self, Json};
use rts_adapt::reactor::{serve_stream, ReactorOptions, ReactorSummary};
use rts_adapt::Stage;
use rts_analysis::semi::CarryInStrategy;

/// Serves `input` as one stream on a fresh 2-shard reactor with no
/// listener — the path the daemon's stdin takes — and returns the
/// run's totals and the response lines. The reactor returns only once
/// every line is answered and its workers are joined — a wedged worker
/// would hang right here, failing the test by timeout.
fn run_lines(input: &str) -> (ReactorSummary, Vec<String>) {
    let (served, client) = UnixStream::pair().unwrap();
    let serving = std::thread::spawn(move || serve_stream(served, &reactor(2, 8)));
    let mut writer = client.try_clone().unwrap();
    let input = input.to_owned();
    let feeding = std::thread::spawn(move || {
        writer.write_all(input.as_bytes()).unwrap();
        writer.shutdown(std::net::Shutdown::Write).unwrap();
    });
    let lines: Vec<String> = BufReader::new(client)
        .lines()
        .map(|line| line.expect("utf-8 answer"))
        .collect();
    feeding.join().unwrap();
    let summary = serving.join().unwrap().unwrap();
    (summary, lines)
}

/// Reactor options: `shards` workers, a `max_conns` budget, no journal.
fn reactor(shards: usize, max_conns: usize) -> ReactorOptions {
    ReactorOptions {
        max_conns,
        ..ReactorOptions::new(CarryInStrategy::TopDiff, shards)
    }
}

/// The answers a fresh reactor over the journal in `dir` gives to
/// `queries`, at yet another shard count — what a restarted daemon
/// would say.
fn replay_queries(dir: &TempDir, queries: &[String]) -> Vec<String> {
    let (addr, shutdown, handle) = spawn_reactor(ReactorOptions {
        journal: Some(JournalDir::at(dir.path())),
        ..reactor(3, 4)
    });
    let mut c = Client::connect(addr);
    let answers = queries.iter().map(|q| c.request(q)).collect();
    drop(c);
    shutdown.request();
    handle.join().unwrap().unwrap();
    answers
}

const REGISTER: &str = "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[\
     {\"wcet_ms\":240,\"period_ms\":500,\"core\":0},\
     {\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}";

/// Every adversarial line is answered with an error, and the
/// well-formed request that follows each one still succeeds.
#[test]
fn malformed_lines_get_polite_errors_and_never_desync_the_stream() {
    let garbage: Vec<String> = vec![
        // Syntax-level garbage.
        "not json at all".into(),
        "{".into(),
        "\u{1}\u{2}\u{3}".into(),
        "[1,2,".into(),
        "\"just a string\"".into(),
        "{\"op\":\"query\",\"tenant\":1}{\"op\":\"query\",\"tenant\":1}".into(),
        // Nesting bomb (the codec's depth cap must answer, not recurse).
        format!("{}1{}", "[".repeat(400), "]".repeat(400)),
        // Schema-level garbage.
        "{}".into(),
        "{\"op\":\"warp\",\"tenant\":1}".into(),
        "{\"op\":\"query\"}".into(),
        "{\"op\":\"query\",\"tenant\":-3}".into(),
        "{\"op\":\"query\",\"tenant\":1.5}".into(),
        "{\"op\":\"query\",\"tenant\":1e300}".into(),
        "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":7}".into(),
        "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[{\"core\":0}]}".into(),
        "{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":-5,\"t_max_ms\":100}".into(),
        "{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":400,\"active_ms\":100,\"t_max_ms\":5000}"
            .into(),
        "{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":1e99,\"t_max_ms\":1e99}".into(),
        "{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"calm\"}".into(),
        // Export/Import/Evict-specific garbage.
        "{\"op\":\"export\"}".into(),
        "{\"op\":\"import\",\"tenant\":1}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":42}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{}}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"rt\":[]}}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"cores\":0,\"rt\":[]}}".into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"cores\":2,\"rt\":[],\
          \"snapshot\":{\"fingerprint\":\"xyz\",\"monitors\":[]}}}"
            .into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"cores\":2,\"rt\":[],\
          \"snapshot\":{\"fingerprint\":\"0\",\"monitors\":[{\"passive_ticks\":9,\
          \"active_ticks\":3,\"t_max_ticks\":10,\"mode\":\"passive\"}]}}}"
            .into(),
        "{\"op\":\"import\",\"tenant\":1,\"journal\":{\"cores\":2,\"rt\":[],\
          \"events\":[{\"event\":\"warp\"}]}}"
            .into(),
        "{\"op\":\"evict\",\"tenant\":99}".into(),
        "{\"op\":\"export\",\"tenant\":99}".into(),
    ];
    let mut input = String::new();
    for line in &garbage {
        input.push_str(line);
        input.push('\n');
        // A probe request between every garbage line: the stream must
        // stay synchronized and the engine must keep answering.
        input.push_str("{\"op\":\"query\",\"tenant\":42}\n");
    }
    let (summary, lines) = run_lines(&input);
    assert_eq!(summary.requests, 2 * garbage.len() as u64);
    assert_eq!(summary.responses, summary.requests);
    for (i, pair) in lines.chunks(2).enumerate() {
        assert!(
            pair[0].contains("\"verdict\":\"error\""),
            "garbage line {i} must be an error: {}",
            pair[0]
        );
        assert!(
            pair[1].contains("unknown tenant 42"),
            "probe after garbage line {i} must still parse: {}",
            pair[1]
        );
    }
}

/// An import whose payload parses but whose configuration cannot be
/// admitted is *rejected* (an analysis verdict, not a protocol error),
/// and installs nothing. A mismatched fingerprint is an error. Either
/// way the engine keeps serving.
#[test]
fn inadmissible_or_mismatched_imports_install_nothing() {
    let heavy_import = "{\"op\":\"import\",\"tenant\":5,\"journal\":{\"cores\":2,\"rt\":[\
         {\"wcet_ticks\":2400,\"period_ticks\":5000,\"core\":0},\
         {\"wcet_ticks\":11200,\"period_ticks\":50000,\"core\":1}],\
         \"snapshot\":{\"fingerprint\":\"0\",\"monitors\":[\
         {\"passive_ticks\":53420,\"active_ticks\":53420,\"t_max_ticks\":100000,\"mode\":\"passive\"},\
         {\"passive_ticks\":90000,\"active_ticks\":90000,\"t_max_ticks\":100000,\"mode\":\"passive\"}]}}}";
    // Same rover, one admissible monitor — but the recorded fingerprint
    // does not match the configuration.
    let bad_fingerprint = "{\"op\":\"import\",\"tenant\":5,\"journal\":{\"cores\":2,\"rt\":[\
         {\"wcet_ticks\":2400,\"period_ticks\":5000,\"core\":0},\
         {\"wcet_ticks\":11200,\"period_ticks\":50000,\"core\":1}],\
         \"snapshot\":{\"fingerprint\":\"1234\",\"monitors\":[\
         {\"passive_ticks\":2230,\"active_ticks\":2230,\"t_max_ticks\":100000,\"mode\":\"passive\"}]}}}";
    // A history whose tail no longer re-admits (the second identical
    // heavyweight arrival must be refused) diverges on import.
    let diverging_tail = "{\"op\":\"import\",\"tenant\":5,\"journal\":{\"cores\":2,\"rt\":[\
         {\"wcet_ticks\":2400,\"period_ticks\":5000,\"core\":0},\
         {\"wcet_ticks\":11200,\"period_ticks\":50000,\"core\":1}],\
         \"events\":[\
         {\"event\":\"arrival\",\"passive_ticks\":53420,\"active_ticks\":53420,\"t_max_ticks\":100000},\
         {\"event\":\"arrival\",\"passive_ticks\":90000,\"active_ticks\":90000,\"t_max_ticks\":100000}]}}";
    let input = format!(
        "{heavy_import}\n{bad_fingerprint}\n{diverging_tail}\n{}\n",
        "{\"op\":\"query\",\"tenant\":5}"
    );
    let (summary, lines) = run_lines(&input);
    assert_eq!(summary.requests, 4);
    assert!(
        lines[0].contains("\"verdict\":\"reject\""),
        "inadmissible import is an analysis verdict: {}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"verdict\":\"error\"") && lines[1].contains("fingerprint"),
        "fingerprint mismatch is a payload error: {}",
        lines[1]
    );
    assert!(
        lines[2].contains("\"verdict\":\"reject\""),
        "diverging tail is an analysis verdict: {}",
        lines[2]
    );
    assert!(
        lines[3].contains("unknown tenant 5"),
        "none of the imports may have installed anything: {}",
        lines[3]
    );
}

/// A reactor over a journaled engine (the journal exercises the
/// recovery-adjacent code paths under torture too).
fn spawn_server(dir: &TempDir, max_conns: usize) -> Served {
    spawn_reactor(ReactorOptions {
        journal: Some(JournalDir::at(dir.path()).with_compaction(2)),
        ..reactor(2, max_conns)
    })
}

/// Clients that disconnect mid-request — after a partial line, after an
/// oversized flood, or right after connecting — never take the server
/// down: the next client is served in full, including hand-off verbs.
#[test]
fn mid_request_disconnects_leave_the_server_serving() {
    let dir = TempDir::new("torture_tcp");
    let (addr, shutdown, handle) = spawn_server(&dir, 8);

    // Disconnect after half a request line (no newline).
    {
        let mut c = Client::connect(addr);
        c.stream
            .write_all(b"{\"op\":\"register\",\"tenant\":1,\"cor")
            .unwrap();
        // Dropped here: the serving thread sees EOF mid-line.
    }
    // Disconnect mid-flood: several MiB without a newline, then gone.
    {
        let mut c = Client::connect(addr);
        let chunk = vec![b'x'; 1 << 20];
        for _ in 0..3 {
            if c.stream.write_all(&chunk).is_err() {
                break; // server may already have dropped us — fine
            }
        }
    }
    // Disconnect without sending anything.
    drop(Client::connect(addr));

    // A full session still works — register, delta, export, evict —
    // with bounded retries in case an earlier slot is still being
    // released.
    let mut c = retry("a served connection after the disconnect storm", || {
        let mut c = Client::connect(addr);
        c.send("{\"op\":\"query\",\"tenant\":7}");
        let line = c.recv();
        line.contains("unknown tenant 7").then_some(c)
    });
    c.send(REGISTER.replace("\"tenant\":1", "\"tenant\":7").as_str());
    assert!(c.recv().contains("\"verdict\":\"accept\""));
    c.send("{\"op\":\"arrival\",\"tenant\":7,\"passive_ms\":5342,\"t_max_ms\":10000}");
    assert!(c.recv().contains("\"periods_ms\":[7582]"));
    c.send("{\"op\":\"export\",\"tenant\":7}");
    let export = c.recv();
    assert!(
        export.contains("\"verdict\":\"export\"") && export.contains("\"journal\":"),
        "{export}"
    );
    c.send("{\"op\":\"evict\",\"tenant\":7}");
    assert!(c.recv().contains("\"verdict\":\"evicted\""), "evict failed");
    c.send("{\"op\":\"query\",\"tenant\":7}");
    assert!(c.recv().contains("unknown tenant 7"));
    drop(c);
    shutdown.request();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.refused_conns, 0);
}

/// An oversized request line (beyond the 1 MiB bound) is answered with
/// a bounded error and the connection stays usable — including when the
/// oversized line *is* an otherwise well-formed import payload.
#[test]
fn oversized_import_payloads_are_bounded_politely() {
    let dir = TempDir::new("torture_oversize");
    let (addr, shutdown, handle) = spawn_server(&dir, 8);
    let mut c = Client::connect(addr);
    // A syntactically valid import line, inflated beyond the bound by a
    // giant monitors array.
    let mut line = String::from(
        "{\"op\":\"import\",\"tenant\":3,\"journal\":{\"cores\":1,\
         \"rt\":[{\"wcet_ticks\":1,\"period_ticks\":10,\"core\":0}],\
         \"snapshot\":{\"fingerprint\":\"0\",\"monitors\":[",
    );
    let entry =
        "{\"passive_ticks\":1,\"active_ticks\":1,\"t_max_ticks\":1000,\"mode\":\"passive\"},";
    // Three times the 1 MiB line bound: decisively oversized, whatever
    // the reader's chunking.
    while line.len() <= 3 * (1 << 20) {
        line.push_str(entry);
    }
    line.pop(); // the trailing comma
    line.push_str("]}}}");
    c.send(&line);
    let answer = c.recv();
    assert!(
        answer.contains("\"verdict\":\"error\"") && answer.contains("exceeds"),
        "{answer}"
    );
    // Stream re-synchronized; nothing was installed.
    c.send("{\"op\":\"query\",\"tenant\":3}");
    assert!(c.recv().contains("unknown tenant 3"));
    drop(c);
    shutdown.request();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.parse_errors, 1);
}

// ---------------------------------------------------------------------
// TCP connections
// ---------------------------------------------------------------------

/// A slow-loris client dripping one request a few bytes at a time never
/// blocks the reactor: a second client is served in full between the
/// drips, and the drip-fed line is assembled and answered once its
/// newline finally arrives.
#[test]
fn slow_loris_drip_feeds_are_assembled_while_others_are_served() {
    let (addr, shutdown, handle) = spawn_reactor(reactor(2, 8));
    let mut loris = Client::connect(addr);
    let mut other = Client::connect(addr);
    let line = format!("{REGISTER}\n");
    for (i, chunk) in line.as_bytes().chunks(7).enumerate() {
        loris.stream.write_all(chunk).unwrap();
        loris.stream.flush().unwrap();
        if i % 5 == 0 {
            // The reactor must stay responsive mid-drip.
            other.send("{\"op\":\"query\",\"tenant\":31}");
            assert!(other.recv().contains("unknown tenant 31"));
        }
    }
    assert!(loris.recv().contains("\"verdict\":\"accept\""));
    drop(loris);
    drop(other);
    shutdown.request();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.accepted_conns, 2);
    assert_eq!(summary.requests, summary.responses);
}

/// Clients that vanish with responses still in flight — after a
/// pipelined burst, or mid-line — never wedge the reactor: their
/// answers are dropped, their slots are reclaimed, and a fresh session
/// is served in full.
#[test]
fn mid_write_disconnects_never_wedge_the_reactor() {
    let (addr, shutdown, handle) = spawn_reactor(reactor(2, 8));
    // Pipelines a burst and disconnects without reading a byte: every
    // response is computed, routed to a dead connection, and dropped.
    {
        let mut c = Client::connect(addr);
        c.send(REGISTER);
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        for i in 0..50 {
            let mode = if i % 2 == 0 { "active" } else { "passive" };
            c.send(&format!(
                "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
    }
    // Disconnects after half a line.
    {
        let c = Client::connect(addr);
        (&c.stream).write_all(b"{\"op\":\"quer").unwrap();
    }
    // The reactor keeps serving; slots are released once the in-flight
    // answers drain, so retry with a deadline.
    let c = retry("a served connection after the disconnect storm", || {
        let mut c = Client::connect(addr);
        c.send("{\"op\":\"query\",\"tenant\":9}");
        let line = c.recv();
        line.contains("unknown tenant 9").then_some(c)
    });
    drop(c);
    shutdown.request();
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.refused_conns, 0);
    // Responses routed to dead connections are dropped, never queued:
    // fewer responses than requests, and nothing wedged on the way out.
    assert!(summary.responses <= summary.requests);
}

/// A thousand idle connections cost a slot each and nothing else: an
/// active client underneath them is served promptly, `stats` counts
/// them, the connection over the cap is refused politely, and closing
/// the idles frees their slots.
#[test]
fn a_thousand_idle_connections_hold_no_slots_hostage() {
    let idle_target = 1000;
    let (addr, shutdown, handle) = spawn_reactor(reactor(2, idle_target + 1));
    let idle: Vec<TcpStream> = (0..idle_target)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    // The accept queue is FIFO: by the time this client's first line is
    // answered, every idle connection before it has its slot.
    let mut c = Client::connect(addr);
    c.send(REGISTER);
    assert!(c.recv().contains("\"verdict\":\"accept\""));
    c.send("{\"op\":\"stats\"}");
    let stats = c.recv();
    assert!(
        stats.contains(&format!("\"live\":{}", idle_target + 1)),
        "{stats}"
    );
    // One more is over the cap: refused with a protocol error line.
    let mut over = Client::connect(addr);
    assert!(over.recv().contains("connection cap"), "expected refusal");
    // Dropping the idles releases their slots; a new connection is
    // admitted again (the release races the accept, so retry).
    drop(idle);
    let c2 = retry("an admitted connection after the idles left", || {
        let mut c2 = Client::connect(addr);
        c2.send("{\"op\":\"query\",\"tenant\":77}");
        let line = c2.recv();
        line.contains("unknown tenant 77").then_some(c2)
    });
    drop(c2);
    drop(c);
    shutdown.request();
    let summary = handle.join().unwrap().unwrap();
    assert!(summary.accepted_conns >= idle_target as u64 + 2);
    assert!(summary.refused_conns >= 1);
}

/// Pipelines each script on its own connection (one thread per client)
/// and collects each connection's full response stream in order.
fn run_scripts(addr: SocketAddr, scripts: &[Vec<String>]) -> Vec<Vec<String>> {
    let handles: Vec<_> = scripts
        .iter()
        .cloned()
        .map(|script| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                for line in &script {
                    c.send(line);
                }
                (0..script.len()).map(|_| c.recv()).collect::<Vec<_>>()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// The invariance pin: the same scripted sessions — registrations,
/// deltas, garbage, mode flips, queries, with per-tenant stream
/// affinity, one connection per script — produce **byte-identical
/// response streams** on a reactor at 1 shard with telemetry on and at
/// 3 shards with telemetry on and off. Verdict populations are
/// therefore invariant to the shard count and telemetry (histograms
/// observe, never participate); with telemetry off the metrics verb
/// still answers, every stage at zero count.
#[test]
fn reactor_answers_are_invariant_to_shard_count_and_telemetry() {
    let scripts: Vec<Vec<String>> = (0..6u64)
        .map(|i| {
            let tenant = 100 + i;
            let mut script = vec![
                REGISTER.replace("\"tenant\":1", &format!("\"tenant\":{tenant}")),
                format!(
                    "{{\"op\":\"arrival\",\"tenant\":{tenant},\"passive_ms\":5342,\"t_max_ms\":10000}}"
                ),
                format!(
                    "{{\"op\":\"arrival\",\"tenant\":{tenant},\"passive_ms\":223,\"t_max_ms\":10000}}"
                ),
                format!("tenant {tenant} says: definitely not json"),
            ];
            for j in 0..10u64 {
                let mode = if (i + j) % 2 == 0 { "active" } else { "passive" };
                script.push(format!(
                    "{{\"op\":\"mode\",\"tenant\":{tenant},\"slot\":{},\"mode\":\"{mode}\"}}",
                    j % 2
                ));
            }
            script.push(format!("{{\"op\":\"query\",\"tenant\":{tenant}}}"));
            script
        })
        .collect();

    let expected: usize = scripts.iter().map(Vec::len).sum();
    let mut reference: Option<Vec<Vec<String>>> = None;
    for (shards, telemetry) in [(1, true), (3, true), (3, false)] {
        let setup = format!("{shards} shards, telemetry {telemetry}");
        let (addr, shutdown, handle) = spawn_reactor(ReactorOptions {
            telemetry,
            ..reactor(shards, 64)
        });
        let answers = run_scripts(addr, &scripts);
        let verbs = usize::from(!telemetry);
        if !telemetry {
            let metrics = Client::connect(addr).request("{\"op\":\"metrics\"}");
            for stage in Stage::ALL {
                assert_eq!(
                    stage_field(&metrics, stage, "count").and_then(|v| v.as_u64()),
                    Some(0),
                    "{setup}: stage {} sampled: {metrics}",
                    stage.name()
                );
            }
        }
        shutdown.request();
        let summary = handle.join().unwrap().unwrap();
        assert_eq!(summary.requests, (expected + verbs) as u64, "{setup}");
        assert_eq!(summary.responses, (expected + verbs) as u64, "{setup}");
        match &reference {
            None => reference = Some(answers),
            Some(reference) => {
                assert_eq!(
                    reference, &answers,
                    "{setup}: per-stream answers must match"
                );
            }
        }
    }
}

/// `field` of `stage` in a metrics answer line; `None` if the line does
/// not parse or lacks either.
fn stage_field(metrics: &str, stage: Stage, field: &str) -> Option<Json> {
    json::parse(metrics)
        .ok()?
        .get("stages")?
        .get(stage.name())?
        .get(field)
        .cloned()
}

/// The lifecycle pin under load, over TCP: two connections pipelining
/// engine requests for four tenants through a journaled reactor leave
/// samples in every stage of the metrics answer — `persist`, which only
/// a journaling worker records, included — and flushes take measurable
/// time (a zero p50 means the post-write clock read was lost).
#[test]
fn a_loaded_journaled_reactor_samples_every_lifecycle_stage() {
    let dir = TempDir::new("torture_stages");
    let (addr, shutdown, handle) = spawn_reactor(ReactorOptions {
        journal: Some(JournalDir::at(dir.path())),
        ..reactor(2, 8)
    });
    // Two tenants per connection, 62 requests each: 248 engine requests.
    let scripts: Vec<Vec<String>> = [[1u64, 2], [3, 4]]
        .iter()
        .map(|tenants| {
            let mut script = Vec::new();
            for t in tenants {
                script.push(REGISTER.replace("\"tenant\":1", &format!("\"tenant\":{t}")));
                script.push(format!(
                    "{{\"op\":\"arrival\",\"tenant\":{t},\"passive_ms\":5342,\"t_max_ms\":10000}}"
                ));
            }
            for i in 0..60 {
                let mode = if i % 2 == 0 { "active" } else { "passive" };
                for t in tenants {
                    script.push(format!(
                        "{{\"op\":\"mode\",\"tenant\":{t},\"slot\":0,\"mode\":\"{mode}\"}}"
                    ));
                }
            }
            script
        })
        .collect();
    for answer in run_scripts(addr, &scripts).iter().flatten() {
        assert!(!answer.contains("\"verdict\":\"error\""), "{answer}");
    }
    let metrics = Client::connect(addr).request("{\"op\":\"metrics\"}");
    for stage in Stage::ALL {
        let count = stage_field(&metrics, stage, "count").and_then(|v| v.as_u64());
        assert!(
            count.is_some_and(|c| c > 0),
            "stage {} recorded no samples under load: {metrics}",
            stage.name()
        );
    }
    let flush_p50 = stage_field(&metrics, Stage::Flush, "p50_us").and_then(|v| v.as_f64());
    assert!(
        flush_p50.is_some_and(|p| p > 0.0),
        "flush p50 is zero under load: {metrics}"
    );
    shutdown.request();
    handle.join().unwrap().unwrap();
}

/// The no-lost-delta pin: a shutdown requested while a journaled
/// pipeline is still in flight answers everything first, and a fresh
/// engine replaying the journal afterwards reports exactly the state of
/// the last accepted delta — an orderly stop loses nothing.
#[test]
fn orderly_reactor_shutdown_loses_no_accepted_delta() {
    let dir = TempDir::new("torture_drain_journal");
    let journal = JournalDir::at(dir.path()).with_compaction(3);
    let (addr, shutdown, handle) = spawn_reactor(ReactorOptions {
        journal: Some(journal),
        ..reactor(2, 4)
    });
    let mut c = Client::connect(addr);
    c.send(REGISTER);
    c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
    let n_flips = 20;
    for i in 0..n_flips {
        let mode = if i % 2 == 0 { "active" } else { "passive" };
        c.send(&format!(
            "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
        ));
    }
    // Race the stop against the pipeline; the drain owes every answer.
    shutdown.request();
    let mut last_accept = String::new();
    for _ in 0..n_flips + 2 {
        let line = c.recv();
        if line.contains("\"verdict\":\"accept\"") {
            last_accept = line;
        }
    }
    let summary = handle.join().unwrap().unwrap();
    assert_eq!(summary.requests, n_flips as u64 + 2);
    assert_eq!(summary.responses, n_flips as u64 + 2);

    // Replay the journal in a fresh reactor (at yet another shard
    // count): the query must report the periods of the last delta the
    // live daemon accepted.
    let replayed = replay_queries(&dir, &["{\"op\":\"query\",\"tenant\":1}".to_string()]).remove(0);
    let periods = |s: &str| {
        s.split("\"periods_ms\":[")
            .nth(1)
            .unwrap_or_else(|| panic!("no periods in {s}"))
            .split(']')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(
        periods(&replayed),
        periods(&last_accept),
        "replayed: {replayed} vs live: {last_accept}"
    );
}

/// A client that pipelines a large burst and vanishes without reading a
/// byte leaves the reactor mid-way through a **gathered writev pass**:
/// its egress queue holds many completed responses, the kernel buffers
/// are full, and the next flush hits a dead socket. The queue must be
/// dropped wholesale, the slot reclaimed, and a fresh session served in
/// full.
#[test]
fn disconnect_mid_gathered_writev_pass_never_wedges_the_reactor() {
    let (addr, shutdown, handle) = spawn_reactor(reactor(2, 8));
    {
        let mut c = Client::connect(addr);
        // Synchronous setup so the burst below is pure mode churn.
        c.send(REGISTER);
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        c.send("{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}");
        assert!(c.recv().contains("\"verdict\":\"accept\""));
        // Pipeline a burst and never read: answers pile up in the
        // connection's egress queue once the kernel buffers fill, so
        // the reactor's flush passes gather many queued buffers into
        // single writev calls against an ever-fuller socket.
        for i in 0..2000 {
            let mode = if i % 2 == 0 { "active" } else { "passive" };
            c.send(&format!(
                "{{\"op\":\"mode\",\"tenant\":1,\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
        // Let the reactor answer into the unread socket until it jams.
        std::thread::sleep(std::time::Duration::from_millis(300));
        // Dropped here with queued responses: the unread bytes make the
        // close an RST, and the next gathered writev dies mid-pass.
    }
    let c = retry(
        "a served connection after the mid-writev disconnect",
        || {
            let mut c = Client::connect(addr);
            c.send("{\"op\":\"query\",\"tenant\":55}");
            let line = c.recv();
            line.contains("unknown tenant 55").then_some(c)
        },
    );
    drop(c);
    shutdown.request();
    let summary = handle.join().unwrap().unwrap();
    // The dead connection's queued answers are dropped, never leaked
    // into another connection's stream or left wedging the pass.
    assert!(summary.responses <= summary.requests);
    assert_eq!(summary.refused_conns, 0);
}

/// The no-lost-delta pin across connections: three journaled
/// pipelines on three connections, a shutdown races the in-flight
/// bursts, and the reactor still owes — and delivers — every answer
/// before draining. A fresh engine replaying the journal afterwards
/// reports exactly each tenant's last accepted delta.
#[test]
fn drain_of_concurrent_journaled_pipelines_loses_no_accepted_delta() {
    let dir = TempDir::new("torture_drain_pipelines");
    let journal = JournalDir::at(dir.path()).with_compaction(3);
    let (addr, shutdown, handle) = spawn_reactor(ReactorOptions {
        journal: Some(journal),
        ..reactor(2, 16)
    });
    let tenants = [1u64, 2, 3];
    let n_flips = 16u64;
    let mut clients: Vec<(u64, Client)> = tenants
        .iter()
        .map(|&t| {
            let mut c = Client::connect(addr);
            // A synchronous registration first: the round-trip proves
            // the reactor accepted this connection, so the raced drain
            // below owes it every pipelined answer.
            c.send(&REGISTER.replace("\"tenant\":1", &format!("\"tenant\":{t}")));
            assert!(c.recv().contains("\"verdict\":\"accept\""));
            c.send(&format!(
                "{{\"op\":\"arrival\",\"tenant\":{t},\"passive_ms\":5342,\"t_max_ms\":10000}}"
            ));
            for i in 0..n_flips {
                let mode = if i % 2 == 0 { "active" } else { "passive" };
                c.send(&format!(
                    "{{\"op\":\"mode\",\"tenant\":{t},\"slot\":0,\"mode\":\"{mode}\"}}"
                ));
            }
            (t, c)
        })
        .collect();
    // Race the stop against all three pipelines at once.
    shutdown.request();
    let mut last_accepts: Vec<(u64, String)> = Vec::new();
    for (t, c) in &mut clients {
        let mut last = String::new();
        for _ in 0..n_flips + 1 {
            let line = c.recv();
            if line.contains("\"verdict\":\"accept\"") {
                last = line;
            }
        }
        assert!(!last.is_empty(), "tenant {t} saw no accepted delta");
        last_accepts.push((*t, last));
    }
    drop(clients);
    let summary = handle.join().unwrap().unwrap();
    let expected = tenants.len() as u64 * (n_flips + 2);
    assert_eq!(summary.requests, expected);
    assert_eq!(summary.responses, expected);

    // Replay the journal in a fresh reactor at another shard count:
    // every tenant must report the periods of the last delta the
    // reactor accepted before the drain.
    let queries: Vec<String> = tenants
        .iter()
        .map(|t| format!("{{\"op\":\"query\",\"tenant\":{t}}}"))
        .collect();
    let replayed = replay_queries(&dir, &queries);
    let periods = |s: &str| {
        s.split("\"periods_ms\":[")
            .nth(1)
            .unwrap_or_else(|| panic!("no periods in {s}"))
            .split(']')
            .next()
            .unwrap()
            .to_string()
    };
    for (line, (t, last)) in replayed.iter().zip(&last_accepts) {
        assert_eq!(
            periods(line),
            periods(last),
            "tenant {t}: replayed {line} vs live {last}"
        );
    }
}
