//! The `rts_adaptd` command line, driven as a subprocess: it refuses
//! what it does not understand, answers a stdin session in order — from
//! a pipe or a regular file, whose lines the daemon bridges into one
//! reactor connection — and in TCP mode prints the `listening on` line
//! that the benchmark and the fleet smoke parse, serves, drains on
//! stdin EOF, and weathers running out of file descriptors.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStderr, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use rts_adapt::json;
use rts_adapt::{LineClient, RetryPolicy};

const DAEMON: &str = env!("CARGO_BIN_EXE_rts_adaptd");

const REGISTER: &str = "{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[\
     {\"wcet_ms\":240,\"period_ms\":500,\"core\":0},\
     {\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}";

/// Waits for `child` to exit, killing it after `limit`.
fn wait_bounded(child: &mut Child, limit: Duration) -> ExitStatus {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait().expect("poll the daemon") {
            return status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("rts_adaptd did not exit within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn unknown_flags_and_unparsable_values_exit_with_usage() {
    // The flag of a thread-per-connection front the daemon no longer
    // has, spelled in two parts so the literal stays out of the tree.
    let retired = ["--", "threaded"].concat();
    for args in [
        &[retired.as_str()][..],
        // Archive pruning and the telemetry switch are gone too: every
        // archive generation is kept and telemetry is always on.
        &["--retain-archives", "2"],
        &["--no-telemetry"],
        // One reactor serves every connection: `--reactors` takes only 1.
        &["--reactors", "2"],
        &["--reactors", "0"],
        // The daemon always runs TopDiff, and stdin is one reactor
        // connection with no batch knob of its own.
        &["--strategy", "exhaustive"],
        &["--batch", "8"],
        &["--shards", "abc"],
        &["--max-conns", "1O"],
        &["--tcp"],
    ] {
        let out = Command::new(DAEMON)
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("run rts_adaptd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: rts_adaptd"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not serve");
    }
}

/// Runs one stdin session of `daemon`: `input` is written to its stdin
/// from a separate thread, then closed; returns the exit status, every
/// stdout line and every stderr line.
fn session_of(mut daemon: Command, input: Vec<u8>) -> (ExitStatus, Vec<String>, Vec<String>) {
    let mut child = daemon
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rts_adaptd");
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let feeding = std::thread::spawn(move || stdin.write_all(&input));
    let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
    let logging = std::thread::spawn(move || stderr.lines().map_while(Result::ok).collect());
    let lines: Vec<String> = BufReader::new(child.stdout.take().expect("stdout is piped"))
        .lines()
        .map(|line| line.expect("utf-8 answer"))
        .collect();
    feeding.join().unwrap().expect("write the session");
    let log = logging.join().expect("collect stderr");
    let status = wait_bounded(&mut child, Duration::from_secs(60));
    (status, lines, log)
}

/// A stdin session of `rts_adaptd {args}` (see [`session_of`]).
fn stdin_session(args: &[&str], input: Vec<u8>) -> (ExitStatus, Vec<String>, Vec<String>) {
    let mut daemon = Command::new(DAEMON);
    daemon.args(args);
    session_of(daemon, input)
}

#[test]
fn a_stdin_session_is_answered_in_order_and_ends_at_eof() {
    let mut child = Command::new(DAEMON)
        .args(["--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rts_adaptd");
    let session = format!(
        "{REGISTER}\n\
         {{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}}\n\
         {{\"op\":\"query\",\"tenant\":1}}\n\
         {{\"op\":\"stats\"}}\n"
    );
    // Dropping stdin after the session is the EOF that ends the serve.
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(session.as_bytes())
        .expect("write the session");
    let status = wait_bounded(&mut child, Duration::from_secs(60));
    assert!(status.success(), "{status}");
    let lines: Vec<String> = BufReader::new(child.stdout.take().expect("stdout is piped"))
        .lines()
        .map(|line| line.expect("utf-8 answer"))
        .collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{i},")), "{line}");
    }
    assert!(lines[0].contains("\"verdict\":\"accept\""), "{}", lines[0]);
    assert!(lines[2].contains("\"periods_ms\":[7582]"), "{}", lines[2]);
    assert!(lines[3].contains("\"verdict\":\"stats\""), "{}", lines[3]);
}

/// A registration asking for a platform far beyond the core bound is
/// one error line, not an allocation that aborts the daemon: the valid
/// registration and the query after it are still answered, in order.
#[test]
fn a_huge_core_count_is_an_error_line_and_the_session_goes_on() {
    let mut child = Command::new(DAEMON)
        .args(["--shards", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rts_adaptd");
    let session = format!(
        "{{\"op\":\"register\",\"tenant\":1,\"cores\":100000000000,\"rt\":[\
         {{\"wcet_ms\":1,\"period_ms\":10,\"core\":0}}]}}\n\
         {REGISTER}\n\
         {{\"op\":\"query\",\"tenant\":1}}\n"
    );
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(session.as_bytes())
        .expect("write the session");
    let status = wait_bounded(&mut child, Duration::from_secs(60));
    assert!(status.success(), "{status}");
    let lines: Vec<String> = BufReader::new(child.stdout.take().expect("stdout is piped"))
        .lines()
        .map(|line| line.expect("utf-8 answer"))
        .collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{i},")), "{line}");
    }
    assert!(lines[0].contains("\"verdict\":\"error\""), "{}", lines[0]);
    assert!(lines[0].contains("cores"), "{}", lines[0]);
    assert!(lines[1].contains("\"verdict\":\"accept\""), "{}", lines[1]);
    assert!(lines[2].contains("\"verdict\":\"accept\""), "{}", lines[2]);
}

/// A regular file as stdin — which epoll cannot poll — is served like a
/// pipe: the daemon's copy thread bridges it into the reactor.
#[test]
fn a_regular_file_on_stdin_is_served_in_order() {
    let path = std::env::temp_dir().join(format!("hydra_stdin_file_{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        format!(
            "{REGISTER}\n\
             {{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}}\n\
             not json\n\
             {{\"op\":\"query\",\"tenant\":1}}\n"
        ),
    )
    .expect("write the session file");
    let out = Command::new(DAEMON)
        .args(["--shards", "2"])
        .stdin(std::fs::File::open(&path).expect("open the session file"))
        .output()
        .expect("run rts_adaptd");
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "{}", out.status);
    let text = String::from_utf8(out.stdout).expect("utf-8 answers");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with(&format!("{{\"seq\":{i},")), "{line}");
    }
    assert!(lines[1].contains("\"periods_ms\":[7582]"), "{}", lines[1]);
    assert!(lines[2].contains("\"verdict\":\"error\""), "{}", lines[2]);
    assert!(lines[3].contains("\"periods_ms\":[7582]"), "{}", lines[3]);
}

/// EOF ends an unterminated last line, which is still answered.
#[test]
fn an_unterminated_final_stdin_line_is_answered() {
    let (status, lines, _) = stdin_session(&[], b"{\"op\":\"query\",\"tenant\":9}".to_vec());
    assert!(status.success(), "{status}");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(lines[0].contains("unknown tenant 9"), "{}", lines[0]);
}

/// An empty stdin is an empty session: exit 0, nothing on stdout.
#[test]
fn an_empty_stdin_exits_zero_with_no_output() {
    let out = Command::new(DAEMON)
        .stdin(Stdio::null())
        .output()
        .expect("run rts_adaptd");
    assert!(out.status.success(), "{}", out.status);
    assert!(
        out.stdout.is_empty(),
        "{:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A 3 MiB line without a newline is one bounded error — never buffered
/// whole — and the stream stays line-synchronized for the query after
/// it.
#[test]
fn a_three_mib_stdin_line_is_one_error_and_the_next_query_is_answered() {
    let mut input = vec![b'x'; 3 << 20];
    input.extend_from_slice(b"\n{\"op\":\"query\",\"tenant\":5}\n");
    let (status, lines, _) = stdin_session(&["--shards", "2"], input);
    assert!(status.success(), "{status}");
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(
        lines[0].starts_with("{\"seq\":0,") && lines[0].contains("exceeds"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("unknown tenant 5"), "{}", lines[1]);
}

/// A lockstep stdin session: one line in, its answer out.
struct Lockstep {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: std::io::Lines<BufReader<std::process::ChildStdout>>,
}

impl Lockstep {
    fn spawn(args: &[&str]) -> Self {
        let mut child = Command::new(DAEMON)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn rts_adaptd");
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        Lockstep {
            child,
            stdin,
            stdout,
        }
    }

    fn exchange(&mut self, line: &str) -> String {
        writeln!(self.stdin, "{line}").expect("send a line");
        self.stdout
            .next()
            .expect("an answer")
            .expect("utf-8 answer")
    }

    /// The one shard's `stats` entry as `(tenants, [memo_hits,
    /// memo_shared_hits, memo_misses])`.
    fn shard_stats(&mut self) -> (u64, [u64; 3]) {
        let stats = json::parse(&self.exchange("{\"op\":\"stats\"}")).expect("stats is JSON");
        let shard = &stats
            .get("shards")
            .and_then(json::Json::as_array)
            .expect("a shards array")[0];
        let field = |name: &str| shard.get(name).and_then(json::Json::as_u64).unwrap();
        (
            field("tenants"),
            ["memo_hits", "memo_shared_hits", "memo_misses"].map(field),
        )
    }

    fn finish(mut self) {
        drop(self.stdin);
        assert!(
            self.stdout.next().is_none(),
            "nothing after the last answer"
        );
        let status = wait_bounded(&mut self.child, Duration::from_secs(60));
        assert!(status.success(), "{status}");
    }
}

/// Stdin is one connection of the reactor, and `stats` says so: one
/// live connection under the default cap, and one gathered write per
/// earlier answer of a lockstep session.
#[test]
fn a_stdin_session_is_one_live_reactor_connection_in_stats() {
    let mut daemon = Lockstep::spawn(&["--shards", "1"]);
    assert!(daemon.exchange(REGISTER).contains("\"verdict\":\"accept\""));
    assert!(daemon
        .exchange("{\"op\":\"query\",\"tenant\":1}")
        .contains("\"verdict\":\"accept\""));
    let stats = daemon.exchange("{\"op\":\"stats\"}");
    assert!(
        stats.starts_with(
            "{\"seq\":2,\"verdict\":\"stats\",\"conns\":{\"live\":1,\"refused\":0,\"max\":64},\
             \"reactors\":[{\"reactor\":0,\"live\":1,\"refused\":0,\"max\":64,\
             \"flush_passes\":2,\"iovecs_written\":2,\"accept_failures\":0}],\"shards\":["
        ),
        "{stats}"
    );
    daemon.finish();
}

/// Spawns the daemon in TCP mode under `ulimit -n {limit}` (its own
/// limit only) and returns it with its address and its stderr lines.
fn spawn_limited(
    limit: u32,
    args: &str,
) -> (Child, SocketAddr, std::io::Lines<BufReader<ChildStderr>>) {
    let mut child = Command::new("sh")
        .arg("-c")
        .arg(format!(
            "ulimit -n {limit} && exec \"$DAEMON\" --tcp 127.0.0.1:0 {args}"
        ))
        .env("DAEMON", DAEMON)
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rts_adaptd under a descriptor limit");
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
    let announced = stderr
        .next()
        .expect("the daemon announces its address")
        .expect("utf-8 stderr");
    let addr = announced
        .strip_prefix("rts_adaptd listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line: {announced}"))
        .parse()
        .expect("a socket address");
    (child, addr, stderr)
}

/// A connection cap the process cannot hold open is refused at start.
#[test]
fn max_conns_at_the_open_file_limit_exits_with_usage() {
    let out = Command::new("sh")
        .arg("-c")
        .arg("ulimit -n 40 && exec \"$DAEMON\" --tcp 127.0.0.1:0 --max-conns 40")
        .env("DAEMON", DAEMON)
        .stdin(Stdio::null())
        .output()
        .expect("run rts_adaptd under a descriptor limit");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("open-file limit (40)"), "{stderr}");
    assert!(stderr.contains("usage: rts_adaptd"), "{stderr}");
}

/// Running out of descriptors is one log line per episode, not one per
/// pass: the listener backs off while connections already admitted are
/// served, `metrics` counts the failed accepts, and once descriptors
/// free up new connections are served again.
#[test]
fn descriptor_exhaustion_backs_off_logs_once_and_is_counted() {
    let (mut child, addr, stderr) = spawn_limited(40, "--shards 1 --max-conns 39");
    let mut first = LineClient::connect(addr, &RetryPolicy::quick()).expect("dial the daemon");
    let probe = "{\"op\":\"query\",\"tenant\":9}";
    assert!(first
        .request(probe)
        .expect("query")
        .contains("unknown tenant 9"));
    // More connections than the daemon has descriptors left for.
    let hold: Vec<TcpStream> = (0..48)
        .map(|_| TcpStream::connect(addr).expect("the kernel completes the handshake"))
        .collect();
    // Several back-off periods pass while the listener stays readable.
    std::thread::sleep(Duration::from_millis(600));
    assert!(first
        .request(probe)
        .expect("query")
        .contains("unknown tenant 9"));
    let metrics = first.request("{\"op\":\"metrics\"}").expect("metrics");
    let failures = json::parse(&metrics).ok().and_then(|m| {
        m.get("reactors")?
            .as_array()?
            .first()?
            .get("accept_failures")?
            .as_u64()
    });
    assert!(failures.is_some_and(|n| n >= 1), "{metrics}");
    drop(hold);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let served = LineClient::connect(addr, &RetryPolicy::quick())
            .and_then(|mut c| c.request(probe))
            .is_ok_and(|answer| answer.contains("unknown tenant 9"));
        if served {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no connection served after the descriptors freed up"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    drop(first);
    drop(child.stdin.take());
    let status = wait_bounded(&mut child, Duration::from_secs(60));
    assert!(status.success(), "{status}");
    let log: Vec<String> = stderr.map_while(Result::ok).collect();
    let failed = log
        .iter()
        .filter(|line| line.contains("accept failed"))
        .count();
    assert_eq!(failed, 1, "one log line per exhaustion episode: {log:?}");
}

#[test]
fn tcp_mode_announces_its_address_serves_and_drains_at_stdin_eof() {
    // The benchmark's launch line passes `--reactors 1`.
    let mut child = Command::new(DAEMON)
        .args(["--tcp", "127.0.0.1:0", "--shards", "2", "--reactors", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rts_adaptd");
    // The daemon announces its address right after binding (a few
    // stderr lines in all, far below the pipe's buffer).
    let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
    let announced = stderr
        .next()
        .expect("the daemon announces its address")
        .expect("utf-8 stderr");
    let addr = announced
        .strip_prefix("rts_adaptd listening on ")
        .unwrap_or_else(|| panic!("unexpected first stderr line: {announced}"));
    let addr = addr.parse().expect("a socket address");

    let mut client = LineClient::connect(addr, &RetryPolicy::quick()).expect("dial the daemon");
    let answer = client
        .request("{\"op\":\"query\",\"tenant\":9}")
        .expect("query round trip");
    assert!(answer.contains("unknown tenant 9"), "{answer}");
    drop(client);

    drop(child.stdin.take());
    let status = wait_bounded(&mut child, Duration::from_secs(60));
    assert!(status.success(), "{status}");
    let rest: Vec<String> = stderr.map_while(Result::ok).collect();
    assert!(
        rest.iter()
            .any(|line| line.contains("1 requests (0 parse errors), 1 connections accepted")),
        "{rest:?}"
    );
}

/// A stdin session of `rts_adaptd {args}` under `ulimit -n {limit}` (its
/// own limit only; see [`session_of`]).
fn limited_stdin_session(
    limit: u32,
    args: &str,
    input: String,
) -> (ExitStatus, Vec<String>, Vec<String>) {
    let mut daemon = Command::new("sh");
    daemon
        .arg("-c")
        .arg(format!("ulimit -n {limit} && exec \"$DAEMON\" {args}"))
        .env("DAEMON", DAEMON);
    session_of(daemon, input.into_bytes())
}

/// An answer without its `{"seq":N,` prefix.
fn unsequenced(line: &str) -> &str {
    line.split_once(',').map_or(line, |(_, rest)| rest)
}

/// A group commit can touch more tenants than the daemon has file
/// descriptors (one shard groups up to 1 024 queued requests, one open
/// journal each). Running out of descriptors there must not fail an
/// acknowledged append: after a 200-tenant session under `ulimit -n 64`
/// and a restart over the same journal, every tenant answers what it
/// answered before, and no journal was moved aside as corrupt.
#[test]
fn a_group_wider_than_the_descriptor_limit_loses_no_acknowledged_delta() {
    let dir = std::env::temp_dir().join(format!("hydra_emfile_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let tenants = 1..=200u64;
    let mut session = String::new();
    for t in tenants.clone() {
        session.push_str(&REGISTER.replace("\"tenant\":1", &format!("\"tenant\":{t}")));
        session.push('\n');
    }
    for t in tenants.clone() {
        session.push_str(&format!(
            "{{\"op\":\"arrival\",\"tenant\":{t},\"passive_ms\":100,\"active_ms\":350,\
             \"t_max_ms\":5000}}\n"
        ));
    }
    for mode in ["active", "passive", "active"] {
        for t in tenants.clone() {
            session.push_str(&format!(
                "{{\"op\":\"mode\",\"tenant\":{t},\"slot\":0,\"mode\":\"{mode}\"}}\n"
            ));
        }
    }
    let queries: String = tenants
        .clone()
        .map(|t| format!("{{\"op\":\"query\",\"tenant\":{t}}}\n"))
        .collect();
    session.push_str(&queries);
    let args = format!("--journal {} --shards 1", dir.display());

    let (status, answers, log) = limited_stdin_session(64, &args, session);
    assert!(status.success(), "{status}");
    assert_eq!(answers.len(), 1_200, "{log:?}");
    assert!(
        answers.iter().all(|a| a.contains("\"verdict\":\"accept\"")),
        "{answers:?}"
    );
    let (status, replayed, log) = limited_stdin_session(64, &args, queries);
    assert!(status.success(), "{status}");
    assert_eq!(replayed.len(), 200, "{log:?}");
    for (before, after) in answers[1_000..].iter().zip(&replayed) {
        assert_eq!(unsequenced(before), unsequenced(after), "{log:?}");
    }
    let corrupt: Vec<String> = std::fs::read_dir(&dir)
        .expect("the journal directory")
        .map(|entry| entry.expect("a directory entry").file_name())
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.contains("corrupt"))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(corrupt.is_empty(), "journals moved aside: {corrupt:?}");
}

/// The drain summary accounts for every selection: own-memo hits,
/// shared-store hits and Algorithm 1 runs add up to the selections made.
#[test]
fn the_drain_summary_counts_memo_and_shared_hits_and_misses() {
    let mut session = String::new();
    for t in [1, 2] {
        session.push_str(&REGISTER.replace("\"tenant\":1", &format!("\"tenant\":{t}")));
        session.push('\n');
        session.push_str(&format!(
            "{{\"op\":\"arrival\",\"tenant\":{t},\"passive_ms\":100,\"active_ms\":350,\
             \"t_max_ms\":5000}}\n"
        ));
    }
    for mode in ["active", "passive"] {
        session.push_str(&format!(
            "{{\"op\":\"mode\",\"tenant\":2,\"slot\":0,\"mode\":\"{mode}\"}}\n"
        ));
    }
    // Two registrations and four deltas are six selections: tenant 1
    // solves its empty table and its arrival, tenant 2 adopts both
    // from the shared store, its escalation runs Algorithm 1 and its
    // calm-down is its own memo's.
    let (status, answers, log) = stdin_session(&["--shards", "1"], session.into_bytes());
    assert!(status.success(), "{status}");
    assert_eq!(answers.len(), 6, "{answers:?}");
    assert!(
        log.iter().any(|line| line
            == "rts_adaptd: 1 shards handled 6 requests \
                (1 memo hits, 2 shared hits, 3 misses)"),
        "{log:?}"
    );
}

/// Tenants `1..=3` of the rover profile, each given one arrival and
/// four mode switches: 18 selections over three distinct
/// configurations per tenant (empty, passive, active).
fn rover_trio() -> Vec<String> {
    let mut lines = Vec::new();
    for t in 1..=3 {
        lines.push(REGISTER.replace("\"tenant\":1", &format!("\"tenant\":{t}")));
        lines.push(format!(
            "{{\"op\":\"arrival\",\"tenant\":{t},\"passive_ms\":100,\"active_ms\":350,\
             \"t_max_ms\":5000}}"
        ));
        for mode in ["active", "passive", "active", "passive"] {
            lines.push(format!(
                "{{\"op\":\"mode\",\"tenant\":{t},\"slot\":0,\"mode\":\"{mode}\"}}"
            ));
        }
    }
    lines
}

/// The shard's memo counters are counters: evicting a tenant, or
/// registering over a live tenant id, keeps the dropped tenant's counts.
#[test]
fn shard_memo_counters_never_decrease_when_tenants_are_dropped() {
    let mut daemon = Lockstep::spawn(&["--shards", "1"]);
    for line in rover_trio() {
        assert!(daemon.exchange(&line).contains("\"verdict\":\"accept\""));
    }
    let (tenants, before) = daemon.shard_stats();
    assert_eq!(tenants, 3);
    assert_eq!(before.iter().sum::<u64>(), 18, "{before:?}");
    let evicted = daemon.exchange("{\"op\":\"evict\",\"tenant\":2}");
    assert!(evicted.contains("\"verdict\":\"evicted\""), "{evicted}");
    let (tenants, after_evict) = daemon.shard_stats();
    assert_eq!(tenants, 2);
    assert_eq!(after_evict, before, "an eviction selects nothing");
    assert!(daemon.exchange(REGISTER).contains("\"verdict\":\"accept\""));
    let (tenants, after_register) = daemon.shard_stats();
    assert_eq!(tenants, 2);
    for (counter, (old, new)) in after_evict.iter().zip(after_register).enumerate() {
        assert!(
            new >= *old,
            "counter {counter}: {after_evict:?} -> {after_register:?}"
        );
    }
    assert_eq!(after_register.iter().sum::<u64>(), 19, "one more selection");
    daemon.finish();
}

/// A daemon restarted over a journal reports its recovered tenants and
/// the selections their replay made before any request reaches a shard.
#[test]
fn a_restart_shows_recovered_tenants_and_their_replay_in_stats() {
    let dir = std::env::temp_dir().join(format!("hydra_restart_stats_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.to_str().expect("a UTF-8 temp path");
    let (status, answers, _) = stdin_session(
        &["--shards", "1", "--journal", journal],
        (rover_trio().join("\n") + "\n").into_bytes(),
    );
    assert!(status.success(), "{status}");
    assert_eq!(answers.len(), 18);
    let mut daemon = Lockstep::spawn(&["--shards", "1", "--journal", journal]);
    let deadline = Instant::now() + Duration::from_secs(5);
    let (tenants, memo) = loop {
        let (tenants, memo) = daemon.shard_stats();
        if tenants == 3 || Instant::now() >= deadline {
            break (tenants, memo);
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    daemon.finish();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(tenants, 3, "recovered tenants");
    assert_eq!(
        memo.iter().sum::<u64>(),
        18,
        "replayed selections: {memo:?}"
    );
}

/// Boot recovery shares solver work through the pool's store: tenants
/// of one profile with one history solve each configuration once, and
/// the drain summary counts the replay.
#[test]
fn a_restart_over_same_profile_journals_shares_its_solves() {
    let dir = std::env::temp_dir().join(format!("hydra_restart_shared_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let journal = dir.to_str().expect("a UTF-8 temp path");
    let args = ["--shards", "1", "--journal", journal];
    let (status, _, _) = stdin_session(&args, (rover_trio().join("\n") + "\n").into_bytes());
    assert!(status.success(), "{status}");
    let (status, answers, log) = stdin_session(&args, Vec::new());
    let _ = std::fs::remove_dir_all(&dir);
    assert!(status.success(), "{status}");
    assert!(answers.is_empty(), "{answers:?}");
    // Tenant 1 solves its three configurations; tenants 2 and 3 take
    // them from the store; every revisit is the tenant's own memo's.
    assert!(
        log.iter().any(|line| line
            == "rts_adaptd: 1 shards handled 0 requests \
                (9 memo hits, 6 shared hits, 3 misses)"),
        "{log:?}"
    );
}
