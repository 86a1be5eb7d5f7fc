//! The `rts_adaptd` command line, driven as a subprocess: it refuses
//! what it does not understand, answers a stdin session in order, and in
//! TCP mode prints the `listening on` line that the benchmark and the
//! fleet smoke parse, serves, and drains on stdin EOF.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

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
