//! The `rts_coordd` command line, driven as a subprocess: it takes no
//! arguments and refuses any, and on stdin it answers every control
//! line with one JSON line, skips blank lines, and exits 0 at EOF.

use std::io::Write;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const COORDD: &str = env!("CARGO_BIN_EXE_rts_coordd");

#[test]
fn any_argument_exits_with_usage_naming_it() {
    for arg in ["--bogus", "--tcp", "fleet.json"] {
        let out = Command::new(COORDD)
            .arg(arg)
            .stdin(Stdio::null())
            .output()
            .expect("run rts_coordd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{arg}: {stderr}");
        assert!(stderr.contains(arg), "{arg} must be named: {stderr}");
        assert!(stderr.contains("usage: rts_coordd"), "{arg}: {stderr}");
        assert!(out.stdout.is_empty(), "{arg} must not serve");
    }
}

#[test]
fn a_stdin_session_answers_each_control_line_and_ends_at_eof() {
    let mut child = Command::new(COORDD)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rts_coordd");
    let session = "{\"op\":\"placements\"}\n\
         \n\
         {\"op\":\"join\",\"member\":\"d0\"}\n\
         {\"op\":\"recover\",\"tenant\":7}\n\
         {\"op\":\"arrival\",\"tenant\":7,\"passive_ms\":100,\"t_max_ms\":5000}\n\
         not json\n   \n\
         {\"op\":\"frobnicate\"}\n\
         {\"op\":\"placements\"}\n";
    // Dropping stdin after the session is the EOF that ends the serve.
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(session.as_bytes())
        .expect("write the session");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll rts_coordd") {
            break status;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("rts_coordd did not exit at stdin EOF");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "{status}");
    let out = child.wait_with_output().expect("collect stdout");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 answers");
    let answers: Vec<&str> = stdout.lines().collect();
    let empty_fleet = "{\"verdict\":\"placements\",\"tenants\":{}}";
    assert_eq!(
        answers,
        [
            empty_fleet,
            "{\"verdict\":\"error\",\"reason\":\"join needs an \\\"addr\\\"\"}",
            "{\"verdict\":\"error\",\"reason\":\"tenant 7 is not quarantined\"}",
            "{\"verdict\":\"error\",\"reason\":\"routing failed: no members to place the tenant on\"}",
            "{\"verdict\":\"error\",\"reason\":\"invalid literal at byte 0\"}",
            "{\"verdict\":\"error\",\"reason\":\"unknown control op \\\"frobnicate\\\" (and no tenant to route by)\"}",
            // The failed route placed nothing.
            empty_fleet,
        ]
    );
}
