//! `rts_adaptd` subprocesses, the coordinator that registers the fleet,
//! and the closed-loop load client.

use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rts_adapt::client::RetryPolicy;
use rts_adapt::engine::Request;
use rts_adapt::json::{self, Json};
use rts_adapt::proto::render_request;
use rts_coord::Coordinator;

use crate::env;
use crate::trace::{SpanId, Tracer};

/// Connections the load client opens.
pub const LOAD_CONNS: usize = 2;

/// A running daemon. Dropping it SIGKILLs and reaps the process, so no
/// daemon outlives the benchmark, even when a check panics.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// The bound TCP address.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns `bin --tcp 127.0.0.1:0 <args>` with stderr in `log` and
    /// waits for its `listening on` line.
    ///
    /// # Errors
    ///
    /// Spawn failure, early exit, or no address within 30 s.
    pub fn spawn(bin: &Path, log: &Path, args: &[String]) -> Result<Daemon, String> {
        let child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(File::create(log).map_err(|e| format!("{}: {e}", log.display()))?)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Only a finished line: the daemon may be mid-write.
            if let Some(rest) = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .find_map(|l| l.strip_prefix("rts_adaptd listening on "))
            {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                daemon.addr = addr.parse().map_err(|e| format!("address {addr}: {e}"))?;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("rts_adaptd exited at start ({status}): {text}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        Err("rts_adaptd did not report its address within 30 s".into())
    }

    /// The process id as `/proc` names it.
    #[must_use]
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// utime + stime so far, in microseconds.
    #[must_use]
    pub fn cpu_us(&self) -> f64 {
        env::cpu_us(&self.pid())
    }

    /// Peak resident set so far, in MB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        env::peak_rss_mb(&self.pid())
    }

    /// SIGKILL and reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Graceful stop: closing stdin asks the reactor to drain. Falls
    /// back to SIGKILL after 20 s.
    pub fn stop(&mut self) {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.kill();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Whether the fleet journals and replicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Primary journaled and replicating to a journaled standby.
    Durable,
    /// One daemon, no journal, no replication.
    Volatile,
}

/// The served fleet: a primary, the standby (durable only), and the
/// coordinator that places tenants on them.
#[derive(Debug)]
pub struct Fleet {
    /// The serving daemon (member `p0`).
    pub primary: Daemon,
    /// The warm standby.
    pub standby: Option<Daemon>,
    /// Placement and failover.
    pub coord: Coordinator,
    /// Journal and log directory.
    pub dir: PathBuf,
}

/// The primary's member name and replication source id.
pub const PRIMARY: &str = "p0";

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_string()).collect()
}

impl Fleet {
    /// Spawns the daemons under `dir` and joins them to a coordinator.
    ///
    /// # Errors
    ///
    /// A daemon failed to start.
    pub fn start(bin: &Path, dir: &Path, mode: Mode) -> Result<Fleet, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let dirs = |name: &str| dir.join(name).display().to_string();
        let mut coord = Coordinator::new(RetryPolicy::default());
        let common = ["--shards", "2", "--reactors", "1"];
        let (primary, standby) = match mode {
            Mode::Volatile => (
                Daemon::spawn(bin, &dir.join("primary.log"), &strings(&common))?,
                None,
            ),
            Mode::Durable => {
                let mut args = strings(&common);
                args.extend(["--journal".into(), dirs("standby")]);
                let standby = Daemon::spawn(bin, &dir.join("standby.log"), &args)?;
                let mut args = strings(&common);
                args.extend([
                    "--journal".into(),
                    dirs("primary"),
                    "--compact-every".into(),
                    "512".into(),
                    "--replicate-to".into(),
                    standby.addr.to_string(),
                    "--source".into(),
                    PRIMARY.into(),
                ]);
                let primary = Daemon::spawn(bin, &dir.join("primary.log"), &args)?;
                coord.set_standby("standby", standby.addr);
                (primary, Some(standby))
            }
        };
        let report = coord.add_member(PRIMARY, primary.addr);
        if !report.errors.is_empty() {
            return Err(format!("join errors: {:?}", report.errors));
        }
        Ok(Fleet {
            primary,
            standby,
            coord,
            dir: dir.to_path_buf(),
        })
    }

    /// Daemon CPU so far (primary plus standby), in microseconds.
    #[must_use]
    pub fn cpu_us(&self) -> f64 {
        self.primary.cpu_us() + self.standby.as_ref().map_or(0.0, Daemon::cpu_us)
    }

    /// Peak resident set of the daemons, in MB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        self.primary.peak_rss_mb() + self.standby.as_ref().map_or(0.0, Daemon::peak_rss_mb)
    }

    /// Routes every setup request through [`Coordinator::route`], tenant
    /// ids shifted by `offset`. Returns (attempted, failed).
    pub fn register(
        &mut self,
        setup: &[Request],
        offset: u64,
        tracer: &mut Tracer,
        parent: SpanId,
    ) -> (u64, u64) {
        let mut failed = 0;
        for request in setup {
            let request = shifted(request, offset);
            let line = render_request(&request);
            let tenant = request.tenant();
            let answer = tracer.time("coord.route", parent, tenant, || {
                self.coord.route(tenant, &line)
            });
            match answer {
                Ok(answer) if !answer.contains("\"verdict\":\"error\"") => {}
                _ => failed += 1,
            }
        }
        (setup.len() as u64, failed)
    }

    /// Whether every listed tenant's replica on the standby became
    /// byte-identical to the primary's journal within a minute.
    #[must_use]
    pub fn replicas_synced(&self, tenants: std::ops::RangeInclusive<u64>) -> bool {
        wait_replicas(
            &self.dir.join("primary"),
            &self.dir.join("standby").join("replica"),
            &tenants.collect::<Vec<_>>(),
            Duration::from_secs(60),
        )
    }

    /// The `query` answer of every listed tenant through the coordinator,
    /// with the per-connection `seq` stripped.
    ///
    /// # Errors
    ///
    /// A round trip failed.
    pub fn query_all(&mut self, tenants: &[u64]) -> Result<Vec<String>, String> {
        tenants
            .iter()
            .map(|&t| {
                self.coord
                    .route(t, &format!("{{\"op\":\"query\",\"tenant\":{t}}}"))
                    .map(|a| strip_seq(&a))
                    .map_err(|e| format!("query {t}: {e}"))
            })
            .collect()
    }
}

/// `request` addressed to tenant `id + offset`.
#[must_use]
pub fn shifted(request: &Request, offset: u64) -> Request {
    let mut request = request.clone();
    match &mut request {
        Request::Register { tenant, .. }
        | Request::Delta { tenant, .. }
        | Request::Query { tenant }
        | Request::Export { tenant }
        | Request::Import { tenant, .. }
        | Request::Evict { tenant }
        | Request::Replicate { tenant, .. }
        | Request::Adopt { tenant } => *tenant += offset,
    }
    request
}

/// Drops the leading per-connection `"seq":N,` so answers from different
/// connections compare byte for byte.
#[must_use]
pub fn strip_seq(line: &str) -> String {
    match (line.strip_prefix("{\"seq\":"), line.find(',')) {
        (Some(_), Some(comma)) => format!("{{{}", &line[comma + 1..]),
        _ => line.to_string(),
    }
}

/// One request of the load: its id in the stream and its wire line.
pub type Line = (u64, String);

/// What one load connection saw.
#[derive(Debug, Default)]
pub struct ConnTotals {
    /// (request id, send instant, verdict instant, answered without error).
    pub samples: Vec<(u64, Instant, Instant, bool)>,
    /// `accept` verdicts.
    pub accepted: u64,
    /// `reject` verdicts.
    pub rejected: u64,
    /// Anything else, including a lost connection.
    pub errors: u64,
}

/// One open load connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connects with Nagle off.
    ///
    /// # Errors
    ///
    /// The connection failed.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let sock = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(sock.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: sock,
        })
    }

    /// Closed-loop pipelining: at most `window` requests outstanding, the
    /// next sent as soon as a verdict returns.
    fn pump(&mut self, lines: &[Line], window: usize) -> ConnTotals {
        let mut totals = ConnTotals::default();
        let mut sent_at: std::collections::VecDeque<Instant> =
            std::collections::VecDeque::with_capacity(window);
        let (mut sent, mut received) = (0usize, 0usize);
        let mut buf = Vec::with_capacity(4096);
        let mut answer = String::new();
        while received < lines.len() {
            buf.clear();
            while sent < lines.len() && sent - received < window {
                buf.extend_from_slice(lines[sent].1.as_bytes());
                buf.push(b'\n');
                sent += 1;
            }
            if !buf.is_empty() {
                let now = Instant::now();
                if self.writer.write_all(&buf).is_err() {
                    break;
                }
                sent_at.resize(sent - received, now);
            }
            answer.clear();
            match self.reader.read_line(&mut answer) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
            let done = Instant::now();
            let start = sent_at.pop_front().unwrap_or(done);
            let ok = if answer.contains("\"verdict\":\"accept\"") {
                totals.accepted += 1;
                true
            } else if answer.contains("\"verdict\":\"reject\"") {
                totals.rejected += 1;
                true
            } else {
                totals.errors += 1;
                false
            };
            totals.samples.push((lines[received].0, start, done, ok));
            received += 1;
        }
        // A dropped connection fails everything still unanswered.
        totals.errors += (lines.len() - received) as u64;
        totals
    }
}

/// Runs one script per connection: the calling thread drives the first,
/// one scoped thread each of the others. Returns the per-connection
/// totals and the threads driving the load (the calling thread plus the
/// ones it added, as `/proc` counts them).
#[must_use]
pub fn drive(conns: &mut [Conn], scripts: &[Vec<Line>], window: usize) -> (Vec<ConnTotals>, usize) {
    let (first, rest) = conns.split_first_mut().expect("at least one connection");
    let before = env::threads();
    std::thread::scope(|scope| {
        let others: Vec<_> = rest
            .iter_mut()
            .zip(&scripts[1..])
            .map(|(conn, script)| scope.spawn(move || conn.pump(script, window)))
            .collect();
        let threads = 1 + env::threads().saturating_sub(before);
        let mut totals = vec![first.pump(&scripts[0], window)];
        for handle in others {
            totals.push(handle.join().expect("load thread panicked"));
        }
        (totals, threads)
    })
}

/// Splits stream positions `range` over the load connections with
/// per-tenant affinity (a tenant's requests ride one connection, in
/// stream order — the only ordering the verdicts depend on). Ids are
/// stream positions.
#[must_use]
pub fn scripts(stream: &[Request], range: std::ops::Range<usize>, offset: u64) -> Vec<Vec<Line>> {
    let mut scripts = vec![Vec::new(); LOAD_CONNS];
    for i in range {
        let request = shifted(&stream[i], offset);
        let conn = ((request.tenant() - 1) as usize) % LOAD_CONNS;
        scripts[conn].push((i as u64, render_request(&request)));
    }
    scripts
}

/// The `{"op":"metrics"}` answer of a live daemon.
///
/// # Errors
///
/// The round trip failed or the answer is not a metrics line.
pub fn scrape_metrics(addr: SocketAddr) -> Result<Json, String> {
    let mut sock = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    sock.write_all(b"{\"op\":\"metrics\"}\n")
        .map_err(|e| e.to_string())?;
    let mut line = String::new();
    BufReader::new(sock)
        .read_line(&mut line)
        .map_err(|e| e.to_string())?;
    let value = json::parse(line.trim()).map_err(|e| e.to_string())?;
    match value.get("verdict").and_then(Json::as_str) {
        Some("metrics") => Ok(value),
        _ => Err(format!("not a metrics answer: {line}")),
    }
}

/// Whether every listed tenant's replica on the standby is byte-identical
/// to the primary's journal file, polled until `timeout`. Sizes are
/// compared first so the poll stays cheap while the standby lags.
#[must_use]
pub fn wait_replicas(primary: &Path, replica: &Path, tenants: &[u64], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    let files: Vec<(PathBuf, PathBuf)> = tenants
        .iter()
        .map(|t| {
            let name = format!("tenant_{t}.jsonl");
            (primary.join(&name), replica.join(&name))
        })
        .collect();
    let len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).ok();
    loop {
        let synced = files
            .iter()
            .all(|(a, b)| len(a).is_some() && len(a) == len(b))
            && files.iter().all(
                |(a, b)| matches!((std::fs::read(a), std::fs::read(b)), (Ok(x), Ok(y)) if x == y),
            );
        if synced || Instant::now() >= deadline {
            return synced;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}
