//! Shared harness for the rts-adapt integration tests: unique,
//! self-cleaning temp directories, the paper's rover registration, the
//! seeded delta-stream builder, an in-process reactor on a loopback
//! port (the TCP front the daemon runs) with a line client for it, and
//! a bounded-retry helper for
//! time-dependent waits (never a bare sleep — every wait has a deadline
//! and a reason).

// Each integration-test target compiles its own copy of this module and
// uses a different subset of it.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use rand::rngs::StdRng;
use rand::Rng;
use rts_adapt::{
    serve_reactor, ReactorOptions, ReactorSummary, Request, Response, RtSpec, Shutdown,
};
use rts_model::delta::{DeltaEvent, MonitorMode, MonitorSpec};
use rts_model::time::Duration;

pub fn ms(v: u64) -> Duration {
    Duration::from_ms(v)
}

/// A uniquely named temporary directory, removed on drop. The name
/// includes the process id and a per-process counter, so parallel test
/// targets (and parallel tests within one target) never collide.
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    pub fn new(prefix: &str) -> Self {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "hydra_{prefix}_{}_{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed),
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create test tempdir");
        TempDir { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The paper's rover as a registration request: navigation (240/500 ms)
/// on core 0, camera (1120/5000 ms) on core 1.
pub fn register_rover(tenant: u64) -> Request {
    Request::Register {
        tenant,
        cores: 2,
        rt: rover_rt(),
    }
}

/// The rover's RT specs (registration order; the engine RM-sorts them).
pub fn rover_rt() -> Vec<RtSpec> {
    vec![
        RtSpec {
            wcet: ms(240),
            period: ms(500),
            core: 0,
        },
        RtSpec {
            wcet: ms(1120),
            period: ms(5000),
            core: 1,
        },
    ]
}

/// Draws a random delta, deliberately spanning valid, analysis-rejected
/// and usage-error shapes — streams built from this must exercise all
/// three response kinds.
pub fn random_event(rng: &mut StdRng) -> DeltaEvent {
    match rng.gen_range(0u32..10) {
        // Arrivals, from trivially admissible to hopeless (rejected).
        0..=3 => {
            let t_max = ms(rng.gen_range(2000..=12_000));
            let passive = Duration::from_ticks(rng.gen_range(1..=t_max.as_ticks() / 2));
            let active_cap = t_max.as_ticks();
            let active = Duration::from_ticks(rng.gen_range(passive.as_ticks()..=active_cap));
            DeltaEvent::Arrival {
                monitor: MonitorSpec::modal(passive, active, t_max).unwrap(),
            }
        }
        // Departures, sometimes out of range (usage error).
        4 | 5 => DeltaEvent::Departure {
            slot: rng.gen_range(0..6),
        },
        // WCET re-profiles, sometimes invalid or unschedulable.
        6 | 7 => {
            let passive = Duration::from_ticks(rng.gen_range(1..=60_000));
            let active = Duration::from_ticks(rng.gen_range(1..=90_000));
            DeltaEvent::WcetUpdate {
                slot: rng.gen_range(0..6),
                passive_wcet: passive,
                active_wcet: active,
            }
        }
        // Mode flips, sometimes on empty slots.
        _ => DeltaEvent::ModeChange {
            slot: rng.gen_range(0..6),
            mode: if rng.gen_bool(0.5) {
                MonitorMode::Active
            } else {
                MonitorMode::Passive
            },
        },
    }
}

/// What a seeded stream did, per response kind, with the accepted
/// events preserved per tenant in commit order — exactly the history a
/// journal must record, so tests can replay it independently.
#[derive(Default)]
pub struct StreamOutcome {
    /// Accepted `(tenant, event)` pairs in commit order.
    pub accepted: Vec<(u64, DeltaEvent)>,
    pub rejected: u32,
    pub errored: u32,
}

impl StreamOutcome {
    /// The accepted events of one tenant, in commit order.
    pub fn accepted_for(&self, tenant: u64) -> Vec<DeltaEvent> {
        self.accepted
            .iter()
            .filter(|(t, _)| *t == tenant)
            .map(|(_, e)| *e)
            .collect()
    }
}

/// Drives `len` seeded random deltas over `tenants` (chosen uniformly
/// per step) through `handle`, tallying outcomes.
pub fn drive_stream(
    rng: &mut StdRng,
    tenants: &[u64],
    len: usize,
    mut handle: impl FnMut(Request) -> Response,
) -> StreamOutcome {
    let mut outcome = StreamOutcome::default();
    for _ in 0..len {
        let tenant = tenants[rng.gen_range(0..tenants.len())];
        let event = random_event(rng);
        match handle(Request::Delta { tenant, event }) {
            Response::Admitted(_) => outcome.accepted.push((tenant, event)),
            Response::Rejected { .. } => outcome.rejected += 1,
            Response::Error { .. } => outcome.errored += 1,
            other => panic!("unexpected response to a delta: {other:?}"),
        }
    }
    outcome
}

/// Polls `f` every 20 ms until it yields a value, for at most ~10 s —
/// the bounded-retry replacement for time-dependent waits. Panics
/// (naming `what`) if the deadline passes, so a hung condition fails
/// loudly instead of wedging the test.
pub fn retry<T>(what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    for _ in 0..500 {
        if let Some(value) = f() {
            return value;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    panic!("timed out waiting for {what}");
}

/// A reactor serving on a background thread: its address, the handle
/// that drains it, and the serve thread (join it after a shutdown
/// request for the run's totals). Dropping the handles detaches the
/// thread; it then dies with the test process.
pub type Served = (
    SocketAddr,
    Arc<Shutdown>,
    JoinHandle<std::io::Result<ReactorSummary>>,
);

/// Boots an in-process reactor over `options` on a fresh loopback port.
pub fn spawn_reactor(options: ReactorOptions) -> Served {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    spawn_reactor_on(listener, options)
}

/// A reactor on a listener the caller bound (connects made before this
/// call wait in its accept backlog).
pub fn spawn_reactor_on(listener: TcpListener, options: ReactorOptions) -> Served {
    let addr = listener.local_addr().expect("listener address");
    let shutdown = Shutdown::new();
    let remote = Arc::clone(&shutdown);
    let serving = std::thread::spawn(move || serve_reactor(listener, &options, &remote));
    (addr, shutdown, serving)
}

/// A line-protocol client on one TCP connection. Reads time out after
/// 10 s, so a wedged server fails the test instead of hanging it.
pub struct Client {
    pub stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect to the server");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    pub fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send a request line");
    }

    pub fn recv(&mut self) -> String {
        self.try_recv().expect("server closed the connection")
    }

    /// The next answer line, or `None` if the connection failed or
    /// closed first.
    pub fn try_recv(&mut self) -> Option<String> {
        let mut line = String::new();
        self.reader.read_line(&mut line).ok()?;
        (!line.is_empty()).then(|| line.trim_end().to_string())
    }

    /// One lockstep exchange, or `None` if the connection fails or
    /// closes on the way (a refused socket may already be closed when
    /// the request is written).
    pub fn try_request(&mut self, line: &str) -> Option<String> {
        self.stream.write_all(format!("{line}\n").as_bytes()).ok()?;
        self.try_recv()
    }

    /// One lockstep exchange on an established connection.
    pub fn request(&mut self, line: &str) -> String {
        self.try_request(line)
            .expect("established connections are served to completion")
    }
}
