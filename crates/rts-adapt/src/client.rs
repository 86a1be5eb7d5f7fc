//! A line-protocol client with bounded connect retry — the shared
//! dial-out path for everything that *initiates* connections to an
//! `rts_adaptd`: the warm-standby replicator ([`crate::replication`]),
//! the fleet coordinator (`rts-coord`), and the hand-off smoke harness.
//!
//! The problem this solves is the restart window: a daemon that is
//! rebooting (or has just been spawned and not yet bound its listener)
//! answers `ECONNREFUSED` for a few hundred milliseconds, and a single
//! naive `TcpStream::connect` turns that into a failed hand-off. The
//! test suite has had a bounded `retry` helper since PR 5; this module
//! gives the production client paths the same discipline — a bounded
//! number of attempts with capped exponential backoff, after which the
//! *last* connect error is reported (not a made-up timeout).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How hard to try: attempt count and the backoff window between
/// attempts. The delay doubles from `initial_delay` per retry and is
/// clamped at `max_delay`, so the total patience is roughly
/// `attempts × max_delay` in the worst case.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RetryPolicy {
    /// Connect attempts before giving up (≥ 1; 0 behaves as 1).
    pub attempts: u32,
    /// Sleep after the first failed attempt.
    pub initial_delay: Duration,
    /// Backoff cap — doubling stops here.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    /// The daemon-restart-window default: ~40 attempts over ~15 s
    /// (25 ms doubling to a 400 ms cap). Generous enough to ride out a
    /// journal replay on the far side, bounded enough that a dead
    /// address fails in seconds, not forever.
    fn default() -> Self {
        RetryPolicy {
            attempts: 40,
            initial_delay: Duration::from_millis(25),
            max_delay: Duration::from_millis(400),
        }
    }
}

impl RetryPolicy {
    /// A short-fuse policy for paths that prefer to fail fast and let a
    /// higher layer decide (the replicator's forwarder re-queues, the
    /// coordinator reports the member dead): 5 attempts over ~300 ms.
    #[must_use]
    pub fn quick() -> Self {
        RetryPolicy {
            attempts: 5,
            initial_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
        }
    }

    /// Exactly one attempt — the pre-PR-10 behaviour, for callers that
    /// have their own outer loop.
    #[must_use]
    pub fn once() -> Self {
        RetryPolicy {
            attempts: 1,
            initial_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The sleep before retry number `attempt` (0-based): exponential
    /// from `initial_delay`, clamped at `max_delay`.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let doubled = self.initial_delay.saturating_mul(1u32 << attempt.min(16));
        doubled.min(self.max_delay)
    }
}

/// Whether a connect error is worth retrying: the far side is absent or
/// mid-restart (refused/reset/aborted), or the attempt itself timed
/// out. Anything else — unroutable address, permission — is permanent
/// and reported immediately.
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::AddrNotAvailable
    )
}

/// Dials `addr` under `policy`: transient errors are retried with
/// capped exponential backoff, permanent ones returned at once.
///
/// # Errors
///
/// The last connect error once the attempt budget is spent, or the
/// first permanent error.
pub fn connect_with_retry(addr: SocketAddr, policy: &RetryPolicy) -> io::Result<TcpStream> {
    let attempts = policy.attempts.max(1);
    let mut last: Option<io::Error> = None;
    for attempt in 0..attempts {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if transient(&e) && attempt + 1 < attempts => {
                last = Some(e);
                std::thread::sleep(policy.delay(attempt));
            }
            Err(e) => return Err(e),
        }
    }
    Err(last.unwrap_or_else(|| {
        io::Error::new(io::ErrorKind::TimedOut, "connect retry budget exhausted")
    }))
}

/// One line-protocol connection: writes a request line, reads the
/// response line. Blocking, with a read timeout so a wedged daemon
/// surfaces as `WouldBlock`/`TimedOut` instead of hanging the caller
/// forever.
#[derive(Debug)]
pub struct LineClient {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
}

impl LineClient {
    /// Dials `addr` under `policy` and arms a 30 s read timeout.
    ///
    /// # Errors
    ///
    /// As for [`connect_with_retry`], plus socket-option failures.
    pub fn connect(addr: SocketAddr, policy: &RetryPolicy) -> io::Result<Self> {
        let stream = connect_with_retry(addr, policy)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(LineClient {
            stream,
            reader,
            addr,
        })
    }

    /// The address this client dialed.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Writes one request line (newline appended here) in one write, so
    /// the request leaves as one segment.
    ///
    /// # Errors
    ///
    /// The underlying write/flush error.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.send_all(&[line])
    }

    /// Pipelining: writes several request lines (each newline-terminated
    /// here) in one write; read their answers, in order, with
    /// [`LineClient::recv`]. Keep the batch well under the socket
    /// buffers' worth of answers, or both sides can block writing.
    ///
    /// # Errors
    ///
    /// The underlying write/flush error.
    pub fn send_all<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<()> {
        let len = lines.iter().map(|l| l.as_ref().len() + 1).sum();
        let mut buf = Vec::with_capacity(len);
        for line in lines {
            buf.extend_from_slice(line.as_ref().as_bytes());
            buf.push(b'\n');
        }
        self.stream.write_all(&buf)?;
        self.stream.flush()
    }

    /// Reads one response line (trailing newline stripped). EOF — the
    /// daemon closed the connection — is an `UnexpectedEof` error, not
    /// an empty string.
    ///
    /// # Errors
    ///
    /// The underlying read error, or `UnexpectedEof` on a clean close.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// One round trip: [`LineClient::send`] then [`LineClient::recv`].
    ///
    /// # Errors
    ///
    /// As for the two halves.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn delay_doubles_and_clamps() {
        let policy = RetryPolicy {
            attempts: 10,
            initial_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(45),
        };
        assert_eq!(policy.delay(0), Duration::from_millis(10));
        assert_eq!(policy.delay(1), Duration::from_millis(20));
        assert_eq!(policy.delay(2), Duration::from_millis(40));
        assert_eq!(policy.delay(3), Duration::from_millis(45));
        assert_eq!(policy.delay(30), Duration::from_millis(45));
    }

    #[test]
    fn connect_retries_through_a_restart_window() {
        // Nobody listens yet; a listener appears ~80 ms in. A
        // single-attempt connect fails; the default policy rides it out.
        let addr: SocketAddr = {
            // Reserve a free port, then release it for the late binder.
            let probe = TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap()
        };
        assert!(connect_with_retry(addr, &RetryPolicy::once()).is_err());
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(80));
            let listener = TcpListener::bind(addr).unwrap();
            // Hold the listener long enough for the dialer to land.
            let _conn = listener.accept();
        });
        let stream = connect_with_retry(addr, &RetryPolicy::default())
            .expect("bounded retry must survive the restart window");
        drop(stream);
        binder.join().unwrap();
    }

    #[test]
    fn line_client_round_trips_and_reports_eof() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let mut out = stream;
            out.write_all(line.as_bytes()).unwrap();
            // Then close: the client's next recv must see UnexpectedEof.
        });
        let mut client = LineClient::connect(addr, &RetryPolicy::quick()).unwrap();
        assert_eq!(
            client.request("{\"op\":\"query\"}").unwrap(),
            "{\"op\":\"query\"}"
        );
        let err = client.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        echo.join().unwrap();
    }
}
