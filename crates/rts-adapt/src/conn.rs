//! The line-protocol machine behind every connection the daemon serves.
//!
//! [`Conn`] is one connection's protocol state. It owns no socket and
//! reads no clock: whatever drives it (the epoll loop in
//! [`crate::reactor`], a test or a simulator) moves bytes and ticks in
//! and out, so one machine serves TCP clients and the daemon's stdin
//! bridge alike.
//!
//! * **Ingress** — [`Conn::feed`] and [`Conn::close_read`] (EOF) take
//!   bytes; [`Conn::next_line`] hands out each complete line as `(seq,
//!   command or error)`. A line longer than [`MAX_LINE_BYTES`] (newline
//!   excluded) is one error whatever the read split, its bytes dropped
//!   as they arrive. At EOF an unterminated last line still counts.
//! * **Egress** — [`Conn::answer`] takes answers in any order; they
//!   join the egress queue in seq order, one buffer per line, lent out
//!   by [`Conn::egress`] for one gathered write and consumed by
//!   [`Conn::written`]. A tagged answer comes back from
//!   [`Conn::flushed`] once its last byte is written — never early,
//!   never twice — with the tick at which it was queued.
//! * **Backpressure** — [`Conn::paused`] turns on at [`HIGH_WATER`]
//!   unanswered lines or [`WRITE_BACKLOG_HIGH`] unwritten bytes, and
//!   off at [`LOW_WATER`] lines and half the byte mark. A paused
//!   machine hands out no line, and the reactor stops reading it.
//! * **End** — [`Conn::abort`] is the socket dying: egress is dropped
//!   and answers still owed are only counted. [`Conn::finished`] says
//!   when nothing is left to hand out, answer or write.
//!
//! `tests/conn_props.rs` drives the machine with arbitrary read splits,
//! answer orders and partial writes: the egress never depends on them.

use std::collections::{BTreeMap, VecDeque};
use std::io::IoSlice;

use crate::proto::{self, Command};

/// Hard cap on one request line — far above any legitimate request
/// (even a thousand-task registration is a few tens of KiB, and an
/// `import` payload for a thousand-monitor tenant stays under 100 KiB),
/// and the bound that keeps a newline-less client from growing the
/// daemon's memory without limit. An oversized line — hand-off payloads
/// included — is answered with a bounded error and the stream stays
/// line-synchronized (the `proto_torture` suite pins this).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Unanswered lines at which a connection stops handing out lines.
pub const HIGH_WATER: u64 = 1024;
/// Unanswered lines at or below which a paused connection resumes.
pub const LOW_WATER: u64 = 256;
/// Unwritten egress bytes at which a connection stops handing out lines
/// (it resumes below half of this).
pub const WRITE_BACKLOG_HIGH: usize = 1 << 20;

/// The error reason an oversized line is answered with.
fn oversized_reason() -> String {
    format!("request line exceeds {MAX_LINE_BYTES} bytes")
}

/// One line handed out by [`Conn::next_line`]: the parsed command, or
/// the reason it is answered with a `verdict:"error"` line.
pub type Line = Result<Command, String>;

/// A tagged answer whose last byte has been written.
#[derive(Debug)]
pub struct Flushed<T> {
    /// The answered line's seq.
    pub seq: u64,
    /// The tick passed to [`Conn::answer`] when this answer joined the
    /// egress queue.
    pub queued_ns: u64,
    /// The tag the answer carried.
    pub tag: T,
}

/// One connection's line protocol; `T` is the tag an answer may carry
/// until its bytes are written (see the module docs). A fresh machine is
/// [`Conn::default`].
#[derive(Debug, Default)]
pub struct Conn<T> {
    /// Bytes received; `input[consumed..]` is not yet handed out.
    input: Vec<u8>,
    consumed: usize,
    /// Inside an oversized line: drop bytes until its newline or EOF.
    skipping: bool,
    /// EOF seen (or the socket died); no more bytes will come.
    read_closed: bool,
    /// The socket died: egress is dropped, answers are only counted.
    aborted: bool,
    /// Seq of the next line handed out.
    next_seq: u64,
    /// Lines handed out whose answer has not come in yet.
    unanswered: u64,
    /// Seq whose answer joins the egress queue next.
    next_write: u64,
    /// Answers that came in ahead of `next_write`.
    pending: BTreeMap<u64, (String, Option<T>)>,
    /// In-order answer buffers awaiting egress, one per line.
    outq: VecDeque<Vec<u8>>,
    /// Written prefix of `outq`'s front buffer.
    head_written: usize,
    /// Unwritten bytes across `outq`.
    backlog: usize,
    /// Bytes written over the connection's lifetime: the offset space
    /// the tags' `end` lives in, so a partial write never moves a tag.
    sent: u64,
    /// Tagged answers in `outq`, in queue order, each with the egress
    /// offset at which its bytes end.
    tags: VecDeque<(u64, Flushed<T>)>,
    paused: bool,
    /// The last [`Conn::next_line`] stopped on a pause, so input may
    /// still be waiting.
    held: bool,
}

impl<T> Conn<T> {
    /// Appends bytes read from the peer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if !self.read_closed {
            self.input.extend_from_slice(bytes);
        }
    }

    /// The peer closed its side: buffered bytes are all there will be.
    pub fn close_read(&mut self) {
        self.read_closed = true;
    }

    /// The socket is gone: queued and future egress is dropped, no more
    /// lines are handed out, and answers still owed are only counted,
    /// so [`Conn::finished`] turns true once the last one comes in.
    pub fn abort(&mut self) {
        self.aborted = true;
        self.read_closed = true;
        self.input = Vec::new();
        self.consumed = 0;
        self.pending.clear();
        self.outq.clear();
        self.head_written = 0;
        self.backlog = 0;
        self.tags.clear();
    }

    /// The next complete line with its seq, or `None` while paused or
    /// until more bytes (or EOF) complete one.
    pub fn next_line(&mut self) -> Option<(u64, Line)> {
        self.refresh_pause();
        self.held = self.paused && !self.aborted;
        if self.aborted || self.paused {
            return None;
        }
        let rest = &self.input[self.consumed..];
        let line = match rest.iter().position(|&b| b == b'\n') {
            Some(at) if self.skipping || at > MAX_LINE_BYTES => {
                self.consumed += at + 1;
                self.skipping = false;
                Err(oversized_reason())
            }
            Some(at) => {
                let line = parse(&rest[..at]);
                self.consumed += at + 1;
                line
            }
            None if self.skipping || rest.len() > MAX_LINE_BYTES => {
                // Drop the flood now; only its end is still owed.
                self.input.clear();
                self.consumed = 0;
                self.skipping = !self.read_closed;
                if self.skipping {
                    return None;
                }
                Err(oversized_reason())
            }
            None if self.read_closed && !rest.is_empty() => {
                let line = parse(rest);
                self.consumed = self.input.len();
                line
            }
            None => {
                // One compaction per burst of lines, not per line.
                self.input.drain(..self.consumed);
                self.consumed = 0;
                return None;
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.unanswered += 1;
        Some((seq, line))
    }

    /// Takes the answer to line `seq` (any order), rendered without its
    /// newline, optionally tagged. `now_ns` is the caller's tick: each
    /// answer that joins the egress queue in this call keeps it for
    /// [`Conn::flushed`]. Returns how many answers joined the queue.
    ///
    /// # Panics
    ///
    /// If `seq` was never handed out or was already answered (a caller
    /// bug that would corrupt the stream).
    pub fn answer(&mut self, seq: u64, line: String, tag: Option<T>, now_ns: u64) -> u64 {
        assert!(
            seq < self.next_seq && self.unanswered > 0,
            "answer for seq {seq}, which was never handed out"
        );
        self.unanswered -= 1;
        if self.aborted {
            return 0;
        }
        let previous = self.pending.insert(seq, (line, tag));
        assert!(
            previous.is_none() && seq >= self.next_write,
            "seq {seq} answered twice"
        );
        let mut queued = 0;
        while let Some((line, tag)) = self.pending.remove(&self.next_write) {
            let mut bytes = line.into_bytes();
            bytes.push(b'\n');
            self.backlog += bytes.len();
            self.outq.push_back(bytes);
            if let Some(tag) = tag {
                let end = self.sent + self.backlog as u64;
                let seq = self.next_write;
                self.tags.push_back((
                    end,
                    Flushed {
                        seq,
                        queued_ns: now_ns,
                        tag,
                    },
                ));
            }
            self.next_write += 1;
            queued += 1;
        }
        self.refresh_pause();
        queued
    }

    /// The queued egress as slices for one gathered write: the front
    /// buffer's unwritten rest, then whole buffers, at most `max`.
    #[must_use]
    pub fn egress(&self, max: usize) -> Vec<IoSlice<'_>> {
        let mut slices = Vec::with_capacity(self.outq.len().min(max));
        for (i, buf) in self.outq.iter().take(max).enumerate() {
            let start = if i == 0 { self.head_written } else { 0 };
            slices.push(IoSlice::new(&buf[start..]));
        }
        slices
    }

    /// Consumes `n` bytes a write took from the front of the egress.
    ///
    /// # Panics
    ///
    /// If `n` exceeds [`Conn::backlog`].
    pub fn written(&mut self, n: usize) {
        assert!(
            n <= self.backlog,
            "wrote {n} of {} queued bytes",
            self.backlog
        );
        self.sent += n as u64;
        self.backlog -= n;
        let mut left = n;
        while left > 0 {
            let front_rest = self.outq[0].len() - self.head_written;
            if left >= front_rest {
                left -= front_rest;
                self.outq.pop_front();
                self.head_written = 0;
            } else {
                self.head_written += left;
                left = 0;
            }
        }
        self.refresh_pause();
    }

    /// The tagged answers whose last byte has now been written, in seq
    /// order; each is returned once.
    pub fn flushed(&mut self) -> impl ExactSizeIterator<Item = Flushed<T>> + '_ {
        let done = self
            .tags
            .iter()
            .take_while(|(end, _)| *end <= self.sent)
            .count();
        self.tags.drain(..done).map(|(_, flushed)| flushed)
    }

    /// Unwritten egress bytes.
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Lines handed out whose answer has not come in.
    #[must_use]
    pub fn unanswered(&self) -> u64 {
        self.unanswered
    }

    /// Whether the watermarks currently hold lines back.
    #[must_use]
    pub fn paused(&self) -> bool {
        self.paused
    }

    /// Whether the peer should be read: not at EOF, not aborted, not
    /// paused.
    #[must_use]
    pub fn reading(&self) -> bool {
        !self.read_closed && !self.paused
    }

    /// Whether bytes are buffered that no line has been handed out for.
    #[must_use]
    pub fn has_input(&self) -> bool {
        self.consumed < self.input.len()
    }

    /// A pause held lines back and has lifted since (answers came in or
    /// egress was written): [`Conn::next_line`] may have lines again
    /// although no new bytes arrived.
    #[must_use]
    pub fn resumable(&self) -> bool {
        self.held && !self.paused
    }

    /// Every complete line received so far has been answered and
    /// written. A partial line does not count: without EOF the rest may
    /// never come.
    #[must_use]
    pub fn settled(&self) -> bool {
        self.aborted
            || (self.unanswered == 0
                && self.backlog == 0
                && !self.input[self.consumed..].contains(&b'\n'))
    }

    /// Nothing is left to hand out, answer or write: the connection can
    /// be closed. (With every answer in, none waits out of order.)
    #[must_use]
    pub fn finished(&self) -> bool {
        self.unanswered == 0
            && (self.aborted
                || (self.read_closed && !self.skipping && !self.has_input() && self.backlog == 0))
    }

    /// Two-sided pause with hysteresis, so a connection at a high-water
    /// mark does not flap on every single answer.
    fn refresh_pause(&mut self) {
        if self.paused {
            if self.unanswered <= LOW_WATER && self.backlog < WRITE_BACKLOG_HIGH / 2 {
                self.paused = false;
            }
        } else if self.unanswered >= HIGH_WATER || self.backlog >= WRITE_BACKLOG_HIGH {
            self.paused = true;
        }
    }
}

/// One line's bytes (newline excluded) as a command.
fn parse(bytes: &[u8]) -> Line {
    std::str::from_utf8(bytes)
        .map_err(|_| "invalid UTF-8".to_string())
        .and_then(|text| proto::parse_command(text.trim()))
}
