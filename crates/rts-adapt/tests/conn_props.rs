//! Property test of the line-protocol machine (`rts_adapt::conn::Conn`),
//! driven the way the reactor drives it but with every choice drawn
//! from a seed: how the input stream is split into reads, when and in
//! which order the engine answers come back, and how much of the egress
//! each write takes.
//!
//! The streams mix engine requests, `stats` lines, garbage (blank,
//! unparsable, invalid UTF-8), lines a byte over and exactly at the
//! 1 MiB bound, newline-less floods, and an unterminated last line.
//! Whatever the schedule:
//!
//! * the egress is byte-identical to the stream's answers in line
//!   order — so the machine's seqs, framing and oversize resync never
//!   depend on the read split, and its ordering never on the answer
//!   order;
//! * each tagged answer is released by [`Conn::flushed`] exactly once,
//!   in seq order, as soon as (and not before) its last byte was
//!   written;
//! * no line is handed out at or past a high-water mark, and none is
//!   held back once both low-water marks are reached.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rts_adapt::conn::{Conn, HIGH_WATER, LOW_WATER, MAX_LINE_BYTES, WRITE_BACKLOG_HIGH};
use rts_adapt::proto::Command;
use rts_adapt::Request;

/// How one generated line must be answered.
#[derive(Clone, Copy, Debug)]
enum Kind {
    /// An engine request for the tenant: answered late, in any order,
    /// with a tag.
    Query(u64),
    /// An observability verb: answered at once.
    Stats,
    /// A line that does not parse: an error, answered at once.
    Garbage,
    /// A line over the bound: the oversize error, answered at once.
    Oversized,
}

/// One generated input stream and everything the checks need about it.
struct Plan {
    bytes: Vec<u8>,
    kinds: Vec<Kind>,
    /// Byte offset in `bytes` at which each line is complete (its
    /// newline fed); `None` for an unterminated last line, complete at
    /// EOF.
    complete_at: Vec<Option<usize>>,
    /// The expected egress, and the offset at which each line's answer
    /// ends in it.
    expected: Vec<u8>,
    ends: Vec<usize>,
    /// Padding appended to every engine answer (fat answers fill the
    /// write backlog fast).
    fat: usize,
}

fn query_answer(seq: u64, tenant: u64, fat: usize) -> String {
    format!("q{seq} tenant {tenant}{}", ".".repeat(fat))
}

fn error_answer(seq: u64, oversized: bool) -> String {
    format!("e{seq}:{oversized}")
}

/// A garbage line: never a valid command, never a newline.
fn garbage(rng: &mut StdRng) -> Vec<u8> {
    match rng.gen_range(0..5) {
        0 => Vec::new(),
        1 => b"not json at all".to_vec(),
        2 => b"{\"op\":\"warp\",\"tenant\":1}".to_vec(),
        3 => vec![0xff, 0xfe, b'{', 0x80],
        _ => (0..rng.gen_range(1..40))
            .map(|_| loop {
                let b = rng.gen_range(0u32..256) as u8;
                if b != b'\n' {
                    break b;
                }
            })
            .collect(),
    }
}

/// Draws a stream of `lines` lines; `big` allows the 1 MiB-scale ones.
fn plan(rng: &mut StdRng, lines: usize, big: bool, fat: usize) -> Plan {
    let mut bytes = Vec::new();
    let mut kinds = Vec::new();
    let mut complete_at = Vec::new();
    for i in 0..lines {
        let (text, kind) = match rng.gen_range(0..100) {
            0..=59 => {
                let tenant = rng.gen_range(0..1000);
                let text = format!("{{\"op\":\"query\",\"tenant\":{tenant}}}");
                (text.into_bytes(), Kind::Query(tenant))
            }
            60..=69 => {
                let text: &[u8] = if rng.gen_bool(0.5) {
                    b"{\"op\":\"stats\"}"
                } else {
                    b"  {\"op\":\"stats\"}\r"
                };
                (text.to_vec(), Kind::Stats)
            }
            70..=77 if big => {
                let tenant = rng.gen_range(0..1000);
                match rng.gen_range(0..3) {
                    // Exactly at the bound: still one ordinary line.
                    0 => {
                        let mut text =
                            format!("{{\"op\":\"query\",\"tenant\":{tenant}}}").into_bytes();
                        text.resize(MAX_LINE_BYTES, b' ');
                        (text, Kind::Query(tenant))
                    }
                    // Just over it, whichever read splits it.
                    1 => (
                        vec![b'x'; MAX_LINE_BYTES + rng.gen_range(1usize..64)],
                        Kind::Oversized,
                    ),
                    // A long flood.
                    _ => (
                        vec![b'x'; MAX_LINE_BYTES + rng.gen_range(1usize..(1 << 20))],
                        Kind::Oversized,
                    ),
                }
            }
            _ => (garbage(rng), Kind::Garbage),
        };
        bytes.extend_from_slice(&text);
        let last = i + 1 == lines;
        if last && rng.gen_bool(0.5) {
            // An unterminated last line is a line only if it has bytes.
            if !text.is_empty() {
                kinds.push(kind);
                complete_at.push(None);
            }
        } else {
            bytes.push(b'\n');
            kinds.push(kind);
            complete_at.push(Some(bytes.len()));
        }
    }
    let mut expected = Vec::new();
    let mut ends = Vec::new();
    for (seq, kind) in kinds.iter().enumerate() {
        let seq = seq as u64;
        let answer = match *kind {
            Kind::Query(tenant) => query_answer(seq, tenant, fat),
            Kind::Stats => format!("r{seq}"),
            Kind::Garbage => error_answer(seq, false),
            Kind::Oversized => error_answer(seq, true),
        };
        expected.extend_from_slice(answer.as_bytes());
        expected.push(b'\n');
        ends.push(expected.len());
    }
    Plan {
        bytes,
        kinds,
        complete_at,
        expected,
        ends,
        fat,
    }
}

/// Relative weights of the next simulated step.
#[derive(Clone, Copy)]
struct Style {
    feed: u32,
    answer: u32,
    write: u32,
    /// Largest read the socket returns at once.
    max_feed: usize,
    /// Largest write the socket takes at once.
    max_write: usize,
}

/// The simulated peer, socket and engine of one run.
struct Run<'a> {
    plan: &'a Plan,
    conn: Conn<u64>,
    fed: usize,
    closed: bool,
    /// Lines complete so far (see [`Run::complete_lines`]).
    complete: usize,
    handed: u64,
    /// Engine lines handed out and not answered yet: `(seq, tenant)`.
    waiting: Vec<(u64, u64)>,
    answered_at: Vec<u64>,
    out: Vec<u8>,
    /// Seqs of the tagged (engine) answers, and how many were released.
    tagged: Vec<u64>,
    released: usize,
    tick: u64,
    /// Whether the last `next_line` stopped on a pause, and how many
    /// times lines stopped on one and came again after it.
    held: bool,
    pauses: u32,
    resumes: u32,
}

impl Run<'_> {
    /// Lines whose bytes are all in (newline fed, or EOF seen).
    fn complete_lines(&mut self) -> u64 {
        let (fed, closed) = (self.fed, self.closed);
        self.complete += self.plan.complete_at[self.complete..]
            .iter()
            .take_while(|at| at.map_or(closed, |at| at <= fed))
            .count();
        self.complete as u64
    }

    /// Takes every line the machine hands out, answering `stats` and
    /// errors at once, and checks the watermarks on each call.
    fn pump(&mut self) -> TestCaseResult {
        loop {
            let (unanswered, backlog) = (self.conn.unanswered(), self.conn.backlog());
            match self.conn.next_line() {
                Some((seq, line)) => {
                    self.resumes += u32::from(self.held);
                    self.held = false;
                    prop_assert!(
                        unanswered < HIGH_WATER && backlog < WRITE_BACKLOG_HIGH,
                        "line {seq} handed out at {unanswered} unanswered, {backlog} queued bytes"
                    );
                    prop_assert_eq!(seq, self.handed);
                    prop_assert!(seq < self.complete_lines(), "line {seq} handed out early");
                    self.handed += 1;
                    let kind = self.plan.kinds[seq as usize];
                    let immediate = match (line, kind) {
                        (Ok(Command::Engine(Request::Query { tenant })), Kind::Query(expected)) => {
                            prop_assert_eq!(tenant, expected);
                            self.waiting.push((seq, tenant));
                            continue;
                        }
                        (Ok(Command::Report(_)), Kind::Stats) => format!("r{seq}"),
                        (Err(reason), Kind::Garbage | Kind::Oversized) => {
                            error_answer(seq, reason.contains("exceeds"))
                        }
                        (line, kind) => {
                            return Err(TestCaseError::fail(format!(
                                "line {seq}: {line:?} for a {kind:?} line"
                            )))
                        }
                    };
                    self.conn.answer(seq, immediate, None, self.tick);
                }
                None => {
                    if self.complete_lines() > self.handed {
                        prop_assert!(
                            self.conn.paused(),
                            "line {} held back unpaused",
                            self.handed
                        );
                        self.pauses += u32::from(!self.held);
                        self.held = true;
                        prop_assert!(
                            unanswered > LOW_WATER || backlog >= WRITE_BACKLOG_HIGH / 2,
                            "line {} held back at {unanswered} unanswered, {backlog} queued bytes",
                            self.handed
                        );
                    }
                    return Ok(());
                }
            }
        }
    }

    /// One write of at most `limit` bytes over at most `iovecs` slices.
    fn write(&mut self, limit: usize, iovecs: usize) -> TestCaseResult {
        let slices = self.conn.egress(iovecs);
        let mut taken = Vec::new();
        for slice in &slices {
            let room = limit - taken.len();
            taken.extend_from_slice(&slice[..slice.len().min(room)]);
            if taken.len() == limit {
                break;
            }
        }
        drop(slices);
        self.conn.written(taken.len());
        self.out.extend_from_slice(&taken);
        let expected = &self.plan.expected;
        prop_assert!(
            self.out.len() <= expected.len() && self.out[..] == expected[..self.out.len()],
            "egress diverged at byte {}",
            self.out.len()
        );
        for flushed in self.conn.flushed() {
            prop_assert_eq!(Some(&flushed.seq), self.tagged.get(self.released));
            prop_assert_eq!(flushed.tag, flushed.seq);
            prop_assert!(self.out.len() >= self.plan.ends[flushed.seq as usize]);
            prop_assert!(flushed.queued_ns >= self.answered_at[flushed.seq as usize]);
            self.released += 1;
        }
        if let Some(&next) = self.tagged.get(self.released) {
            prop_assert!(
                self.out.len() < self.plan.ends[next as usize],
                "answer {next} fully written but not released"
            );
        }
        Ok(())
    }
}

/// Drives one plan to the end under `style` and checks every property;
/// returns how often lines stopped on a pause and came again.
fn drive(plan: &Plan, rng: &mut StdRng, style: Style) -> Result<(u32, u32), TestCaseError> {
    let tagged = plan
        .kinds
        .iter()
        .enumerate()
        .filter(|(_, kind)| matches!(kind, Kind::Query(_)))
        .map(|(seq, _)| seq as u64)
        .collect();
    let mut run = Run {
        plan,
        conn: Conn::default(),
        fed: 0,
        closed: false,
        complete: 0,
        handed: 0,
        waiting: Vec::new(),
        answered_at: vec![u64::MAX; plan.kinds.len()],
        out: Vec::new(),
        tagged,
        released: 0,
        tick: 0,
        held: false,
        pauses: 0,
        resumes: 0,
    };
    loop {
        run.tick += 1;
        let can_feed = !run.closed;
        let can_answer = !run.waiting.is_empty();
        let can_write = run.conn.backlog() > 0;
        if !(can_feed || can_answer || can_write) {
            break;
        }
        let weights = [
            if can_feed { style.feed } else { 0 },
            if can_answer { style.answer } else { 0 },
            if can_write { style.write } else { 0 },
        ];
        let mut roll = rng.gen_range(0..weights.iter().sum::<u32>());
        let step = weights
            .iter()
            .position(|&w| {
                let hit = roll < w;
                roll = roll.saturating_sub(w);
                hit
            })
            .expect("some step is possible");
        match step {
            0 if run.fed < plan.bytes.len() => {
                let room = plan.bytes.len() - run.fed;
                let chunk = if rng.gen_bool(0.5) {
                    rng.gen_range(1usize..=64)
                } else {
                    rng.gen_range(1usize..=style.max_feed)
                }
                .min(room);
                run.conn.feed(&plan.bytes[run.fed..run.fed + chunk]);
                run.fed += chunk;
            }
            0 => {
                run.conn.close_read();
                run.closed = true;
            }
            1 => {
                let (seq, tenant) = run.waiting.swap_remove(rng.gen_range(0..run.waiting.len()));
                run.answered_at[seq as usize] = run.tick;
                run.conn.answer(
                    seq,
                    query_answer(seq, tenant, plan.fat),
                    Some(seq),
                    run.tick,
                );
            }
            _ => {
                let limit: usize = if rng.gen_bool(0.5) {
                    rng.gen_range(1..=100)
                } else {
                    rng.gen_range(1..=style.max_write)
                };
                let iovecs = if rng.gen_bool(0.5) {
                    rng.gen_range(1..=4)
                } else {
                    512
                };
                run.write(limit.min(run.conn.backlog()), iovecs)?;
            }
        }
        run.pump()?;
        prop_assert!(run.closed || !run.conn.finished(), "finished before EOF");
    }
    prop_assert_eq!(run.handed, plan.kinds.len() as u64);
    prop_assert!(run.out == plan.expected, "final egress differs");
    prop_assert_eq!(run.released, run.tagged.len());
    prop_assert!(run.conn.finished(), "not finished after the last write");
    prop_assert!(run.conn.settled());
    Ok((run.pauses, run.resumes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Short mixed streams, the 1 MiB-scale lines included, under
    /// arbitrary read splits, answer orders and partial writes.
    #[test]
    fn egress_is_byte_identical_for_any_read_split_and_answer_order(
        seed in 0u64..u64::MAX,
        lines in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let big = rng.gen_bool(0.3);
        let plan = plan(&mut rng, lines, big, 0);
        drive(&plan, &mut rng, Style { feed: 40, answer: 30, write: 30, max_feed: 300_000, max_write: 1 << 20 })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Long streams answered or written lazily, so both high-water
    /// marks are crossed: lines stop at the marks and resume at the low
    /// ones, and the egress is still exact.
    #[test]
    fn pause_and_resume_follow_the_watermarks(
        seed in 0u64..u64::MAX,
        fat_answers in 0u32..2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lines, fat, style) = if fat_answers == 1 {
            (rng.gen_range(700..900), 4096, Style { feed: 40, answer: 40, write: 3, max_feed: 64, max_write: 8192 })
        } else {
            (rng.gen_range(1800..2400), 0, Style { feed: 60, answer: 4, write: 36, max_feed: 300_000, max_write: 1 << 20 })
        };
        let plan = plan(&mut rng, lines, false, fat);
        let (pauses, resumes) = drive(&plan, &mut rng, style)?;
        prop_assert!(pauses >= 1 && resumes >= 1, "{pauses} pauses, {resumes} resumes");
    }
}

/// A connection whose socket died drops its egress, hands out nothing
/// more, and is finished once the answers it still owes have come in.
#[test]
fn an_aborted_connection_finishes_when_its_last_answer_comes_in() {
    let mut conn: Conn<u64> = Conn::default();
    conn.feed(b"{\"op\":\"query\",\"tenant\":1}\n{\"op\":\"query\",\"tenant\":2}\n{\"op\"");
    let first = conn.next_line().expect("a line").0;
    let second = conn.next_line().expect("a line").0;
    assert!(conn.next_line().is_none());
    assert_eq!(conn.answer(first, "one".into(), Some(first), 1), 1);
    conn.abort();
    assert_eq!(conn.backlog(), 0);
    assert!(conn.next_line().is_none());
    assert!(conn.flushed().next().is_none());
    assert!(!conn.finished(), "an answer is still owed");
    assert_eq!(conn.answer(second, "two".into(), Some(second), 2), 0);
    assert!(conn.finished());
}
