//! The stdin front end: line-delimited JSON over stdin/stdout.
//!
//! [`serve`] pumps one request stream through a [`ShardedEngine`]:
//! lines are read greedily (up to the batch cap, but never *waiting* for
//! a full batch — whatever is already buffered is dispatched, so an
//! interactive client gets per-line answers while a pipelined client
//! gets batched throughput), submitted as one batch, and the answers are
//! written back ordered by sequence number. TCP clients are served by
//! the event-driven front end in [`crate::reactor`]; both fronts answer
//! every verb byte-identically (pinned by `tests/proto_torture.rs`).
//! The hand-off verbs (`export`/`import`/`evict`) need no special
//! casing here: they are ordinary requests on the same line-in/line-out
//! cycle, subject to the same size bound and the same per-tenant
//! ordering.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::sync::Arc;

use crate::engine::Response;
use crate::proto::{self, Command, ConnStats, ReactorStats};
use crate::shard::{ResponseMeta, ShardedEngine};
use crate::telemetry::{SlowRequest, Stage, Telemetry};

/// One answered line of a dispatch round: the rendered response plus,
/// for traced engine responses, the stamps the pump needs to close the
/// flush and total stages once the bytes have left with `output`.
struct RoundAnswer {
    seq: u64,
    line: String,
    /// `(tenant, worker stamps, respond tick)`; `None` for observability
    /// verbs and error lines (never dispatched to a shard).
    trace: Option<(u64, ResponseMeta, u64)>,
}

/// Answers one round of parsed commands over the engine: observability
/// verbs are rendered immediately from one metrics report (a stream has
/// no connection gauges, so it reports one all-zero reactor entry and
/// the field set never depends on the front); everything else is
/// submitted as one batch and drained.
///
/// `read_ns` is the round's read stamp (taken by the pump right after
/// the blocking read returned): parse = read → submit, respond =
/// verdict → drained, each booked with one clock read per round.
fn dispatch_round(
    engine: &mut ShardedEngine,
    round: Vec<(u64, Command)>,
    read_ns: u64,
) -> Vec<RoundAnswer> {
    let mut rendered = Vec::with_capacity(round.len());
    let mut batch = Vec::new();
    for (seq, command) in round {
        match command {
            Command::Report(format) => {
                let report = engine.metrics_report(ConnStats::default(), ReactorStats::default());
                let line = proto::render_report(seq, format, &report);
                rendered.push(RoundAnswer {
                    seq,
                    line,
                    trace: None,
                });
            }
            Command::Engine(request) => batch.push((seq, request, read_ns)),
        }
    }
    let telemetry = Arc::clone(engine.telemetry());
    let submit_ns = telemetry.now_ns();
    for _ in &batch {
        telemetry.record_stage(Stage::Parse, submit_ns.saturating_sub(read_ns));
    }
    engine.submit_batch_traced(batch, submit_ns);
    let answers = engine.drain_traced();
    let respond_ns = if answers.iter().any(|(_, _, meta)| meta.solved_ns != 0) {
        telemetry.now_ns()
    } else {
        0
    };
    for (seq, response, meta) in answers {
        let trace = (meta.solved_ns != 0).then(|| {
            telemetry.record_stage(Stage::Respond, respond_ns.saturating_sub(meta.committed_ns));
            (response.tenant(), meta, respond_ns)
        });
        rendered.push(RoundAnswer {
            seq,
            line: proto::render_response(seq, &response),
            trace,
        });
    }
    rendered
}

/// Totals of one [`serve`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ServeSummary {
    /// Lines read (requests attempted).
    pub requests: u64,
    /// Responses written (equals `requests`; every line is answered).
    pub responses: u64,
    /// Responses with `verdict:"error"` due to unparsable lines.
    pub parse_errors: u64,
}

/// Serves `input` until EOF, writing one response line per request line.
///
/// `batch` caps how many lines are dispatched per round (≥ 1). Lines
/// beyond the first are only consumed while they are already buffered,
/// so interactive use is never stalled waiting for a batch to fill.
///
/// Telemetry costs the pump at most four clock reads per round (read
/// stamp here, submit and respond stamps in the dispatcher, one flush
/// stamp after `output.flush()`), shared by every line of the round —
/// and zero with a disabled registry.
///
/// # Errors
///
/// Propagates I/O errors from `input`/`output`. Protocol errors never
/// abort the stream — they are answered with `verdict:"error"` lines.
pub fn serve<R: Read, W: Write>(
    engine: &mut ShardedEngine,
    mut input: BufReader<R>,
    mut output: W,
    batch: usize,
) -> io::Result<ServeSummary> {
    let batch = batch.max(1);
    let mut summary = ServeSummary::default();
    let mut seq: u64 = 0;
    let mut line = Vec::new();
    let mut round: Vec<(u64, Result<Vec<u8>, String>)> = Vec::with_capacity(batch);
    loop {
        // Blocking read of the round's first line; EOF ends the stream.
        let Some(first) = read_bounded_line(&mut input, &mut line)? else {
            return Ok(summary);
        };
        round.push((seq, first.map(|()| std::mem::take(&mut line))));
        seq += 1;
        // Greedily take already-buffered complete lines, up to the cap.
        while round.len() < batch && input.buffer().contains(&b'\n') {
            let Some(next) = read_bounded_line(&mut input, &mut line)? else {
                break;
            };
            round.push((seq, next.map(|()| std::mem::take(&mut line))));
            seq += 1;
        }
        // The round's read stamp, taken after the blocking read so wait
        // time on an idle stream is never charged to a request.
        let read_ns = engine.telemetry().now_ns();

        summary.requests += round.len() as u64;
        let mut answers: Vec<RoundAnswer> = Vec::with_capacity(round.len());
        let mut submitted: Vec<(u64, Command)> = Vec::with_capacity(round.len());
        for (line_seq, text) in round.drain(..) {
            let parsed = text.and_then(|bytes| {
                let text = std::str::from_utf8(&bytes).map_err(|_| "invalid UTF-8".to_string())?;
                proto::parse_command(text.trim())
            });
            match parsed {
                Ok(command) => submitted.push((line_seq, command)),
                Err(reason) => {
                    summary.parse_errors += 1;
                    let line =
                        proto::render_response(line_seq, &Response::Error { tenant: 0, reason });
                    answers.push(RoundAnswer {
                        seq: line_seq,
                        line,
                        trace: None,
                    });
                }
            }
        }
        answers.extend(dispatch_round(engine, submitted, read_ns));
        answers.sort_by_key(|answer| answer.seq);
        for answer in &answers {
            output.write_all(answer.line.as_bytes())?;
            output.write_all(b"\n")?;
        }
        output.flush()?;
        summary.responses += answers.len() as u64;
        if answers.iter().any(|answer| answer.trace.is_some()) {
            record_flushed(engine.telemetry(), &answers);
        }
    }
}

/// Closes flush and total for a round's traced answers with one clock
/// read (the bytes left with the round's single flush), and offers each
/// to the slow-request ring.
fn record_flushed(telemetry: &Telemetry, answers: &[RoundAnswer]) {
    let now = telemetry.now_ns();
    for answer in answers {
        let Some((tenant, meta, respond_ns)) = answer.trace else {
            continue;
        };
        let flush_ns = now.saturating_sub(respond_ns);
        let total_ns = now.saturating_sub(meta.read_ns);
        telemetry.record_stage(Stage::Flush, flush_ns);
        telemetry.record_stage(Stage::Total, total_ns);
        telemetry.offer_slow(SlowRequest {
            tenant,
            conn: 0,
            seq: answer.seq,
            parse_ns: meta.submit_ns.saturating_sub(meta.read_ns),
            queue_ns: meta.dequeue_ns.saturating_sub(meta.submit_ns),
            solve_ns: meta.solve_ns,
            persist_ns: meta.committed_ns.saturating_sub(meta.solved_ns),
            respond_ns: respond_ns.saturating_sub(meta.committed_ns),
            flush_ns,
            total_ns,
        });
    }
}

/// Hard cap on one request line — far above any legitimate request
/// (even a thousand-task registration is a few tens of KiB, and an
/// `import` payload for a thousand-monitor tenant stays under 100 KiB),
/// and the bound that keeps a newline-less client from growing the
/// daemon's memory without limit. An oversized line — hand-off payloads
/// included — is answered with a bounded error and the stream stays
/// line-synchronized (the `proto_torture` suite pins this).
pub(crate) const MAX_LINE_BYTES: usize = 1 << 20;

/// Reads one newline-terminated line into `buf`, bounded by
/// [`MAX_LINE_BYTES`]. Returns `None` at EOF; `Some(Ok(()))` with the
/// line (newline included) in `buf`; `Some(Err(reason))` for an
/// oversized line, whose remaining bytes have been consumed and
/// discarded so the stream stays line-synchronized.
fn read_bounded_line<R: Read>(
    input: &mut BufReader<R>,
    buf: &mut Vec<u8>,
) -> io::Result<Option<Result<(), String>>> {
    buf.clear();
    let mut oversized = false;
    loop {
        let available = input.fill_buf()?;
        if available.is_empty() {
            // EOF: a partial unterminated line still counts as a line.
            return Ok(match (buf.is_empty(), oversized) {
                (true, false) => None,
                (_, false) => Some(Ok(())),
                (_, true) => Some(Err(oversized_reason())),
            });
        }
        if let Some(newline) = available.iter().position(|&b| b == b'\n') {
            if !oversized {
                buf.extend_from_slice(&available[..=newline]);
            }
            input.consume(newline + 1);
            return Ok(Some(if oversized {
                Err(oversized_reason())
            } else {
                Ok(())
            }));
        }
        let len = available.len();
        if !oversized {
            if buf.len() + len > MAX_LINE_BYTES {
                oversized = true;
                buf.clear();
            } else {
                buf.extend_from_slice(available);
            }
        }
        input.consume(len);
    }
}

pub(crate) fn oversized_reason() -> String {
    format!("request line exceeds {MAX_LINE_BYTES} bytes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rts_analysis::semi::CarryInStrategy;

    fn run_lines(input: &str, batch: usize) -> (ServeSummary, Vec<String>) {
        let mut engine = ShardedEngine::new(CarryInStrategy::Exhaustive, 2);
        let mut out: Vec<u8> = Vec::new();
        let summary = serve(
            &mut engine,
            BufReader::new(input.as_bytes()),
            &mut out,
            batch,
        )
        .unwrap();
        let _ = engine.shutdown();
        let text = String::from_utf8(out).unwrap();
        (summary, text.lines().map(str::to_owned).collect())
    }

    const SESSION: &str = "\
{\"op\":\"register\",\"tenant\":1,\"cores\":2,\"rt\":[{\"wcet_ms\":240,\"period_ms\":500,\"core\":0},{\"wcet_ms\":1120,\"period_ms\":5000,\"core\":1}]}
{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":5342,\"t_max_ms\":10000}
{\"op\":\"arrival\",\"tenant\":1,\"passive_ms\":223,\"t_max_ms\":10000}
not json at all
{\"op\":\"query\",\"tenant\":1}
";

    #[test]
    fn serves_a_session_in_order_for_any_batch_cap() {
        let reference = run_lines(SESSION, 1);
        assert_eq!(reference.0.requests, 5);
        assert_eq!(reference.0.responses, 5);
        assert_eq!(reference.0.parse_errors, 1);
        // The rover's admitted periods appear in the final query line.
        assert!(reference.1[4].contains("\"periods_ms\":[7582,2783]"));
        assert!(reference.1[3].contains("\"verdict\":\"error\""));
        for batch in [2, 64] {
            let run = run_lines(SESSION, batch);
            assert_eq!(run.1, reference.1, "batch={batch}");
        }
    }

    #[test]
    fn every_line_gets_a_seq_aligned_answer() {
        let (_, lines) = run_lines(SESSION, 8);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.contains(&format!("\"seq\":{i},")), "line {i}: {line}");
        }
    }

    #[test]
    fn empty_input_serves_nothing() {
        let (summary, lines) = run_lines("", 4);
        assert_eq!(summary, ServeSummary::default());
        assert!(lines.is_empty());
    }

    #[test]
    fn oversized_lines_are_rejected_without_buffering_them() {
        // A 3 MiB newline-less prefix must not be accumulated: it is
        // answered with a bounded error line and the stream stays
        // line-synchronized for the request that follows.
        let mut input = "x".repeat(3 * MAX_LINE_BYTES);
        input.push('\n');
        input.push_str("{\"op\":\"query\",\"tenant\":5}\n");
        let (summary, lines) = run_lines(&input, 4);
        assert_eq!(summary.requests, 2);
        assert_eq!(summary.parse_errors, 1);
        assert!(lines[0].contains("exceeds"), "{}", lines[0]);
        // The follow-up request parsed fine (unknown tenant, but the
        // protocol understood it — proof the stream re-synchronized).
        assert!(lines[1].contains("unknown tenant 5"), "{}", lines[1]);
    }

    #[test]
    fn unterminated_final_line_is_still_served() {
        let (summary, lines) = run_lines("{\"op\":\"query\",\"tenant\":9}", 4);
        assert_eq!(summary.requests, 1);
        assert!(lines[0].contains("unknown tenant 9"));
    }
}
