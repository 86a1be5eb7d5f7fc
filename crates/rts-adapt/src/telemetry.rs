//! The telemetry spine: lock-free latency histograms, lifecycle stage
//! accounting, and a bounded worst-N slow-request ring.
//!
//! # Why
//!
//! The reactor sustains ~126 k req/s over loopback TCP at one
//! connection but only ~48–53 k at 64–1024 connections, and until now
//! the diagnosis ("the per-connection syscall fan-out is the ceiling")
//! was guesswork: nothing attributed a request's latency to the stage
//! that spent it. This module gives every request a stage breakdown —
//! accept → read/parse → enqueue → dequeue → solve → persist → respond
//! → flush —
//! recorded into merge-able histograms that the `{"op":"metrics"}` verb
//! (see [`crate::proto::render_metrics`]) exposes on every reactor
//! connection, TCP or the stdin bridge.
//!
//! # Histogram layout
//!
//! [`Histogram`] is log2-major × 16-linear-sub-bucket over nanosecond
//! values (the HdrHistogram trick at its cheapest): values below 16
//! index identically, larger values split their power-of-two range into
//! 16 linear sub-buckets, and everything past 2^41 ns (~37 minutes)
//! saturates into the top bucket. Quantiles return the *upper edge* of
//! the bucket holding the rank, so the relative error is bounded by
//! 1/16 ≈ 6.25 % and — crucially — a quantile of a merged histogram is
//! a pure function of the summed bucket counts: merging is element-wise
//! addition, associative and commutative, so per-shard histograms
//! combine into one fleet view without ordering sensitivity.
//!
//! [`AtomicHistogram`] is the shared writer: relaxed atomic adds on the
//! hot path (one `fetch_add` per bucket hit; monitoring telemetry, not
//! synchronization), snapshotted into a plain [`Histogram`] for
//! rendering. The registry keeps [`STRIPE_COUNT`] independent stripes
//! of stage histograms and assigns each recording thread its own (a
//! one-time thread-local draw), so shard workers never contend on a
//! cache line: without striping the count/sum/max words ping-pong
//! between worker cores on every request and the telemetry tax blows
//! through its ≤2 % budget. A snapshot merges the stripes — which is
//! exactly the associative element-wise merge the histogram is built
//! around.
//!
//! # Timestamp discipline
//!
//! All stamps come from one process clock: a monotonic [`Instant`]
//! anchor captured when the [`Telemetry`] registry is built, read via
//! [`Telemetry::now_ns`]. The reactor reads the clock **once per poll
//! iteration** and reuses that tick for every event in the pass. No
//! wall-clock (`SystemTime`) reads happen anywhere on the hot path.
//! When the registry is built disabled ([`Telemetry::off`]) `now_ns`
//! returns 0 without touching the clock and every record call is a
//! single predictable branch — the runtime-off path the ≤2 % overhead
//! budget is pinned against (see `service_bench --overhead-budget`).
//!
//! # Trace sampling
//!
//! The front-side stages whose stamps are free (accept and parse reuse
//! the reactor's pass tick) are recorded for **every** request. The
//! stages that need their own clock reads — queue/solve/persist in the
//! shard workers, and the respond/flush/total chain plus the slow ring
//! that hang off the worker's stamps — follow a deterministic 1-in-
//! [`TRACE_SAMPLE`] sample (a per-worker round-robin, so it cannot
//! alias tenant or batch structure). The arithmetic forces this: one
//! `clock_gettime` is ~40 ns on the benchmark container, and the
//! in-process solve path serves a request every ~2.1 µs, so even a
//! single per-request clock read costs ~2 % of throughput — the whole
//! budget. Sampling an unbiased 1-in-8 keeps the histograms faithful
//! (quantiles of a uniform sample estimate the population's) at an
//! amortized cost well under 1 %; stage `count` fields are therefore
//! *sample* counts, not request counts.
//!
//! # Slow-request ring
//!
//! The worst [`SLOW_RING_CAPACITY`] requests by total (read→flush)
//! latency are kept with their full stage breakdown. The ring is a
//! mutex-guarded array, but the lock is only taken when a request's
//! total beats the current floor (a relaxed atomic read), so in steady
//! state almost every request skips it.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Linear sub-bucket bits per power-of-two major bucket.
const SUB_BITS: u32 = 4;

/// Sub-buckets per major (`1 << SUB_BITS`).
const SUBS: u64 = 1 << SUB_BITS;

/// Largest tracked most-significant-bit position; values whose MSB
/// exceeds this saturate into the top bucket (2^41 ns ≈ 37 min — any
/// honest request latency fits).
const MAX_MAJOR: u32 = 40;

/// Total bucket count: 16 identity buckets for values < 16, then 16
/// sub-buckets for each major in `SUB_BITS..=MAX_MAJOR`.
pub const BUCKETS: usize = (SUBS as usize) * ((MAX_MAJOR - SUB_BITS) as usize + 2);

/// Worst-N slow-request ring capacity.
pub const SLOW_RING_CAPACITY: usize = 16;

/// Deterministic trace-sampling period: 1 in this many requests (per
/// shard worker, round-robin starting with the first) carries the full
/// queue→solve→respond→flush stamp chain and is offered to the slow
/// ring. Power of two so the sample check is a single mask; see the
/// module docs for why per-request clock reads are unaffordable on the
/// solve path.
pub const TRACE_SAMPLE: u64 = 8;

/// Independent writer stripes per stage registry. Each recording
/// thread draws one stripe (thread-local, process-wide round-robin) so
/// concurrent writers — shard workers, the reactor thread, connection
/// threads — land on distinct cache lines; snapshots merge all
/// stripes. Eight covers the worker counts this crate deploys; a
/// collision only costs contention, never correctness.
pub const STRIPE_COUNT: usize = 8;

/// Round-robin source for thread stripe assignments.
static NEXT_WRITER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe index, drawn once on first record.
    static WRITER_STRIPE: usize =
        NEXT_WRITER.fetch_add(1, Ordering::Relaxed) % STRIPE_COUNT;
}

/// The bucket a nanosecond value lands in. Monotone non-decreasing in
/// the value; exact below 16; relative width 1/16 above.
fn bucket_index(value: u64) -> usize {
    if value < SUBS {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    if msb > MAX_MAJOR {
        return BUCKETS - 1;
    }
    let sub = ((value >> (msb - SUB_BITS)) & (SUBS - 1)) as usize;
    ((msb - SUB_BITS) as usize + 1) * SUBS as usize + sub
}

/// The inclusive upper edge of bucket `index` — what quantiles report.
fn bucket_bound(index: usize) -> u64 {
    if index < SUBS as usize {
        return index as u64;
    }
    let major = (index / SUBS as usize - 1) as u32 + SUB_BITS;
    let sub = (index % SUBS as usize) as u64;
    ((SUBS + sub + 1) << (major - SUB_BITS)) - 1
}

/// A point-in-time latency distribution: plain counters, cheap to
/// clone, merged by element-wise addition. Produced by
/// [`AtomicHistogram::snapshot`] or built directly in tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty distribution.
    #[must_use]
    pub fn new() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one nanosecond value. The tracked max is the upper edge
    /// of the highest occupied bucket — the same ≤6.25 % error as
    /// quantiles — so the plain and atomic recorders agree exactly and
    /// the atomic hot path needs no third read-modify-write.
    pub fn record(&mut self, value_ns: u64) {
        let index = bucket_index(value_ns);
        self.buckets[index] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value_ns);
        self.max = self.max.max(bucket_bound(index));
    }

    /// Adds `other` into `self` element-wise. Associative and
    /// commutative, so cross-shard merge order never changes a
    /// quantile.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Recorded value count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded nanoseconds (saturating).
    #[must_use]
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value in nanoseconds.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// Mean recorded value in nanoseconds (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper edge of the bucket
    /// holding rank `ceil(q * count)`. Deterministic, ≤6.25 % relative
    /// error, 0 when empty.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_bound(index);
            }
        }
        bucket_bound(BUCKETS - 1)
    }

    /// Cumulative count of values at or below `bound_ns` (bucket
    /// granularity: a bucket counts as below iff its upper edge is).
    /// Feeds the Prometheus `le` ladder.
    #[must_use]
    pub fn count_le_ns(&self, bound_ns: u64) -> u64 {
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            if bucket_bound(index) > bound_ns {
                break;
            }
            seen += bucket;
        }
        seen
    }
}

/// The shared-writer histogram: relaxed atomic bucket counters safe to
/// record into from every shard worker and the reactor thread at once.
/// The hot path is exactly two relaxed read-modify-writes (bucket and
/// sum); count and max are derived from the buckets at snapshot time,
/// which is what keeps the per-request telemetry tax inside its ≤2 %
/// budget on the solve path.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty shared histogram.
    #[must_use]
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond value (relaxed; monitoring telemetry,
    /// not synchronization).
    pub fn record(&self, value_ns: u64) {
        self.buckets[bucket_index(value_ns)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_ns, Ordering::Relaxed);
    }

    /// A point-in-time copy. Concurrent recording keeps the copy
    /// merely approximate (sum may trail a bucket add), which is fine
    /// for monitoring and exact once writers quiesce.
    #[must_use]
    pub fn snapshot(&self) -> Histogram {
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let mut count = 0u64;
        let mut max = 0u64;
        for (index, &bucket) in buckets.iter().enumerate() {
            count += bucket;
            if bucket > 0 {
                max = bucket_bound(index);
            }
        }
        Histogram {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max,
        }
    }
}

/// One lifecycle stage of a served request. The wire lifecycle is
/// accept → read → parse/enqueue → dequeue → solve → persist → respond
/// → flush; each variant names the interval ending at that point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Connection accepted → first readable data (per connection, not
    /// per request).
    Accept,
    /// Request bytes read off the socket → line parsed and enqueued
    /// toward a shard. Zero when both happen in one reactor pass;
    /// grows under read backpressure — this stage is the pause
    /// hysteresis made visible.
    Parse,
    /// Enqueued toward a shard → dequeued by its worker (queue wait).
    Queue,
    /// Dequeued → engine verdict produced (solver + memo time).
    Solve,
    /// Verdict produced → its group commit finished (the rest of the
    /// group's requests, then one fsync per touched journal file).
    /// Recorded only by journaling workers.
    Persist,
    /// Group commit finished (the verdict, without a journal) →
    /// response routed into the connection's write queue
    /// (worker→reactor hand-back, includes the waker hop).
    Respond,
    /// Routed → response bytes handed to the kernel (write-syscall
    /// cost plus any writability wait — the fan-in suspect).
    Flush,
    /// Read → flush: the whole in-service residence time.
    Total,
}

/// Number of lifecycle stages.
pub const STAGE_COUNT: usize = 8;

impl Stage {
    /// Every stage, in lifecycle order — the canonical iteration and
    /// rendering order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Accept,
        Stage::Parse,
        Stage::Queue,
        Stage::Solve,
        Stage::Persist,
        Stage::Respond,
        Stage::Flush,
        Stage::Total,
    ];

    /// The stable wire name of this stage (metric catalog key).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accept => "accept",
            Stage::Parse => "parse",
            Stage::Queue => "queue",
            Stage::Solve => "solve",
            Stage::Persist => "persist",
            Stage::Respond => "respond",
            Stage::Flush => "flush",
            Stage::Total => "total",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Accept => 0,
            Stage::Parse => 1,
            Stage::Queue => 2,
            Stage::Solve => 3,
            Stage::Persist => 4,
            Stage::Respond => 5,
            Stage::Flush => 6,
            Stage::Total => 7,
        }
    }
}

/// One slow request's full stage breakdown, as kept by the worst-N
/// ring and dumped by the metrics verb.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlowRequest {
    /// Tenant the request addressed.
    pub tenant: u64,
    /// The reactor's connection slot (the stdin bridge is slot 0).
    pub conn: u64,
    /// Per-connection sequence number.
    pub seq: u64,
    /// Read → enqueue nanoseconds.
    pub parse_ns: u64,
    /// Enqueue → dequeue nanoseconds.
    pub queue_ns: u64,
    /// Dequeue → verdict nanoseconds.
    pub solve_ns: u64,
    /// Verdict → group-commit-done nanoseconds (0 without a journal).
    pub persist_ns: u64,
    /// Commit → routed-to-connection nanoseconds.
    pub respond_ns: u64,
    /// Routed → bytes-handed-to-kernel nanoseconds.
    pub flush_ns: u64,
    /// Read → flush nanoseconds (the ring's ranking key).
    pub total_ns: u64,
}

/// A compact per-stage summary (what `service_bench` emits into
/// `BENCH_service.json` and what the metrics verb renders per stage).
#[derive(Clone, Debug, PartialEq)]
pub struct StageSummary {
    /// Stage wire name (see [`Stage::name`]).
    pub stage: String,
    /// Recorded interval count.
    pub count: u64,
    /// Median, microseconds.
    pub p50_us: f64,
    /// 90th percentile, microseconds.
    pub p90_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Worst recorded interval, microseconds.
    pub max_us: f64,
    /// Mean, microseconds.
    pub mean_us: f64,
}

impl StageSummary {
    /// Summarizes `histogram` under `name`.
    #[must_use]
    pub fn of(name: &str, histogram: &Histogram) -> Self {
        StageSummary {
            stage: name.to_string(),
            count: histogram.count(),
            p50_us: histogram.quantile_ns(0.50) as f64 / 1000.0,
            p90_us: histogram.quantile_ns(0.90) as f64 / 1000.0,
            p99_us: histogram.quantile_ns(0.99) as f64 / 1000.0,
            max_us: histogram.max_ns() as f64 / 1000.0,
            mean_us: histogram.mean_ns() / 1000.0,
        }
    }
}

/// The per-pool telemetry registry: the monotonic tick source, one
/// shared histogram per lifecycle stage, and the slow-request ring.
/// One instance is owned by a [`ShardedEngine`](crate::shard::ShardedEngine)
/// and shared (via `Arc`) with its workers and whichever serving front
/// pumps it — so worker-side stages (queue/solve) and front-side
/// stages (accept/parse/respond/flush) land in one registry and one
/// report.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    anchor: Instant,
    stripes: Vec<StageStripe>,
    slow_floor: AtomicU64,
    slow: Mutex<Vec<SlowRequest>>,
}

/// One writer stripe: a full set of stage histograms owned (in
/// practice) by a single recording thread. Cache-line aligned so
/// adjacent stripes' hot words never share a line.
#[derive(Debug)]
#[repr(align(64))]
struct StageStripe {
    stages: [AtomicHistogram; STAGE_COUNT],
}

impl Telemetry {
    /// An enabled registry (the default for every pool).
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Telemetry::build(true))
    }

    /// A disabled registry: [`Telemetry::now_ns`] returns 0 without a
    /// clock read and every record call is one predictable branch.
    /// This is the runtime-off path the ≤2 % overhead budget measures
    /// against.
    #[must_use]
    pub fn off() -> Arc<Self> {
        Arc::new(Telemetry::build(false))
    }

    fn build(enabled: bool) -> Self {
        let stripes = if enabled { STRIPE_COUNT } else { 0 };
        Telemetry {
            enabled,
            anchor: Instant::now(),
            stripes: (0..stripes)
                .map(|_| StageStripe {
                    stages: std::array::from_fn(|_| AtomicHistogram::new()),
                })
                .collect(),
            slow_floor: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
        }
    }

    /// Whether stamps are being taken at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the registry's monotonic anchor; 0 (no clock
    /// read) when disabled. All stage math is differences of these, so
    /// the anchor itself cancels out.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        u64::try_from(self.anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one interval into `stage`'s histogram on this thread's
    /// stripe (no-op when disabled).
    pub fn record_stage(&self, stage: Stage, interval_ns: u64) {
        if self.enabled {
            let stripe = WRITER_STRIPE.with(|s| *s);
            self.stripes[stripe].stages[stage.index()].record(interval_ns);
        }
    }

    /// A point-in-time copy of one stage's distribution, merged across
    /// all writer stripes.
    #[must_use]
    pub fn stage_snapshot(&self, stage: Stage) -> Histogram {
        let mut merged = Histogram::new();
        for stripe in &self.stripes {
            merged.merge(&stripe.stages[stage.index()].snapshot());
        }
        merged
    }

    /// Point-in-time copies of all stage distributions, in
    /// [`Stage::ALL`] order.
    #[must_use]
    pub fn stage_snapshots(&self) -> Vec<(Stage, Histogram)> {
        Stage::ALL
            .iter()
            .map(|&stage| (stage, self.stage_snapshot(stage)))
            .collect()
    }

    /// Compact summaries of all stages, in [`Stage::ALL`] order.
    #[must_use]
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        Stage::ALL
            .iter()
            .map(|&stage| StageSummary::of(stage.name(), &self.stage_snapshot(stage)))
            .collect()
    }

    /// Offers a finished request to the worst-N ring. Cheap rejection:
    /// a relaxed floor read keeps the mutex untouched unless the
    /// request beats the current 16th-worst total.
    pub fn offer_slow(&self, entry: SlowRequest) {
        if !self.enabled || entry.total_ns < self.slow_floor.load(Ordering::Relaxed) {
            return;
        }
        let mut ring = self.slow.lock().expect("slow ring poisoned");
        if ring.len() < SLOW_RING_CAPACITY {
            ring.push(entry);
        } else {
            let (worst_index, worst) = ring
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.total_ns)
                .expect("ring non-empty");
            if entry.total_ns <= worst.total_ns {
                return;
            }
            ring[worst_index] = entry;
        }
        if ring.len() == SLOW_RING_CAPACITY {
            let floor = ring
                .iter()
                .map(|e| e.total_ns)
                .min()
                .expect("ring non-empty");
            self.slow_floor.store(floor, Ordering::Relaxed);
        }
    }

    /// The current ring contents, worst first (ties broken by
    /// tenant/seq for deterministic rendering).
    #[must_use]
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        let mut ring = self.slow.lock().expect("slow ring poisoned").clone();
        ring.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.tenant.cmp(&b.tenant))
                .then(a.seq.cmp(&b.seq))
        });
        ring
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64 — deterministic stream without a rand dependency.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_bound_tight() {
        let mut prev = 0usize;
        let mut value = 0u64;
        while value < 1 << 45 {
            let index = bucket_index(value);
            assert!(index >= prev, "index regressed at {value}");
            assert!(index < BUCKETS);
            // The reported bound never understates the value (within
            // the saturated range) and overstates by less than 1/16.
            let bound = bucket_bound(index);
            if value < (1 << (MAX_MAJOR + 1)) {
                assert!(bound >= value, "bound {bound} < value {value}");
                if value >= SUBS {
                    assert!(
                        (bound - value) as f64 <= value as f64 / 8.0,
                        "bound {bound} too loose for {value}"
                    );
                }
            }
            prev = index;
            value = value * 2 + 1;
        }
        // Dense scan: indices never regress and bounds never
        // understate across a contiguous range either.
        let mut prev = 0usize;
        for value in 0..200_000u64 {
            let index = bucket_index(value);
            assert!(index >= prev);
            assert!(bucket_bound(index) >= value);
            prev = index;
        }
    }

    #[test]
    fn known_quantile_stream_within_bucket_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 10_000);
        // Max is the occupied bucket's upper edge: never understates,
        // overstates by less than 1/16.
        assert!(
            h.max_ns() >= 10_000 && h.max_ns() <= 10_625,
            "{}",
            h.max_ns()
        );
        for (q, exact) in [(0.50, 5_000.0), (0.90, 9_000.0), (0.99, 9_900.0)] {
            let got = h.quantile_ns(q) as f64;
            let err = (got - exact).abs() / exact;
            assert!(err <= 0.0625, "q{q}: got {got}, want ~{exact}, err {err}");
            assert!(got >= exact, "upper-edge quantile must not understate");
        }
        assert_eq!(h.quantile_ns(1.0), h.quantile_ns(0.9999));
    }

    #[test]
    fn merge_is_associative_commutative_and_rank_preserving() {
        let mut streams = Vec::new();
        let mut rng = Mix(0xADA0);
        for _ in 0..3 {
            let mut h = Histogram::new();
            for _ in 0..5_000 {
                h.record(rng.next() % 1_000_000);
            }
            streams.push(h);
        }
        let (a, b, c) = (&streams[0], &streams[1], &streams[2]);

        let mut left = a.clone();
        left.merge(b);
        left.merge(c);

        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);

        let mut swapped = c.clone();
        swapped.merge(a);
        swapped.merge(b);

        assert_eq!(left, right);
        assert_eq!(left, swapped);

        // Merging equals having recorded the union stream directly.
        let mut rng = Mix(0xADA0);
        let mut union = Histogram::new();
        for _ in 0..15_000 {
            union.record(rng.next() % 1_000_000);
        }
        assert_eq!(left, union);
        assert_eq!(left.quantile_ns(0.99), union.quantile_ns(0.99));
    }

    #[test]
    fn top_bucket_saturates_without_panicking() {
        let mut h = Histogram::new();
        for v in [u64::MAX, u64::MAX / 2, 1 << 50, (1 << 42) + 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max_ns(), bucket_bound(BUCKETS - 1));
        // All four saturate into the same top bucket, so every
        // quantile reports the top bucket's bound.
        assert_eq!(h.quantile_ns(0.01), bucket_bound(BUCKETS - 1));
        assert_eq!(h.quantile_ns(1.0), bucket_bound(BUCKETS - 1));
        // A merged saturated histogram stays saturated.
        let mut other = Histogram::new();
        other.record(10);
        other.merge(&h);
        assert_eq!(other.count(), 5);
        assert_eq!(other.quantile_ns(0.10), 10);
    }

    #[test]
    fn atomic_and_plain_histograms_agree() {
        let atomic = AtomicHistogram::new();
        let mut plain = Histogram::new();
        let mut rng = Mix(7);
        for _ in 0..10_000 {
            let v = rng.next() % 50_000;
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn slow_ring_keeps_the_worst_n() {
        let telemetry = Telemetry::new();
        for total in 0..100u64 {
            telemetry.offer_slow(SlowRequest {
                tenant: total,
                seq: total,
                total_ns: total * 1_000,
                ..SlowRequest::default()
            });
        }
        let ring = telemetry.slow_requests();
        assert_eq!(ring.len(), SLOW_RING_CAPACITY);
        let totals: Vec<u64> = ring.iter().map(|e| e.total_ns).collect();
        let expect: Vec<u64> = (0..100u64)
            .rev()
            .take(SLOW_RING_CAPACITY)
            .map(|t| t * 1_000)
            .collect();
        assert_eq!(totals, expect);
    }

    /// Concurrent threads land on distinct stripes, and the snapshot's
    /// stripe merge reassembles exactly the union stream.
    #[test]
    fn striped_recording_merges_across_threads() {
        let telemetry = Telemetry::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let telemetry = &telemetry;
                scope.spawn(move || {
                    for i in 0..1_000u64 {
                        telemetry.record_stage(Stage::Solve, t * 1_000 + i);
                    }
                });
            }
        });
        let merged = telemetry.stage_snapshot(Stage::Solve);
        assert_eq!(merged.count(), 4_000);
        assert!(merged.max_ns() >= 3_999, "{}", merged.max_ns());
        assert_eq!(merged.sum_ns(), (0..4_000u64).sum::<u64>());
        assert_eq!(telemetry.stage_snapshot(Stage::Queue).count(), 0);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let telemetry = Telemetry::off();
        assert!(!telemetry.enabled());
        assert_eq!(telemetry.now_ns(), 0);
        telemetry.record_stage(Stage::Solve, 123);
        telemetry.offer_slow(SlowRequest {
            total_ns: 1 << 40,
            ..SlowRequest::default()
        });
        assert_eq!(telemetry.stage_snapshot(Stage::Solve).count(), 0);
        assert!(telemetry.slow_requests().is_empty());
    }
}
