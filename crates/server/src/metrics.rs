//! Live server metrics: request counters and per-phase latency
//! histograms.
//!
//! Counters are lock-free atomics bumped on the hot path; latency
//! samples go into one log-linear [`Histogram`] per phase, behind one
//! mutex that the worker and then the event loop each take once per
//! analyze request. [`Metrics::snapshot_json`]
//! renders the `stats` payload; each phase carries its window's sparse
//! buckets, so a fleet merges shards exactly by adding counts
//! ([`PhaseLatency::merge`]).
//!
//! The bucket layout is HdrHistogram's (Gil Tene,
//! <http://hdrhistogram.org>): 32 linear sub-buckets per power of two,
//! over whole microseconds. Values below 64 µs are exact; a larger
//! value's bucket is at most 1/32 of its lower bound wide. Values from
//! 2³² µs (~71 min, far past any request timeout) share the top bucket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use biv_core::{CacheGauges, FileGauges, StoreGauges};

use crate::json::Json;

/// Records per recency epoch. Percentiles cover the previous and the
/// current epoch: the last `WINDOW` to `2·WINDOW − 1` samples.
const WINDOW: u64 = 1024;

/// Linear sub-buckets per power of two.
const SUB_BUCKETS: u64 = 32;

/// Values below this have a bucket of their own.
const EXACT: u64 = 2 * SUB_BUCKETS;

/// The largest value with a bucket of its own range; larger values are
/// clamped to it.
const MAX_US: u64 = (1 << 32) - 1;

/// Buckets covering `0..=MAX_US`: the 64 exact ones, then 32 for each
/// power of two from 2⁶ to 2³¹ — 896 in all.
const BUCKETS: usize = (EXACT + (32 - 6) * SUB_BUCKETS) as usize;

/// The bucket holding `us` (the top one from `MAX_US` up).
fn bucket_index(us: u64) -> usize {
    let us = us.min(MAX_US);
    if us < EXACT {
        return us as usize;
    }
    let exp = u64::from(63 - us.leading_zeros()); // ≥ 6
    let sub = (us >> (exp - 5)) - SUB_BUCKETS; // the top six bits, less the leading one
    (EXACT + (exp - 6) * SUB_BUCKETS + sub) as usize
}

/// The smallest and largest value that fall into bucket `index`.
fn bucket_bounds(index: usize) -> (u64, u64) {
    let i = index as u64;
    if i < EXACT {
        return (i, i);
    }
    let shift = (i - EXACT) / SUB_BUCKETS + 1;
    let low = (SUB_BUCKETS + (i - EXACT) % SUB_BUCKETS) << shift;
    (low, low + ((1 << shift) - 1))
}

/// A fixed log-linear histogram of microsecond values. `record` is
/// O(1) and never allocates; `merge` gives exactly the histogram of
/// both sample sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
        }
    }
}

impl Histogram {
    /// Records one value, in microseconds.
    pub fn record(&mut self, us: u64) {
        self.counts[bucket_index(us)] += 1;
    }

    /// Adds every count of `other` into this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// How many values were recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0, |sum, &n| sum.saturating_add(n))
    }

    /// The nearest-rank `p`-th percentile (0–100): the lower bound of
    /// the bucket holding the ⌈p/100 · n⌉-th smallest value (rank 1 at
    /// `p = 0`). Exact below 64 µs, at most 1/32 low above; 0 when
    /// empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let rank = ((p.clamp(0.0, 100.0) / 100.0 * self.count() as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, &n) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_bounds(index).0;
            }
        }
        0
    }
}

/// One phase's latency as a `stats` snapshot reports it: lifetime
/// count, sum and maximum, plus the histogram of recent samples the
/// percentiles are read from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseLatency {
    /// Samples recorded over the lifetime.
    pub count: u64,
    /// Sum of every sample, in µs.
    pub sum_us: u64,
    /// Largest sample, in µs.
    pub max_us: u64,
    /// The recent samples.
    pub window: Histogram,
}

impl PhaseLatency {
    /// Renders the `latency.<phase>` stats object. `count`, `mean_us`
    /// and `max_us` are lifetime values, the percentiles cover the
    /// window, and `buckets` lists its non-empty buckets as sparse
    /// `[[index, count], …]` pairs.
    pub fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(v.min(i64::MAX as u64) as i64);
        let mean = self.sum_us.checked_div(self.count).unwrap_or(0);
        let buckets = self
            .window
            .counts
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0);
        let buckets = buckets.map(|(index, &n)| Json::Arr(vec![int(index as u64), int(n)]));
        Json::obj(vec![
            ("count", int(self.count)),
            ("mean_us", int(mean)),
            ("p50_us", int(self.window.percentile(50.0))),
            ("p90_us", int(self.window.percentile(90.0))),
            ("p99_us", int(self.window.percentile(99.0))),
            ("max_us", int(self.max_us)),
            ("buckets", Json::Arr(buckets.collect())),
        ])
    }

    /// Decodes [`PhaseLatency::to_json`] output from another process:
    /// missing or negative fields read as zero, and bucket pairs that
    /// are not two such integers naming a bucket are skipped. The
    /// lifetime sum comes back as `mean_us · count`, short by less than
    /// `count` µs.
    pub fn from_json(json: &Json) -> PhaseLatency {
        let int = |v: Option<&Json>| v.and_then(Json::as_i64).and_then(|v| u64::try_from(v).ok());
        let field = |key: &str| int(json.get(key)).unwrap_or(0);
        let mut window = Histogram::default();
        for pair in json.get("buckets").and_then(Json::as_arr).unwrap_or(&[]) {
            let at = |i: usize| int(pair.as_arr()?.get(i));
            let slot = at(0).and_then(|i| window.counts.get_mut(usize::try_from(i).ok()?));
            if let (Some(slot), Some(n)) = (slot, at(1)) {
                *slot = slot.saturating_add(n);
            }
        }
        PhaseLatency {
            count: field("count"),
            sum_us: field("mean_us").saturating_mul(field("count")),
            max_us: field("max_us"),
            window,
        }
    }

    /// Folds `other` in: counts and sums add, maxima take the larger,
    /// windows merge bucket by bucket.
    pub fn merge(&mut self, other: &PhaseLatency) {
        self.count = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
        self.window.merge(&other.window);
    }
}

/// The phases each analyze request records — the worker's in
/// [`PhaseSample`] field order, then the event loop's in [`LoopSample`]
/// field order. This is the order the `latency` stats object lists
/// them in.
pub const PHASES: [&str; 8] = [
    "queue_wait",
    "parse",
    "analyze",
    "render",
    "total",
    "decode",
    "complete",
    "encode",
];

/// The position of `total` in [`PHASES`].
const TOTAL: usize = 4;

/// The position of the first event-loop phase in [`PHASES`].
const LOOP: usize = 5;

/// One phase's recorder: lifetime aggregates plus two recency epochs.
#[derive(Debug, Default)]
struct PhaseRecorder {
    /// Lifetime aggregates; its window is the current epoch.
    latest: PhaseLatency,
    /// The epoch before the current one.
    previous: Histogram,
}

impl PhaseRecorder {
    fn record(&mut self, sample: Duration) {
        let us = sample.as_micros().min(i64::MAX as u128) as u64;
        let latest = &mut self.latest;
        latest.count += 1;
        latest.sum_us = latest.sum_us.saturating_add(us);
        latest.max_us = latest.max_us.max(us);
        latest.window.record(us);
        if latest.count.is_multiple_of(WINDOW) {
            std::mem::swap(&mut latest.window, &mut self.previous);
            latest.window.counts.fill(0);
        }
    }

    /// The lifetime aggregates, with a window of both epochs.
    fn snapshot(&self) -> PhaseLatency {
        let mut snapshot = self.latest.clone();
        snapshot.window.merge(&self.previous);
        snapshot
    }
}

/// One analyze request's phase durations inside the worker, recorded
/// atomically when the worker finishes, so a `stats` probe never sees a
/// half-recorded worker sample.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSample {
    /// Time spent queued.
    pub queue_wait: Duration,
    /// Time parsing.
    pub parse: Duration,
    /// Time classifying.
    pub analyze: Duration,
    /// Time rendering.
    pub render: Duration,
    /// Time from submission to the worker's reply.
    pub total: Duration,
}

/// One analyze request's phase durations inside the event loop,
/// recorded together when its reply is framed. Only replies delivered
/// in time are recorded, so these counts can trail the worker's by the
/// late results.
#[derive(Debug, Clone, Copy)]
pub struct LoopSample {
    /// Frame payload to [`crate::proto::Request`].
    pub decode: Duration,
    /// The worker's reply to the loop taking it off the completion
    /// queue.
    pub complete: Duration,
    /// [`crate::proto::Response`] to frame bytes in the write buffer.
    pub encode: Duration,
}

/// Shared server metrics, zeroed by `default()`. One instance per
/// server, shared by reference.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Total request frames decoded successfully.
    pub requests: AtomicU64,
    /// Analyze requests accepted into the bounded queue (preloads and
    /// replica pushes are not counted). Once counted here, a request is
    /// always analyzed and answered — drain included.
    pub analyze_accepted: AtomicU64,
    /// Analyze requests completed (responded, success or per-file errors).
    pub analyze_ok: AtomicU64,
    /// Requests rejected with `busy` backpressure.
    pub rejected_busy: AtomicU64,
    /// Requests that hit the wall-clock timeout before a worker answered.
    pub timeouts: AtomicU64,
    /// Worker results discarded because their request had already timed
    /// out or its connection vanished (the recovery path).
    pub late_results: AtomicU64,
    /// Malformed frames answered with `bad-request`.
    pub bad_requests: AtomicU64,
    /// Functions submitted across all analyze requests.
    pub functions: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Jobs whose analysis panicked inside a worker; each is answered
    /// with an `internal` error response, never dropped.
    pub worker_panics: AtomicU64,
    /// Worker threads that died and were replaced by the event loop.
    pub workers_respawned: AtomicU64,
    /// Summaries committed from replica write-through pushes (the
    /// receiving side of R-way replication).
    pub replica_received: AtomicU64,
    /// One recorder per [`PHASES`] entry.
    phases: Mutex<[PhaseRecorder; PHASES.len()]>,
}

impl Metrics {
    /// Records one completed analyze request's worker phase times.
    pub fn record_phases(&self, sample: PhaseSample) {
        self.record(
            0,
            [
                sample.queue_wait,
                sample.parse,
                sample.analyze,
                sample.render,
                sample.total,
            ],
        );
    }

    /// Records one answered analyze request's event-loop phase times.
    pub fn record_loop_phases(&self, sample: LoopSample) {
        self.record(LOOP, [sample.decode, sample.complete, sample.encode]);
    }

    /// Records `durations` into the phases from index `first` on, under
    /// one lock.
    fn record<const N: usize>(&self, first: usize, durations: [Duration; N]) {
        let mut phases = self.phases.lock().expect("metrics poisoned");
        for (phase, duration) in phases[first..].iter_mut().zip(durations) {
            phase.record(duration);
        }
    }

    /// The recent end-to-end latencies — the backpressure
    /// `retry_after_ms` estimator's input.
    pub fn total_window(&self) -> Histogram {
        self.phases.lock().expect("metrics poisoned")[TOTAL]
            .snapshot()
            .window
    }

    /// Renders every counter and per-phase histogram summary, plus the
    /// caller-supplied queue and cache gauges, as the `stats` payload.
    /// The `store` object appears only when the server fronts a durable
    /// store (`--cache-dir`); memory-only deployments omit the key
    /// entirely rather than reporting zeros that look like data.
    ///
    /// The shard fields are always present so fleet aggregation never
    /// branches on their absence: a single-process deployment reports
    /// `shard_id: 0, shard_count: 1`. `uptime_ms` is monotonic
    /// (measured from an [`std::time::Instant`], not the wall clock),
    /// so an aggregator polling the fleet can detect a restarted shard
    /// as an uptime regression even when every counter happens to look
    /// plausible.
    pub fn snapshot_json(
        &self,
        queue_depth: usize,
        queue_capacity: usize,
        tiers: TierGauges,
        workers: usize,
        shard: ShardInfo,
    ) -> Json {
        let phases = self.phases.lock().expect("metrics poisoned");
        let load = |c: &AtomicU64| Json::Int(c.load(Ordering::Relaxed) as i64);
        let mut fields = vec![
            ("shard_id", Json::Int(i64::from(shard.shard_id))),
            ("shard_count", Json::Int(i64::from(shard.shard_count))),
            (
                "uptime_ms",
                Json::Int(shard.uptime.as_millis().min(i64::MAX as u128) as i64),
            ),
            (
                "requests",
                Json::obj(vec![
                    ("total", load(&self.requests)),
                    ("analyze_accepted", load(&self.analyze_accepted)),
                    ("analyze_ok", load(&self.analyze_ok)),
                    ("rejected_busy", load(&self.rejected_busy)),
                    ("timeouts", load(&self.timeouts)),
                    ("late_results", load(&self.late_results)),
                    ("bad_requests", load(&self.bad_requests)),
                    ("functions", load(&self.functions)),
                    ("connections", load(&self.connections)),
                    ("worker_panics", load(&self.worker_panics)),
                    ("workers_respawned", load(&self.workers_respawned)),
                    ("replica_received", load(&self.replica_received)),
                ]),
            ),
            (
                "queue",
                Json::obj(vec![
                    ("depth", Json::Int(queue_depth as i64)),
                    ("capacity", Json::Int(queue_capacity as i64)),
                ]),
            ),
            ("cache", cache_json(&tiers.cache)),
            ("files", files_json(&tiers.files)),
            ("workers", Json::Int(workers as i64)),
            (
                "latency",
                Json::obj(
                    PHASES
                        .into_iter()
                        .zip(phases.iter())
                        .map(|(name, phase)| (name, phase.snapshot().to_json()))
                        .collect(),
                ),
            ),
        ];
        if let Some(s) = tiers.store {
            fields.insert(7, ("store", store_json(&s)));
        }
        Json::obj(fields)
    }
}

/// The gauges of a server's cache layers, as one stats snapshot
/// renders them.
#[derive(Debug, Clone, Copy)]
pub struct TierGauges {
    /// The memory tier (`cache`).
    pub cache: CacheGauges,
    /// The file index (`files`).
    pub files: FileGauges,
    /// The durable tier (`store`), when one is attached.
    pub store: Option<StoreGauges>,
}

/// A server's fleet identity and age, rendered into every stats
/// snapshot. Single-process servers use [`ShardInfo::single`].
#[derive(Debug, Clone, Copy)]
pub struct ShardInfo {
    /// This server's shard id, `0 ≤ shard_id < shard_count`.
    pub shard_id: u32,
    /// The fleet size this server was started for.
    pub shard_count: u32,
    /// Monotonic time since the server started serving.
    pub uptime: Duration,
}

impl ShardInfo {
    /// The identity of a server outside any fleet: shard 0 of 1.
    pub fn single(uptime: Duration) -> ShardInfo {
        ShardInfo {
            shard_id: 0,
            shard_count: 1,
            uptime,
        }
    }
}

/// Renders memory-tier gauges as the `cache` stats object; shared by
/// the daemon's `stats` endpoint and `bivc --stats-json` so dashboards
/// see one schema.
pub fn cache_json(c: &CacheGauges) -> Json {
    Json::obj(vec![
        ("hits", Json::Int(c.hits as i64)),
        ("misses", Json::Int(c.misses as i64)),
        ("evictions", Json::Int(c.evictions as i64)),
        ("entries", Json::Int(c.entries as i64)),
        ("capacity", Json::Int(c.capacity as i64)),
    ])
}

/// Renders a file index's gauges as the daemon's `files` stats object.
/// `bivc --stats-json` has no file index and omits the key.
fn files_json(f: &FileGauges) -> Json {
    Json::obj(vec![
        ("entries", Json::Int(f.entries as i64)),
        ("functions", Json::Int(f.functions as i64)),
        ("capacity", Json::Int(f.capacity as i64)),
        ("hits", Json::Int(f.hits as i64)),
        ("misses", Json::Int(f.misses as i64)),
    ])
}

/// Renders durable-store gauges as the `store` stats object; shared by
/// the daemon's `stats` endpoint and `bivc --stats-json` so dashboards
/// see one schema.
pub fn store_json(s: &StoreGauges) -> Json {
    Json::obj(vec![
        ("disk_hits", Json::Int(s.disk_hits as i64)),
        ("disk_misses", Json::Int(s.disk_misses as i64)),
        ("records_live", Json::Int(s.records_live as i64)),
        ("records_garbage", Json::Int(s.records_garbage as i64)),
        ("compactions", Json::Int(s.compactions as i64)),
        (
            "corrupt_records_skipped",
            Json::Int(s.corrupt_records_skipped as i64),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_counters_and_phases() {
        let m = Metrics::default();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.functions.fetch_add(12, Ordering::Relaxed);
        for ms in [2u64, 4, 6] {
            m.record_phases(PhaseSample {
                queue_wait: Duration::from_millis(1),
                parse: Duration::from_millis(ms),
                analyze: Duration::from_millis(10 * ms),
                render: Duration::from_micros(100),
                total: Duration::from_millis(11 * ms + 1),
            });
        }
        let json = m.snapshot_json(
            2,
            64,
            TierGauges {
                cache: CacheGauges {
                    hits: 7,
                    misses: 5,
                    evictions: 1,
                    entries: 5,
                    capacity: 4096,
                },
                files: FileGauges::default(),
                store: None,
            },
            4,
            ShardInfo::single(Duration::from_millis(1234)),
        );
        // The fleet-identity fields are always present, defaulting to
        // the single-process identity 0/1.
        assert_eq!(json.get("shard_id").unwrap().as_i64(), Some(0));
        assert_eq!(json.get("shard_count").unwrap().as_i64(), Some(1));
        assert_eq!(json.get("uptime_ms").unwrap().as_i64(), Some(1234));
        let req = json.get("requests").unwrap();
        assert_eq!(req.get("total").unwrap().as_i64(), Some(3));
        assert_eq!(req.get("functions").unwrap().as_i64(), Some(12));
        assert_eq!(
            json.get("queue").unwrap().get("depth").unwrap().as_i64(),
            Some(2)
        );
        assert_eq!(
            json.get("cache").unwrap().get("hits").unwrap().as_i64(),
            Some(7)
        );
        let analyze = json.get("latency").unwrap().get("analyze").unwrap();
        assert_eq!(analyze.get("count").unwrap().as_i64(), Some(3));
        let p50 = analyze.get("p50_us").unwrap().as_i64().unwrap() as u64;
        let (low, high) = bucket_bounds(bucket_index(40_000));
        assert!(
            (low..=high).contains(&p50),
            "p50 {p50} outside [{low}, {high}]"
        );
        assert_eq!(analyze.get("max_us").unwrap().as_i64(), Some(60_000));
        assert_eq!(analyze.get("mean_us").unwrap().as_i64(), Some(40_000));
        assert_eq!(analyze.get("buckets").unwrap().as_arr().unwrap().len(), 3);
        // The snapshot is valid JSON end to end.
        assert_eq!(Json::parse(&json.to_text()).unwrap(), json);
        // Memory-only deployments omit the store object entirely.
        assert!(json.get("store").is_none());
    }

    #[test]
    fn store_gauges_render_when_a_durable_tier_exists() {
        let m = Metrics::default();
        let gauges = StoreGauges {
            disk_hits: 11,
            disk_misses: 3,
            records_live: 8,
            records_garbage: 2,
            compactions: 1,
            corrupt_records_skipped: 1,
        };
        let json = m.snapshot_json(
            0,
            64,
            TierGauges {
                cache: CacheGauges {
                    hits: 0,
                    misses: 0,
                    evictions: 0,
                    entries: 0,
                    capacity: 4096,
                },
                files: FileGauges::default(),
                store: Some(gauges),
            },
            2,
            ShardInfo {
                shard_id: 2,
                shard_count: 3,
                uptime: Duration::from_secs(7),
            },
        );
        assert_eq!(json.get("shard_id").unwrap().as_i64(), Some(2));
        assert_eq!(json.get("shard_count").unwrap().as_i64(), Some(3));
        assert_eq!(json.get("uptime_ms").unwrap().as_i64(), Some(7000));
        let store = json.get("store").expect("store object present");
        assert_eq!(store.get("disk_hits").unwrap().as_i64(), Some(11));
        assert_eq!(store.get("disk_misses").unwrap().as_i64(), Some(3));
        assert_eq!(store.get("records_live").unwrap().as_i64(), Some(8));
        assert_eq!(store.get("records_garbage").unwrap().as_i64(), Some(2));
        assert_eq!(store.get("compactions").unwrap().as_i64(), Some(1));
        assert_eq!(
            store.get("corrupt_records_skipped").unwrap().as_i64(),
            Some(1)
        );
        assert_eq!(Json::parse(&json.to_text()).unwrap(), json);
    }

    #[test]
    fn total_p50_feeds_backpressure() {
        let m = Metrics::default();
        assert_eq!(m.total_window().count(), 0);
        for ms in 1..=9 {
            m.record_phases(PhaseSample {
                queue_wait: Duration::ZERO,
                parse: Duration::ZERO,
                analyze: Duration::ZERO,
                render: Duration::ZERO,
                total: Duration::from_millis(ms),
            });
        }
        let total = m.total_window();
        assert_eq!(total.count(), 9);
        let p50 = total.percentile(50.0);
        let (low, high) = bucket_bounds(bucket_index(5_000));
        assert!(
            (low..=high).contains(&p50),
            "p50 {p50} outside [{low}, {high}]"
        );
    }

    #[test]
    fn buckets_are_contiguous_exact_below_64_and_within_a_32nd() {
        for us in 0..EXACT {
            assert_eq!(bucket_bounds(bucket_index(us)), (us, us));
        }
        // Every bucket starts right after the previous one ends, so the
        // index is monotonic in the value and covers 0..=MAX_US.
        let mut next = 0u64;
        for index in 0..BUCKETS {
            let (low, high) = bucket_bounds(index);
            assert_eq!(low, next, "gap before bucket {index}");
            assert_eq!(bucket_index(low), index);
            assert_eq!(bucket_index(high), index);
            next = high + 1;
        }
        assert_eq!(BUCKETS, 896);
        assert_eq!(next, 1 << 32, "the last bucket ends at MAX_US");
        // Past it, everything clamps into the last bucket.
        for us in [MAX_US + 1, 36_000_000_000, u64::MAX] {
            assert_eq!(bucket_index(us), BUCKETS - 1, "{us}");
        }
        // A sweep up to MAX_US: each value's bucket is at most 1/32 of
        // its lower bound wide.
        let mut us = EXACT;
        while us <= MAX_US {
            let (low, high) = bucket_bounds(bucket_index(us));
            assert!(low <= us && us <= high);
            assert!(
                (high - low + 1) * SUB_BUCKETS <= low,
                "{us}: [{low}, {high}]"
            );
            us += us / 97 + 1;
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(50.0), 0, "empty reads zero");
        for us in (1..=60).rev() {
            h.record(us);
        }
        assert_eq!(h.percentile(0.0), 1);
        assert_eq!(h.percentile(50.0), 30);
        assert_eq!(h.percentile(90.0), 54);
        assert_eq!(h.percentile(99.0), 60);
        assert_eq!(h.percentile(100.0), 60);
    }

    #[test]
    fn an_old_spike_leaves_the_window_after_two_epochs_but_not_the_max() {
        let floor = |us| bucket_bounds(bucket_index(us)).0;
        let mut phase = PhaseRecorder::default();
        phase.record(Duration::from_secs(10));
        for _ in 1..WINDOW {
            phase.record(Duration::from_millis(1));
        }
        // The spike's epoch is now the previous one: still in the window.
        assert_eq!(phase.snapshot().window.percentile(100.0), floor(10_000_000));
        for _ in 0..WINDOW {
            phase.record(Duration::from_millis(1));
        }
        let s = phase.snapshot();
        assert_eq!(s.count, 2 * WINDOW);
        assert_eq!(s.window.count(), WINDOW, "two full epochs rotated");
        assert_eq!(s.window.percentile(100.0), floor(1_000), "the spike left");
        assert_eq!(s.max_us, 10_000_000, "lifetime max survives");
        phase.record(Duration::from_millis(1));
        assert_eq!(phase.snapshot().window.count(), WINDOW + 1);
    }

    #[test]
    fn a_sample_past_the_range_lands_in_the_last_bucket_and_keeps_its_max() {
        let huge = i64::MAX as u64;
        let mut phase = PhaseRecorder::default();
        phase.record(Duration::from_micros(huge));
        let s = phase.snapshot();
        assert_eq!(s.window.counts[BUCKETS - 1], 1);
        assert_eq!(s.window.count(), 1);
        assert_eq!(s.window.percentile(100.0), bucket_bounds(BUCKETS - 1).0);
        assert_eq!(s.max_us, huge, "max_us stays exact");
        let json = s.to_json();
        assert_eq!(json.get("max_us").unwrap().as_i64(), Some(i64::MAX));
        assert_eq!(PhaseLatency::from_json(&json), s);
    }

    #[test]
    fn buckets_round_trip_through_json() {
        let mut latency = PhaseLatency::default();
        for us in [3, 3, 64, 150, 40_000, 9_000_000_000] {
            latency.count += 1;
            latency.sum_us += us;
            latency.max_us = latency.max_us.max(us);
            latency.window.record(us);
        }
        let text = latency.to_json().to_text();
        let back = PhaseLatency::from_json(&Json::parse(&text).unwrap());
        assert_eq!(back.window, latency.window);
        assert_eq!((back.count, back.max_us), (latency.count, latency.max_us));
        assert_eq!(back.to_json(), latency.to_json());
        // Pairs from a confused peer are skipped, not trusted.
        let garbage = r#"{"buckets": [[0, 2], [-1, 5], [99999, 1], [1, -3], [2], "x", [3, 1]]}"#;
        let h = PhaseLatency::from_json(&Json::parse(garbage).unwrap()).window;
        assert_eq!(h.count(), 3);
        assert_eq!((h.percentile(0.0), h.percentile(100.0)), (0, 3));
    }
}
