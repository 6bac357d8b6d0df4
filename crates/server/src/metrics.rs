//! Live server metrics: request counters and per-phase latency windows.
//!
//! Counters are lock-free atomics bumped on the hot path; latency
//! samples go through a mutex-guarded [`LatencyWindow`] per phase
//! (four uncontended lock acquisitions per request — noise next to an
//! analysis). The `stats` request renders everything as one JSON
//! object via [`Metrics::snapshot_json`], reusing the bench harness's
//! percentile machinery so the daemon and the benchmarks agree on what
//! "p99" means.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use biv_bench::latency::{LatencySnapshot, LatencyWindow};
use biv_core::{CacheGauges, FileGauges, StoreGauges};

use crate::json::Json;

/// How many recent samples each phase window retains.
const WINDOW: usize = 1024;

/// The request phases measured per analyze request.
#[derive(Debug)]
struct Phases {
    /// Submit-to-dequeue wait in the bounded queue.
    queue_wait: LatencyWindow,
    /// Front-end parsing of the request's files.
    parse: LatencyWindow,
    /// Classification (plan + analyze + cache commit).
    analyze: LatencyWindow,
    /// Rendering the response text.
    render: LatencyWindow,
    /// Submit-to-response wall clock.
    total: LatencyWindow,
}

/// One analyze request's phase durations, recorded atomically at
/// completion so a `stats` probe never sees a half-recorded request.
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
    /// End-to-end time.
    pub total: Duration,
}

/// Shared server metrics. One instance per server, shared by reference.
#[derive(Debug)]
pub struct Metrics {
    /// Total request frames decoded successfully.
    pub requests: AtomicU64,
    /// Analyze requests accepted into the bounded queue. Once counted
    /// here, a request is always analyzed and answered — drain included.
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
    phases: Mutex<Phases>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Metrics {
        Metrics {
            requests: AtomicU64::new(0),
            analyze_accepted: AtomicU64::new(0),
            analyze_ok: AtomicU64::new(0),
            rejected_busy: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            late_results: AtomicU64::new(0),
            bad_requests: AtomicU64::new(0),
            functions: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            replica_received: AtomicU64::new(0),
            phases: Mutex::new(Phases {
                queue_wait: LatencyWindow::new(WINDOW),
                parse: LatencyWindow::new(WINDOW),
                analyze: LatencyWindow::new(WINDOW),
                render: LatencyWindow::new(WINDOW),
                total: LatencyWindow::new(WINDOW),
            }),
        }
    }

    /// Records one completed analyze request's phase times.
    pub fn record_phases(&self, sample: PhaseSample) {
        let mut phases = self.phases.lock().expect("metrics poisoned");
        phases.queue_wait.record(sample.queue_wait);
        phases.parse.record(sample.parse);
        phases.analyze.record(sample.analyze);
        phases.render.record(sample.render);
        phases.total.record(sample.total);
    }

    /// The current p50 of end-to-end latency — the backpressure
    /// `retry_after_ms` estimator's input.
    pub fn total_p50(&self) -> Duration {
        self.phases
            .lock()
            .expect("metrics poisoned")
            .total
            .snapshot()
            .p50
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
                Json::obj(vec![
                    ("queue_wait", latency_json(phases.queue_wait.snapshot())),
                    ("parse", latency_json(phases.parse.snapshot())),
                    ("analyze", latency_json(phases.analyze.snapshot())),
                    ("render", latency_json(phases.render.snapshot())),
                    ("total", latency_json(phases.total.snapshot())),
                ]),
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

fn latency_json(s: LatencySnapshot) -> Json {
    let us = |d: Duration| Json::Int(d.as_micros() as i64);
    Json::obj(vec![
        ("count", Json::Int(s.count as i64)),
        ("mean_us", us(s.mean)),
        ("p50_us", us(s.p50)),
        ("p90_us", us(s.p90)),
        ("p99_us", us(s.p99)),
        ("max_us", us(s.max)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_counters_and_phases() {
        let m = Metrics::new();
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
        assert_eq!(analyze.get("p50_us").unwrap().as_i64(), Some(40_000));
        assert_eq!(analyze.get("max_us").unwrap().as_i64(), Some(60_000));
        // The snapshot is valid JSON end to end.
        assert_eq!(Json::parse(&json.to_text()).unwrap(), json);
        // Memory-only deployments omit the store object entirely.
        assert!(json.get("store").is_none());
    }

    #[test]
    fn store_gauges_render_when_a_durable_tier_exists() {
        let m = Metrics::new();
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
        let m = Metrics::new();
        assert_eq!(m.total_p50(), Duration::ZERO);
        for ms in 1..=9 {
            m.record_phases(PhaseSample {
                queue_wait: Duration::ZERO,
                parse: Duration::ZERO,
                analyze: Duration::ZERO,
                render: Duration::ZERO,
                total: Duration::from_millis(ms),
            });
        }
        assert_eq!(m.total_p50().as_millis(), 5);
    }
}
