//! Fleet-wide observability and the drain/rebalance coordinator.
//!
//! [`fleet_stats`] polls every shard's `stats` endpoint and folds the
//! snapshots into one object: counter sections (`requests`, `queue`,
//! `cache`, `store`) are summed field-by-field, and each latency
//! phase's histogram buckets are added, so the fleet percentiles are
//! exactly those of one histogram fed every shard's window.
//!
//! [`drain_shard`] drives the warm-handoff half of a rebalance:
//!
//! ```text
//! departing shard                      successor shard
//!   shutdown ──▶ drain ──▶ flush store
//!                              │
//!                  (poll until the endpoint refuses)
//!                              │
//!                              └──▶ preload DIR ──▶ cache committed
//! ```
//!
//! The poll between shutdown and preload matters: the departing `bivd`
//! fsyncs its store *after* its drain completes, so preloading the
//! store before the process is gone could read a half-flushed log.
//! Once the successor acks the preload, every summary the departing
//! shard had computed is served warm from its successor.

use std::time::{Duration, Instant};

use biv_server::metrics::{PhaseLatency, PHASES};
use biv_server::net::Endpoint;
use biv_server::{Client, Json, Request, Response};

/// Sums the integer fields of `section` across shard snapshots,
/// preserving the field order of the first shard that has the section.
fn sum_section(snapshots: &[Json], section: &str) -> Option<Json> {
    let mut keys: Vec<String> = Vec::new();
    for snap in snapshots {
        if let Some(Json::Obj(pairs)) = snap.get(section) {
            for (k, _) in pairs {
                if !keys.contains(k) {
                    keys.push(k.clone());
                }
            }
        }
    }
    if keys.is_empty() {
        return None;
    }
    let pairs = keys
        .into_iter()
        .map(|k| {
            let sum: i64 = snapshots
                .iter()
                .filter_map(|s| s.get(section)?.get(&k)?.as_i64())
                .sum();
            (k, Json::Int(sum))
        })
        .collect();
    Some(Json::Obj(pairs))
}

/// Merges each latency phase across shard snapshots and renders it
/// with the daemon's own code: lifetime counts and maxima combine, and
/// the windows' buckets add.
fn merge_latency(snapshots: &[Json]) -> Json {
    Json::obj(
        PHASES
            .into_iter()
            .map(|phase| {
                let mut merged = PhaseLatency::default();
                for snap in snapshots {
                    if let Some(shard) = snap.get("latency").and_then(|l| l.get(phase)) {
                        merged.merge(&PhaseLatency::from_json(shard));
                    }
                }
                (phase, merged.to_json())
            })
            .collect(),
    )
}

/// Polls every shard's stats endpoint and aggregates the fleet view.
///
/// Unreachable shards are reported, not fatal — a fleet with one dead
/// member still has a meaningful aggregate. The result carries:
///
/// - `fleet`: shard count, how many answered, the unreachable
///   endpoints;
/// - `totals`: summed `requests`/`queue`/`cache`/`store` sections,
///   summed `workers`, the merged `latency` phases, and the maximum
///   shard `uptime_ms`;
/// - `shards`: each answering shard's raw snapshot, annotated with its
///   endpoint.
///
/// # Errors
/// Only when *no* shard answers.
pub fn fleet_stats(endpoints: &[String]) -> Result<Json, String> {
    fleet_stats_with_timeout(endpoints, DEFAULT_STATS_TIMEOUT)
}

/// How long one shard may take to connect *and* to answer before its
/// stats entry degrades to `unreachable`.
pub const DEFAULT_STATS_TIMEOUT: Duration = Duration::from_secs(2);

/// [`fleet_stats`] with an explicit per-endpoint deadline: each shard
/// gets `timeout` to connect and `timeout` to answer, so one
/// partitioned or wedged shard costs bounded time and degrades to an
/// `unreachable` entry instead of hanging the whole poll.
///
/// # Errors
/// Only when *no* shard answers.
pub fn fleet_stats_with_timeout(endpoints: &[String], timeout: Duration) -> Result<Json, String> {
    let mut snapshots: Vec<Json> = Vec::new();
    let mut per_shard: Vec<Json> = Vec::new();
    let mut unreachable: Vec<Json> = Vec::new();
    for endpoint in endpoints {
        match shard_stats(endpoint, timeout) {
            Ok(stats) => {
                per_shard.push(Json::obj(vec![
                    ("endpoint", Json::Str(endpoint.clone())),
                    ("stats", stats.clone()),
                ]));
                snapshots.push(stats);
            }
            Err(e) => unreachable.push(Json::obj(vec![
                ("endpoint", Json::Str(endpoint.clone())),
                ("error", Json::Str(e)),
            ])),
        }
    }
    if snapshots.is_empty() {
        return Err(format!(
            "no shard answered ({} endpoints tried)",
            endpoints.len()
        ));
    }

    let int_sum =
        |key: &str| -> i64 { snapshots.iter().filter_map(|s| s.get(key)?.as_i64()).sum() };
    let uptime_max: i64 = snapshots
        .iter()
        .filter_map(|s| s.get("uptime_ms")?.as_i64())
        .max()
        .unwrap_or(0);

    let mut totals = vec![("uptime_ms", Json::Int(uptime_max))];
    for section in ["requests", "queue", "cache", "files"] {
        if let Some(sum) = sum_section(&snapshots, section) {
            totals.push((section, sum));
        }
    }
    totals.push(("workers", Json::Int(int_sum("workers"))));
    totals.push(("latency", merge_latency(&snapshots)));
    if let Some(store) = sum_section(&snapshots, "store") {
        totals.push(("store", store));
    }

    Ok(Json::obj(vec![
        (
            "fleet",
            Json::obj(vec![
                ("shards", Json::Int(endpoints.len() as i64)),
                ("reachable", Json::Int(snapshots.len() as i64)),
                ("unreachable", Json::Arr(unreachable)),
            ]),
        ),
        ("totals", Json::obj(totals)),
        ("shards", Json::Arr(per_shard)),
    ]))
}

/// One shard's raw stats snapshot, bounded by `timeout` on both the
/// connect and the read.
fn shard_stats(endpoint: &str, timeout: Duration) -> Result<Json, String> {
    let endpoint = Endpoint::parse(endpoint);
    let mut client =
        Client::connect_timeout(&endpoint, timeout).map_err(|e| format!("cannot connect: {e}"))?;
    match client.request(&Request::Stats) {
        Ok(Response::Stats(stats)) => Ok(stats),
        Ok(other) => Err(format!("unexpected stats response: {other:?}")),
        Err(e) => Err(format!("stats request failed: {e}")),
    }
}

/// What a completed drain/rebalance did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// The departing shard acknowledged shutdown.
    pub acknowledged: bool,
    /// The departing endpoint stopped answering within the wait budget
    /// (its store flush is complete once this is true).
    pub departed: bool,
    /// Summaries the successor committed from the snapshot.
    pub loaded: usize,
}

/// Drains the shard at `endpoints[shard]` and warm-hands its store
/// snapshot at `store_dir` to `endpoints[successor]`: shutdown, wait
/// (up to `wait`) for the endpoint to actually go away — which is when
/// the departing `bivd` has flushed its store — then preload the
/// successor from the snapshot directory.
///
/// # Errors
/// Bad indices, an unreachable departing shard (nothing to drain), a
/// refused shutdown, a still-listening endpoint after `wait`, or a
/// failed preload. A successful run always means the successor serves
/// the departed shard's summaries warm.
pub fn drain_shard(
    endpoints: &[String],
    shard: usize,
    store_dir: &str,
    successor: usize,
    wait: Duration,
) -> Result<DrainReport, String> {
    if shard >= endpoints.len() || successor >= endpoints.len() {
        return Err(format!(
            "shard indices out of range: {shard} and {successor} of {}",
            endpoints.len()
        ));
    }
    if shard == successor {
        return Err("a shard cannot hand off to itself".into());
    }

    // 1. Ask the departing shard to drain.
    let departing = Endpoint::parse(&endpoints[shard]);
    let mut client = Client::connect(&departing)
        .map_err(|e| format!("cannot reach departing shard {shard}: {e}"))?;
    match client.request(&Request::Shutdown) {
        Ok(Response::ShutdownAck) => {}
        Ok(other) => return Err(format!("shard {shard} refused shutdown: {other:?}")),
        Err(e) => return Err(format!("shutdown request to shard {shard} failed: {e}")),
    }
    drop(client);

    // 2. Wait for it to leave — connection refused means the process is
    // gone and its store flush (an fsync of the log) is durable.
    let deadline = Instant::now() + wait;
    let mut departed = false;
    loop {
        match Client::connect(&departing) {
            Err(_) => {
                departed = true;
                break;
            }
            Ok(_) => {
                if Instant::now() >= deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    if !departed {
        return Err(format!(
            "shard {shard} still listening after {wait:?}; not preloading a possibly \
             unflushed snapshot"
        ));
    }

    // 3. Warm the successor from the snapshot.
    let succ = Endpoint::parse(&endpoints[successor]);
    let mut client = Client::connect(&succ)
        .map_err(|e| format!("cannot reach successor shard {successor}: {e}"))?;
    match client.request(&Request::Preload {
        dir: store_dir.to_string(),
    }) {
        Ok(Response::PreloadAck { loaded }) => Ok(DrainReport {
            acknowledged: true,
            departed: true,
            loaded,
        }),
        Ok(Response::Error { kind, message }) => Err(format!(
            "successor {successor} preload failed ({kind}): {message}"
        )),
        Ok(other) => Err(format!(
            "successor {successor} answered preload out of protocol: {other:?}"
        )),
        Err(e) => Err(format!(
            "preload request to successor {successor} failed: {e}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(samples: &[u64]) -> PhaseLatency {
        let mut latency = PhaseLatency::default();
        for &us in samples {
            latency.count += 1;
            latency.sum_us += us;
            latency.max_us = latency.max_us.max(us);
            latency.window.record(us);
        }
        latency
    }

    fn snapshot(total: &PhaseLatency) -> Json {
        Json::obj(vec![(
            "latency",
            Json::obj(vec![("total", total.to_json())]),
        )])
    }

    #[test]
    fn merged_percentiles_equal_one_histogram_of_every_sample() {
        let a = snapshot(&latency(&[100, 100, 100]));
        let b = snapshot(&latency(&[5_000]));
        let merged = merge_latency(&[a, b]);
        let total = merged.get("total").unwrap();
        assert_eq!(total, &latency(&[100, 100, 100, 5_000]).to_json());
        assert_eq!(total.get("count").unwrap().as_i64(), Some(4));
        assert_eq!(total.get("mean_us").unwrap().as_i64(), Some(1_325));
        assert_eq!(total.get("p50_us").unwrap().as_i64(), Some(100));
        // Averaging the shard p99s would read (3·100 + 5000) / 4.
        let p99 = total.get("p99_us").unwrap().as_i64().unwrap();
        assert!((4_992..=5_000).contains(&p99), "p99 {p99}");
        assert_eq!(total.get("max_us").unwrap().as_i64(), Some(5_000));
        // Empty phases stay well-defined zeros.
        let parse = merged.get("parse").unwrap();
        assert_eq!(parse.get("count").unwrap().as_i64(), Some(0));
        assert_eq!(parse.get("p99_us").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn sections_sum_fieldwise() {
        let a = Json::obj(vec![(
            "requests",
            Json::obj(vec![("total", Json::Int(5)), ("timeouts", Json::Int(1))]),
        )]);
        let b = Json::obj(vec![(
            "requests",
            Json::obj(vec![("total", Json::Int(7)), ("timeouts", Json::Int(0))]),
        )]);
        let sum = sum_section(&[a, b], "requests").unwrap();
        assert_eq!(sum.get("total").unwrap().as_i64(), Some(12));
        assert_eq!(sum.get("timeouts").unwrap().as_i64(), Some(1));
        assert!(sum_section(&[], "requests").is_none());
    }

    #[test]
    fn wedged_shard_degrades_within_the_timeout() {
        // An endpoint that accepts but never answers: the stats poll
        // must report it unreachable in bounded time, not hang.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = format!("tcp:{}", listener.local_addr().unwrap());
        let hold = std::thread::spawn(move || {
            let conn = listener.accept().ok();
            std::thread::sleep(Duration::from_secs(2));
            drop(conn);
        });
        let started = Instant::now();
        let err = fleet_stats_with_timeout(&[endpoint], Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("no shard answered"), "{err}");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "poll hung past the deadline: {:?}",
            started.elapsed()
        );
        hold.join().unwrap();
    }

    #[test]
    fn drain_validates_indices() {
        let eps = vec!["tcp:127.0.0.1:1".into(), "tcp:127.0.0.1:2".into()];
        assert!(drain_shard(&eps, 5, "/tmp/x", 0, Duration::from_millis(1)).is_err());
        assert!(drain_shard(&eps, 0, "/tmp/x", 0, Duration::from_millis(1)).is_err());
    }
}
