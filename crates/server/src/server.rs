//! The resident analysis server.
//!
//! One front-end feeds one worker pool:
//!
//! ```text
//!  event loop (one thread owns every connection's I/O; epoll on
//!  Linux, poll(2) on other unix)
//!      ├─ ping / stats / shutdown / members / gossip: answered inline
//!      └─ analyze / preload / replicate: bounded queue ── worker pool
//!         ── shared cache ── completion queue + waker ── loop writes
//! ```
//!
//! See `crate::event` for the connection state machine and
//! `crate::readiness` for the two readiness backends. Off unix,
//! [`Server::run`] refuses to serve.
//!
//! Design rules, in order:
//!
//! 1. **Determinism** — analyze responses are byte-identical to a local
//!    `bivc` batch run: summaries are canonical (so cache warmth cannot
//!    leak into them) and the rendered stats line is a cold-run replay
//!    ([`biv_core::cold_batch_stats`]), never the warm cache's view.
//! 2. **Explicit backpressure** — a full queue answers `busy` with a
//!    `retry_after_ms` hint immediately; the server never buffers
//!    unbounded work.
//! 3. **Bounded everything** — requests carry a wall-clock timeout (the
//!    loop answers `timeout` and the worker's late result is discarded,
//!    not the worker), the loop wakes at least once per poll interval so
//!    drain cannot hang on an idle client, and drain itself grants a
//!    grace period per connection.
//! 4. **No dropped accepted work** — a request that was queued is
//!    always analyzed and answered, including during drain; requests
//!    arriving after drain began get an explicit `draining` error.

#![cfg_attr(not(unix), allow(dead_code))]

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use biv_core::{
    analyze_sources_with_backend, cold_batch_stats, render_grouped_spans, resolve_jobs,
    AnalysisConfig, BatchOptions, Budget, CacheBackend, FileIndex, Locked, StructuralCache,
};
use biv_store::{Store, StoreOptions, TieredCache};

use crate::cluster::{ClusterHandle, View};
#[cfg(unix)]
pub(crate) use crate::event::Reply;
use crate::frame::MAX_FRAME_BYTES;
use crate::metrics::{Metrics, PhaseSample, ShardInfo, TierGauges};
use crate::net::{Endpoint, Listener};
use crate::pool::{JobQueue, PushError};
use crate::proto::{AnalyzeFile, FileBlock, FileError, ReplicaEntry, Request, Response};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Worker threads; `0` resolves like `bivc --jobs 0` (the
    /// `BIV_JOBS` variable, then available parallelism).
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it answer `busy`.
    pub queue_cap: usize,
    /// Shared structural-cache capacity.
    pub cache_cap: usize,
    /// Per-request wall-clock budget, queue wait included.
    pub request_timeout: Duration,
    /// Largest accepted frame payload.
    pub max_frame_bytes: usize,
    /// Longest the event loop sleeps between checks of the shutdown
    /// flag.
    pub poll_interval: Duration,
    /// How long a mid-frame read may continue once drain has begun.
    pub drain_grace: Duration,
    /// Resource budget applied to every analysis. Breaches degrade the
    /// affected values to `unknown` with a recorded reason; they never
    /// fail the request.
    pub budget: Budget,
    /// Directory of the durable analysis store. `None` serves from the
    /// in-memory cache alone; `Some` opens the store on startup
    /// (warm restart), writes summaries through to it, and flushes it —
    /// one fsync of the log — when the drain completes.
    pub cache_dir: Option<PathBuf>,
    /// This server's shard id within a fleet (`--fleet shard=K/N`).
    /// `0` with `shard_count == 1` is the single-process identity.
    pub shard_id: u32,
    /// The fleet size this server belongs to; `1` outside any fleet.
    pub shard_count: u32,
    /// The membership/replication agent, when this server is a fleet
    /// member started with peers. `None` answers `members` with a
    /// one-member view of this server ([`View::single`]), `gossip` with
    /// a `no-cluster` error, and replicates nothing.
    pub cluster: Option<ClusterHandle>,
}

impl ServerConfig {
    /// Defaults for an endpoint: auto workers, queue of 64, the batch
    /// driver's default cache capacity, 30 s request timeout.
    pub fn new(endpoint: Endpoint) -> ServerConfig {
        ServerConfig {
            endpoint,
            workers: 0,
            queue_cap: 64,
            cache_cap: BatchOptions::default().cache_capacity,
            request_timeout: Duration::from_secs(30),
            max_frame_bytes: MAX_FRAME_BYTES,
            poll_interval: Duration::from_millis(25),
            drain_grace: Duration::from_secs(5),
            budget: Budget::UNLIMITED,
            cache_dir: None,
            shard_id: 0,
            shard_count: 1,
            cluster: None,
        }
    }
}

/// Final counters reported when [`Server::run`] returns after drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Request frames decoded.
    pub requests: u64,
    /// Analyze requests answered with a report.
    pub analyze_ok: u64,
    /// Requests answered `busy`.
    pub rejected_busy: u64,
    /// Requests answered `timeout`.
    pub timeouts: u64,
}

impl std::fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} connections, {} requests, {} analyzed, {} busy-rejected, {} timed out",
            self.connections, self.requests, self.analyze_ok, self.rejected_busy, self.timeouts
        )
    }
}

/// Off unix nothing is served (see [`Server::run`]), so no job ever
/// carries a reply.
#[cfg(not(unix))]
pub(crate) enum Reply {}

#[cfg(not(unix))]
impl Reply {
    pub(crate) fn send(&self, _response: Response) {
        match *self {}
    }
}

/// What a queued job does.
pub(crate) enum JobKind {
    /// An analyze: one rendered report ending in the stats line, plus
    /// each file's block span and hashes.
    Analyze {
        files: Vec<AnalyzeFile>,
        cache_cap: Option<usize>,
        invariants: bool,
    },
    /// Warm-handoff preload from a drained shard's store snapshot.
    Preload { dir: String },
    /// Replica write-through pushed by a key's primary.
    Replicate { entries: Vec<ReplicaEntry> },
}

/// One queued request.
pub(crate) struct Job {
    pub(crate) kind: JobKind,
    pub(crate) submitted: Instant,
    pub(crate) reply: Reply,
}

/// State shared by the event loop and the workers.
pub(crate) struct Shared<'a> {
    pub(crate) config: &'a ServerConfig,
    /// The bound endpoint, advertised in the one-member view.
    pub(crate) endpoint: String,
    pub(crate) workers: usize,
    pub(crate) queue: JobQueue<Job>,
    pub(crate) cache: Mutex<Box<dyn CacheBackend + Send>>,
    /// Files seen before: content key → source and `(name, structural
    /// hash)` list, so a hot file skips the parser. Bounded by the
    /// memory tier's capacity, in functions.
    pub(crate) files: Mutex<FileIndex>,
    pub(crate) metrics: Metrics,
    pub(crate) started: Instant,
    pub(crate) shutdown: &'a AtomicBool,
}

impl<'a> Shared<'a> {
    /// Opens the cache backend and assembles the shared state the loop
    /// and the workers serve from.
    pub(crate) fn open(
        config: &'a ServerConfig,
        listener: &Listener,
        shutdown: &'a AtomicBool,
    ) -> io::Result<Shared<'a>> {
        // Opening the store indexes every surviving record's offset
        // before the first request is accepted; a record is decoded on
        // its first disk hit and then lives in the memory tier.
        let backend: Box<dyn CacheBackend + Send> = match &config.cache_dir {
            Some(dir) => Box::new(TieredCache::open(
                dir,
                config.cache_cap,
                &StoreOptions::for_budget(&config.budget),
            )?),
            None => Box::new(StructuralCache::new(config.cache_cap)),
        };
        Ok(Shared {
            config,
            endpoint: listener.bound_endpoint(),
            workers: resolve_jobs(config.workers),
            queue: JobQueue::new(config.queue_cap),
            cache: Mutex::new(backend),
            files: Mutex::new(FileIndex::new(config.cache_cap)),
            metrics: Metrics::default(),
            started: Instant::now(),
            shutdown,
        })
    }

    /// Flushes the durable tier at the end of drain. A flush failure
    /// degrades persistence, not the drain.
    pub(crate) fn flush_backend(&self) {
        if let Ok(mut backend) = self.cache.lock() {
            if let Err(e) = backend.flush() {
                eprintln!("bivd: cache flush failed during drain: {e}");
            }
        }
    }

    /// The end-of-drain sequence: make the store durable, then let the
    /// cluster agent announce departure and hand the snapshot to the
    /// shards absorbing our key ranges.
    pub(crate) fn finish_drain(&self) {
        self.flush_backend();
        if let Some(cluster) = &self.config.cluster {
            cluster.0.on_drained();
        }
    }

    /// The final counters [`Server::run`] reports after drain.
    pub(crate) fn summary(&self) -> ServeSummary {
        ServeSummary {
            connections: self.metrics.connections.load(Ordering::Relaxed),
            requests: self.metrics.requests.load(Ordering::Relaxed),
            analyze_ok: self.metrics.analyze_ok.load(Ordering::Relaxed),
            rejected_busy: self.metrics.rejected_busy.load(Ordering::Relaxed),
            timeouts: self.metrics.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// A bound, not-yet-serving server.
pub struct Server {
    listener: Listener,
    config: ServerConfig,
}

impl Server {
    /// Binds the configured endpoint (replacing a stale Unix socket
    /// file, refusing a live one).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = Listener::bind(&config.endpoint)?;
        Ok(Server { listener, config })
    }

    /// Where the server actually listens — resolves TCP port 0.
    pub fn bound_endpoint(&self) -> String {
        self.listener.bound_endpoint()
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        resolve_jobs(self.config.workers)
    }

    /// Installs the membership/replication agent after binding — the
    /// agent needs the *bound* endpoint (TCP port 0 resolved) to
    /// advertise, so it cannot exist before `bind`.
    pub fn install_cluster(&mut self, cluster: ClusterHandle) {
        self.config.cluster = Some(cluster);
    }

    /// Serves until `shutdown` becomes true (SIGINT/SIGTERM via
    /// [`crate::signal::install`], or a protocol `shutdown` request),
    /// then drains: stops accepting, finishes every queued request,
    /// answers it, and returns the final counters.
    #[cfg(unix)]
    pub fn run(self, shutdown: &AtomicBool) -> io::Result<ServeSummary> {
        self.run_on::<crate::readiness::Native>(shutdown)
    }

    /// Serving needs a unix readiness backend; off unix this returns
    /// [`io::ErrorKind::Unsupported`].
    #[cfg(not(unix))]
    pub fn run(self, _shutdown: &AtomicBool) -> io::Result<ServeSummary> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "bivd serves on unix only",
        ))
    }

    /// Serves on readiness backend `P`.
    #[cfg(unix)]
    fn run_on<P: crate::readiness::Readiness>(
        self,
        shutdown: &AtomicBool,
    ) -> io::Result<ServeSummary> {
        crate::event::serve::<P>(self.listener, self.config, shutdown)
    }
}

/// One worker: pop, find each file's functions (file index or parse),
/// classify through the shared cache, render, reply. If the request
/// already timed out or its connection died, the event loop discards
/// the result and counts it late; the worker moves on (this is the
/// whole worker-recovery story: workers never carry state from one
/// request into the next).
///
/// Each job runs inside `catch_unwind`, so a panic in analysis answers
/// that one request with an `internal` error and the worker keeps
/// serving. A panic *outside* the catch (the injected `worker.die`
/// site, or a bug in the dispatch code itself) kills the thread — the
/// [`ReplyGuard`] still answers the client mid-unwind, and the event
/// loop respawns the worker.
pub(crate) fn worker_loop(shared: &Shared<'_>) {
    let opts = BatchOptions {
        jobs: 1, // request-level parallelism comes from the pool itself
        config: AnalysisConfig {
            budget: shared.config.budget,
            ..AnalysisConfig::default()
        },
        cache_capacity: shared.config.cache_cap,
    };
    while let Some(job) = shared.queue.pop() {
        let guard = ReplyGuard {
            reply: &job.reply,
            metrics: &shared.metrics,
        };
        crate::faults::maybe_panic("worker.die");
        // UnwindSafe audit: the closure borrows `shared` (atomics and
        // mutexes — both poison-or-recover on unwind; the structural
        // cache mutex is only held by `Locked` for one lookup, duplicate
        // hit, or commit at a time, never while a function is analyzed,
        // so concurrent batches interleave those calls and a panic in
        // analysis cannot poison it) and `job`/`opts` by shared
        // reference without interior mutation. Core thread-local
        // scratch is reset by `analyze_protected`'s own catch before
        // the panic ever reaches this boundary.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::faults::maybe_panic("worker.job.panic");
            process_job(shared, &opts, &job)
        }));
        drop(guard); // not panicking here: the guard disarms silently
        let response = match outcome {
            Ok(response) => response,
            Err(_) => {
                shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
                internal_error("analysis panicked while serving the request")
            }
        };
        job.reply.send(response);
    }
}

/// Answers a job's client if the worker thread unwinds past it, so even
/// a panic outside the per-job catch never strands a waiting client
/// until its timeout. Dropped without a panic in flight, it does
/// nothing.
struct ReplyGuard<'j> {
    reply: &'j Reply,
    metrics: &'j Metrics,
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            self.reply.send(internal_error(
                "worker thread died while serving the request",
            ));
        }
    }
}

fn internal_error(detail: &str) -> Response {
    Response::Error {
        kind: "internal".into(),
        message: format!("internal server error: {detail}; the request was not completed"),
    }
}

/// The panic-isolated body of one queued job.
fn process_job(shared: &Shared<'_>, opts: &BatchOptions, job: &Job) -> Response {
    match &job.kind {
        JobKind::Analyze {
            files,
            cache_cap,
            invariants,
        } => process_analyze(shared, opts, job.submitted, files, *cache_cap, *invariants),
        JobKind::Preload { dir } => process_preload(shared, dir),
        JobKind::Replicate { entries } => process_replicate(shared, entries),
    }
}

/// Find each file's functions, classify through the shared cache,
/// render, record metrics.
///
/// A file the index holds skips the parser: its stored structural
/// hashes go straight to the batch plan, and it is parsed again only if
/// the plan leaves one of its functions to analyze
/// ([`analyze_sources_with_backend`]). Either way the summaries, names
/// and rendering are the same, so the bytes are too. The `parse` phase
/// records the index lookups plus any parsing.
///
/// Beside the rendered report, the response carries one [`FileBlock`]
/// per request file: the byte span of its block in `output` and its
/// structural hashes. The fleet router cuts shard replies apart by
/// these and replays the stats line cold over the whole batch after
/// reassembly, which is what keeps a sharded run byte-identical to a
/// local one.
fn process_analyze(
    shared: &Shared<'_>,
    opts: &BatchOptions,
    submitted: Instant,
    files: &[AnalyzeFile],
    cache_cap: Option<usize>,
    invariants: bool,
) -> Response {
    let queue_wait = submitted.elapsed();

    let t = Instant::now();
    let sources: Vec<&str> = files.iter().map(|f| f.source.as_str()).collect();
    let served =
        analyze_sources_with_backend(&sources, opts, &mut Locked(&shared.cache), &shared.files);
    let parse = served.parse;
    let analyze = t.elapsed().saturating_sub(parse);
    let report = served.report;
    // Per input file: its function count, or its parse error.
    let parsed: Vec<Result<usize, String>> = files
        .iter()
        .zip(served.files)
        .map(|(file, outcome)| outcome.map_err(|e| format!("{}: parse error: {e}", file.path)))
        .collect();

    // Replica write-through: hand each file's committed summaries to
    // the cluster agent, keyed by the file's source (the agent derives
    // the content key and pushes to the key's ring successors
    // asynchronously). Summaries are pure functions of the structural
    // hash, so replicating the whole file — hits included — is
    // idempotent and can never diverge a replica.
    if let Some(cluster) = &shared.config.cluster {
        let mut next = 0usize;
        for (file, outcome) in files.iter().zip(&parsed) {
            if let Ok(count) = outcome {
                let entries: Vec<_> = report.functions[next..next + count]
                    .iter()
                    .filter(|f| f.summary.cacheable())
                    .map(|f| (f.hash, Arc::clone(&f.summary)))
                    .collect();
                next += count;
                if !entries.is_empty() {
                    cluster.0.on_commit(&file.source, &entries);
                }
            }
        }
    }

    let t = Instant::now();
    let replay_cap = cache_cap.unwrap_or_else(|| BatchOptions::default().cache_capacity);
    // The rendered stats line replays a cold cache at the client's
    // capacity, so the output never depends on what earlier requests
    // warmed — see the module docs. Cumulative warm counters remain
    // visible through `stats`.
    let mut ranges: Vec<(String, usize)> = Vec::new();
    let mut errors: Vec<FileError> = Vec::new();
    for (file, outcome) in files.iter().zip(&parsed) {
        match outcome {
            Ok(count) => ranges.push((file.path.clone(), *count)),
            Err(message) => errors.push(FileError {
                path: file.path.clone(),
                message: message.clone(),
            }),
        }
    }
    let hashes: Vec<u64> = report.functions.iter().map(|f| f.hash).collect();
    let cold = cold_batch_stats(&hashes, replay_cap);
    let (output, spans) = render_grouped_spans(&ranges, &report.functions, &cold, invariants);
    let mut spans = spans.into_iter();
    let mut rest = hashes.as_slice();
    let blocks = parsed
        .iter()
        .map(|outcome| match outcome {
            Ok(count) => {
                let (mine, tail) = rest.split_at(*count);
                rest = tail;
                FileBlock {
                    bytes: spans.next().unwrap_or_default(),
                    hashes: mine.to_vec(),
                }
            }
            Err(_) => FileBlock::default(),
        })
        .collect();
    let response = Response::Analyze {
        output,
        functions: report.stats.functions,
        analyzed: report.stats.misses,
        cached: report.stats.hits,
        errors,
        files: blocks,
    };
    let render = t.elapsed();

    shared
        .metrics
        .functions
        .fetch_add(report.stats.functions as u64, Ordering::Relaxed);
    shared.metrics.analyze_ok.fetch_add(1, Ordering::Relaxed);
    shared.metrics.record_phases(PhaseSample {
        queue_wait,
        parse,
        analyze,
        render,
        total: submitted.elapsed(),
    });

    response
}

/// Warm handoff: open a drained shard's store snapshot and feed every
/// surviving record into this server's cache tiers via `commit` — the
/// same path analysis results take, so `cacheable()` filtering, memory
/// bounds, and write-through to our own store all apply unchanged.
///
/// The snapshot is opened under *this* server's format/budget options:
/// a snapshot written by an incompatible shard yields `loaded: 0`
/// (wholesale invalidation on open) rather than summaries the successor
/// could never have computed itself.
fn process_preload(shared: &Shared<'_>, dir: &str) -> Response {
    // `Store::open` creates missing directories (it serves fresh
    // stores); a handoff source must already exist, or a typo'd path
    // would silently ack an empty preload.
    if !Path::new(dir).is_dir() {
        return Response::Error {
            kind: "preload".into(),
            message: format!("preload from {dir} failed: no store directory there"),
        };
    }
    let options = StoreOptions::for_budget(&shared.config.budget);
    match Store::open(Path::new(dir), &options) {
        Ok(mut store) => {
            let mut backend = shared.cache.lock().expect("structural cache poisoned");
            let mut loaded = 0usize;
            for (hash, summary) in store.entries() {
                backend.commit(hash, summary);
                loaded += 1;
            }
            Response::PreloadAck { loaded }
        }
        Err(e) => Response::Error {
            kind: "preload".into(),
            message: format!("preload from {dir} failed: {e}"),
        },
    }
}

/// Replica write-through from a key's primary: decode each pushed
/// summary and commit it through the normal cache path (memory bounds,
/// `cacheable()` filtering, and write-through to our own store all
/// apply). Commits are idempotent — a summary is a pure function of its
/// hash — so re-delivery after a retry is harmless. An undecodable
/// entry fails the *request* (the primary will retry or drop it), never
/// the server.
fn process_replicate(shared: &Shared<'_>, entries: &[ReplicaEntry]) -> Response {
    let mut decoded = Vec::with_capacity(entries.len());
    for entry in entries {
        match biv_store::codec::decode_summary(&entry.bytes) {
            Ok(summary) => decoded.push((entry.hash, summary)),
            Err(e) => {
                return Response::Error {
                    kind: "replicate".into(),
                    message: format!("undecodable replica summary for {:016x}: {e:?}", entry.hash),
                }
            }
        }
    }
    let mut backend = shared.cache.lock().expect("structural cache poisoned");
    let mut stored = 0usize;
    for (hash, summary) in decoded {
        backend.commit(hash, summary);
        stored += 1;
    }
    drop(backend);
    shared
        .metrics
        .replica_received
        .fetch_add(stored as u64, Ordering::Relaxed);
    Response::ReplicateAck { stored }
}

/// How a decoded request is served.
pub(crate) enum Routed {
    /// Answered without touching the worker pool.
    Inline {
        /// What to send.
        response: Response,
        /// Flip the drain flag after sending (a `shutdown` request).
        shutdown: bool,
    },
    /// Submitted to the bounded queue.
    Queue(JobKind),
}

/// Classifies a request: inline (ping/stats/shutdown and membership
/// ops) or queued.
pub(crate) fn route_request(shared: &Shared<'_>, request: Request) -> Routed {
    let inline = |response| Routed::Inline {
        response,
        shutdown: false,
    };
    match request {
        Request::Ping => inline(Response::Pong),
        Request::Stats => inline(Response::Stats(stats_json(shared))),
        Request::Shutdown => Routed::Inline {
            response: Response::ShutdownAck,
            shutdown: true,
        },
        Request::Analyze {
            files,
            cache_cap,
            invariants,
        } => Routed::Queue(JobKind::Analyze {
            files,
            cache_cap,
            invariants,
        }),
        Request::Preload { dir } => Routed::Queue(JobKind::Preload { dir }),
        // Membership ops are answered inline from the event loop: a
        // gossip merge is a small in-memory operation and must stay
        // responsive even when the worker pool is saturated —
        // heartbeats delayed behind analyze jobs would look like
        // failures.
        Request::Gossip { from, view } => inline(match &shared.config.cluster {
            Some(cluster) => Response::Gossip {
                view: cluster.0.on_gossip(from, &view),
            },
            None => Response::Error {
                kind: "no-cluster".into(),
                message: "this server has no membership agent (start bivd with --peers)".into(),
            },
        }),
        Request::Members => inline(Response::Members {
            view: match &shared.config.cluster {
                Some(cluster) => cluster.0.view(),
                None => View::single(
                    shared.config.shard_id,
                    shared.config.shard_count,
                    shared.endpoint.clone(),
                )
                .to_json(),
            },
        }),
        // Replica pushes take the cache lock and may hit the store, so
        // they queue like preloads; a full queue answers busy and the
        // pushing primary retries with backoff.
        Request::Replicate { entries } => Routed::Queue(JobKind::Replicate { entries }),
    }
}

/// Submits a job to the bounded queue without waiting for its result.
/// `Err` carries the response to send instead (busy backpressure or the
/// draining rejection).
pub(crate) fn submit_job(shared: &Shared<'_>, kind: JobKind, reply: Reply) -> Result<(), Response> {
    // Only analyze jobs are answered by `process_analyze`, which counts
    // `analyze_ok`; preloads and replica pushes stay out of the books.
    let analyze = matches!(kind, JobKind::Analyze { .. });
    // Injected queue-full storm: reject exactly as a real full queue
    // would, *before* the request counts as accepted, so the
    // no-dropped-accepted-work invariant is untouched.
    if crate::faults::fire("queue.storm") {
        shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
        return Err(Response::Busy {
            retry_after_ms: retry_hint(shared),
        });
    }
    let job = Job {
        kind,
        submitted: Instant::now(),
        reply,
    };
    match shared.queue.try_push(job) {
        Ok(()) => {
            if analyze {
                shared
                    .metrics
                    .analyze_accepted
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        }
        Err(PushError::Full(_)) => {
            shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
            Err(Response::Busy {
                retry_after_ms: retry_hint(shared),
            })
        }
        Err(PushError::Closed(_)) => Err(draining_response()),
    }
}

/// The rejection for a frame that arrived after drain began.
pub(crate) fn draining_response() -> Response {
    Response::Error {
        kind: "draining".into(),
        message: "server is draining; retry against a fresh instance".into(),
    }
}

/// The timeout response; counts the timeout.
pub(crate) fn timeout_response(shared: &Shared<'_>) -> Response {
    shared.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
    Response::Error {
        kind: "timeout".into(),
        message: format!(
            "request exceeded {} ms (queue wait included); the result will be discarded",
            shared.config.request_timeout.as_millis()
        ),
    }
}

/// The live backpressure hint for this server.
fn retry_hint(shared: &Shared<'_>) -> u64 {
    let total = shared.metrics.total_window();
    retry_hint_ms(
        total.percentile(50.0),
        total.count(),
        shared.queue.depth(),
        shared.workers,
    )
}

/// The backpressure hint: roughly how long, in ms, until a queue slot
/// frees up, from the recent p50 end-to-end latency (`samples` of them;
/// none yet assumes 50 ms a request) and the current queue depth.
fn retry_hint_ms(p50_us: u64, samples: u64, depth: usize, workers: usize) -> u64 {
    let per_request_us = if samples == 0 { 50_000 } else { p50_us };
    let waiting = depth as u64 + 1;
    (per_request_us.saturating_mul(waiting) / workers.max(1) as u64 / 1_000).clamp(10, 5_000)
}

/// Builds the live `stats` payload.
fn stats_json(shared: &Shared<'_>) -> crate::json::Json {
    let backend = shared.cache.lock().expect("structural cache poisoned");
    let gauges = backend.gauges();
    let store = backend.store_gauges();
    drop(backend);
    let files = shared
        .files
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .gauges();
    let mut stats = shared.metrics.snapshot_json(
        shared.queue.depth(),
        shared.queue.capacity(),
        TierGauges {
            cache: gauges,
            files,
            store,
        },
        shared.workers,
        ShardInfo {
            shard_id: shared.config.shard_id,
            shard_count: shared.config.shard_count,
            uptime: shared.started.elapsed(),
        },
    );
    // A fleet member appends its membership and replication sections.
    if let Some(cluster) = &shared.config.cluster {
        if let crate::json::Json::Obj(pairs) = &mut stats {
            pairs.extend(cluster.0.stats_sections());
        }
    }
    stats
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::frame::{append_frame, read_frame, write_frame};
    use crate::json::Json;
    use crate::net::Conn;
    use crate::readiness::{Native, PollSet};
    use std::io::Write;
    use std::sync::atomic::AtomicBool;

    const SRC: &str = "func f(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n";

    /// Serves a bound server on one readiness backend.
    type Runner = fn(Server, &'static AtomicBool) -> io::Result<ServeSummary>;

    /// The platform's backend (epoll on Linux) and the `poll(2)` one,
    /// which serves in production on every other unix.
    const BACKENDS: [(&str, Runner); 2] = [
        ("native", |server, flag| server.run_on::<Native>(flag)),
        ("poll", |server, flag| server.run_on::<PollSet>(flag)),
    ];

    fn spawn_server(config: ServerConfig) -> (String, std::thread::JoinHandle<ServeSummary>) {
        spawn_server_on(BACKENDS[0].1, config)
    }

    fn spawn_server_on(
        run: Runner,
        mut config: ServerConfig,
    ) -> (String, std::thread::JoinHandle<ServeSummary>) {
        config.endpoint = Endpoint::Tcp("127.0.0.1:0".into());
        let server = Server::bind(config).expect("bind 127.0.0.1:0");
        let endpoint = server.bound_endpoint();
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let handle = std::thread::spawn(move || run(server, flag).expect("server run"));
        (endpoint, handle)
    }

    fn read_response(conn: &mut Conn) -> Response {
        let payload = read_frame(conn, MAX_FRAME_BYTES).unwrap().unwrap();
        Response::decode(&payload).unwrap()
    }

    fn files(n: usize) -> Vec<AnalyzeFile> {
        (0..n)
            .map(|i| AnalyzeFile {
                path: format!("mem/{i}.biv"),
                source: SRC.to_string(),
            })
            .collect()
    }

    #[test]
    fn ping_analyze_stats_shutdown_roundtrip() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 2;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        assert_eq!(client.request(&Request::Ping).unwrap(), Response::Pong);

        let response = client
            .request(&Request::Analyze {
                files: files(2),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Analyze {
            output,
            functions,
            analyzed,
            cached,
            errors,
            ..
        } = response
        else {
            panic!("expected analyze response");
        };
        assert_eq!((functions, analyzed, cached), (2, 1, 1));
        assert!(errors.is_empty());
        assert!(output.starts_with("══ mem/0.biv ══\n"));
        assert!(output.contains("══ mem/1.biv ══\n"));
        assert!(
            output.ends_with("batch: 2 functions, 1 analyzed, 1 cache hits, 0 evictions\n"),
            "stats line replays a cold cache:\n{output}"
        );

        // A second identical request is warm (cache hits) but renders
        // the exact same bytes.
        let again = client
            .request(&Request::Analyze {
                files: files(2),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Analyze {
            output: warm_output,
            analyzed: warm_analyzed,
            ..
        } = again
        else {
            panic!("expected analyze response");
        };
        assert_eq!(warm_analyzed, 0, "served from the warm cache");
        assert_eq!(warm_output, output, "warmth never changes the bytes");

        let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        let cache = stats.get("cache").unwrap();
        let hits = cache.get("hits").unwrap().as_i64().unwrap();
        let misses = cache.get("misses").unwrap().as_i64().unwrap();
        let submitted = stats
            .get("requests")
            .unwrap()
            .get("functions")
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(hits + misses, submitted, "hits + misses == functions");
        assert_eq!(misses, 1);
        let total = stats.get("latency").unwrap().get("total").unwrap();
        assert_eq!(total.get("count").unwrap().as_i64(), Some(2));

        assert_eq!(
            client.request(&Request::Shutdown).unwrap(),
            Response::ShutdownAck
        );
        let summary = handle.join().unwrap();
        assert_eq!(summary.analyze_ok, 2);
        assert!(summary.requests >= 4);
    }

    #[test]
    fn invariants_op_gates_rendering_without_changing_the_rest() {
        // A literal-init running sum: i = 1, 2, …; s its prefix sum.
        let src = "func sums(n) { i = 1 s = 0 loop { s = s + i i = i + 1 if i > n { break } } }\n";
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let file = || {
            vec![AnalyzeFile {
                path: "sums.biv".into(),
                source: src.into(),
            }]
        };
        let Response::Analyze { output: with, .. } =
            client.analyze_with(file(), None, true).unwrap()
        else {
            panic!("expected analyze response");
        };
        assert!(
            with.contains("invariant: "),
            "invariants op renders invariant lines:\n{with}"
        );
        let Response::Analyze {
            output: without, ..
        } = client.analyze(file(), None).unwrap()
        else {
            panic!("expected analyze response");
        };
        assert!(!without.contains("invariant: "), "{without}");
        // The flag only adds lines; filtering them out recovers the
        // plain report exactly, warm cache and all.
        let stripped: String = with
            .lines()
            .filter(|l| !l.trim_start().starts_with("invariant: "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, without);
        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn parse_errors_are_reported_per_file() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let response = client
            .request(&Request::Analyze {
                files: vec![
                    AnalyzeFile {
                        path: "ok.biv".into(),
                        source: SRC.into(),
                    },
                    AnalyzeFile {
                        path: "bad.biv".into(),
                        source: "func oops {".into(),
                    },
                ],
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Analyze {
            output,
            errors,
            functions,
            ..
        } = response
        else {
            panic!("expected analyze response");
        };
        assert_eq!(functions, 1, "the good file is still analyzed");
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].path, "bad.biv");
        assert!(errors[0].message.contains("parse error"));
        assert!(output.contains("══ ok.biv ══"));
        assert!(!output.contains("bad.biv"), "failed files get no header");
        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn zero_capacity_queue_answers_busy_with_retry_hint() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        config.queue_cap = 0;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let response = client
            .request(&Request::Analyze {
                files: files(1),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Busy { retry_after_ms } = response else {
            panic!("expected busy, got {response:?}");
        };
        assert!(retry_after_ms >= 10);
        let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        let rejected = stats
            .get("requests")
            .unwrap()
            .get("rejected_busy")
            .unwrap()
            .as_i64()
            .unwrap();
        assert_eq!(rejected, 1);
        client.request(&Request::Shutdown).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.rejected_busy, 1);
    }

    #[test]
    fn retry_hint_scales_sub_millisecond_p50s_and_clamps() {
        // No samples yet: assume 50 ms a request.
        assert_eq!(retry_hint_ms(0, 0, 0, 1), 50);
        assert_eq!(retry_hint_ms(0, 0, 3, 2), 100);
        // A 150 µs p50 is data, not "no samples": 64 queued on 2
        // workers is ~4.8 ms, clamped up to the 10 ms floor.
        assert_eq!(retry_hint_ms(150, 1_000, 63, 2), 10);
        assert_eq!(retry_hint_ms(0, 5, 63, 2), 10);
        assert_eq!(retry_hint_ms(1_500, 1_000, 63, 2), 48);
        assert_eq!(retry_hint_ms(u64::MAX, 1, 100, 1), 5_000);
        assert_eq!(
            retry_hint_ms(5_000, 9, 9, 0),
            50,
            "zero workers read as one"
        );
    }

    #[test]
    fn replica_pushes_stay_out_of_the_analyze_books() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let response = client
            .request(&Request::Replicate { entries: vec![] })
            .unwrap();
        assert_eq!(response, Response::ReplicateAck { stored: 0 });
        client.analyze(files(1), None).unwrap();
        let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        let requests = stats.get("requests").unwrap();
        let count = |key: &str| requests.get(key).unwrap().as_i64().unwrap();
        assert_eq!(count("analyze_ok"), 1);
        assert_eq!(
            count("analyze_accepted"),
            count("analyze_ok") + count("worker_panics"),
            "accepted == answered: {requests:?}"
        );
        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn request_timeout_recovers_the_worker() {
        for (name, run) in BACKENDS {
            request_timeout_recovers_the_worker_on(name, run);
        }
    }

    fn request_timeout_recovers_the_worker_on(name: &str, run: Runner) {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        config.request_timeout = Duration::ZERO;
        let (endpoint, handle) = spawn_server_on(run, config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let response = client
            .request(&Request::Analyze {
                files: files(4),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Error { kind, .. } = response else {
            panic!("{name}: expected timeout, got {response:?}");
        };
        assert_eq!(kind, "timeout", "{name}");
        // The worker discards the late result and keeps serving: give it
        // a moment, then confirm with a normal-timeout server op.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
                panic!("expected stats");
            };
            let late = stats
                .get("requests")
                .unwrap()
                .get("late_results")
                .unwrap()
                .as_i64()
                .unwrap();
            if late >= 1 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{name}: late result never recorded"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        client.request(&Request::Shutdown).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.timeouts, 1, "{name}");
    }

    #[test]
    fn bad_frames_answer_bad_request_and_keep_the_connection() {
        for (name, run) in BACKENDS {
            let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
            config.workers = 1;
            let (endpoint, handle) = spawn_server_on(run, config);
            let mut conn = Conn::connect(&Endpoint::parse(&endpoint)).unwrap();
            write_frame(&mut conn, b"this is not json").unwrap();
            let response = read_response(&mut conn);
            let Response::Error { kind, .. } = response else {
                panic!("{name}: expected error, got {response:?}");
            };
            assert_eq!(kind, "bad-request", "{name}");
            // The same connection still serves a valid request.
            write_frame(&mut conn, &Request::Ping.encode()).unwrap();
            assert_eq!(read_response(&mut conn), Response::Pong, "{name}");
            write_frame(&mut conn, &Request::Shutdown.encode()).unwrap();
            handle.join().unwrap();
        }
    }

    #[test]
    fn warm_restart_serves_from_disk_with_identical_bytes() {
        let dir = std::env::temp_dir().join(format!("bivd-warm-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Cold run: populate the store, drain (which flushes it).
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 2;
        config.cache_dir = Some(dir.clone());
        let (endpoint, handle) = spawn_server(config.clone());
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let cold = client
            .request(&Request::Analyze {
                files: files(3),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Analyze {
            output: cold_output,
            analyzed: cold_analyzed,
            ..
        } = cold
        else {
            panic!("expected analyze response");
        };
        assert_eq!(cold_analyzed, 1, "one distinct structure analyzed");
        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();

        // Warm restart: a fresh process-equivalent server over the same
        // store. The memory tier is cold; the disk tier answers.
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let warm = client
            .request(&Request::Analyze {
                files: files(3),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Analyze {
            output: warm_output,
            analyzed: warm_analyzed,
            cached: warm_cached,
            ..
        } = warm
        else {
            panic!("expected analyze response");
        };
        assert_eq!(warm_analyzed, 0, "nothing re-analyzed after restart");
        assert_eq!(warm_cached, 3);
        assert_eq!(warm_output, cold_output, "warm restart changes no bytes");

        let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        let store = stats.get("store").expect("store gauges present");
        assert_eq!(store.get("disk_hits").unwrap().as_i64(), Some(1));
        assert_eq!(store.get("records_live").unwrap().as_i64(), Some(1));
        assert_eq!(
            store.get("corrupt_records_skipped").unwrap().as_i64(),
            Some(0)
        );
        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_reply_spans_file_blocks_and_members_answers_a_single_view() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        config.shard_id = 1;
        config.shard_count = 3;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();

        // With no cluster agent, `members` answers a view of this
        // server alone, at the endpoint it is bound to; R is the whole
        // ring because nothing replicates.
        let Response::Members { view } = client.request(&Request::Members).unwrap() else {
            panic!("expected a members view");
        };
        assert_eq!(
            View::from_json(&view).unwrap(),
            View::single(1, 3, endpoint.clone())
        );
        assert_eq!(View::single(1, 3, endpoint.clone()).replication, 3);

        // A running sum carries invariant lines, so the spans must
        // cover them; the broken file sits between two good ones.
        let sums = "func sums(n) { i = 1 s = 0 loop { s = s + i i = i + 1 if i > n { break } } }\n";
        let request = vec![
            AnalyzeFile {
                path: "ok.biv".into(),
                source: format!("{SRC}{sums}"),
            },
            AnalyzeFile {
                path: "bad.biv".into(),
                source: "func oops {".into(),
            },
            AnalyzeFile {
                path: "twin.biv".into(),
                source: SRC.into(),
            },
        ];
        let response = client.analyze_with(request.clone(), None, true).unwrap();
        let Response::Analyze {
            output,
            functions,
            analyzed,
            cached,
            errors,
            files: blocks,
        } = response
        else {
            panic!("expected analyze, got {response:?}");
        };
        assert_eq!((functions, analyzed, cached), (3, 2, 1));
        assert!(output.contains("invariant: "), "{output}");
        assert_eq!(blocks.len(), 3);

        // The broken file has no block; its message is `errors[0]`.
        assert_eq!(blocks[1], FileBlock::default());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].path, "bad.biv");
        assert!(errors[0].message.contains("parse error"), "{errors:?}");

        // Each file's hashes are its functions' structural hashes.
        for (file, block) in request.iter().zip(&blocks).filter(|(_, b)| b.bytes > 0) {
            let program = biv_ir::parser::parse_program(&file.source).unwrap();
            let want: Vec<u64> = program
                .functions
                .iter()
                .map(biv_core::structural_hash)
                .collect();
            assert_eq!(block.hashes, want, "{}", file.path);
        }
        assert_eq!(blocks[0].hashes[0], blocks[2].hashes[0], "same structure");

        // The blocks, cut by their spans, then the cold stats line over
        // every hash, are exactly the output.
        let mut rebuilt = String::new();
        let mut at = 0;
        for (file, block) in request.iter().zip(&blocks).filter(|(_, b)| b.bytes > 0) {
            let text = &output[at..at + block.bytes];
            assert!(
                text.starts_with(&format!("══ {} ══\n", file.path)),
                "{text}"
            );
            rebuilt.push_str(text);
            at += block.bytes;
        }
        let hashes: Vec<u64> = blocks.iter().flat_map(|b| b.hashes.clone()).collect();
        let cold = cold_batch_stats(&hashes, BatchOptions::default().cache_capacity);
        rebuilt.push_str(&format!("{}\n", cold.render()));
        assert_eq!(rebuilt, output);

        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn preload_warms_the_cache_from_a_store_snapshot() {
        let base = std::env::temp_dir().join(format!("bivd-preload-{}", std::process::id()));
        let donor_dir = base.join("donor");
        let _ = std::fs::remove_dir_all(&base);

        // Donor server: populate its store, drain (which flushes it).
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        config.cache_dir = Some(donor_dir.clone());
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        client
            .request(&Request::Analyze {
                files: files(2),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();

        // Successor server (memory-only): preload the donor's snapshot,
        // then serve the same structure without re-analyzing.
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let response = client
            .request(&Request::Preload {
                dir: donor_dir.display().to_string(),
            })
            .unwrap();
        let Response::PreloadAck { loaded } = response else {
            panic!("expected preload ack, got {response:?}");
        };
        assert_eq!(loaded, 1, "one distinct structure handed off");
        let response = client
            .request(&Request::Analyze {
                files: files(2),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Analyze {
            analyzed, cached, ..
        } = response
        else {
            panic!("expected analyze response");
        };
        assert_eq!(analyzed, 0, "served entirely from the handoff");
        assert_eq!(cached, 2);

        // Preloading a directory that is not a store answers an error,
        // not a crash.
        let response = client
            .request(&Request::Preload {
                dir: base.join("missing").display().to_string(),
            })
            .unwrap();
        let Response::Error { kind, .. } = response else {
            panic!("expected preload error, got {response:?}");
        };
        assert_eq!(kind, "preload");

        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn epoll_and_poll_backends_answer_identical_bytes() {
        let requests = [
            Request::Ping.encode(),
            Request::Analyze {
                files: files(3),
                cache_cap: Some(2),
                invariants: false,
            }
            .encode(),
            Request::Analyze {
                files: files(3),
                cache_cap: None,
                invariants: true,
            }
            .encode(),
            b"this is not json".to_vec(),
            Request::Preload {
                dir: "/nonexistent/biv-preload-source".into(),
            }
            .encode(),
        ];
        let answers: Vec<Vec<Vec<u8>>> = BACKENDS
            .iter()
            .map(|&(name, run)| {
                let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
                config.workers = 2;
                let (endpoint, handle) = spawn_server_on(run, config);
                let mut conn = Conn::connect(&Endpoint::parse(&endpoint)).unwrap();
                let answers = requests
                    .iter()
                    .map(|request| {
                        write_frame(&mut conn, request).unwrap();
                        read_frame(&mut conn, MAX_FRAME_BYTES)
                            .unwrap()
                            .unwrap_or_else(|| panic!("{name}: closed before answering"))
                    })
                    .collect();
                write_frame(&mut conn, &Request::Shutdown.encode()).unwrap();
                handle.join().unwrap();
                answers
            })
            .collect();
        assert_eq!(
            answers[0], answers[1],
            "readiness backends must answer the same bytes"
        );
    }

    #[test]
    fn pipelined_frames_are_answered_in_order() {
        for (name, run) in BACKENDS {
            let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
            config.workers = 1;
            let (endpoint, handle) = spawn_server_on(run, config);
            let endpoint = Endpoint::parse(&endpoint);
            let mut conn = Conn::connect(&endpoint).unwrap();
            // Write all three requests before reading anything: the
            // loop must defer decoding while a job is in flight and
            // still answer strictly in request order.
            write_frame(&mut conn, &Request::Ping.encode()).unwrap();
            write_frame(
                &mut conn,
                &Request::Analyze {
                    files: files(1),
                    cache_cap: None,
                    invariants: false,
                }
                .encode(),
            )
            .unwrap();
            write_frame(&mut conn, &Request::Stats.encode()).unwrap();
            assert_eq!(read_response(&mut conn), Response::Pong, "{name}");
            let analyze = read_response(&mut conn);
            assert!(matches!(analyze, Response::Analyze { .. }), "{name}");
            let stats = read_response(&mut conn);
            assert!(matches!(stats, Response::Stats(_)), "{name}");
            drop(conn);
            let mut client = Client::connect(&endpoint).unwrap();
            client.request(&Request::Shutdown).unwrap();
            handle.join().unwrap();
        }
    }

    /// A peer may shut its write side right after its request: it still
    /// gets the answer, then the server closes. (macOS `poll(2)` reports
    /// that half-close as a hangup.)
    #[test]
    fn half_closed_peer_still_gets_its_answer() {
        for (name, run) in BACKENDS {
            let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
            config.workers = 1;
            let (endpoint, handle) = spawn_server_on(run, config);
            let endpoint = Endpoint::parse(&endpoint);
            let mut conn = Conn::connect(&endpoint).unwrap();
            let request = Request::Analyze {
                files: files(2),
                cache_cap: None,
                invariants: false,
            };
            write_frame(&mut conn, &request.encode()).unwrap();
            let Conn::Tcp(stream) = &conn else {
                unreachable!("dialed a TCP endpoint")
            };
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let answer = read_response(&mut conn);
            assert!(matches!(answer, Response::Analyze { .. }), "{name}");
            assert_eq!(read_frame(&mut conn, MAX_FRAME_BYTES).unwrap(), None);
            let mut client = Client::connect(&endpoint).unwrap();
            client.request(&Request::Shutdown).unwrap();
            handle.join().unwrap();
        }
    }

    /// Once drain begins, an idle connection closes at once, a peer
    /// that finishes its half-sent frame within the grace gets an
    /// explicit `draining` answer, and a peer that never finishes is
    /// closed when the grace runs out.
    #[test]
    fn drain_answers_or_closes_mid_frame_peers_within_the_grace() {
        let mut frame = Vec::new();
        append_frame(&mut frame, &Request::Ping.encode()).unwrap();
        for (name, run) in BACKENDS {
            let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
            config.workers = 1;
            config.drain_grace = Duration::from_secs(1);
            let (endpoint, handle) = spawn_server_on(run, config);
            let endpoint = Endpoint::parse(&endpoint);
            let connect = || {
                let conn = Conn::connect(&endpoint).unwrap();
                conn.set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                conn
            };
            let mut idle = connect();
            let mut finisher = connect();
            let mut staller = connect();
            finisher.write_all(&frame[..3]).unwrap();
            staller.write_all(&frame[..6]).unwrap();
            // The partial frames are written before the shutdown, so the
            // loop has buffered them when drain begins.
            let mut client = Client::connect(&endpoint).unwrap();
            assert_eq!(
                client.request(&Request::Shutdown).unwrap(),
                Response::ShutdownAck
            );

            assert_eq!(read_frame(&mut idle, MAX_FRAME_BYTES).unwrap(), None);
            finisher.write_all(&frame[3..]).unwrap();
            let Response::Error { kind, .. } = read_response(&mut finisher) else {
                panic!("{name}: expected the draining rejection");
            };
            assert_eq!(kind, "draining", "{name}");
            assert_eq!(read_frame(&mut finisher, MAX_FRAME_BYTES).unwrap(), None);
            assert!(
                !matches!(read_frame(&mut staller, MAX_FRAME_BYTES), Ok(Some(_))),
                "{name}: a stalled frame is never served"
            );
            let summary = handle.join().unwrap();
            assert_eq!(summary.connections, 4, "{name}");
        }
    }

    #[test]
    fn stats_payload_is_json_parsable_end_to_end() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(Json::parse(&stats.to_text()).unwrap(), stats);
        assert_eq!(
            stats
                .get("queue")
                .unwrap()
                .get("capacity")
                .unwrap()
                .as_i64(),
            Some(64)
        );
        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();
    }
}
