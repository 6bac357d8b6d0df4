//! The resident analysis server.
//!
//! Two front-ends feed one worker pool:
//!
//! ```text
//!  event loop (default on Linux: epoll owns every connection's I/O)
//!      ├─ ping / stats / shutdown: answered inline from the loop
//!      └─ analyze / preload: bounded queue ── worker pool ── shared
//!         StructuralCache ── completion queue ── event loop writes
//!
//!  accept loop (--net-threaded, and non-Linux): thread per connection
//!      ├─ ping / stats / shutdown: answered inline
//!      └─ analyze: bounded queue ── worker pool ── mpsc reply
//! ```
//!
//! The two modes answer byte-identical responses — the threaded mode
//! exists for differential testing and as the portable fallback; see
//! [`crate::event`] for the readiness-driven implementation.
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
//!    handler answers `timeout` and the worker's late result is
//!    discarded, not the worker), reads poll so drain cannot hang on an
//!    idle client, and drain itself grants a grace period per
//!    connection.
//! 4. **No dropped accepted work** — a request that was queued is
//!    always analyzed and answered, including during drain; requests
//!    arriving after drain began get an explicit `draining` error.

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use biv_core::{
    analyze_batch_with_backend, cold_batch_stats, render_grouped_with, resolve_jobs,
    AnalysisConfig, BatchOptions, Budget, CacheBackend, Locked, StructuralCache,
};
use biv_ir::parser::parse_program;
use biv_ir::Function;
use biv_store::{Store, StoreOptions, TieredCache};

use crate::cluster::{ClusterHandle, View};
use crate::frame::{write_frame, MAX_FRAME_BYTES};
use crate::metrics::{Metrics, PhaseSample, ShardInfo};
use crate::net::{Conn, Endpoint, Listener};
use crate::pool::{JobQueue, PushError};
use crate::proto::{AnalyzeFile, FileError, FleetFile, ReplicaEntry, Request, Response};

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
    /// Accept-loop and idle-read poll interval.
    pub poll_interval: Duration,
    /// How long a mid-frame read may continue once drain has begun.
    pub drain_grace: Duration,
    /// Resource budget applied to every analysis. Breaches degrade the
    /// affected values to `unknown` with a recorded reason; they never
    /// fail the request.
    pub budget: Budget,
    /// Directory of the durable analysis store. `None` serves from the
    /// in-memory cache alone; `Some` preloads the store on startup
    /// (warm restart), writes summaries through to it, and flushes it —
    /// fsync plus atomic index snapshot — when the drain completes.
    pub cache_dir: Option<PathBuf>,
    /// This server's shard id within a fleet (`--fleet shard=K/N`).
    /// `0` with `shard_count == 1` is the single-process identity.
    pub shard_id: u32,
    /// The fleet size this server belongs to; `1` outside any fleet.
    pub shard_count: u32,
    /// Which network front-end owns connection I/O.
    pub net_mode: NetMode,
    /// The membership/replication agent, when this server is a fleet
    /// member started with peers. `None` answers `members` with a
    /// one-member view of this server ([`View::single`]), `gossip` with
    /// a `no-cluster` error, and replicates nothing.
    pub cluster: Option<ClusterHandle>,
}

/// The server's network front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMode {
    /// Readiness-driven epoll event loop (Linux). On other platforms
    /// this silently falls back to [`NetMode::Threaded`].
    Event,
    /// Blocking accept loop with one handler thread per connection
    /// (`--net-threaded`) — the portable fallback and the differential
    /// baseline for the event loop.
    Threaded,
}

impl Default for NetMode {
    fn default() -> NetMode {
        if cfg!(target_os = "linux") {
            NetMode::Event
        } else {
            NetMode::Threaded
        }
    }
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
            net_mode: NetMode::default(),
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

/// Where a worker delivers a finished response. The threaded front-end
/// blocks a handler thread on an mpsc receiver; the event loop hands
/// workers a completion-queue sink instead (see [`crate::event`]).
pub(crate) trait ReplySink: Send + Sync {
    /// Delivers the response. `false` means the requester is already
    /// gone (timed out, connection died) — the caller counts the result
    /// as late.
    fn send(&self, response: Response) -> bool;
}

struct ChannelSink(mpsc::Sender<Response>);

impl ReplySink for ChannelSink {
    fn send(&self, response: Response) -> bool {
        self.0.send(response).is_ok()
    }
}

/// What a queued job does.
pub(crate) enum JobKind {
    /// A plain analyze: one rendered report ending in the stats line.
    Analyze {
        files: Vec<AnalyzeFile>,
        cache_cap: Option<usize>,
        invariants: bool,
    },
    /// A fleet analyze: per-file blocks plus hashes, no stats line.
    AnalyzeFleet {
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
    pub(crate) reply: Arc<dyn ReplySink>,
}

/// State shared by the front-end (accept loop or event loop), handlers,
/// and workers.
pub(crate) struct Shared<'a> {
    pub(crate) config: &'a ServerConfig,
    /// The bound endpoint, advertised in the one-member view.
    pub(crate) endpoint: String,
    pub(crate) workers: usize,
    pub(crate) queue: JobQueue<Job>,
    pub(crate) cache: Mutex<Box<dyn CacheBackend + Send>>,
    pub(crate) metrics: Metrics,
    pub(crate) started: Instant,
    pub(crate) shutdown: &'a AtomicBool,
}

impl<'a> Shared<'a> {
    /// Opens the cache backend and assembles the shared state both
    /// front-ends serve from.
    pub(crate) fn open(
        config: &'a ServerConfig,
        listener: &Listener,
        shutdown: &'a AtomicBool,
    ) -> io::Result<Shared<'a>> {
        // Opening the store *is* the preload: every surviving record is
        // decoded into its index before the first request is accepted.
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
            metrics: Metrics::new(),
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

    /// The end-of-drain sequence shared by both front-ends: make the
    /// store durable, then let the cluster agent announce departure and
    /// hand the snapshot to the shards absorbing our key ranges.
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
    pub fn run(self, shutdown: &AtomicBool) -> io::Result<ServeSummary> {
        let Server { listener, config } = self;
        #[cfg(target_os = "linux")]
        if config.net_mode == NetMode::Event {
            return crate::event::run_event(listener, config, shutdown);
        }
        run_threaded(listener, config, shutdown)
    }
}

/// The blocking front-end: a polling accept loop with one handler
/// thread per connection.
fn run_threaded(
    listener: Listener,
    config: ServerConfig,
    shutdown: &AtomicBool,
) -> io::Result<ServeSummary> {
    let shared = Shared::open(&config, &listener, shutdown)?;
    let workers = shared.workers;
    listener.set_nonblocking(true)?;

    std::thread::scope(|scope| {
        let shared = &shared;
        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            worker_handles.push(scope.spawn(move || worker_loop(shared)));
        }

        let mut handlers = Vec::new();
        while !shutdown.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok(conn) => {
                    shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    handlers.push(scope.spawn(move || handle_conn(shared, conn)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(config.poll_interval);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (EMFILE under load)
                    // must not kill the daemon; back off and retry.
                    eprintln!("bivd: accept error: {e}");
                    std::thread::sleep(config.poll_interval);
                }
            }
            // Finished handler threads are detached; the scope still
            // guarantees they are joined before `run` returns.
            if handlers.len() >= 64 {
                handlers.retain(|h| !h.is_finished());
            }
            // Replace any worker that died. While the server is
            // accepting, the queue is open, so a finished worker
            // thread can only mean a panic escaped the per-job
            // catch (e.g. the injected `worker.die` fault). The
            // stranded client was already answered by the worker's
            // reply guard; here we restore pool capacity.
            for slot in worker_handles.iter_mut() {
                if slot.is_finished() {
                    let fresh = scope.spawn(move || worker_loop(shared));
                    let dead = std::mem::replace(slot, fresh);
                    let _ = dead.join(); // Err(payload) is expected here
                    shared
                        .metrics
                        .workers_respawned
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // Drain: stop accepting (close + unlink the endpoint so new
        // connects fail fast), let every handler finish its in-flight
        // request, then release the workers once the queue is empty.
        drop(listener);
        if let Endpoint::Unix(path) = &config.endpoint {
            std::fs::remove_file(path).ok();
        }
        for handler in handlers {
            let _ = handler.join();
        }
        shared.queue.close();
        for worker in worker_handles {
            let _ = worker.join();
        }
        // Every queued request is answered and the workers are
        // gone: make the store durable (and run the departure
        // handoff, if this server is a fleet member) before
        // reporting the drain.
        shared.finish_drain();

        Ok(shared.summary())
    })
}

/// One worker: pop, parse, classify through the shared cache, render,
/// reply. A send failure means the request already timed out or its
/// connection died — the result is discarded and the worker moves on
/// (this is the whole worker-recovery story: workers never carry state
/// from one request into the next).
///
/// Each job runs inside `catch_unwind`, so a panic in analysis answers
/// that one request with an `internal` error and the worker keeps
/// serving. A panic *outside* the catch (the injected `worker.die`
/// site, or a bug in the dispatch code itself) kills the thread — the
/// [`ReplyGuard`] still answers the client mid-unwind, and the accept
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
            reply: job.reply.clone(),
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
        if !job.reply.send(response) {
            shared.metrics.late_results.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Answers a job's client if the worker thread unwinds past it, so even
/// a panic outside the per-job catch never strands a waiting handler
/// until its timeout. Dropped without a panic in flight, it does
/// nothing.
struct ReplyGuard<'m> {
    reply: Arc<dyn ReplySink>,
    metrics: &'m Metrics,
}

impl Drop for ReplyGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
            let _ = self.reply.send(internal_error(
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
        } => process_analyze(
            shared,
            opts,
            job.submitted,
            files,
            *cache_cap,
            false,
            *invariants,
        ),
        JobKind::AnalyzeFleet {
            files,
            cache_cap,
            invariants,
        } => process_analyze(
            shared,
            opts,
            job.submitted,
            files,
            *cache_cap,
            true,
            *invariants,
        ),
        JobKind::Preload { dir } => process_preload(shared, dir),
        JobKind::Replicate { entries } => process_replicate(shared, entries),
    }
}

/// Parse, classify through the shared cache, render, record metrics.
///
/// In `fleet` shape the response carries one block per *file* (header +
/// that file's function summaries) plus the file's structural hashes,
/// and no stats line — the router owns the stats line, replayed cold
/// over the whole batch after reassembly, which is what keeps a sharded
/// run byte-identical to a local one.
fn process_analyze(
    shared: &Shared<'_>,
    opts: &BatchOptions,
    submitted: Instant,
    files: &[AnalyzeFile],
    cache_cap: Option<usize>,
    fleet: bool,
    invariants: bool,
) -> Response {
    let queue_wait = submitted.elapsed();

    let t = Instant::now();
    let mut funcs: Vec<Function> = Vec::new();
    // Per input file: its function count, or its parse error.
    let mut parsed: Vec<Result<usize, String>> = Vec::with_capacity(files.len());
    for file in files {
        match parse_program(&file.source) {
            Ok(program) => {
                parsed.push(Ok(program.functions.len()));
                funcs.extend(program.functions);
            }
            Err(e) => parsed.push(Err(format!("{}: parse error: {e}", file.path))),
        }
    }
    let parse = t.elapsed();

    let t = Instant::now();
    let report = analyze_batch_with_backend(&funcs, opts, &mut Locked(&shared.cache));
    let analyze = t.elapsed();

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
    let response = if fleet {
        let mut next = 0usize;
        let mut out_files = Vec::with_capacity(files.len());
        for (file, outcome) in files.iter().zip(&parsed) {
            match outcome {
                Ok(count) => {
                    let mut output = format!("══ {} ══\n", file.path);
                    let mut hashes = Vec::with_capacity(*count);
                    for summary in &report.functions[next..next + count] {
                        output.push_str(&summary.render_with(invariants));
                        hashes.push(summary.hash);
                    }
                    next += count;
                    out_files.push(FleetFile {
                        path: file.path.clone(),
                        output,
                        hashes,
                        error: None,
                    });
                }
                Err(message) => out_files.push(FleetFile {
                    path: file.path.clone(),
                    output: String::new(),
                    hashes: Vec::new(),
                    error: Some(message.clone()),
                }),
            }
        }
        Response::AnalyzeFleet {
            files: out_files,
            functions: report.stats.functions,
            analyzed: report.stats.misses,
            cached: report.stats.hits,
        }
    } else {
        // The rendered stats line replays a cold cache at the client's
        // capacity, so the output never depends on what earlier
        // requests warmed — see the module docs. Cumulative warm
        // counters remain visible through `stats`.
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
        let output = render_grouped_with(&ranges, &report.functions, &cold, invariants);
        Response::Analyze {
            output,
            functions: report.stats.functions,
            analyzed: report.stats.misses,
            cached: report.stats.hits,
            errors,
        }
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
        Ok(store) => {
            let mut backend = shared.cache.lock().expect("structural cache poisoned");
            let mut loaded = 0usize;
            for (hash, summary) in store.entries() {
                backend.commit(hash, Arc::clone(summary));
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

/// Serves one connection until the peer closes, an error occurs, or
/// drain begins.
fn handle_conn(shared: &Shared<'_>, mut conn: Conn) {
    if conn
        .set_read_timeout(Some(shared.config.poll_interval))
        .is_err()
    {
        return;
    }
    loop {
        let draining = shared.shutdown.load(Ordering::Relaxed);
        let payload = match read_frame_polling(shared, &mut conn) {
            Ok(Some(payload)) => payload,
            Ok(None) | Err(_) => return,
        };
        // A frame read after drain was observed is answered, not served:
        // the client gets an explicit rejection instead of a hang or a
        // silent drop, and the connection closes.
        if draining {
            let _ = respond(&mut conn, &draining_response());
            return;
        }
        let request = match Request::decode(&payload) {
            Ok(request) => {
                shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
                request
            }
            Err(e) => {
                shared.metrics.bad_requests.fetch_add(1, Ordering::Relaxed);
                let ok = respond(
                    &mut conn,
                    &Response::Error {
                        kind: "bad-request".into(),
                        message: e.to_string(),
                    },
                );
                if ok.is_err() {
                    return;
                }
                continue;
            }
        };
        let sent = match route_request(shared, request) {
            Routed::Inline { response, shutdown } => {
                // For shutdown: ack first so the requester sees the
                // drain begin, then flip the flag the front-end polls.
                let sent = respond(&mut conn, &response);
                if shutdown {
                    shared.shutdown.store(true, Ordering::Relaxed);
                }
                sent
            }
            Routed::Queue(kind) => {
                let response = serve_job(shared, kind);
                respond(&mut conn, &response)
            }
        };
        if sent.is_err() {
            return;
        }
    }
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
/// ops) or queued. Shared by both front-ends so they serve identical
/// semantics.
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
        Request::AnalyzeFleet {
            files,
            cache_cap,
            invariants,
        } => Routed::Queue(JobKind::AnalyzeFleet {
            files,
            cache_cap,
            invariants,
        }),
        Request::Preload { dir } => Routed::Queue(JobKind::Preload { dir }),
        // Membership ops are answered inline from the event/accept
        // loop: a gossip merge is a small in-memory operation and must
        // stay responsive even when the worker pool is saturated —
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
pub(crate) fn submit_job(
    shared: &Shared<'_>,
    kind: JobKind,
    reply: Arc<dyn ReplySink>,
) -> Result<(), Response> {
    let analyze = !matches!(kind, JobKind::Preload { .. });
    // Injected queue-full storm: reject exactly as a real full queue
    // would, *before* the request counts as accepted, so the
    // no-dropped-accepted-work invariant is untouched.
    if crate::faults::fire("queue.storm") {
        shared.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
        return Err(Response::Busy {
            retry_after_ms: retry_hint_ms(shared),
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
                retry_after_ms: retry_hint_ms(shared),
            })
        }
        Err(PushError::Closed(_)) => Err(draining_response()),
    }
}

/// The rejection for a frame that arrived after drain began — identical
/// from both front-ends.
pub(crate) fn draining_response() -> Response {
    Response::Error {
        kind: "draining".into(),
        message: "server is draining; retry against a fresh instance".into(),
    }
}

/// The timeout response, shared by both front-ends so the bytes match.
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

/// Submits a job to the pool and waits, bounded by the request timeout
/// (the threaded front-end's blocking path).
fn serve_job(shared: &Shared<'_>, kind: JobKind) -> Response {
    let (reply, result) = mpsc::channel();
    if let Err(rejection) = submit_job(shared, kind, Arc::new(ChannelSink(reply))) {
        return rejection;
    }
    match result.recv_timeout(shared.config.request_timeout) {
        Ok(response) => response,
        Err(mpsc::RecvTimeoutError::Timeout) => timeout_response(shared),
        Err(mpsc::RecvTimeoutError::Disconnected) => Response::Error {
            kind: "internal".into(),
            message: "worker dropped the request".into(),
        },
    }
}

/// The backpressure hint: roughly how long until a queue slot frees up,
/// from the live p50 end-to-end latency and the current depth.
fn retry_hint_ms(shared: &Shared<'_>) -> u64 {
    let p50 = shared.metrics.total_p50().as_millis() as u64;
    let per_request = if p50 == 0 { 50 } else { p50 };
    let depth = shared.queue.depth() as u64;
    (per_request * (depth + 1) / shared.workers.max(1) as u64).clamp(10, 5_000)
}

/// Builds the live `stats` payload.
fn stats_json(shared: &Shared<'_>) -> crate::json::Json {
    let backend = shared.cache.lock().expect("structural cache poisoned");
    let gauges = backend.gauges();
    let store = backend.store_gauges();
    drop(backend);
    let mut stats = shared.metrics.snapshot_json(
        shared.queue.depth(),
        shared.queue.capacity(),
        gauges,
        store,
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

fn respond(conn: &mut Conn, response: &Response) -> io::Result<()> {
    write_frame(conn, &response.encode())
}

/// Reads one frame from a connection whose read timeout is the poll
/// interval, so drain is always observed within one poll:
///
/// - idle (no prefix byte yet) + drain → clean close (`Ok(None)`);
/// - mid-frame + drain → the peer gets `drain_grace` to finish the
///   frame, then the read fails and the connection closes.
fn read_frame_polling(shared: &Shared<'_>, conn: &mut Conn) -> io::Result<Option<Vec<u8>>> {
    let mut grace_deadline: Option<Instant> = None;
    let mut prefix = [0u8; 4];
    if !read_full_polling(shared, conn, &mut prefix, true, &mut grace_deadline)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > shared.config.max_frame_bytes {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {len} bytes exceeds the {}-byte limit",
                shared.config.max_frame_bytes
            ),
        ));
    }
    let mut payload = vec![0u8; len];
    read_full_polling(shared, conn, &mut payload, false, &mut grace_deadline)?;
    Ok(Some(payload))
}

/// Fills `buf`, retrying poll timeouts. Returns `false` only when
/// `eof_ok` and the stream ended (or drain began) before the first
/// byte.
fn read_full_polling(
    shared: &Shared<'_>,
    conn: &mut Conn,
    buf: &mut [u8],
    eof_ok: bool,
    grace_deadline: &mut Option<Instant>,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) => {
                if eof_ok && filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream ended mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::Relaxed) {
                    if eof_ok && filled == 0 {
                        // Idle connection during drain: close cleanly.
                        return Ok(false);
                    }
                    let deadline = *grace_deadline
                        .get_or_insert_with(|| Instant::now() + shared.config.drain_grace);
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "drain grace expired mid-frame",
                        ));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::json::Json;
    use std::sync::atomic::AtomicBool;

    const SRC: &str = "func f(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n";

    fn spawn_server(mut config: ServerConfig) -> (String, std::thread::JoinHandle<ServeSummary>) {
        config.endpoint = Endpoint::Tcp("127.0.0.1:0".into());
        let server = Server::bind(config).expect("bind 127.0.0.1:0");
        let endpoint = server.bound_endpoint();
        let flag: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let handle = std::thread::spawn(move || server.run(flag).expect("server run"));
        (endpoint, handle)
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
    fn request_timeout_recovers_the_worker() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        config.request_timeout = Duration::ZERO;
        let (endpoint, handle) = spawn_server(config);
        let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
        let response = client
            .request(&Request::Analyze {
                files: files(4),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::Error { kind, .. } = response else {
            panic!("expected timeout, got {response:?}");
        };
        assert_eq!(kind, "timeout");
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
            assert!(Instant::now() < deadline, "late result never recorded");
            std::thread::sleep(Duration::from_millis(20));
        }
        client.request(&Request::Shutdown).unwrap();
        let summary = handle.join().unwrap();
        assert_eq!(summary.timeouts, 1);
    }

    #[test]
    fn bad_frames_answer_bad_request_and_keep_the_connection() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        let (endpoint, handle) = spawn_server(config);
        let endpoint = Endpoint::parse(&endpoint);
        let mut conn = Conn::connect(&endpoint).unwrap();
        write_frame(&mut conn, b"this is not json").unwrap();
        let payload = crate::frame::read_frame(&mut conn, MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        let response = Response::decode(&payload).unwrap();
        let Response::Error { kind, .. } = response else {
            panic!("expected error, got {response:?}");
        };
        assert_eq!(kind, "bad-request");
        // The same connection still serves a valid request.
        write_frame(&mut conn, &Request::Ping.encode()).unwrap();
        let payload = crate::frame::read_frame(&mut conn, MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(Response::decode(&payload).unwrap(), Response::Pong);
        write_frame(&mut conn, &Request::Shutdown.encode()).unwrap();
        handle.join().unwrap();
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
    fn fleet_analyze_returns_blocks_and_members_answers_a_single_view() {
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

        // A fleet batch gets per-file blocks plus hashes and no stats
        // line — the router renders that itself.
        let response = client
            .request(&Request::AnalyzeFleet {
                files: files(2),
                cache_cap: None,
                invariants: false,
            })
            .unwrap();
        let Response::AnalyzeFleet {
            files: blocks,
            functions,
            analyzed,
            cached,
        } = response
        else {
            panic!("expected fleet analyze, got {response:?}");
        };
        assert_eq!((functions, analyzed, cached), (2, 1, 1));
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].output.starts_with("══ mem/0.biv ══\n"));
        assert!(blocks[1].output.starts_with("══ mem/1.biv ══\n"));
        assert!(
            !blocks[0].output.contains("batch:"),
            "no stats line in shard output"
        );
        assert_eq!(blocks[0].hashes.len(), 1);
        assert_eq!(blocks[0].hashes, blocks[1].hashes, "same structure");
        assert!(blocks.iter().all(|b| b.error.is_none()));

        // A fleet batch with a broken file fails that file, not the
        // batch.
        let response = client
            .request(&Request::AnalyzeFleet {
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
        let Response::AnalyzeFleet { files: blocks, .. } = response else {
            panic!("expected fleet analyze, got {response:?}");
        };
        assert_eq!(blocks.len(), 2);
        assert!(blocks[0].error.is_none());
        assert!(blocks[1].error.as_deref().unwrap().contains("parse error"));
        assert!(blocks[1].output.is_empty());
        assert!(blocks[1].hashes.is_empty());

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
    fn threaded_and_event_front_ends_answer_identical_bytes() {
        let run = |mode: NetMode| {
            let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
            config.workers = 2;
            config.net_mode = mode;
            let (endpoint, handle) = spawn_server(config);
            let mut client = Client::connect(&Endpoint::parse(&endpoint)).unwrap();
            let response = client
                .request(&Request::Analyze {
                    files: files(3),
                    cache_cap: Some(2),
                    invariants: false,
                })
                .unwrap();
            client.request(&Request::Shutdown).unwrap();
            handle.join().unwrap();
            response
        };
        let threaded = run(NetMode::Threaded);
        let event = run(NetMode::Event);
        assert_eq!(threaded, event, "front-ends must answer the same bytes");
    }

    #[test]
    fn pipelined_frames_are_answered_in_order() {
        let mut config = ServerConfig::new(Endpoint::Tcp(String::new()));
        config.workers = 1;
        let (endpoint, handle) = spawn_server(config);
        let endpoint = Endpoint::parse(&endpoint);
        let mut conn = Conn::connect(&endpoint).unwrap();
        // Write all three requests before reading anything: the event
        // loop must defer decoding while a job is in flight and still
        // answer strictly in request order.
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
        let mut read = || {
            let payload = crate::frame::read_frame(&mut conn, MAX_FRAME_BYTES)
                .unwrap()
                .unwrap();
            Response::decode(&payload).unwrap()
        };
        assert_eq!(read(), Response::Pong);
        assert!(matches!(read(), Response::Analyze { .. }));
        assert!(matches!(read(), Response::Stats(_)));
        drop(conn);
        let mut client = Client::connect(&endpoint).unwrap();
        client.request(&Request::Shutdown).unwrap();
        handle.join().unwrap();
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
