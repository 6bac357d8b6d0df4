//! Parallel batch analysis with structural-hash memoization.
//!
//! The paper's classifier is a single linear-time pass per function, so
//! whole-program throughput is bounded only by how many functions can be
//! fed to it. This module turns the one-function [`analyze`] driver into
//! a corpus driver:
//!
//! - **Sharding** — functions are distributed over a
//!   [`std::thread::scope`] worker pool (`jobs` workers; `0` means
//!   auto-detect via `BIV_JOBS` or the machine's available parallelism).
//!   Workers pull work items from a shared atomic cursor, so scheduling
//!   is dynamic, but each result is sent back over an mpsc channel
//!   tagged with its pre-assigned slot and reordered into **input
//!   order**: output is byte-identical for every job count.
//! - **Structural memoization** — before any work is scheduled, each
//!   function is hashed *structurally* (CFG shape, instruction opcodes,
//!   constants, canonically numbered variables and arrays — names and
//!   value numbering excluded). Functions whose hash is already in the
//!   [`StructuralCache`], or that duplicate an earlier function in the
//!   same batch, are served from the cache and never analyzed again.
//!   Generated and machine-translated corpora are full of duplicate
//!   functions; they are classified exactly once.
//! - **Canonical summaries** — cached results must not leak one
//!   function's variable names into another structurally identical
//!   function's report, so summaries render SSA values canonically by
//!   value index (`%7`) via [`describe_class_with`]. Two α-renamed
//!   functions therefore produce byte-identical summaries.
//!
//! Determinism guarantees (pinned by the differential test suite):
//!
//! 1. [`analyze_batch_with_backend`] output for `jobs=N` equals its
//!    `jobs=1` output, byte for byte, for every `N` — the hit/miss plan
//!    is computed serially before any thread is spawned.
//! 2. Cache statistics are scheduling-independent: `misses` is the
//!    number of distinct structures analyzed, `hits + misses` equals the
//!    number of functions submitted.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use biv_ir::parser::{parse_program, ParseError};
use biv_ir::{EntityId, Function, Inst, Operand, Terminator};

use crate::budget::BudgetBreach;
use crate::cache::{content_key, CacheBackend, FileIndex, S3Fifo};
use crate::config::AnalysisConfig;
use crate::display::{canonical_value_name, describe_class_with};
use crate::driver::{analyze_protected, AnalysisError};

/// Options for a batch run.
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Worker threads; `0` resolves via [`resolve_jobs`] (the `BIV_JOBS`
    /// environment variable, then available parallelism).
    pub jobs: usize,
    /// The per-function analysis configuration.
    pub config: AnalysisConfig,
    /// Maximum entries the structural cache retains (S3-FIFO
    /// retention; see [`StructuralCache`]).
    pub cache_capacity: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            jobs: 0,
            config: AnalysisConfig::default(),
            cache_capacity: 4096,
        }
    }
}

/// Resolves a requested job count: explicit request wins, then the
/// `BIV_JOBS` environment variable, then the machine's available
/// parallelism, then 1.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(var) = std::env::var("BIV_JOBS") {
        if let Ok(n) = var.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Counters for one batch run. All values are scheduling-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Functions submitted.
    pub functions: usize,
    /// Functions served from the cache (including duplicates within the
    /// batch, which are analyzed once and shared).
    pub hits: usize,
    /// Functions actually analyzed (distinct structures not in cache).
    pub misses: usize,
    /// Entries evicted from the cache by this batch's insertions.
    pub evictions: usize,
    /// Worker threads used.
    pub jobs: usize,
}

impl BatchStats {
    /// Renders the scheduling-independent counters (everything except
    /// `jobs`, which varies by invocation and must not affect
    /// byte-identical output comparisons).
    pub fn render(&self) -> String {
        format!(
            "batch: {} functions, {} analyzed, {} cache hits, {} evictions",
            self.functions, self.misses, self.hits, self.evictions
        )
    }
}

/// One loop's classification summary, rendered canonically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopSummary {
    /// Loop name (source label when present).
    pub name: String,
    /// Rendered trip count.
    pub trip_count: String,
    /// Rendered trip-count upper bound, when known.
    pub max_trip_count: Option<String>,
    /// `(canonical value name, class description)` per classified value,
    /// in value-numbering order.
    pub classes: Vec<(String, String)>,
    /// Verified polynomial relations between this loop's induction
    /// variables (`2*%3 - %2^2 + %2 = 0` style), in derivation order.
    /// Every entry passed the interpreter check; empty when no relation
    /// was derived or none survived checking. Always computed, so cached
    /// and stored summaries serve invariants warm; rendering is gated by
    /// the `--invariants` flag instead.
    pub invariants: Vec<String>,
}

/// The cache-shareable portion of a function's analysis: everything
/// except the function's own name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralSummary {
    /// Per-loop summaries in inner-to-outer order.
    pub loops: Vec<LoopSummary>,
    /// Budget breaches hit while analyzing (empty with the default
    /// unlimited budget).
    pub breaches: Vec<BudgetBreach>,
    /// Set when the analysis panicked: the caught payload. `loops` is
    /// empty in that case — the function degraded to an error line, the
    /// rest of the batch is unaffected.
    pub error: Option<String>,
}

impl StructuralSummary {
    /// A summary holding only the analyzed loops — no breaches, no
    /// error. What every analysis produced before budgets existed.
    pub fn from_loops(loops: Vec<LoopSummary>) -> StructuralSummary {
        StructuralSummary {
            loops,
            breaches: Vec::new(),
            error: None,
        }
    }

    /// Whether this summary may be retained in a structure-keyed cache.
    /// Panicked analyses must not poison the cache, and deadline-
    /// degraded results are nondeterministic on identical input (the
    /// deterministic caps — nodes/SCC/order — breach identically every
    /// time, so they are safe to share).
    pub fn cacheable(&self) -> bool {
        self.error.is_none() && self.breaches.iter().all(BudgetBreach::is_deterministic)
    }
}

/// One function's batch result.
#[derive(Debug, Clone)]
pub struct FunctionSummary {
    /// The function's name (never cached — two structurally identical
    /// functions keep their own names).
    pub name: String,
    /// The structural hash used as the cache key.
    pub hash: u64,
    /// Whether this result was served from the cache (a pre-existing
    /// entry or an earlier duplicate in the same batch).
    pub cached: bool,
    /// The shared summary body.
    pub summary: Arc<StructuralSummary>,
}

impl FunctionSummary {
    /// Renders the per-function report block. Deterministic: identical
    /// for every job count and for cached vs freshly analyzed results.
    pub fn render(&self) -> String {
        self.render_with(false)
    }

    /// [`FunctionSummary::render`] with verified invariant lines included
    /// when `show_invariants` is set. The invariants always live in the
    /// summary (cached and stored either way); the flag only gates
    /// printing, so warm and cold output stay byte-identical for either
    /// flag state.
    pub fn render_with(&self, show_invariants: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!("func {} [{:016x}]\n", self.name, self.hash));
        render_summary_body(&mut out, &self.summary, show_invariants);
        out
    }
}

/// Renders a summary's error line, loop blocks, and budget lines,
/// optionally printing each loop's verified invariant relations after
/// its class lines.
fn render_summary_body(out: &mut String, summary: &StructuralSummary, show_invariants: bool) {
    use std::fmt::Write as _;
    if let Some(error) = &summary.error {
        let _ = writeln!(out, "  error: internal: {error}");
    }
    for l in &summary.loops {
        let _ = writeln!(out, "  loop {}: trip count {}", l.name, l.trip_count);
        if let Some(max) = &l.max_trip_count {
            let _ = writeln!(out, "    max trip count: {max}");
        }
        for (value, class) in &l.classes {
            let _ = writeln!(out, "    {value:<8} => {class}");
        }
        if show_invariants {
            for relation in &l.invariants {
                let _ = writeln!(out, "    invariant: {relation}");
            }
        }
    }
    for breach in &summary.breaches {
        let _ = writeln!(out, "  budget: {breach}");
    }
}

/// A bounded structural-hash → summary cache, reusable across batches
/// (successive files fed to `bivc`, every request `bivd` serves).
///
/// Retention is S3-FIFO (see `crate::cache`): a tenth of the capacity
/// is a probationary queue, so a scan of one-hit structures does not
/// flush entries that are hit again. Each insert beyond capacity still
/// evicts exactly one entry, which is all [`cold_batch_stats`] relies
/// on.
#[derive(Debug)]
pub struct StructuralCache {
    entries: S3Fifo<Arc<StructuralSummary>>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Default for StructuralCache {
    fn default() -> Self {
        StructuralCache::new(0)
    }
}

impl StructuralCache {
    /// Creates a cache bounded to `capacity` entries (0 disables
    /// retention entirely: every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> StructuralCache {
        StructuralCache {
            entries: S3Fifo::new(capacity, (capacity / 10).max(1)),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The configured retention bound.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Cumulative hits across all batches served by this cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cumulative misses across all batches served by this cache.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Cumulative evictions across all batches served by this cache.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks `hash` up and marks it used for retention, without
    /// counting a hit or a miss — for tiered backends, which count once
    /// across their tiers.
    pub fn get(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        self.entries.get_if(hash, |_| true).map(Arc::clone)
    }

    /// Looks `hash` up, recording a hit or a miss in the cumulative
    /// counters — the counted form backends route through.
    pub fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        let found = self.get(hash);
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Records a hit that bypassed [`lookup`](StructuralCache::lookup)
    /// (a batch-local structural twin served from its representative).
    pub fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// Records a miss that bypassed [`lookup`](StructuralCache::lookup)
    /// (a tiered backend checked every tier and found nothing; the miss
    /// is still charged to the front tier's counters so `hits + misses`
    /// tracks functions submitted).
    pub fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Inserts a summary; returns how many entries were evicted to make
    /// room (one per insert of a new hash beyond capacity).
    pub fn insert(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize {
        let evicted = self.entries.insert_with(hash, 1, || summary);
        self.evictions += evicted as u64;
        evicted
    }
}

/// The result of a batch run: per-function summaries in input order plus
/// scheduling-independent statistics.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One summary per submitted function, in input order.
    pub functions: Vec<FunctionSummary>,
    /// Counters for this run.
    pub stats: BatchStats,
}

impl BatchReport {
    /// Renders every function block plus the stats line. Byte-identical
    /// across job counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.functions {
            out.push_str(&f.render());
        }
        out.push_str(&self.stats.render());
        out.push('\n');
        out
    }
}

/// Analyzes a batch of functions against any [`CacheBackend`] — the
/// one batch pipeline, which [`analyze_sources_with_backend`] also runs
/// for whole source files. A fresh run passes
/// `&mut StructuralCache::new(opts.cache_capacity)`; a durable run a
/// memory+disk write-through tier such as `biv_store::TieredCache`; and
/// a server whose workers share one cache passes
/// [`Locked`](crate::cache::Locked)`(&mutex)`, which takes the lock per
/// lookup and per commit, never while a function is analyzed.
///
/// The hit/miss plan is computed serially before any worker starts, so
/// results, summaries, and statistics do not depend on scheduling. Which
/// tier answered a lookup never changes the summary bytes — only the
/// backend's own counters.
pub fn analyze_batch_with_backend<B: CacheBackend + ?Sized>(
    funcs: &[Function],
    opts: &BatchOptions,
    cache: &mut B,
) -> BatchReport {
    let plan = BatchPlan::new(funcs.iter().map(structural_hash).collect(), cache);
    let pending: Vec<&Function> = plan.representatives.iter().map(|&i| &funcs[i]).collect();
    let names = funcs.iter().map(|f| f.name().to_string());
    plan.finish(names, &pending, opts, cache)
}

/// Per input file of [`analyze_sources_with_backend`]: how many
/// functions it contributed to the report, or why it did not parse.
#[derive(Debug)]
pub struct SourcesReport {
    /// One outcome per source, in input order. The report's functions
    /// are the `Ok` counts' functions, concatenated in that order.
    pub files: Vec<Result<usize, ParseError>>,
    /// The batch over every function of every parsed source.
    pub report: BatchReport,
    /// Time spent finding each file's functions: index lookups, plus
    /// parsing and structural hashing of the files the index missed.
    pub parse: Duration,
}

/// Analyzes whole source files through `cache`, skipping the parser for
/// files `index` holds — the path `bivd` serves requests by.
///
/// A file the index holds (byte-equal source under its
/// [`content_key`]) contributes its stored `(name, structural hash)`
/// list; every other file is parsed and hashed. Every function then
/// goes through the same serial plan as [`analyze_batch_with_backend`]
/// — one counted lookup each, batch-local twins as duplicate hits — so
/// `hits + misses` still equals the functions submitted. An indexed
/// file is parsed again only when the plan leaves one of its functions
/// to analyze (its summary left every tier, or was never cacheable),
/// and then only those functions are analyzed. Summaries and names are
/// those a parse would give, so the report is byte-identical either
/// way.
///
/// After the batch, each parsed file whose summaries are all cacheable
/// is offered to the index ([`FileIndex::admit`]).
pub fn analyze_sources_with_backend<B: CacheBackend + ?Sized>(
    sources: &[&str],
    opts: &BatchOptions,
    cache: &mut B,
    index: &Mutex<FileIndex>,
) -> SourcesReport {
    // A panic under this lock can leave the index short of an entry,
    // never serving a wrong one: every hit is byte-compared.
    let lock = || index.lock().unwrap_or_else(PoisonError::into_inner);
    let t = Instant::now();
    let keys: Vec<u64> = sources.iter().map(|s| content_key(s)).collect();
    let indexed: Vec<_> = {
        let mut index = lock();
        keys.iter()
            .zip(sources)
            .map(|(&key, source)| index.lookup(key, source))
            .collect()
    };
    let mut parsed: Vec<Option<Vec<Function>>> = Vec::with_capacity(sources.len());
    let mut files = Vec::with_capacity(sources.len());
    let mut names = Vec::new();
    let mut hashes = Vec::new();
    // Per function: its file and its position there.
    let mut origin = Vec::new();
    for (i, (source, known)) in sources.iter().zip(&indexed).enumerate() {
        let functions = match known {
            Some(functions) => {
                for (name, hash) in functions.iter() {
                    names.push(name.clone());
                    hashes.push(*hash);
                }
                parsed.push(None);
                functions.len()
            }
            None => match parse_program(source) {
                Ok(program) => {
                    for f in &program.functions {
                        names.push(f.name().to_string());
                        hashes.push(structural_hash(f));
                    }
                    let count = program.functions.len();
                    parsed.push(Some(program.functions));
                    count
                }
                Err(e) => {
                    parsed.push(None);
                    files.push(Err(e));
                    continue;
                }
            },
        };
        origin.extend((0..functions).map(|j| (i, j)));
        files.push(Ok(functions));
    }
    let parse = t.elapsed();

    let plan = BatchPlan::new(hashes, cache);
    for &k in &plan.representatives {
        let file = origin[k].0;
        if parsed[file].is_none() {
            let program = parse_program(sources[file]).expect("an indexed source parsed before");
            parsed[file] = Some(program.functions);
        }
    }
    let pending: Vec<&Function> = plan
        .representatives
        .iter()
        .map(|&k| {
            let (file, j) = origin[k];
            &parsed[file].as_ref().expect("parsed above")[j]
        })
        .collect();
    let report = plan.finish(names, &pending, opts, cache);

    let mut index = lock();
    let mut next = 0;
    for (i, outcome) in files.iter().enumerate() {
        let Ok(count) = outcome else { continue };
        let functions = &report.functions[next..next + count];
        next += count;
        if indexed[i].is_none() && functions.iter().all(|f| f.summary.cacheable()) {
            index.admit(keys[i], sources[i], functions);
        }
    }
    drop(index);
    SourcesReport {
        files,
        report,
        parse,
    }
}

/// Per-function decision from the serial plan phase.
enum Plan {
    /// Served from the backend (any tier).
    Cached(Arc<StructuralSummary>),
    /// Analyzed this batch, as representative `slot` (or sharing it).
    Computed {
        /// Index into the representative/computed arrays.
        slot: usize,
    },
}

/// The serial plan of one batch and what it leaves to analyze.
struct BatchPlan {
    hashes: Vec<u64>,
    /// Per function: its plan, and whether it was served from the cache.
    plans: Vec<(Plan, bool)>,
    /// Input indices of the functions to analyze: the first occurrence of
    /// each structure the backend missed, in input order.
    representatives: Vec<usize>,
    stats: BatchStats,
}

impl BatchPlan {
    /// Serial planning: decide, per function, whether it is served from
    /// the backend, aliases an earlier function in this batch, or is the
    /// representative that will actually be analyzed. Counts hits and
    /// misses in the plan's stats and in the backend's cumulative
    /// counters.
    ///
    /// The batch-local duplicate check runs first and never consults the
    /// backend: the two cases are mutually exclusive (a hash lands in
    /// `slot_of_hash` only after the backend missed on its first
    /// occurrence, and planning never inserts), so counter totals are
    /// identical to checking the backend first.
    fn new<B: CacheBackend + ?Sized>(hashes: Vec<u64>, cache: &mut B) -> BatchPlan {
        let mut stats = BatchStats {
            functions: hashes.len(),
            ..BatchStats::default()
        };
        let mut slot_of_hash: HashMap<u64, usize> = HashMap::new();
        let mut representatives: Vec<usize> = Vec::new();
        let mut plans: Vec<(Plan, bool)> = Vec::with_capacity(hashes.len());
        for (i, &hash) in hashes.iter().enumerate() {
            if let Some(&slot) = slot_of_hash.get(&hash) {
                // Duplicate within this batch: share the representative's
                // result. Counts as a hit — it is not analyzed again.
                stats.hits += 1;
                cache.note_duplicate_hit();
                plans.push((Plan::Computed { slot }, true));
            } else if let Some(summary) = cache.lookup(hash) {
                stats.hits += 1;
                plans.push((Plan::Cached(summary), true));
            } else {
                stats.misses += 1;
                let slot = representatives.len();
                slot_of_hash.insert(hash, slot);
                representatives.push(i);
                plans.push((Plan::Computed { slot }, false));
            }
        }
        BatchPlan {
            hashes,
            plans,
            representatives,
            stats,
        }
    }

    /// Analyzes `pending` — the functions at the plan's representative
    /// indices, in that order — commits the results, and assembles the
    /// input-order report under `names`.
    fn finish<B: CacheBackend + ?Sized>(
        self,
        names: impl IntoIterator<Item = String>,
        pending: &[&Function],
        opts: &BatchOptions,
        cache: &mut B,
    ) -> BatchReport {
        let BatchPlan {
            hashes,
            plans,
            representatives,
            mut stats,
        } = self;
        debug_assert_eq!(pending.len(), representatives.len());
        stats.jobs = resolve_jobs(opts.jobs).min(pending.len()).max(1);
        let computed = compute_representatives(pending, stats.jobs, &opts.config);
        commit_batch(&hashes, &representatives, &computed, cache, &mut stats);
        let functions = plans
            .into_iter()
            .zip(names)
            .zip(hashes)
            .map(|(((plan, cached), name), hash)| FunctionSummary {
                name,
                hash,
                cached,
                summary: match plan {
                    Plan::Cached(s) => s,
                    Plan::Computed { slot } => Arc::clone(&computed[slot]),
                },
            })
            .collect();
        BatchReport { functions, stats }
    }
}

/// Deterministic cache insertion, in representative (= input) order.
/// Uncacheable summaries (panicked or deadline-degraded) are skipped so
/// they cannot poison later lookups; an injected commit fault has the
/// same effect — the result is still returned, just not retained.
fn commit_batch<B: CacheBackend + ?Sized>(
    hashes: &[u64],
    representatives: &[usize],
    computed: &[Arc<StructuralSummary>],
    cache: &mut B,
    stats: &mut BatchStats,
) {
    for (slot, &i) in representatives.iter().enumerate() {
        if !computed[slot].cacheable() || crate::faults::fire("cache.commit") {
            continue;
        }
        stats.evictions += cache.commit(hashes[i], Arc::clone(&computed[slot]));
    }
}

/// Renders a batch report grouped by input file, exactly as `bivc`
/// prints it: a `══ path ══` header per file, that file's function
/// blocks, then the stats line. `ranges` pairs each display path with
/// its function count; counts must sum to `functions.len()`. Per-loop
/// invariant lines are printed when `show_invariants` is set — the
/// format behind `bivc --invariants`.
///
/// This is the single definition of the batch output format — the
/// local CLI and the analysis server both render through it, which is
/// what makes their outputs byte-identical by construction.
pub fn render_grouped_with(
    ranges: &[(String, usize)],
    functions: &[FunctionSummary],
    stats: &BatchStats,
    show_invariants: bool,
) -> String {
    render_blocks(ranges, functions, stats, show_invariants, |_| {})
}

/// [`render_grouped_with`], also returning the UTF-8 byte length of
/// each range's block (its `══ path ══` header plus its function
/// blocks), in range order. The blocks tile the output from its start;
/// the stats line follows the last one. The server sends these spans so
/// the fleet router can cut one reply into per-file blocks.
pub fn render_grouped_spans(
    ranges: &[(String, usize)],
    functions: &[FunctionSummary],
    stats: &BatchStats,
    show_invariants: bool,
) -> (String, Vec<usize>) {
    let mut spans = Vec::with_capacity(ranges.len());
    let mut start = 0usize;
    let out = render_blocks(ranges, functions, stats, show_invariants, |end| {
        spans.push(end - start);
        start = end;
    });
    (out, spans)
}

/// The renderer behind both entry points: `block_end` hears the output
/// length as each range's block is finished.
fn render_blocks(
    ranges: &[(String, usize)],
    functions: &[FunctionSummary],
    stats: &BatchStats,
    show_invariants: bool,
    mut block_end: impl FnMut(usize),
) -> String {
    let mut out = String::new();
    let mut next = 0usize;
    for (path, count) in ranges {
        out.push_str(&format!("══ {path} ══\n"));
        for summary in &functions[next..next + count] {
            out.push_str(&summary.render_with(show_invariants));
        }
        next += count;
        block_end(out.len());
    }
    debug_assert_eq!(next, functions.len(), "ranges cover every function");
    out.push_str(&stats.render());
    out.push('\n');
    out
}

/// Computes the statistics a *cold* run over `hashes` would report: a
/// fresh cache of `capacity` entries, batch-local deduplication, and one
/// eviction per distinct structure inserted beyond capacity. Pure
/// arithmetic — no analysis is performed.
///
/// This is the determinism anchor for remote serving: a long-running
/// server answers from a warm shared cache, but its rendered stats line
/// must not depend on which requests happened to come first, so it
/// reports what a fresh `bivc` run over the same inputs would have said.
/// The warm cache's real cumulative counters stay observable through the
/// server's `stats` endpoint instead.
pub fn cold_batch_stats(hashes: &[u64], capacity: usize) -> BatchStats {
    let mut seen: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut distinct = 0usize;
    for &h in hashes {
        if seen.insert(h) {
            distinct += 1;
        }
    }
    // A fresh cache only ever evicts once more distinct structures have
    // been inserted than it can hold, and then one per insert.
    let evictions = if capacity == 0 {
        0
    } else {
        distinct.saturating_sub(capacity)
    };
    BatchStats {
        functions: hashes.len(),
        hits: hashes.len() - distinct,
        misses: distinct,
        evictions,
        jobs: 0,
    }
}

/// Analyzes the representative functions, sharded over `jobs` workers.
///
/// Workers pull indices from a shared cursor and send each result back
/// tagged with its slot; the receive loop reorders into input order, so
/// no lock is held while a summary is produced.
fn compute_representatives(
    reps: &[&Function],
    jobs: usize,
    config: &AnalysisConfig,
) -> Vec<Arc<StructuralSummary>> {
    if reps.len() <= 1 || jobs == 1 {
        return reps
            .iter()
            .map(|f| Arc::new(summarize(f, config)))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let cursor = &cursor;
        let (tx, rx) = mpsc::channel::<(usize, Arc<StructuralSummary>)>();
        for _ in 0..jobs {
            let tx = tx.clone();
            scope.spawn(move || loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                if k >= reps.len() {
                    break;
                }
                let summary = Arc::new(summarize(reps[k], config));
                if tx.send((k, summary)).is_err() {
                    break;
                }
            });
        }
        // The receiver loop ends when every worker has dropped its
        // sender clone; the original must go first.
        drop(tx);
        let mut slots: Vec<Option<Arc<StructuralSummary>>> = vec![None; reps.len()];
        for (k, summary) in rx {
            slots[k] = Some(summary);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every slot filled"))
            .collect()
    })
}

/// Analyzes one function and renders its canonical summary.
///
/// Runs behind the panic-isolation boundary: a panicking function
/// yields an error summary (rendered as an `error:` line) while the
/// rest of the batch proceeds normally.
fn summarize(func: &Function, config: &AnalysisConfig) -> StructuralSummary {
    let analysis = match analyze_protected(func, *config) {
        Ok(analysis) => analysis,
        Err(AnalysisError::Internal { detail }) => {
            return StructuralSummary {
                loops: Vec::new(),
                breaches: Vec::new(),
                error: Some(detail),
            };
        }
    };
    let namer = canonical_value_name;
    let mut invariants = crate::invariants::function_invariants(func, config, &analysis);
    let mut loops = Vec::new();
    for (l, info) in analysis.loops() {
        // `VecMap` iteration is in value-index order.
        let classes = info
            .classes
            .iter()
            .map(|(v, c)| {
                (
                    canonical_value_name(v),
                    describe_class_with(&analysis, c, &namer),
                )
            })
            .collect();
        loops.push(LoopSummary {
            name: info.name.clone(),
            trip_count: info.trip_count.to_string(),
            max_trip_count: info.max_trip_count.as_ref().map(|p| p.to_string()),
            classes,
            invariants: invariants.remove(&l).unwrap_or_default(),
        });
    }
    StructuralSummary {
        loops,
        breaches: analysis.budget_breaches().to_vec(),
        error: None,
    }
}

/// Computes the structural hash of a function: CFG shape, labels,
/// instruction opcodes, constants, and *canonically numbered* variables
/// and arrays. Variable and array names, value numbering, and the
/// function's own name are excluded, so α-renamed functions collide (by
/// design) while any single-instruction change separates.
pub fn structural_hash(func: &Function) -> u64 {
    let mut h = Fnv1a::new();
    let mut canon = Canonicalizer::default();
    h.write_usize(func.params().len());
    for &p in func.params() {
        h.write_u64(canon.var(p));
    }
    h.write_usize(func.blocks.iter().count());
    for (block, data) in func.blocks.iter() {
        // Block identity is its arena index (construction order), which
        // the parser assigns purely from program structure.
        h.write_u64(block.index() as u64);
        match &data.label {
            Some(label) => {
                h.write_u8(1);
                h.write_bytes(label.as_bytes());
            }
            None => h.write_u8(0),
        }
        h.write_usize(data.insts.len());
        for inst in &data.insts {
            hash_inst(&mut h, &mut canon, inst);
        }
        hash_term(&mut h, &mut canon, &data.term);
    }
    h.finish()
}

fn hash_operand(h: &mut Fnv1a, canon: &mut Canonicalizer, op: &Operand) {
    match op {
        Operand::Var(v) => {
            h.write_u8(1);
            h.write_u64(canon.var(*v));
        }
        Operand::Const(c) => {
            h.write_u8(2);
            h.write_u64(*c as u64);
        }
    }
}

fn hash_inst(h: &mut Fnv1a, canon: &mut Canonicalizer, inst: &Inst) {
    match inst {
        Inst::Copy { dst, src } => {
            h.write_u8(10);
            hash_operand(h, canon, src);
            h.write_u64(canon.var(*dst));
        }
        Inst::Neg { dst, src } => {
            h.write_u8(11);
            hash_operand(h, canon, src);
            h.write_u64(canon.var(*dst));
        }
        Inst::Binary { dst, op, lhs, rhs } => {
            h.write_u8(12);
            h.write_u8(*op as u8);
            hash_operand(h, canon, lhs);
            hash_operand(h, canon, rhs);
            h.write_u64(canon.var(*dst));
        }
        Inst::Load { dst, array, index } => {
            h.write_u8(13);
            h.write_u64(canon.array(*array));
            h.write_usize(index.len());
            for op in index {
                hash_operand(h, canon, op);
            }
            h.write_u64(canon.var(*dst));
        }
        Inst::Store {
            array,
            index,
            value,
        } => {
            h.write_u8(14);
            h.write_u64(canon.array(*array));
            h.write_usize(index.len());
            for op in index {
                hash_operand(h, canon, op);
            }
            hash_operand(h, canon, value);
        }
    }
}

fn hash_term(h: &mut Fnv1a, canon: &mut Canonicalizer, term: &Terminator) {
    match term {
        Terminator::Jump(b) => {
            h.write_u8(20);
            h.write_u64(b.index() as u64);
        }
        Terminator::Branch {
            op,
            lhs,
            rhs,
            then_bb,
            else_bb,
        } => {
            h.write_u8(21);
            h.write_u8(*op as u8);
            hash_operand(h, canon, lhs);
            hash_operand(h, canon, rhs);
            h.write_u64(then_bb.index() as u64);
            h.write_u64(else_bb.index() as u64);
        }
        Terminator::Return => h.write_u8(22),
    }
}

/// First-occurrence canonical numbering of variables and arrays.
#[derive(Default)]
struct Canonicalizer {
    vars: HashMap<biv_ir::Var, u64>,
    arrays: HashMap<biv_ir::Array, u64>,
}

impl Canonicalizer {
    fn var(&mut self, v: biv_ir::Var) -> u64 {
        let next = self.vars.len() as u64;
        *self.vars.entry(v).or_insert(next)
    }

    fn array(&mut self, a: biv_ir::Array) -> u64 {
        let next = self.arrays.len() as u64;
        *self.arrays.entry(a).or_insert(next)
    }
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
pub(crate) struct Fnv1a(u64);

impl Fnv1a {
    pub(crate) fn new() -> Fnv1a {
        Fnv1a(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub(crate) fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for &b in bytes {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    pub(crate) fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Locked;

    fn funcs_of(src: &str) -> Vec<Function> {
        parse_program(src).expect("test source parses").functions
    }

    const TWO_LOOPS: &str = r#"
        func first(n) {
            j = 1
            L1: for i = 1 to n { j = j + i A[j] = i }
        }
        func second(n) {
            q = 1
            L1: for r = 1 to n { q = q + r A[q] = r }
        }
        func third(n) {
            j = 2
            L1: for i = 1 to n { j = j + i A[j] = i }
        }
    "#;

    #[test]
    fn alpha_renamed_functions_share_a_hash() {
        let funcs = funcs_of(TWO_LOOPS);
        assert_eq!(structural_hash(&funcs[0]), structural_hash(&funcs[1]));
    }

    #[test]
    fn constant_mutation_changes_the_hash() {
        let funcs = funcs_of(TWO_LOOPS);
        assert_ne!(structural_hash(&funcs[0]), structural_hash(&funcs[2]));
    }

    #[test]
    fn batch_serves_duplicates_from_cache() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions::default();
        let mut cache = StructuralCache::new(opts.cache_capacity);
        let report = analyze_batch_with_backend(&funcs, &opts, &mut cache);
        assert_eq!(report.stats.functions, 3);
        assert_eq!(report.stats.misses, 2); // first/second share; third differs
        assert_eq!(report.stats.hits, 1);
        assert!(report.functions[1].cached);
        assert_eq!(
            report.functions[0].summary, report.functions[1].summary,
            "α-renamed twins share the summary"
        );
        // Names are never cached.
        assert_eq!(report.functions[0].name, "first");
        assert_eq!(report.functions[1].name, "second");
    }

    #[test]
    fn cache_persists_across_batches() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions::default();
        let mut cache = StructuralCache::new(16);
        let first = analyze_batch_with_backend(&funcs, &opts, &mut cache);
        assert_eq!(first.stats.misses, 2);
        let second = analyze_batch_with_backend(&funcs, &opts, &mut cache);
        assert_eq!(second.stats.misses, 0);
        assert_eq!(second.stats.hits, 3);
        // Per-function output is identical whether analyzed or cached;
        // only the stats line records the different hit counts.
        for (a, b) in first.functions.iter().zip(&second.functions) {
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn eviction_is_counted_and_bounded() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions {
            cache_capacity: 1,
            ..BatchOptions::default()
        };
        let mut cache = StructuralCache::new(opts.cache_capacity);
        let report = analyze_batch_with_backend(&funcs, &opts, &mut cache);
        assert_eq!(cache.len(), 1);
        assert_eq!(report.stats.evictions, 1);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn job_counts_do_not_change_output() {
        let funcs = funcs_of(TWO_LOOPS);
        let render_with = |jobs: usize| {
            let opts = BatchOptions {
                jobs,
                ..BatchOptions::default()
            };
            let mut cache = StructuralCache::new(opts.cache_capacity);
            analyze_batch_with_backend(&funcs, &opts, &mut cache).render()
        };
        let serial = render_with(1);
        assert_eq!(serial, render_with(2));
        assert_eq!(serial, render_with(8));
    }

    #[test]
    fn resolve_jobs_prefers_explicit_request() {
        assert_eq!(resolve_jobs(3), 3);
        assert!(resolve_jobs(0) >= 1);
    }

    #[test]
    fn cold_stats_replay_matches_a_fresh_run() {
        let funcs = funcs_of(TWO_LOOPS);
        let hashes: Vec<u64> = funcs.iter().map(structural_hash).collect();
        for capacity in [0, 1, 2, 4096] {
            let opts = BatchOptions {
                cache_capacity: capacity,
                ..BatchOptions::default()
            };
            let fresh =
                analyze_batch_with_backend(&funcs, &opts, &mut StructuralCache::new(capacity));
            let mut replay = cold_batch_stats(&hashes, capacity);
            replay.jobs = fresh.stats.jobs;
            assert_eq!(replay, fresh.stats, "capacity {capacity}");
        }
    }

    #[test]
    fn shared_cache_batches_match_exclusive_ones() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions {
            jobs: 1,
            ..BatchOptions::default()
        };
        let shared = Mutex::new(StructuralCache::new(16));
        let first = analyze_batch_with_backend(&funcs, &opts, &mut Locked(&shared));
        let second = analyze_batch_with_backend(&funcs, &opts, &mut Locked(&shared));
        let mut exclusive = StructuralCache::new(16);
        let expect_first = analyze_batch_with_backend(&funcs, &opts, &mut exclusive);
        let expect_second = analyze_batch_with_backend(&funcs, &opts, &mut exclusive);
        assert_eq!(first.render(), expect_first.render());
        assert_eq!(second.render(), expect_second.render());
        let cache = shared.lock().unwrap();
        assert_eq!(cache.hits(), exclusive.hits());
        assert_eq!(cache.misses(), exclusive.misses());
        assert_eq!(
            cache.hits() + cache.misses(),
            2 * funcs.len() as u64,
            "every submitted function counts exactly once"
        );
    }

    #[test]
    fn shared_cache_is_consistent_under_contention() {
        let funcs = funcs_of(TWO_LOOPS);
        let opts = BatchOptions {
            jobs: 1,
            ..BatchOptions::default()
        };
        let shared = Mutex::new(StructuralCache::new(64));
        let rounds = 8;
        let mut fresh = StructuralCache::new(opts.cache_capacity);
        let reference = analyze_batch_with_backend(&funcs, &opts, &mut fresh).render();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..rounds {
                        let report =
                            analyze_batch_with_backend(&funcs, &opts, &mut Locked(&shared));
                        for (f, name) in report.functions.iter().zip(["first", "second", "third"]) {
                            assert_eq!(f.name, name);
                        }
                        assert_eq!(
                            report.stats.hits + report.stats.misses,
                            funcs.len(),
                            "per-request counts are total"
                        );
                    }
                });
            }
        });
        let cache = shared.lock().unwrap();
        assert_eq!(
            cache.hits() + cache.misses(),
            (4 * rounds * funcs.len()) as u64,
            "cumulative hits + misses == functions submitted"
        );
        drop(cache);
        // A warm follow-up run renders the same per-function blocks as a
        // cold exclusive run; only the stats line differs.
        let warm = analyze_batch_with_backend(&funcs, &opts, &mut Locked(&shared));
        let mut fresh = StructuralCache::new(opts.cache_capacity);
        let cold = analyze_batch_with_backend(&funcs, &opts, &mut fresh);
        assert!(reference.contains(&cold.functions[0].render()));
        for (w, c) in warm.functions.iter().zip(&cold.functions) {
            assert_eq!(w.render(), c.render());
        }
    }

    /// Runs `sources` through the file-index path and renders it as one
    /// batch, the way `bivd` does.
    fn serve(
        sources: &[&str],
        cache: &mut StructuralCache,
        index: &Mutex<FileIndex>,
    ) -> (String, BatchStats) {
        let opts = BatchOptions {
            jobs: 1,
            ..BatchOptions::default()
        };
        let served = analyze_sources_with_backend(sources, &opts, cache, index);
        let ranges: Vec<(String, usize)> = served
            .files
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().ok().map(|&n| (format!("f{i}"), n)))
            .collect();
        let hashes: Vec<u64> = served.report.functions.iter().map(|f| f.hash).collect();
        let cold = cold_batch_stats(&hashes, cache.capacity());
        let output = render_grouped_with(&ranges, &served.report.functions, &cold, true);
        (output, served.report.stats)
    }

    fn local(sources: &[&str]) -> String {
        let mut funcs = Vec::new();
        let mut ranges = Vec::new();
        for (i, source) in sources.iter().enumerate() {
            let f = funcs_of(source);
            ranges.push((format!("f{i}"), f.len()));
            funcs.extend(f);
        }
        let opts = BatchOptions::default();
        let report = analyze_batch_with_backend(&funcs, &opts, &mut StructuralCache::new(4096));
        render_grouped_with(&ranges, &report.functions, &report.stats, true)
    }

    #[test]
    fn indexed_files_skip_the_parser_with_identical_bytes() {
        let index = Mutex::new(FileIndex::new(64));
        let mut cache = StructuralCache::new(64);
        let expected = local(&[TWO_LOOPS]);
        for round in 0..4 {
            let (output, stats) = serve(&[TWO_LOOPS], &mut cache, &index);
            assert_eq!(output, expected, "round {round}");
            assert_eq!(stats.hits + stats.misses, 3);
        }
        let gauges = index.lock().unwrap().gauges();
        // Round 0 remembers the file, round 1 admits it, rounds 2 and 3
        // hit.
        assert_eq!((gauges.hits, gauges.misses, gauges.entries), (2, 2, 1));
        assert_eq!(cache.hits() + cache.misses(), 12);
    }

    #[test]
    fn an_indexed_file_whose_summaries_left_the_cache_is_parsed_again() {
        let index = Mutex::new(FileIndex::new(64));
        let expected = local(&[TWO_LOOPS]);
        // A cache of one entry keeps at most one of the file's two
        // structures, so every indexed request has one to analyze.
        let mut cache = StructuralCache::new(1);
        for _ in 0..2 {
            serve(&[TWO_LOOPS], &mut cache, &index);
        }
        let before = index.lock().unwrap().gauges().hits;
        let (output, stats) = serve(&[TWO_LOOPS], &mut cache, &index);
        assert_eq!(
            index.lock().unwrap().gauges().hits,
            before + 1,
            "an index hit"
        );
        assert!(stats.misses > 0, "and a function left to analyze");
        // Only the stats line may differ: the replay uses capacity 1.
        let body = |s: &str| s[..s.rfind("batch:").unwrap()].to_string();
        assert_eq!(body(&output), body(&expected));
    }

    #[test]
    fn a_planted_collision_gets_its_own_answer() {
        let other = "func other(n) { k = 0 L1: for i = 1 to n { k = k + 2 } }\n";
        let index = Mutex::new(FileIndex::new(64));
        let mut cache = StructuralCache::new(64);
        // Plant `other`'s functions under TWO_LOOPS's content key.
        let planted = {
            let opts = BatchOptions::default();
            analyze_batch_with_backend(&funcs_of(other), &opts, &mut StructuralCache::new(8))
        };
        for _ in 0..2 {
            index
                .lock()
                .unwrap()
                .admit(content_key(TWO_LOOPS), other, &planted.functions);
        }
        let (output, _) = serve(&[TWO_LOOPS, other], &mut cache, &index);
        assert_eq!(output, local(&[TWO_LOOPS, other]));
    }

    #[test]
    fn parse_errors_are_never_admitted() {
        let index = Mutex::new(FileIndex::new(64));
        let mut cache = StructuralCache::new(64);
        let bad = "func broken( {";
        for _ in 0..3 {
            let served = analyze_sources_with_backend(
                &[bad, TWO_LOOPS],
                &BatchOptions::default(),
                &mut cache,
                &index,
            );
            assert!(served.files[0].is_err());
            assert_eq!(served.files[1].as_ref().ok(), Some(&3));
            assert_eq!(served.report.functions.len(), 3);
        }
        let mut index = index.lock().unwrap();
        assert_eq!(index.gauges().entries, 1, "only the good file");
        assert!(index.lookup(content_key(bad), bad).is_none());
    }
}
