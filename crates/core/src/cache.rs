//! Pluggable cache backends for the batch driver.
//!
//! The batch driver's memoization was originally hard-wired to the
//! in-memory [`StructuralCache`]. Persistent serving (PR 5) needs a
//! second tier — a durable content-addressed store that survives
//! restarts — without the driver knowing which tier answered. This
//! module defines the seam: [`CacheBackend`] is what the plan and
//! commit phases of `analyze_batch_with_backend` talk to, and anything
//! that can answer "have we classified this structure before?" can
//! implement it.
//!
//! Two backends exist today:
//!
//! - [`StructuralCache`] itself — the memory-only tier, byte-for-byte
//!   the pre-trait behavior;
//! - `biv_store::TieredCache` — memory in front of a durable
//!   append-only record log, write-through on commit.
//!
//! [`Locked`] shares either of them between threads: it implements the
//! trait over a `&Mutex<B>` by locking once per call, which is how
//! `bivd`'s workers run their batches against one warm cache.
//!
//! Both the memory tier and the [`FileIndex`] (content key → a file's
//! `(function name, structural hash)` list, which lets a server skip
//! parsing a file it has seen before) retain entries under one
//! scan-resistant policy, S3-FIFO.
//!
//! # Versioning
//!
//! A durable cache outlives the binary that wrote it, so every entry is
//! keyed by `(FORMAT_VERSION, structural_hash)` — in practice the
//! version is stamped once per store, not per record, and a mismatch
//! invalidates the whole store wholesale. **Any change to the analyzer
//! that can alter a [`StructuralSummary`]'s bytes — classification
//! rules, closed-form rendering, trip-count logic, the summary format
//! itself — must bump [`FORMAT_VERSION`].** The structural hash alone
//! is not enough: it fingerprints the *input*, not the analysis.
//!
//! Budget configuration also changes summaries (deterministic breaches
//! degrade values to `unknown`), so persistent stores additionally key
//! on [`analysis_fingerprint`], which folds the budget caps in.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::batch::{Fnv1a, FunctionSummary, StructuralCache, StructuralSummary};
use crate::budget::Budget;

/// The analysis format version stamped into persistent stores.
///
/// Bump this whenever the analyzer's observable output for any input
/// can change; stale stores are then invalidated wholesale on open
/// (every record becomes garbage and is compacted away).
///
/// History: 1 — original summary format; 2 — mixed-geometric
/// classification plus per-loop verified invariants in every summary;
/// 3 — loops with more than `max_ivs` IVs keep the relations verified
/// over their first `max_ivs` (earlier versions dropped them all);
/// 4 — invariants are derived by coefficient matching, which never
/// raises a geometric base to a power, so loops whose sampled powers
/// overflowed (e.g. `1000^h`) now carry relations.
pub const FORMAT_VERSION: u32 = 4;

/// The configuration fingerprint a persistent store is keyed on,
/// alongside [`FORMAT_VERSION`].
///
/// Two processes whose fingerprints differ must not share records:
/// deterministic budget caps (nodes / SCC / order) change summaries
/// reproducibly, so a store written under one budget is stale under
/// another. The wall-clock deadline is deliberately *excluded* —
/// deadline-degraded summaries are never cacheable in the first place
/// (see [`StructuralSummary::cacheable`]), so the deadline cannot leak
/// into persisted bytes.
pub fn analysis_fingerprint(budget: &Budget) -> String {
    fn cap(v: Option<usize>) -> String {
        v.map_or_else(|| "-".to_string(), |n| n.to_string())
    }
    format!(
        "nodes={},scc={},order={}",
        cap(budget.max_region_nodes),
        cap(budget.max_scc),
        cap(budget.max_order),
    )
}

/// Point-in-time counters for a backend's durable tier, reported by
/// `bivd`'s `stats` endpoint and `bivc --stats-json` under the `store`
/// key. Memory-only backends report `None` and the key is omitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreGauges {
    /// Lookups answered by the durable tier (memory tier missed).
    pub disk_hits: u64,
    /// Lookups that missed both tiers.
    pub disk_misses: u64,
    /// Records currently live (latest record per structural hash).
    pub records_live: u64,
    /// Superseded or invalidated records still occupying log bytes.
    pub records_garbage: u64,
    /// Log rewrites performed (on open, when the garbage ratio crossed
    /// the compaction threshold, or on wholesale invalidation).
    pub compactions: u64,
    /// Records dropped because their checksum or framing failed on
    /// open; the log was truncated to the consistent prefix before
    /// them.
    pub corrupt_records_skipped: u64,
}

/// Point-in-time counters for a backend's memory tier, reported by
/// `bivd`'s `stats` endpoint and `bivc --stats-json` under the `cache`
/// key. A snapshot by value, so it can be read through a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheGauges {
    /// Cumulative cache hits.
    pub hits: u64,
    /// Cumulative cache misses.
    pub misses: u64,
    /// Cumulative evictions.
    pub evictions: u64,
    /// Entries currently retained.
    pub entries: usize,
    /// Configured retention bound.
    pub capacity: usize,
}

/// What the batch driver's plan and commit phases require of a cache.
///
/// Contract (the differential suites pin all of it):
///
/// - [`lookup`](CacheBackend::lookup) records exactly one hit or miss
///   in the backend's cumulative counters per call;
/// - [`note_duplicate_hit`](CacheBackend::note_duplicate_hit) records a
///   hit with no lookup — the driver found a structural twin earlier in
///   the same batch and shares its result;
/// - [`commit`](CacheBackend::commit) is only ever called with
///   summaries whose [`StructuralSummary::cacheable`] is true; durable
///   backends must re-check it anyway (defense in depth — a
///   budget-degraded or panicked summary must never be persisted);
/// - `hits + misses` across the cumulative counters equals the number
///   of functions ever submitted, regardless of tiering.
pub trait CacheBackend: Send {
    /// Looks `hash` up, counting a hit or a miss. A hit from *any* tier
    /// counts as a hit here; tier attribution shows up only in
    /// [`store_gauges`](CacheBackend::store_gauges).
    fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>>;

    /// Counts a batch-local duplicate as a hit (no lookup performed).
    fn note_duplicate_hit(&mut self);

    /// Commits a cacheable summary; returns how many entries the
    /// memory tier evicted to make room.
    fn commit(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize;

    /// The memory tier's cumulative counters and occupancy.
    fn gauges(&self) -> CacheGauges;

    /// Counters for the durable tier, if the backend has one.
    fn store_gauges(&self) -> Option<StoreGauges> {
        None
    }

    /// Makes the durable tier durable *now* (an fsync of its log).
    /// Memory-only backends do nothing.
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl CacheBackend for StructuralCache {
    fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        StructuralCache::lookup(self, hash)
    }

    fn note_duplicate_hit(&mut self) {
        self.note_hit();
    }

    fn commit(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize {
        self.insert(hash, summary)
    }

    fn gauges(&self) -> CacheGauges {
        CacheGauges {
            hits: self.hits(),
            misses: self.misses(),
            evictions: self.evictions(),
            entries: self.len(),
            capacity: self.capacity(),
        }
    }
}

impl CacheBackend for Box<dyn CacheBackend + Send> {
    fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        (**self).lookup(hash)
    }

    fn note_duplicate_hit(&mut self) {
        (**self).note_duplicate_hit()
    }

    fn commit(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize {
        (**self).commit(hash, summary)
    }

    fn gauges(&self) -> CacheGauges {
        (**self).gauges()
    }

    fn store_gauges(&self) -> Option<StoreGauges> {
        (**self).store_gauges()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (**self).flush()
    }
}

/// A [`CacheBackend`] shared between threads: every trait call locks
/// the mutex for that call alone, so the lock is never held while a
/// function is analyzed and concurrent batches overlap their analysis.
///
/// Two batches may interleave their lookups and commits. Output cannot
/// change, because summaries are canonical and a commit of a structure
/// another batch already committed stores the same bytes; and each
/// submitted function still bumps exactly one of the backend's `hits` /
/// `misses` counters. Two batches that both miss on one structure each
/// analyze it — wasted work, never a wrong answer.
///
/// A poisoned lock is recovered rather than propagated, so one panicked
/// holder does not fail every later batch. Analysis never runs under
/// the lock; the most a half-finished backend call can leave behind is
/// an off counter or an entry kept past its eviction, never a wrong
/// summary.
pub struct Locked<'a, B: ?Sized>(pub &'a Mutex<B>);

impl<B: ?Sized> Locked<'_, B> {
    fn lock(&self) -> MutexGuard<'_, B> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<B: CacheBackend + ?Sized> CacheBackend for Locked<'_, B> {
    fn lookup(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        self.lock().lookup(hash)
    }

    fn note_duplicate_hit(&mut self) {
        self.lock().note_duplicate_hit()
    }

    fn commit(&mut self, hash: u64, summary: Arc<StructuralSummary>) -> usize {
        self.lock().commit(hash, summary)
    }

    fn gauges(&self) -> CacheGauges {
        self.lock().gauges()
    }

    fn store_gauges(&self) -> Option<StoreGauges> {
        self.lock().store_gauges()
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.lock().flush()
    }
}

/// The content key of a source file: 64-bit FNV-1a over its bytes.
///
/// One function keys every use of whole-file identity: fleet routing,
/// replica placement, and the [`FileIndex`]. Identical sources —
/// therefore identical structural hashes — always share a key. Distinct
/// sources may collide, so a key alone never proves two files equal.
pub fn content_key(source: &str) -> u64 {
    let mut h = Fnv1a::new();
    for &b in source.as_bytes() {
        h.write_u8(b);
    }
    h.finish()
}

/// One retained entry of an [`S3Fifo`].
#[derive(Debug)]
struct Slot<V> {
    value: V,
    weight: usize,
    /// Accesses since the entry was queued or last passed over, capped
    /// at 3.
    freq: u8,
}

/// S3-FIFO retention over weighted `u64`-keyed entries (Yang et al.,
/// "FIFO queues are all you need for cache eviction", SOSP 2023).
///
/// A new key enters a small probationary FIFO. When it reaches that
/// queue's head it moves to the main FIFO if it was accessed since it
/// entered, and is otherwise dropped and remembered in a key-only ghost
/// list. A key inserted while the ghost list remembers it goes straight
/// to the main FIFO. The main FIFO re-queues an entry accessed since
/// its last pass instead of evicting it. A scan of one-hit keys
/// therefore churns through the small queue and leaves re-hit entries
/// in the main queue alone.
///
/// Every eviction drops exactly one entry, and an insert evicts only
/// while the total weight exceeds the capacity — with unit weights,
/// exactly one eviction per insert beyond capacity, as under FIFO.
///
/// With a small capacity of 0 nothing is held on probation: a new key
/// is only remembered in the ghost list, and stored on its second
/// insert. A key already stored keeps its entry.
#[derive(Debug)]
pub(crate) struct S3Fifo<V> {
    map: HashMap<u64, Slot<V>>,
    small: VecDeque<u64>,
    main: VecDeque<u64>,
    ghost: Ghost,
    capacity: usize,
    small_capacity: usize,
    small_weight: usize,
    weight: usize,
}

impl<V> S3Fifo<V> {
    /// A policy bounded to `capacity` total weight, of which the
    /// probationary queue holds up to `small_capacity` before it is
    /// drained first. The ghost list remembers up to `capacity` keys.
    pub(crate) fn new(capacity: usize, small_capacity: usize) -> S3Fifo<V> {
        S3Fifo {
            map: HashMap::new(),
            small: VecDeque::new(),
            main: VecDeque::new(),
            ghost: Ghost::new(capacity),
            capacity,
            small_capacity,
            small_weight: 0,
            weight: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    pub(crate) fn weight(&self) -> usize {
        self.weight
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// The entry under `key` if `accept` approves it, recording an
    /// access only then.
    pub(crate) fn get_if(&mut self, key: u64, accept: impl FnOnce(&V) -> bool) -> Option<&V> {
        let slot = self.map.get_mut(&key)?;
        if !accept(&slot.value) {
            return None;
        }
        slot.freq = (slot.freq + 1).min(3);
        Some(&slot.value)
    }

    /// Stores `make()` under a new `key` with `weight` — or, when the
    /// probationary queue has no room by design, only remembers the key
    /// — and returns how many entries were evicted. A weight beyond the
    /// capacity is never stored, and a stored key is left as it is.
    pub(crate) fn insert_with(
        &mut self,
        key: u64,
        weight: usize,
        make: impl FnOnce() -> V,
    ) -> usize {
        if weight > self.capacity || self.capacity == 0 || self.map.contains_key(&key) {
            return 0;
        }
        let probation = !self.ghost.forget(key);
        if probation && self.small_capacity == 0 {
            self.ghost.remember(key);
            return 0;
        }
        let queue = if probation {
            self.small_weight += weight;
            &mut self.small
        } else {
            &mut self.main
        };
        queue.push_back(key);
        let value = make();
        self.map.insert(
            key,
            Slot {
                value,
                weight,
                freq: 0,
            },
        );
        self.weight += weight;
        let mut evicted = 0;
        while self.weight > self.capacity {
            self.evict_one();
            evicted += 1;
        }
        evicted
    }

    /// Drops exactly one entry: the probationary queue's first
    /// unaccessed entry while that queue is at its share (or the main
    /// queue is empty), else the main queue's first unaccessed entry.
    fn evict_one(&mut self) {
        loop {
            let from_small = !self.small.is_empty()
                && (self.small_weight >= self.small_capacity || self.main.is_empty());
            let queue = if from_small {
                &mut self.small
            } else {
                &mut self.main
            };
            let key = queue
                .pop_front()
                .expect("an over-capacity policy holds an entry");
            let slot = self.map.get_mut(&key).expect("queued keys are mapped");
            if slot.freq > 0 {
                if from_small {
                    slot.freq = 0;
                    self.small_weight -= slot.weight;
                } else {
                    slot.freq -= 1;
                }
                self.main.push_back(key);
                continue;
            }
            let slot = self.map.remove(&key).expect("queued keys are mapped");
            self.weight -= slot.weight;
            if from_small {
                self.small_weight -= slot.weight;
                self.ghost.remember(key);
            }
            return;
        }
    }
}

/// A bounded FIFO of remembered keys, with no values.
#[derive(Debug)]
struct Ghost {
    /// Key → the sequence number of its live place in `order`.
    keys: HashMap<u64, u64>,
    order: VecDeque<(u64, u64)>,
    next: u64,
    capacity: usize,
}

impl Ghost {
    fn new(capacity: usize) -> Ghost {
        Ghost {
            keys: HashMap::new(),
            order: VecDeque::new(),
            next: 0,
            capacity,
        }
    }

    fn remember(&mut self, key: u64) {
        if self.capacity == 0 {
            return;
        }
        self.keys.insert(key, self.next);
        self.order.push_back((key, self.next));
        self.next += 1;
        // `order` may hold places of keys since forgotten or
        // remembered again; only a key's live place removes it.
        while self.order.len() > self.capacity {
            let (old, seq) = self.order.pop_front().expect("over capacity");
            if self.keys.get(&old) == Some(&seq) {
                self.keys.remove(&old);
            }
        }
    }

    /// Whether `key` was remembered; it is forgotten either way.
    fn forget(&mut self, key: u64) -> bool {
        self.keys.remove(&key).is_some()
    }
}

/// A file the [`FileIndex`] admitted.
#[derive(Debug)]
struct IndexedFile {
    source: Box<str>,
    functions: Arc<[(String, u64)]>,
}

/// Point-in-time counters of a [`FileIndex`], reported by `bivd`'s
/// `stats` endpoint under the `files` key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FileGauges {
    /// Files currently indexed.
    pub entries: usize,
    /// Functions across the indexed files.
    pub functions: usize,
    /// The bound on `functions`.
    pub capacity: usize,
    /// Lookups that found the file (its bytes compared equal).
    pub hits: u64,
    /// Lookups that did not.
    pub misses: u64,
}

/// Maps a source file's [`content_key`] to the file's bytes and its
/// `[(function name, structural hash)]` list, so a file seen before is
/// served from the structural cache without being parsed or hashed.
///
/// - **Byte compare.** A hit is returned only when the stored source
///   equals the looked-up source byte for byte: two sources that collide
///   on the 64-bit key still get their own answers.
/// - **Admission on second sighting.** The first [`admit`] of a key only
///   remembers it in a key-only ghost list; the second stores the file.
///   A stream of one-off files stores no sources.
/// - **Bound.** Entries weigh their function count, and the total never
///   exceeds the capacity given (the memory tier's, in `bivd`), under
///   the same S3-FIFO retention as the memory tier.
///
/// [`admit`]: FileIndex::admit
#[derive(Debug)]
pub struct FileIndex {
    files: S3Fifo<IndexedFile>,
    hits: u64,
    misses: u64,
}

impl FileIndex {
    /// An index holding at most `capacity` functions across its files.
    pub fn new(capacity: usize) -> FileIndex {
        FileIndex {
            files: S3Fifo::new(capacity, 0),
            hits: 0,
            misses: 0,
        }
    }

    /// The functions of the file stored under `key`, if its source is
    /// exactly `source`. Counts one hit or one miss.
    pub fn lookup(&mut self, key: u64, source: &str) -> Option<Arc<[(String, u64)]>> {
        let found = self
            .files
            .get_if(key, |file| *file.source == *source)
            .map(|file| Arc::clone(&file.functions));
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Offers `source` under `key`, with `functions` its batch results in
    /// file order: stored on the key's second offer, remembered on its
    /// first. A key already stored keeps its file, so a source that
    /// collides with it is parsed on every request. The caller vouches
    /// that `functions` is what `source` parses to.
    pub fn admit(&mut self, key: u64, source: &str, functions: &[FunctionSummary]) {
        // Weight at least 1, so empty files count against the bound too.
        self.files
            .insert_with(key, functions.len().max(1), || IndexedFile {
                source: source.into(),
                functions: functions.iter().map(|f| (f.name.clone(), f.hash)).collect(),
            });
    }

    /// The index's counters and occupancy.
    pub fn gauges(&self) -> FileGauges {
        FileGauges {
            entries: self.files.len(),
            functions: self.files.weight(),
            capacity: self.files.capacity(),
            hits: self.hits,
            misses: self.misses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_cache_implements_the_backend_contract() {
        let mut cache = StructuralCache::new(2);
        let summary = Arc::new(StructuralSummary::from_loops(Vec::new()));
        assert!(CacheBackend::lookup(&mut cache, 7).is_none());
        assert_eq!(cache.commit(7, Arc::clone(&summary)), 0);
        assert!(CacheBackend::lookup(&mut cache, 7).is_some());
        cache.note_duplicate_hit();
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert!(cache.store_gauges().is_none());
        assert!(cache.flush().is_ok());
        assert_eq!(cache.gauges().capacity, 2);
    }

    #[test]
    fn boxed_backends_forward() {
        let mut boxed: Box<dyn CacheBackend + Send> = Box::new(StructuralCache::new(4));
        let summary = Arc::new(StructuralSummary::from_loops(Vec::new()));
        assert!(boxed.lookup(1).is_none());
        boxed.commit(1, summary);
        assert!(boxed.lookup(1).is_some());
        assert_eq!(boxed.gauges().entries, 1);
        assert!(boxed.store_gauges().is_none());
    }

    #[test]
    fn locked_backends_forward_each_call() {
        let shared = Mutex::new(StructuralCache::new(4));
        let mut locked = Locked(&shared);
        let summary = Arc::new(StructuralSummary::from_loops(Vec::new()));
        assert!(locked.lookup(1).is_none());
        assert_eq!(locked.commit(1, summary), 0);
        assert!(locked.lookup(1).is_some());
        locked.note_duplicate_hit();
        let gauges = locked.gauges();
        assert_eq!((gauges.hits, gauges.misses, gauges.entries), (2, 1, 1));
        assert!(locked.store_gauges().is_none());
        assert!(locked.flush().is_ok());
        // The lock is released between calls.
        assert_eq!(shared.lock().unwrap().len(), 1);
    }

    #[test]
    fn fingerprint_tracks_deterministic_caps_only() {
        let unlimited = analysis_fingerprint(&Budget::UNLIMITED);
        assert_eq!(unlimited, "nodes=-,scc=-,order=-");
        let with_time = analysis_fingerprint(&Budget {
            time_ms: Some(5),
            ..Budget::UNLIMITED
        });
        assert_eq!(
            unlimited, with_time,
            "the nondeterministic deadline must not change the fingerprint"
        );
        let capped = analysis_fingerprint(&Budget {
            max_scc: Some(64),
            ..Budget::UNLIMITED
        });
        assert_ne!(unlimited, capped);
        assert_eq!(capped, "nodes=-,scc=64,order=-");
    }

    fn empty() -> Arc<StructuralSummary> {
        Arc::new(StructuralSummary::from_loops(Vec::new()))
    }

    #[test]
    fn rehit_entries_survive_a_scan_of_one_hit_inserts() {
        const CAPACITY: usize = 1024;
        const HOT: u64 = 256;
        let mut cache = StructuralCache::new(CAPACITY);
        for hash in 0..HOT {
            cache.insert(hash, empty());
        }
        for hash in 0..HOT {
            assert!(cache.lookup(hash).is_some());
        }
        let scan = 4 * CAPACITY as u64;
        let mut evicted = 0;
        for hash in HOT..HOT + scan {
            evicted += cache.insert(hash, empty());
            assert!(cache.len() <= CAPACITY, "the bound holds throughout");
        }
        assert_eq!(
            evicted as u64,
            HOT + scan - CAPACITY as u64,
            "exactly one eviction per insert beyond capacity"
        );
        for hash in 0..HOT {
            assert!(cache.lookup(hash).is_some(), "hot entry {hash} was flushed");
        }
    }

    #[test]
    fn a_ghost_hit_goes_straight_to_the_main_queue() {
        let mut cache = StructuralCache::new(10);
        for hash in 0..11 {
            cache.insert(hash, empty());
        }
        // Entry 0 fell out unaccessed and is remembered as a ghost; its
        // return skips probation, so the next scan cannot drop it.
        assert!(cache.lookup(0).is_none());
        cache.insert(0, empty());
        for hash in 100..200 {
            cache.insert(hash, empty());
        }
        assert!(cache.lookup(0).is_some());
        assert_eq!(cache.len(), 10);
    }

    #[test]
    fn tiny_capacities_evict_one_per_insert_beyond_them() {
        for capacity in [0usize, 1, 2, 3, 9, 10, 11] {
            let mut cache = StructuralCache::new(capacity);
            let mut evicted = 0;
            for hash in 0..25u64 {
                evicted += cache.insert(hash, empty());
                if hash % 3 == 0 {
                    cache.lookup(hash);
                }
                assert!(cache.len() <= capacity);
            }
            let expected = if capacity == 0 { 0 } else { 25 - capacity };
            assert_eq!(evicted, expected, "capacity {capacity}");
            assert_eq!(cache.evictions(), expected as u64);
        }
    }

    fn summaries(names: &[(&str, u64)]) -> Vec<crate::batch::FunctionSummary> {
        names
            .iter()
            .map(|&(name, hash)| crate::batch::FunctionSummary {
                name: name.to_string(),
                hash,
                cached: false,
                summary: empty(),
            })
            .collect()
    }

    #[test]
    fn the_file_index_admits_on_second_sighting() {
        let mut index = FileIndex::new(16);
        let source = "func f(n) { }";
        let key = content_key(source);
        let functions = summaries(&[("f", 7)]);
        assert!(index.lookup(key, source).is_none());
        index.admit(key, source, &functions);
        assert_eq!(index.gauges().entries, 0, "a first sighting stores nothing");
        assert!(index.lookup(key, source).is_none());
        index.admit(key, source, &functions);
        let found = index
            .lookup(key, source)
            .expect("admitted on the second sighting");
        assert_eq!(&*found, &[("f".to_string(), 7)]);
        let gauges = index.gauges();
        assert_eq!(
            (gauges.entries, gauges.functions, gauges.capacity),
            (1, 1, 16)
        );
        assert_eq!((gauges.hits, gauges.misses), (1, 2));
    }

    #[test]
    fn a_forged_key_collision_never_serves_the_other_file() {
        let mut index = FileIndex::new(16);
        let (a, b) = ("func a(n) { }", "func b(n) { }");
        let key = content_key(a);
        for _ in 0..2 {
            index.admit(key, a, &summaries(&[("a", 1)]));
        }
        assert!(index.lookup(key, b).is_none(), "b's bytes differ from a's");
        assert_eq!(&*index.lookup(key, a).unwrap(), &[("a".to_string(), 1)]);
        // Offering b under the same key keeps a: b is parsed every time,
        // never answered with a's functions.
        index.admit(key, b, &summaries(&[("b", 2)]));
        assert!(index.lookup(key, b).is_none());
        assert_eq!(&*index.lookup(key, a).unwrap(), &[("a".to_string(), 1)]);
    }

    #[test]
    fn the_file_index_is_bounded_in_functions_and_resists_one_off_files() {
        let mut index = FileIndex::new(8);
        let hot: Vec<String> = (0..2).map(|k| format!("func hot{k}(n) {{ }}")).collect();
        let four = summaries(&[("f", 1), ("g", 2), ("h", 3), ("i", 4)]);
        for source in &hot {
            index.admit(content_key(source), source, &four);
            index.admit(content_key(source), source, &four);
        }
        assert_eq!(index.gauges().functions, 8);
        for k in 0..1000 {
            let fresh = format!("func fresh{k}(n) {{ }}");
            index.admit(content_key(&fresh), &fresh, &four);
        }
        for source in &hot {
            assert!(index.lookup(content_key(source), source).is_some());
        }
        // Past the bound, the unaccessed entry goes.
        let third = "func third(n) { }";
        index.admit(content_key(third), third, &four);
        index.admit(content_key(third), third, &four);
        assert_eq!(index.gauges().functions, 8);
        assert_eq!(index.gauges().entries, 2);
        // A file larger than the whole bound is never stored.
        let huge = summaries(&[("x", 1); 9]);
        index.admit(1, "huge", &huge);
        index.admit(1, "huge", &huge);
        assert!(index.lookup(1, "huge").is_none());
    }
}
