//! The durable store: an append-only record log and an in-memory
//! index of record offsets.
//!
//! ## Commit protocol
//!
//! A `put` appends one self-checking record to the log with a plain
//! `write` and indexes its offset; durability is deferred to
//! [`Store::flush`], which fsyncs the log. The log is the only file and
//! the source of truth. Memory holds `hash → (offset, len)` and nothing
//! decoded: a lookup reads the record at its offset, re-checks it
//! (magic, hash, CRC), decodes it, and checks `cacheable()`. The memory
//! tier in front ([`crate::TieredCache`]) is the only decoded cache.
//!
//! ## Crash matrix
//!
//! | failure | state on reopen |
//! |---------|-----------------|
//! | crash before `flush` | records up to the last complete append survive via the page cache if the OS stayed up; a torn final record is truncated |
//! | `kill -9` mid-append | the log ends in a partial record → truncated to the consistent prefix, `corrupt_records_skipped` counts it |
//! | bit rot / post-CRC corruption | the record's CRC fails → the log is truncated *at* that record; everything before it is served. A read that finds it first cuts the log there in place |
//! | analyzer upgraded ([`FORMAT_VERSION`] bump) or budget caps changed | header mismatch → every record is garbage, the store compacts to empty |
//!
//! Truncating at the first bad record — rather than skipping it —
//! is deliberate: an append-only log has no framing recovery, so
//! anything after a corrupt region is unattributable and must be
//! recomputed, never served. An `index.snap` left by older builds is
//! never read.
//!
//! ## Compaction policy
//!
//! Compaction runs only on open (the serving path never pays for it):
//! when superseded records exceed half of the log's records, or
//! unconditionally on wholesale invalidation, the live records are
//! rewritten to a temp log which atomically replaces the old one.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
#[cfg(not(unix))]
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use biv_core::{analysis_fingerprint, Budget, StoreGauges, StructuralSummary, FORMAT_VERSION};

use crate::codec::{decode_summary, encode_summary};
use crate::faults;
use crate::log::{decode_header, encode_header, encode_record, parse_record};

/// File name of the record log inside the store directory.
pub const LOG_FILE: &str = "store.log";
const LOG_TMP_FILE: &str = "store.log.tmp";

/// Open compacts when superseded records exceed this percentage of all
/// records.
const COMPACT_GARBAGE_PERCENT: u64 = 50;

/// What a store is keyed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreOptions {
    /// Analyzer format version; normally [`FORMAT_VERSION`]. A store
    /// written under any other version is invalidated wholesale on
    /// open. Overridable so tests can simulate an analyzer upgrade.
    pub format_version: u32,
    /// Deterministic budget fingerprint; normally
    /// [`analysis_fingerprint`] of the serving budget. Same wholesale
    /// invalidation semantics as the version.
    pub fingerprint: String,
}

impl StoreOptions {
    /// Options for serving under `budget` with the current analyzer.
    pub fn for_budget(budget: &Budget) -> StoreOptions {
        StoreOptions {
            format_version: FORMAT_VERSION,
            fingerprint: analysis_fingerprint(budget),
        }
    }
}

impl Default for StoreOptions {
    fn default() -> StoreOptions {
        StoreOptions::for_budget(&Budget::UNLIMITED)
    }
}

/// Where a live record sits in the log, framing included.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: u64,
    len: u32,
}

/// A durable content-addressed map from structural hash to
/// [`StructuralSummary`]. Memory holds only record offsets; summaries
/// are read and decoded from the log on lookup.
pub struct Store {
    dir: PathBuf,
    file: File,
    log_len: u64,
    options: StoreOptions,
    index: HashMap<u64, Slot>,
    garbage: u64,
    disk_hits: u64,
    disk_misses: u64,
    compactions: u64,
    corrupt_skipped: u64,
    wedged: bool,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("live", &self.index.len())
            .field("garbage", &self.garbage)
            .field("wedged", &self.wedged)
            .finish_non_exhaustive()
    }
}

fn fsync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// The log handle: reads at record offsets, appends at the end.
fn open_log(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

/// Fills `buf` from `offset`: one positioned read where the platform
/// has one.
#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

#[cfg(not(unix))]
fn read_at(mut file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

struct ScanOutcome {
    index: HashMap<u64, Slot>,
    garbage: u64,
    /// Consistent-prefix length; the file is truncated here if shorter
    /// than what was read.
    prefix_len: u64,
}

/// Sequentially parses every record after the header, superseding
/// earlier records for the same hash, stopping at the first record that
/// fails framing or CRC. Payloads are not decoded here.
fn scan_records(buf: &[u8], header_len: usize) -> ScanOutcome {
    let mut index = HashMap::new();
    let mut garbage = 0u64;
    let mut at = header_len;
    while let Some(rec) = parse_record(buf, at) {
        let slot = Slot {
            offset: at as u64,
            len: u32::try_from(rec.len).expect("record length"),
        };
        if index.insert(rec.hash, slot).is_some() {
            garbage += 1;
        }
        at += rec.len;
    }
    ScanOutcome {
        index,
        garbage,
        prefix_len: at as u64,
    }
}

impl Store {
    /// Opens (creating if absent) the store in `dir`, validating the
    /// log, truncating any corrupt tail, invalidating wholesale on
    /// version or fingerprint mismatch, and compacting when the garbage
    /// ratio warrants it. Only record offsets stay in memory.
    pub fn open(dir: &Path, options: &StoreOptions) -> io::Result<Store> {
        fs::create_dir_all(dir)?;
        let log_path = dir.join(LOG_FILE);
        let buf = match fs::read(&log_path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        let mut store = Store {
            dir: dir.to_path_buf(),
            file: open_log(&log_path)?,
            log_len: 0,
            options: options.clone(),
            index: HashMap::new(),
            garbage: 0,
            disk_hits: 0,
            disk_misses: 0,
            compactions: 0,
            corrupt_skipped: 0,
            wedged: false,
        };

        match decode_header(&buf) {
            None => {
                // Missing or corrupt header: nothing in this log is
                // attributable. Start fresh.
                store.reset_log()?;
            }
            Some(h)
                if h.app_version != options.format_version
                    || h.fingerprint != options.fingerprint =>
            {
                // Wholesale invalidation: every record in the old log
                // is stale garbage, so compact straight to empty.
                store.reset_log()?;
                store.compactions += 1;
            }
            Some(h) => {
                let outcome = scan_records(&buf, h.len);
                if outcome.prefix_len < buf.len() as u64 {
                    // Truncate the unattributable tail before anything
                    // else can append after it.
                    store.file.set_len(outcome.prefix_len)?;
                    store.file.sync_all()?;
                    store.corrupt_skipped = 1;
                }
                store.log_len = outcome.prefix_len;
                store.index = outcome.index;
                store.garbage = outcome.garbage;

                let total = store.index.len() as u64 + store.garbage;
                if store.garbage * 100 > total * COMPACT_GARBAGE_PERCENT {
                    store.compact(&buf)?;
                }
            }
        }
        Ok(store)
    }

    /// Replaces the log with a fresh empty one (header only).
    fn reset_log(&mut self) -> io::Result<()> {
        let header = encode_header(self.options.format_version, &self.options.fingerprint);
        self.replace_log(&header)?;
        self.index.clear();
        Ok(())
    }

    /// Rewrites the log to hold only live records, atomically.
    fn compact(&mut self, old_buf: &[u8]) -> io::Result<()> {
        let mut fresh = encode_header(self.options.format_version, &self.options.fingerprint);
        let mut live: Vec<(u64, Slot)> = self.index.iter().map(|(&h, &s)| (h, s)).collect();
        // Deterministic output: preserve original log order.
        live.sort_by_key(|(_, slot)| slot.offset);
        for (_, slot) in &mut live {
            let start = usize::try_from(slot.offset).expect("offset fits usize");
            let new_offset = fresh.len() as u64;
            fresh.extend_from_slice(&old_buf[start..start + slot.len as usize]);
            slot.offset = new_offset;
        }
        self.replace_log(&fresh)?;
        self.index = live.into_iter().collect();
        self.garbage = 0;
        self.compactions += 1;
        Ok(())
    }

    /// Writes `contents` to a temp log, fsyncs, renames over the live
    /// log, fsyncs the directory, and reopens the log handle.
    fn replace_log(&mut self, contents: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(LOG_TMP_FILE);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(contents)?;
            f.sync_all()?;
        }
        let log_path = self.dir.join(LOG_FILE);
        fs::rename(&tmp, &log_path)?;
        fsync_dir(&self.dir)?;
        self.file = open_log(&log_path)?;
        self.log_len = contents.len() as u64;
        Ok(())
    }

    /// Reads the live record for `hash` at its offset, re-checks it,
    /// and decodes it. A record that no longer parses (magic, length,
    /// hash, CRC) ends the consistent prefix just as it would on open,
    /// so the log is cut there; one that parses but does not decode to
    /// a cacheable summary only leaves the index. Either way the answer
    /// is a miss, and the caller's recomputed summary is appended
    /// again. A failed read changes nothing: it is not evidence of
    /// corruption.
    fn read(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        let slot = *self.index.get(&hash)?;
        let mut buf = vec![0u8; slot.len as usize];
        read_at(&self.file, &mut buf, slot.offset).ok()?;
        let Some(rec) = parse_record(&buf, 0).filter(|r| r.hash == hash && r.len == buf.len())
        else {
            self.cut_at(slot.offset);
            return None;
        };
        match decode_summary(rec.payload) {
            Ok(summary) if summary.cacheable() => Some(summary),
            _ => {
                self.index.remove(&hash);
                self.corrupt_skipped += 1;
                None
            }
        }
    }

    /// Ends the log at `offset`, where a record failed its checks:
    /// every record from there on leaves the index, as on open.
    /// Superseded records past the cut stay in `records_garbage` until
    /// the next open recounts. A store that cannot truncate wedges.
    fn cut_at(&mut self, offset: u64) {
        self.index.retain(|_, slot| slot.offset < offset);
        self.corrupt_skipped += 1;
        if self.wedged {
            return;
        }
        if self.file.set_len(offset).is_ok() && self.file.sync_all().is_ok() {
            self.log_len = offset;
        } else {
            self.wedged = true;
        }
    }

    /// Decodes every live record, in log order, as owned
    /// `(structural_hash, summary)` pairs, without touching the
    /// hit/miss counters. Records that fail their checks are dropped as
    /// in [`Store::get`]. This is the warm-handoff export: a fleet
    /// successor opens a drained shard's store and feeds these entries
    /// into its own cache tiers. (Opening already applied the
    /// version/fingerprint gate — a store written under a different
    /// analyzer or budget yields no entries rather than wrong ones.)
    pub fn entries(&mut self) -> impl Iterator<Item = (u64, Arc<StructuralSummary>)> + '_ {
        let mut live: Vec<(u64, u64)> = self.index.iter().map(|(&h, s)| (s.offset, h)).collect();
        live.sort_unstable();
        live.into_iter()
            .filter_map(move |(_, hash)| Some((hash, self.read(hash)?)))
    }

    /// Looks `hash` up, counting a disk hit or miss.
    pub fn get(&mut self, hash: u64) -> Option<Arc<StructuralSummary>> {
        let found = self.read(hash);
        if found.is_some() {
            self.disk_hits += 1;
        } else {
            self.disk_misses += 1;
        }
        found
    }

    /// Appends `summary` under `hash`. Returns `Ok(false)` without
    /// writing when the hash is already present, the summary is not
    /// cacheable (defense in depth — budget-degraded or panicked
    /// summaries must never be persisted), or the store is wedged.
    ///
    /// A failed append tries to roll the log back to the record
    /// boundary; if even that fails, the store wedges: reads keep
    /// working, writes stop, and the next open repairs the file.
    pub fn put(&mut self, hash: u64, summary: &Arc<StructuralSummary>) -> io::Result<bool> {
        if self.wedged || !summary.cacheable() || self.index.contains_key(&hash) {
            return Ok(false);
        }
        let payload = encode_summary(summary);
        let mut rec = encode_record(hash, &payload);

        // Injected fault: flip one byte *after* the CRC was computed —
        // undetectable now, caught by the CRC check of the next read of
        // this record or of the next open, which cuts the log there. The
        // corrupt bytes are never served.
        if let Some(entropy) = faults::entropy("store.record.corrupt") {
            let at = (entropy as usize) % rec.len();
            rec[at] ^= 1 << ((entropy >> 32) % 8);
        }

        // Injected fault: the process "dies" mid-append — only a prefix
        // of the record reaches the file and the store wedges, exactly
        // the state a real crash leaves behind.
        if let Some(entropy) = faults::entropy("store.write.torn") {
            let cut = 1 + (entropy as usize) % (rec.len() - 1);
            let _ = self.file.write_all(&rec[..cut]);
            self.wedged = true;
            return Ok(false);
        }

        let write_result = match faults::short_len("store.write.short", rec.len()) {
            // Injected fault: the append lands in two writes. No data
            // is lost; this exercises torn-tail *detection* only when a
            // real crash interleaves (see tests/crash.rs).
            Some(n) => self
                .file
                .write_all(&rec[..n])
                .and_then(|()| self.file.write_all(&rec[n..])),
            None => self.file.write_all(&rec),
        };
        if let Err(e) = write_result {
            if self.file.set_len(self.log_len).is_err() || self.file.sync_all().is_err() {
                self.wedged = true;
            }
            return Err(e);
        }

        let slot = Slot {
            offset: self.log_len,
            len: u32::try_from(rec.len()).expect("record length"),
        };
        self.log_len += rec.len() as u64;
        self.index.insert(hash, slot);
        Ok(true)
    }

    /// Makes everything appended so far durable: one fsync of the log.
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }

    /// Point-in-time counters for the `stats` endpoint /
    /// `--stats-json`.
    pub fn stats(&self) -> StoreGauges {
        StoreGauges {
            disk_hits: self.disk_hits,
            disk_misses: self.disk_misses,
            records_live: self.index.len() as u64,
            records_garbage: self.garbage,
            compactions: self.compactions,
            corrupt_records_skipped: self.corrupt_skipped,
        }
    }

    /// Live records currently indexed.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no records are live.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `hash` is live, without touching hit/miss counters.
    pub fn contains(&self, hash: u64) -> bool {
        self.index.contains_key(&hash)
    }

    /// Whether a failed or torn append has stopped writes.
    pub fn wedged(&self) -> bool {
        self.wedged
    }

    /// The options this store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// The directory holding the log.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Seek, SeekFrom};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("biv-store-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn summary(tag: &str) -> Arc<StructuralSummary> {
        Arc::new(StructuralSummary::from_loops(vec![biv_core::LoopSummary {
            name: format!("L_{tag}"),
            trip_count: "10".to_string(),
            max_trip_count: None,
            classes: vec![(format!("v_{tag}"), "invariant".to_string())],
            invariants: Vec::new(),
        }]))
    }

    #[test]
    fn put_get_survive_reopen() {
        let dir = tmp_dir("reopen");
        let opts = StoreOptions::default();
        {
            let mut store = Store::open(&dir, &opts).expect("open");
            assert!(store.put(1, &summary("a")).expect("put"));
            assert!(store.put(2, &summary("b")).expect("put"));
            assert!(
                !store.put(1, &summary("a")).expect("dup put"),
                "dup is a no-op"
            );
            store.flush().expect("flush");
        }
        let mut store = Store::open(&dir, &opts).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1).expect("hit").loops[0].name, "L_a");
        assert!(store.get(3).is_none());
        let gauges = store.stats();
        assert_eq!(gauges.disk_hits, 1);
        assert_eq!(gauges.disk_misses, 1);
        assert_eq!(gauges.records_live, 2);
        assert_eq!(gauges.corrupt_records_skipped, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unflushed_appends_survive_reopen_via_full_scan() {
        let dir = tmp_dir("noflush");
        let opts = StoreOptions::default();
        {
            let mut store = Store::open(&dir, &opts).expect("open");
            store.put(1, &summary("a")).expect("put");
            // No flush: no fsync. The bytes are still in the file
            // (same OS instance), so the scan finds them.
        }
        let store = Store::open(&dir, &opts).expect("reopen");
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_bump_invalidates_wholesale() {
        let dir = tmp_dir("version");
        let opts = StoreOptions::default();
        {
            let mut store = Store::open(&dir, &opts).expect("open");
            store.put(1, &summary("a")).expect("put");
            store.put(2, &summary("b")).expect("put");
            store.flush().expect("flush");
        }
        let bumped = StoreOptions {
            format_version: opts.format_version + 1,
            ..opts.clone()
        };
        let mut store = Store::open(&dir, &bumped).expect("reopen");
        assert!(store.is_empty(), "stale records must not be visible");
        assert!(store.get(1).is_none());
        let gauges = store.stats();
        assert_eq!(gauges.records_live, 0);
        assert_eq!(gauges.records_garbage, 0);
        assert_eq!(gauges.compactions, 1, "invalidation compacts to empty");
        // And the new-version store works from there.
        let mut store = store;
        store.put(9, &summary("fresh")).expect("put");
        store.flush().expect("flush");
        drop(store);
        let store = Store::open(&dir, &bumped).expect("second reopen");
        assert_eq!(store.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_change_invalidates_wholesale() {
        let dir = tmp_dir("fingerprint");
        let opts = StoreOptions::default();
        {
            let mut store = Store::open(&dir, &opts).expect("open");
            store.put(1, &summary("a")).expect("put");
            store.flush().expect("flush");
        }
        let capped = StoreOptions::for_budget(&Budget {
            max_scc: Some(16),
            ..Budget::UNLIMITED
        });
        let store = Store::open(&dir, &capped).expect("reopen");
        assert!(store.is_empty());
        assert_eq!(store.stats().compactions, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn non_cacheable_summaries_are_refused() {
        let dir = tmp_dir("cacheable");
        let mut store = Store::open(&dir, &StoreOptions::default()).expect("open");
        let degraded = Arc::new(StructuralSummary {
            loops: Vec::new(),
            breaches: vec![biv_core::BudgetBreach::Deadline],
            error: None,
        });
        let errored = Arc::new(StructuralSummary {
            loops: Vec::new(),
            breaches: Vec::new(),
            error: Some("panicked".to_string()),
        });
        assert!(!store.put(1, &degraded).expect("put"));
        assert!(!store.put(2, &errored).expect("put"));
        assert!(store.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let dir = tmp_dir("torn");
        let opts = StoreOptions::default();
        {
            let mut store = Store::open(&dir, &opts).expect("open");
            store.put(1, &summary("a")).expect("put");
            store.put(2, &summary("b")).expect("put");
            store.flush().expect("flush");
        }
        // Simulate kill -9 mid-append: append half a record by hand.
        let log = dir.join(LOG_FILE);
        let mut f = OpenOptions::new()
            .append(true)
            .open(&log)
            .expect("open log");
        let torn = encode_record(3, &encode_summary(&summary("c")));
        f.write_all(&torn[..torn.len() / 2]).expect("torn append");
        drop(f);
        let full_len = fs::metadata(&log).expect("meta").len();

        let mut store = Store::open(&dir, &opts).expect("reopen");
        assert_eq!(store.len(), 2, "consistent prefix survives");
        assert!(store.get(1).is_some());
        assert_eq!(store.stats().corrupt_records_skipped, 1);
        assert!(
            fs::metadata(&log).expect("meta").len() < full_len,
            "the torn tail must be truncated from the file"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_record_truncates_from_there() {
        let dir = tmp_dir("corrupt");
        let opts = StoreOptions::default();
        let record_two_offset;
        {
            let mut store = Store::open(&dir, &opts).expect("open");
            store.put(1, &summary("a")).expect("put");
            record_two_offset = fs::metadata(dir.join(LOG_FILE)).expect("meta").len();
            store.put(2, &summary("b")).expect("put");
            store.put(3, &summary("c")).expect("put");
            store.flush().expect("flush");
        }
        // Flip one payload byte of record 2.
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).expect("read log");
        let at = record_two_offset as usize + 17;
        bytes[at] ^= 0x20;
        fs::write(&log, &bytes).expect("write log");

        let mut store = Store::open(&dir, &opts).expect("reopen");
        assert_eq!(
            store.len(),
            1,
            "records at and after the corruption are dropped"
        );
        assert!(store.get(1).is_some());
        assert!(store.get(2).is_none());
        assert!(store.get(3).is_none());
        assert_eq!(store.stats().corrupt_records_skipped, 1);
        // Recompute and re-store the lost records.
        assert!(store.put(2, &summary("b")).expect("re-put"));
        store.flush().expect("flush");
        drop(store);
        let store = Store::open(&dir, &opts).expect("second reopen");
        assert_eq!(store.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    /// Flips one bit of the log at `at`, in place, behind any open store.
    fn flip_byte(log: &Path, at: u64) {
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(log)
            .expect("open log");
        let mut byte = [0u8];
        f.seek(SeekFrom::Start(at)).expect("seek");
        f.read_exact(&mut byte).expect("read byte");
        f.seek(SeekFrom::Start(at)).expect("seek");
        f.write_all(&[byte[0] ^ 0x20]).expect("write byte");
    }

    #[test]
    fn corruption_found_by_a_read_is_a_miss_and_heals_on_put() {
        let dir = tmp_dir("read-corrupt");
        let opts = StoreOptions::default();
        let log = dir.join(LOG_FILE);
        let mut store = Store::open(&dir, &opts).expect("open");
        store.put(1, &summary("a")).expect("put");
        let record_two_offset = fs::metadata(&log).expect("meta").len();
        store.put(2, &summary("b")).expect("put");
        store.put(3, &summary("c")).expect("put");
        store.flush().expect("flush");

        // Rot one payload byte of record 2 while the store is open.
        flip_byte(&log, record_two_offset + 17);
        assert!(store.get(2).is_none(), "a corrupt record is never served");
        let gauges = store.stats();
        assert_eq!(gauges.corrupt_records_skipped, 1);
        assert_eq!(gauges.disk_misses, 1);
        assert!(!store.contains(2));
        // The log ends at the bad record, as an open would have cut it.
        assert!(!store.contains(3), "records past the cut are dropped");
        assert_eq!(fs::metadata(&log).expect("meta").len(), record_two_offset);
        assert_eq!(store.get(1).expect("prefix serves").loops[0].name, "L_a");

        // The recompute is appended again and survives a reopen.
        assert!(store.put(2, &summary("b")).expect("re-put"));
        store.flush().expect("flush");
        drop(store);
        let mut store = Store::open(&dir, &opts).expect("reopen");
        assert_eq!(store.get(2).expect("re-put serves").loops[0].name, "L_b");
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().corrupt_records_skipped, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn undecodable_record_leaves_the_index_without_cutting_the_log() {
        let dir = tmp_dir("undecodable");
        let opts = StoreOptions::default();
        {
            let mut store = Store::open(&dir, &opts).expect("open");
            store.put(1, &summary("a")).expect("put");
        }
        // A record whose CRC holds but whose payload is not a summary,
        // followed by a sound one.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))
            .expect("open log");
        f.write_all(&encode_record(7, b"not a summary"))
            .expect("append");
        f.write_all(&encode_record(2, &encode_summary(&summary("b"))))
            .expect("append");
        drop(f);

        let mut store = Store::open(&dir, &opts).expect("reopen");
        assert_eq!(store.len(), 3, "open checks framing, not payloads");
        assert!(store.get(7).is_none());
        assert_eq!(store.stats().corrupt_records_skipped, 1);
        assert!(!store.contains(7));
        assert!(store.get(2).is_some(), "records after it still serve");
        assert!(store.put(7, &summary("g")).expect("re-put"));
        drop(store);
        let mut store = Store::open(&dir, &opts).expect("second reopen");
        assert_eq!(store.get(7).expect("last copy wins").loops[0].name, "L_g");
        assert_eq!(store.stats().records_garbage, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn superseded_majority_compacts_on_open() {
        let dir = tmp_dir("compact");
        fs::create_dir_all(&dir).expect("mkdir");
        let opts = StoreOptions::default();
        let write_log = |copies: &[(u64, &str)]| {
            let mut bytes = encode_header(opts.format_version, &opts.fingerprint);
            for &(hash, tag) in copies {
                bytes.extend_from_slice(&encode_record(hash, &encode_summary(&summary(tag))));
            }
            fs::write(dir.join(LOG_FILE), bytes).expect("write log");
        };

        // Exactly half superseded: not over the threshold.
        write_log(&[(1, "a1"), (2, "b1"), (1, "a2"), (2, "b2")]);
        let store = Store::open(&dir, &opts).expect("open at threshold");
        assert_eq!(store.stats().compactions, 0);
        assert_eq!(store.stats().records_garbage, 2);
        drop(store);

        // Three of five superseded: compacts.
        write_log(&[(1, "a1"), (2, "b1"), (1, "a2"), (2, "b2"), (1, "a3")]);
        let mut store = Store::open(&dir, &opts).expect("open");
        let gauges = store.stats();
        assert_eq!(gauges.compactions, 1);
        assert_eq!(gauges.records_garbage, 0);
        assert_eq!(store.get(1).expect("hit").loops[0].name, "L_a3");
        assert_eq!(store.get(2).expect("hit").loops[0].name, "L_b2");
        drop(store);

        let mut store = Store::open(&dir, &opts).expect("reopen");
        let gauges = store.stats();
        assert_eq!(
            gauges.records_garbage, 0,
            "the compacted log has no garbage"
        );
        assert_eq!(gauges.compactions, 0);
        assert_eq!(store.get(1).expect("hit").loops[0].name, "L_a3");
        assert_eq!(store.get(2).expect("hit").loops[0].name, "L_b2");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_header_resets_the_store() {
        let dir = tmp_dir("header");
        let opts = StoreOptions::default();
        {
            let mut store = Store::open(&dir, &opts).expect("open");
            store.put(1, &summary("a")).expect("put");
            store.flush().expect("flush");
        }
        let log = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log).expect("read");
        bytes[1] ^= 0xFF;
        fs::write(&log, &bytes).expect("write");
        let mut store = Store::open(&dir, &opts).expect("reopen");
        assert!(store.is_empty());
        assert!(store.put(5, &summary("fresh")).expect("put"));
        fs::remove_dir_all(&dir).ok();
    }
}
