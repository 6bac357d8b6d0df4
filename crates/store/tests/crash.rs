//! Crash-consistency sweep: a log cut at *every possible byte length*
//! must reopen to the exact consistent prefix — the records fully
//! written before the cut, nothing after, no error, no wrong answer.
//!
//! This is the deterministic core of the chaos story: `kill -9`, torn
//! writes, and power loss all leave some prefix of the bytes we
//! appended, and this sweep enumerates all of them.

use std::fs::{self, OpenOptions};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use biv_core::{LoopSummary, StructuralSummary};
use biv_store::{Store, StoreOptions, LOG_FILE};

fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("biv-store-crash-{tag}-{}-{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn summary(tag: &str) -> Arc<StructuralSummary> {
    Arc::new(StructuralSummary::from_loops(vec![LoopSummary {
        name: format!("L_{tag}"),
        trip_count: format!("trip_{tag}"),
        max_trip_count: Some("64".to_string()),
        classes: vec![(format!("v_{tag}"), format!("(L, {tag}, 1)"))],
        invariants: vec![format!("2*s_{tag} - i^2 + i = 0")],
    }]))
}

#[test]
fn every_truncation_point_reopens_to_the_consistent_prefix() {
    let opts = StoreOptions::default();
    let build_dir = tmp_dir("build");

    // Build a store of 5 records, noting the log length after each
    // append — those are the record boundaries.
    let mut boundaries = Vec::new();
    {
        let mut store = Store::open(&build_dir, &opts).expect("open");
        boundaries.push(fs::metadata(build_dir.join(LOG_FILE)).expect("meta").len());
        for i in 0..5u64 {
            assert!(store.put(i, &summary(&i.to_string())).expect("put"));
            boundaries.push(fs::metadata(build_dir.join(LOG_FILE)).expect("meta").len());
        }
        // Deliberately no flush: the sweep must not depend on one.
    }
    let full = fs::read(build_dir.join(LOG_FILE)).expect("read log");
    let header_len = boundaries[0] as usize;
    assert_eq!(*boundaries.last().expect("nonempty") as usize, full.len());

    let sweep_dir = tmp_dir("sweep");
    for cut in header_len..=full.len() {
        fs::create_dir_all(&sweep_dir).expect("mkdir");
        fs::write(sweep_dir.join(LOG_FILE), &full[..cut]).expect("write cut log");

        let mut store = Store::open(&sweep_dir, &opts).expect("reopen never fails");
        // Records whose end fits inside the cut must all survive…
        let survivors = boundaries[1..]
            .iter()
            .filter(|&&end| end <= cut as u64)
            .count();
        assert_eq!(
            store.len(),
            survivors,
            "cut at {cut}: exactly the fully-written records survive"
        );
        for i in 0..survivors as u64 {
            let got = store.get(i).expect("survivor serves");
            assert_eq!(got.loops[0].name, format!("L_{i}"), "cut at {cut}");
        }
        // …and nothing past the cut is ever visible.
        for i in survivors as u64..5 {
            assert!(
                store.get(i).is_none(),
                "cut at {cut}: record {i} must be gone"
            );
        }
        let gauges = store.stats();
        let mid_record = !boundaries.contains(&(cut as u64));
        assert_eq!(
            gauges.corrupt_records_skipped,
            u64::from(mid_record),
            "cut at {cut}: a partial tail counts as exactly one corrupt record"
        );
        // The reopened store accepts new work from the repaired state.
        assert!(store.put(100, &summary("new")).expect("put after repair"));
        assert!(store.get(100).is_some());

        fs::remove_dir_all(&sweep_dir).expect("rm sweep dir");
    }
    fs::remove_dir_all(&build_dir).ok();
}

#[test]
fn leftover_index_snapshot_is_ignored() {
    // Older builds kept an `index.snap` beside the log. A directory that
    // still carries one, next to a log cut mid-record, must open to
    // exactly the consistent prefix: the file is never read.
    let opts = StoreOptions::default();
    let build_dir = tmp_dir("snapbuild");
    {
        let mut store = Store::open(&build_dir, &opts).expect("open");
        for i in 0..3u64 {
            store.put(i, &summary(&i.to_string())).expect("put");
        }
        store.flush().expect("flush");
    }
    let full = fs::read(build_dir.join(LOG_FILE)).expect("read log");

    let dir = tmp_dir("snapleftover");
    fs::create_dir_all(&dir).expect("mkdir");
    // Cut off the last record's final byte.
    fs::write(dir.join(LOG_FILE), &full[..full.len() - 1]).expect("cut log");
    fs::write(dir.join("index.snap"), b"BIVI leftover bytes").expect("leftover snapshot");

    let mut store = Store::open(&dir, &opts).expect("reopen");
    assert_eq!(store.len(), 2, "exactly the fully-written records survive");
    for i in 0..2u64 {
        let got = store.get(i).expect("survivor serves");
        assert_eq!(got.loops[0].name, format!("L_{i}"));
    }
    assert!(store.get(2).is_none(), "the torn record is gone");
    assert_eq!(store.stats().corrupt_records_skipped, 1);
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&build_dir).ok();
}

#[test]
fn kill_dash_nine_equivalent_append_then_reopen() {
    // A process that appended without flushing and then died (the page
    // cache retained the bytes): reopen sees everything, plus a torn
    // half-record by hand to stand in for the interrupted final write.
    let opts = StoreOptions::default();
    let dir = tmp_dir("kill9");
    {
        let mut store = Store::open(&dir, &opts).expect("open");
        for i in 0..4u64 {
            store.put(i, &summary(&i.to_string())).expect("put");
        }
        // No flush, no drop-order ceremony: the handle just goes away.
    }
    {
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(LOG_FILE))
            .expect("open log");
        use std::io::Write;
        f.write_all(b"BIVR\x40\x00\x00\x00partial")
            .expect("torn bytes");
    }
    let mut store = Store::open(&dir, &opts).expect("reopen");
    assert_eq!(store.len(), 4);
    for i in 0..4u64 {
        assert!(store.get(i).is_some());
    }
    assert_eq!(store.stats().corrupt_records_skipped, 1);
    fs::remove_dir_all(&dir).ok();
}
