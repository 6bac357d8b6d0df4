//! Differential tests for the durable analysis store.
//!
//! The store's contract is that durability is invisible except in
//! latency and counters: a warm run over the same corpus must produce
//! byte-identical output to a cold in-memory run, stale entries from an
//! older analyzer version must never be served, and on-disk hits must
//! line up exactly with the structural-hash equivalence classes the
//! in-memory cache computes. The fault-injection counterpart lives in
//! `tests/store_chaos.rs`, its own test binary, because a fault plan is
//! process-global and would leak into these tests.

use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::Arc;

use biv::core_analysis::{
    analyze_batch_with_backend, BatchOptions, Budget, CacheBackend, StructuralCache,
};
use biv::ir::parser::parse_program;
use biv::ir::Function;
use biv::store::{Store, StoreOptions, TieredCache};

/// A corpus with two α-renamed twins (`f`/`g` differ only in variable
/// names — labels are structural, so they share `L1`) and two genuinely
/// distinct structures: three equivalence classes over four functions.
const CORPUS: &str = "func f(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n\
     func g(m) { s = 1 L1: for t = 1 to m { s = s + t A[s] = t } }\n\
     func h(n, c, k) { j = n L7: loop { i = j + c j = i + k A[j] = A[i] + 1 if j > 1000 { break } } }\n\
     func k(n) { s = 0 L3: for t = 1 to n { s = s + 2 A[s] = t } }\n";

fn corpus_funcs() -> Vec<Function> {
    parse_program(CORPUS).expect("corpus parses").functions
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("biv-store-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch_opts() -> BatchOptions {
    BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    }
}

#[test]
fn format_version_bump_invalidates_the_store_wholesale() {
    let dir = fresh_dir("version");
    let funcs = corpus_funcs();
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);

    // Populate and flush under the current format version.
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open cold");
        let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
        assert_eq!(report.stats.misses, 3, "three equivalence classes");
        let gauges = tiered.store_gauges().expect("tiered cache has a store");
        assert_eq!(gauges.records_live, 3);
        assert_eq!(gauges.disk_hits, 0);
    }

    // An analyzer upgrade: every persisted summary is potentially stale.
    let mut bumped = options.clone();
    bumped.format_version += 1;
    let mut tiered = TieredCache::open(&dir, 4096, &bumped).expect("open after bump");
    let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    let gauges = tiered.store_gauges().expect("store gauges");
    assert_eq!(gauges.disk_hits, 0, "stale records must never be served");
    assert_eq!(report.stats.misses, 3, "everything is recomputed");
    assert!(
        gauges.compactions >= 1,
        "wholesale invalidation is recorded as a compaction"
    );
    assert_eq!(
        gauges.records_live, 3,
        "the store is repopulated under the new version"
    );

    // And the old-version records really are gone from disk: reopening
    // with the bumped options again serves everything from disk.
    drop(tiered);
    let store = Store::open(&dir, &bumped).expect("reopen");
    assert_eq!(store.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disk_hits_match_the_in_memory_hit_set() {
    let dir = fresh_dir("alpha");
    let funcs = corpus_funcs();
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);

    // Reference: a cold in-memory run partitions the corpus into hits
    // (α-renamed duplicates) and misses (distinct structures).
    let mut mem = StructuralCache::new(4096);
    let cold = analyze_batch_with_backend(&funcs, &batch_opts(), &mut mem);
    let distinct = cold.stats.misses;
    let duplicates = cold.stats.hits;
    assert_eq!((distinct, duplicates), (3, 1));

    // Populate the store.
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open cold");
        let warm_up = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
        assert_eq!(warm_up.render(), cold.render(), "cold bytes match");
    }

    // Warm run with an empty memory tier: each distinct structure is a
    // disk hit exactly once; α-renamed twins are served from the
    // promoted memory entry, not the disk.
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open warm");
    let warm = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    let gauges = tiered.store_gauges().expect("store gauges");
    assert_eq!(
        gauges.disk_hits as usize, distinct,
        "disk hits must equal the distinct-structure count"
    );
    assert_eq!(gauges.disk_misses, 0, "a warm store misses nothing");
    assert_eq!(warm.stats.misses, 0, "nothing is recomputed warm");
    assert_eq!(
        warm.stats.hits,
        funcs.len(),
        "every function is a cache hit warm"
    );
    // The per-function reports agree with the in-memory run not just in
    // stats but in every byte of the summary bodies.
    for (a, b) in cold.functions.iter().zip(warm.functions.iter()) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.hash, b.hash);
        assert_eq!(
            Arc::as_ref(&a.summary),
            Arc::as_ref(&b.summary),
            "summary for {} must round-trip the store unchanged",
            a.name
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_found_at_read_time_is_recomputed_with_identical_bytes() {
    let dir = fresh_dir("read-corrupt");
    let funcs = corpus_funcs();
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let mut mem = StructuralCache::new(4096);
    let cold = analyze_batch_with_backend(&funcs, &batch_opts(), &mut mem).render();
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("populate");
        analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
    }

    // Open the store (its scan finds every record sound), then rot one
    // payload byte of the first record on disk.
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open warm");
    let log = dir.join(biv::store::LOG_FILE);
    let bytes = std::fs::read(&log).expect("read log");
    let header = biv::store::log::decode_header(&bytes).expect("header");
    let at = (header.len + 16) as u64;
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open(&log)
        .expect("open log");
    f.seek(SeekFrom::Start(at)).expect("seek");
    f.write_all(&[bytes[at as usize] ^ 0x20]).expect("flip");
    drop(f);

    let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    assert_eq!(
        report.render(),
        cold,
        "a corrupt record never changes bytes"
    );
    let gauges = tiered.store_gauges().expect("store gauges");
    assert_eq!(gauges.corrupt_records_skipped, 1);
    assert_eq!(gauges.disk_hits, 0, "the cut drops every later record too");
    tiered.flush().expect("flush");
    drop(tiered);

    // The recomputed summaries were appended again: a reopen is warm.
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("reopen");
    let warm = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    // Only the stats line may differ: warmth changes the true counters.
    let body = |rendered: &str| rendered[..rendered.rfind("batch:").expect("stats")].to_string();
    assert_eq!(body(&warm.render()), body(&cold));
    assert_eq!(warm.stats.misses, 0, "the healed store is fully warm");
    let gauges = tiered.store_gauges().expect("store gauges");
    assert_eq!(gauges.corrupt_records_skipped, 0);
    std::fs::remove_dir_all(&dir).ok();
}

fn bivc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bivc"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env_remove("BIV_JOBS")
        .output()
        .expect("bivc runs")
}

fn stdout_of(args: &[&str]) -> String {
    let out = bivc(args);
    assert!(
        out.status.success(),
        "bivc {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("bivc output is UTF-8")
}

#[test]
fn cli_cache_dir_is_byte_identical_cold_and_warm() {
    let dir = fresh_dir("cli");
    let dir_arg = dir.display().to_string();
    let plain = stdout_of(&["--batch", "tests/golden"]);
    let cold = stdout_of(&["--cache-dir", &dir_arg, "tests/golden"]);
    let warm = stdout_of(&["--cache-dir", &dir_arg, "tests/golden"]);
    assert_eq!(plain, cold, "cold --cache-dir run must match a plain run");
    assert_eq!(plain, warm, "warm --cache-dir run must match a plain run");
    // `--cache-dir=DIR` spelling parses too.
    assert_eq!(
        plain,
        stdout_of(&[&format!("--cache-dir={dir_arg}"), "tests/golden"])
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_stats_json_reports_memory_and_disk_counters() {
    let dir = fresh_dir("stats");
    let dir_arg = dir.display().to_string();
    let json_path = dir.join("stats.json");
    std::fs::create_dir_all(&dir).unwrap();
    let json_arg = json_path.display().to_string();

    let stat = |json: &biv::server::Json, path: &[&str]| -> i64 {
        path.iter()
            .try_fold(json, |node, key| node.get(key))
            .and_then(|v| v.as_i64())
            .unwrap_or_else(|| panic!("stats missing {path:?} in {}", json.to_text()))
    };

    // Cold run: everything is analyzed, the store object is present.
    stdout_of(&[
        "--cache-dir",
        &dir_arg,
        "--stats-json",
        &json_arg,
        "tests/golden",
    ]);
    let cold = biv::server::Json::parse(&std::fs::read_to_string(&json_path).unwrap())
        .expect("stats json parses");
    let functions = stat(&cold, &["batch", "functions"]);
    assert!(functions > 0);
    assert_eq!(stat(&cold, &["store", "disk_hits"]), 0);
    assert_eq!(
        stat(&cold, &["cache", "hits"]) + stat(&cold, &["cache", "misses"]),
        functions,
        "the cache books must balance"
    );

    // Warm run: zero recomputation, disk hits cover the distinct set.
    stdout_of(&[
        "--cache-dir",
        &dir_arg,
        "--stats-json",
        &json_arg,
        "tests/golden",
    ]);
    let warm = biv::server::Json::parse(&std::fs::read_to_string(&json_path).unwrap())
        .expect("stats json parses");
    assert_eq!(
        stat(&warm, &["batch", "misses"]),
        0,
        "warm run recomputes nothing"
    );
    assert_eq!(stat(&warm, &["batch", "hits"]), functions);
    assert_eq!(
        stat(&warm, &["store", "disk_hits"]),
        stat(&cold, &["batch", "misses"]),
        "disk hits warm must equal distinct structures cold"
    );

    // Without --cache-dir the store object is omitted, not zeroed.
    stdout_of(&["--batch", "--stats-json", &json_arg, "tests/golden"]);
    let mem_only = biv::server::Json::parse(&std::fs::read_to_string(&json_path).unwrap())
        .expect("stats json parses");
    assert!(
        mem_only.get("store").is_none(),
        "no store without --cache-dir"
    );
    assert!(mem_only.get("cache").is_some());
    // The file index lives in `bivd` alone; the CLI omits its object.
    assert!(cold.get("files").is_none() && mem_only.get("files").is_none());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn remote_refuses_local_only_store_flags() {
    for args in [
        &[
            "--remote",
            "tcp:127.0.0.1:1",
            "--cache-dir",
            "/tmp/x",
            "f.biv",
        ][..],
        &[
            "--remote",
            "tcp:127.0.0.1:1",
            "--stats-json",
            "/tmp/x.json",
            "f.biv",
        ][..],
    ] {
        let out = bivc(args);
        assert!(!out.status.success(), "bivc {args:?} must be refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("local-only"),
            "expected a local-only error for {args:?}, got:\n{stderr}"
        );
    }
}
