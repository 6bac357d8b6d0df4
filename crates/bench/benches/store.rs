//! Durable-store benchmark: cold analysis that writes every summary
//! through to disk, against a warm restart that serves the same corpus
//! from the persisted record log. The gap is the paper's analysis cost;
//! the warm number is what a `bivd --cache-dir` restart pays. The open
//! row times a reopen of a 2,048-record store alone. The two hot-file
//! rows time one warm request for a file the server has seen before:
//! `index` finds its functions in the file index, `parse` parses and
//! hashes it. The emitted `BENCH_store.json` carries the timings plus
//! the measured warm disk-hit rate.

use std::cell::Cell;
use std::path::PathBuf;
use std::time::Duration;

use biv_bench::criterion_group;
use biv_bench::harness::{BenchmarkId, Criterion, Throughput};
use biv_bench::report::{self, Baseline};
use biv_core::{
    analyze_batch_with_backend, analyze_sources_with_backend, cold_batch_stats,
    render_grouped_with, BatchOptions, BatchReport, Budget, CacheBackend, FileIndex,
    StructuralCache,
};
use biv_ir::parser::parse_program;
use biv_store::{Store, StoreOptions, TieredCache};
use biv_workload::{generate_corpus, CorpusSpec};

/// A new subsystem has no pre-change medians to compare against.
const BASELINES: &[Baseline] = &[];

const CORPUS_FUNCTIONS: usize = 64;

fn timing(group: &mut biv_bench::harness::BenchmarkGroup<'_>) {
    if report::quick_mode() {
        group.measurement_time(Duration::from_millis(300));
        group.warm_up_time(Duration::from_millis(50));
        group.sample_size(5);
    } else {
        group.measurement_time(Duration::from_secs(2));
        group.warm_up_time(Duration::from_millis(400));
        group.sample_size(10);
    }
}

fn corpus_spec() -> CorpusSpec {
    CorpusSpec {
        functions: CORPUS_FUNCTIONS,
        duplicate_every: 0,
        loops: 2,
        trip: 100,
        seed: 0xC0FFEE,
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("biv-bench-store-{tag}-{}", std::process::id()))
}

fn batch_opts() -> BatchOptions {
    BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    }
}

/// Cold: every iteration starts from an empty directory, analyzes the
/// whole corpus, and writes every summary through to a fresh log —
/// analysis cost plus full store-write overhead.
fn bench_store_cold(c: &mut Criterion) {
    let corpus = generate_corpus(&corpus_spec());
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let mut group = c.benchmark_group("store");
    timing(&mut group);
    group.throughput(Throughput::Elements(CORPUS_FUNCTIONS as u64));
    let iteration = Cell::new(0u64);
    group.bench_with_input(
        BenchmarkId::new("cold", CORPUS_FUNCTIONS),
        &corpus.funcs,
        |b, funcs| {
            b.iter(|| {
                let dir = bench_dir(&format!("cold-{}", iteration.get()));
                iteration.set(iteration.get() + 1);
                let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open cold store");
                let report = analyze_batch_with_backend(funcs, &batch_opts(), &mut tiered);
                tiered.flush().expect("flush");
                std::fs::remove_dir_all(&dir).ok();
                report
            })
        },
    );
    group.finish();
}

/// Warm: the store is populated once; every iteration reopens it with
/// an empty memory tier and serves the whole corpus from disk. This is
/// the restart path — decode instead of analyze.
fn bench_store_warm(c: &mut Criterion) {
    let corpus = generate_corpus(&corpus_spec());
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let dir = bench_dir("warm");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("populate store");
        analyze_batch_with_backend(&corpus.funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
    }
    let mut group = c.benchmark_group("store");
    timing(&mut group);
    group.throughput(Throughput::Elements(CORPUS_FUNCTIONS as u64));
    group.bench_with_input(
        BenchmarkId::new("warm", CORPUS_FUNCTIONS),
        &corpus.funcs,
        |b, funcs| {
            b.iter(|| {
                let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open warm store");
                analyze_batch_with_backend(funcs, &batch_opts(), &mut tiered)
            })
        },
    );
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Records in the store the open bench reopens.
const OPEN_RECORDS: usize = 2048;

/// Open: the store holds `OPEN_RECORDS` summaries; every iteration only
/// reopens it (scan, CRC check, offset index) and serves nothing.
fn bench_store_open(c: &mut Criterion) {
    let corpus = generate_corpus(&CorpusSpec {
        functions: OPEN_RECORDS,
        ..corpus_spec()
    });
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let dir = bench_dir("open");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("populate store");
        analyze_batch_with_backend(&corpus.funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
        assert_eq!(tiered.store().len(), OPEN_RECORDS, "distinct corpus");
    }
    let mut group = c.benchmark_group("store");
    timing(&mut group);
    group.throughput(Throughput::Elements(OPEN_RECORDS as u64));
    group.bench_with_input(BenchmarkId::new("open", OPEN_RECORDS), &dir, |b, dir| {
        b.iter(|| Store::open(dir, &options).expect("reopen store"))
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Functions in the hot file, as in a `serve_reuse` request.
const HOT_FUNCTIONS: usize = 4;

/// Renders one file's report the way `bivd` answers it: header, blocks,
/// and the cold-replayed stats line.
fn render_hot(report: &BatchReport) -> String {
    let hashes: Vec<u64> = report.functions.iter().map(|f| f.hash).collect();
    let cold = cold_batch_stats(&hashes, BatchOptions::default().cache_capacity);
    let ranges = [("hot.biv".to_string(), report.functions.len())];
    render_grouped_with(&ranges, &report.functions, &cold, false)
}

/// Hot file: one request for a file whose summaries are all in the
/// memory tier. `index` takes the path `bivd` serves a file it has
/// seen before by — content key, file index, plan, render — and `parse`
/// the path it took before the index: parse, hash, plan, render. Both
/// render the same bytes.
fn bench_hot_file(c: &mut Criterion) {
    let source = generate_corpus(&CorpusSpec {
        functions: HOT_FUNCTIONS,
        ..corpus_spec()
    })
    .source;
    let opts = batch_opts();
    let capacity = opts.cache_capacity;
    let mut cache = StructuralCache::new(capacity);
    let index = std::sync::Mutex::new(FileIndex::new(capacity));
    // Two sightings admit the file; both warm the cache.
    for _ in 0..2 {
        analyze_sources_with_backend(&[&source], &opts, &mut cache, &index);
    }
    let parse_path = |cache: &mut StructuralCache| {
        let funcs = parse_program(&source).expect("corpus parses").functions;
        render_hot(&analyze_batch_with_backend(&funcs, &opts, cache))
    };
    let index_path = |cache: &mut StructuralCache| {
        let served = analyze_sources_with_backend(&[&source], &opts, cache, &index);
        render_hot(&served.report)
    };
    assert_eq!(index_path(&mut cache), parse_path(&mut cache));
    assert_eq!(
        index.lock().unwrap().gauges().entries,
        1,
        "the file is indexed"
    );

    let mut group = c.benchmark_group("store");
    timing(&mut group);
    group.throughput(Throughput::Elements(HOT_FUNCTIONS as u64));
    group.bench_function(BenchmarkId::new("hot_file", "index"), |b| {
        b.iter(|| index_path(&mut cache))
    });
    group.bench_function(BenchmarkId::new("hot_file", "parse"), |b| {
        b.iter(|| parse_path(&mut cache))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_store_cold,
    bench_store_warm,
    bench_store_open,
    bench_hot_file
);

/// One uninstrumented warm pass to measure the disk-hit rate the bench
/// loop exercises: distinct corpus + empty memory tier means every
/// function should be served by the durable tier.
fn measured_hit_rate() -> f64 {
    let corpus = generate_corpus(&corpus_spec());
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let dir = bench_dir("hitrate");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("populate");
        analyze_batch_with_backend(&corpus.funcs, &batch_opts(), &mut tiered);
        tiered.flush().expect("flush");
    }
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("reopen");
    let report = analyze_batch_with_backend(&corpus.funcs, &batch_opts(), &mut tiered);
    let gauges = tiered.store_gauges().expect("store gauges");
    std::fs::remove_dir_all(&dir).ok();
    gauges.disk_hits as f64 / report.stats.functions.max(1) as f64
}

fn main() {
    let mut criterion = Criterion::new();
    benches(&mut criterion);
    criterion.final_summary();
    let hit_rate = measured_hit_rate();
    println!("warm disk hit rate: {:.3}", hit_rate);
    let path = report::workspace_root().join("BENCH_store.json");
    match report::emit_json_with_extras(
        &path,
        "store",
        criterion.measurements(),
        BASELINES,
        &[("warm_hit_rate", hit_rate)],
    ) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
