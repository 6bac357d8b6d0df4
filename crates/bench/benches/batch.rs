//! Batch-analysis throughput: the sharded, cached driver against the
//! serial baseline on a 64-function workload corpus. On a machine with
//! ≥ 4 cores the parallel configuration should clear 2× the serial
//! throughput, and the duplicate-heavy corpus shows the structural cache
//! collapsing repeated functions to a single classification.

use std::time::Duration;

use biv_bench::criterion_group;
use biv_bench::harness::{BenchmarkId, Criterion, Throughput};
use biv_bench::report::{self, Baseline};
use biv_core::{
    analyze_batch_with_backend, resolve_jobs, BatchOptions, BatchReport, StructuralCache,
};
use biv_ir::Function;
use biv_workload::{generate_corpus, CorpusSpec};

/// No pre-change medians: on shared hardware these rows drift between
/// sessions by more than a change moves them, so before/after comparisons
/// come from alternating perfbench runs, not constants recorded earlier.
const BASELINES: &[Baseline] = &[];

/// One batch against a fresh cache, as a cold `bivc --batch` run does.
fn cold_batch(funcs: &[Function], opts: &BatchOptions) -> BatchReport {
    analyze_batch_with_backend(funcs, opts, &mut StructuralCache::new(opts.cache_capacity))
}

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

const CORPUS_FUNCTIONS: usize = 64;

fn corpus_spec(duplicate_every: usize) -> CorpusSpec {
    CorpusSpec {
        functions: CORPUS_FUNCTIONS,
        duplicate_every,
        loops: 2,
        trip: 100,
        seed: 0xC0FFEE,
    }
}

/// Serial vs parallel on a corpus of 64 distinct functions.
fn bench_batch_scaling(c: &mut Criterion) {
    let corpus = generate_corpus(&corpus_spec(0));
    let available = resolve_jobs(0);
    let mut group = c.benchmark_group("batch");
    timing(&mut group);
    group.throughput(Throughput::Elements(CORPUS_FUNCTIONS as u64));
    let mut job_counts = vec![1usize];
    if available > 1 {
        job_counts.push(available);
    }
    for jobs in job_counts {
        let opts = BatchOptions {
            jobs,
            ..BatchOptions::default()
        };
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &corpus.funcs, |b, funcs| {
            b.iter(|| cold_batch(funcs, &opts))
        });
    }
    group.finish();

    // Report the speedup explicitly so the perf trajectory captures it.
    let get = |suffix: &str| {
        c.measurements()
            .iter()
            .find(|m| m.id == format!("batch/jobs/{suffix}"))
            .map(|m| m.mean)
    };
    if let (Some(serial), Some(parallel)) = (get("1"), get(&available.to_string())) {
        if parallel > Duration::ZERO && available > 1 {
            println!(
                "batch speedup on {available} workers: {:.2}x",
                serial.as_secs_f64() / parallel.as_secs_f64()
            );
        }
    }
}

/// The structural cache on a duplicate-heavy corpus (every 2nd function
/// is a structural twin): half the classifications disappear.
fn bench_batch_cache(c: &mut Criterion) {
    let distinct = generate_corpus(&corpus_spec(0));
    let duplicated = generate_corpus(&corpus_spec(2));
    let mut group = c.benchmark_group("batch_cache");
    timing(&mut group);
    group.throughput(Throughput::Elements(CORPUS_FUNCTIONS as u64));
    let opts = BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    };
    group.bench_with_input(
        BenchmarkId::new("distinct", CORPUS_FUNCTIONS),
        &distinct.funcs,
        |b, funcs| b.iter(|| cold_batch(funcs, &opts)),
    );
    group.bench_with_input(
        BenchmarkId::new("duplicated", CORPUS_FUNCTIONS),
        &duplicated.funcs,
        |b, funcs| b.iter(|| cold_batch(funcs, &opts)),
    );
    group.finish();
}

criterion_group!(benches, bench_batch_scaling, bench_batch_cache);

fn main() {
    let mut criterion = Criterion::new();
    benches(&mut criterion);
    criterion.final_summary();
    let path = report::workspace_root().join("BENCH_batch.json");
    match report::emit_json(&path, "batch", criterion.measurements(), BASELINES) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
