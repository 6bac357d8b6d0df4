//! Wire-framing benchmark: what one hot `serve_reuse` round trip pays
//! to turn its request and reply into JSON frame payloads and back.
//! The request carries one seeded file of four default-mix functions,
//! as a `serve_reuse` request does; the reply is that file's rendered
//! analyze response, `files` spans included. The four rows go to
//! `BENCH_frame.json` with the payload sizes they were measured on;
//! each row's `elements` is its payload's size in bytes.

use std::time::Duration;

use biv_bench::criterion_group;
use biv_bench::harness::{BenchmarkId, Criterion, Throughput};
use biv_bench::report::{self, Baseline};
use biv_core::{
    analyze_batch_with_backend, cold_batch_stats, render_grouped_spans, BatchOptions,
    StructuralCache,
};
use biv_ir::parser::parse_program;
use biv_server::{AnalyzeFile, FileBlock, Request, Response};
use biv_workload::{generate, WorkloadSpec};

/// The char-at-a-time codec this one replaced: each row's median over
/// nine full runs, interleaved with runs of this codec on a 2-vCPU
/// host.
const BASELINES: &[Baseline] = &[
    Baseline {
        id: "frame/request/encode",
        median_ns: 14_884.0,
    },
    Baseline {
        id: "frame/request/decode",
        median_ns: 11_954.0,
    },
    Baseline {
        id: "frame/response/encode",
        median_ns: 29_052.0,
    },
    Baseline {
        id: "frame/response/decode",
        median_ns: 20_399.0,
    },
];

/// Functions in the framed file, as in one `serve_reuse` request.
const FILE_FUNCTIONS: usize = 4;

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

/// The framed request and its reply.
fn exchange() -> (Request, Response) {
    let mut source = String::new();
    for k in 0..FILE_FUNCTIONS {
        let w = generate(&WorkloadSpec {
            seed: 0xF7A3E + k as u64,
            ..WorkloadSpec::default()
        });
        source.push_str(
            &w.source
                .replacen("func generated(", &format!("func hot0_{k}("), 1),
        );
    }
    let path = "hot/file00.biv".to_string();
    let funcs = parse_program(&source)
        .expect("generated sources parse")
        .functions;
    let opts = BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    };
    let report = analyze_batch_with_backend(&funcs, &opts, &mut StructuralCache::new(4096));
    let hashes: Vec<u64> = report.functions.iter().map(|f| f.hash).collect();
    let cold = cold_batch_stats(&hashes, opts.cache_capacity);
    let (output, spans) = render_grouped_spans(
        &[(path.clone(), funcs.len())],
        &report.functions,
        &cold,
        false,
    );
    let response = Response::Analyze {
        output,
        functions: report.stats.functions,
        analyzed: report.stats.misses,
        cached: report.stats.hits,
        errors: Vec::new(),
        files: vec![FileBlock {
            bytes: spans[0],
            hashes,
        }],
    };
    let request = Request::Analyze {
        files: vec![AnalyzeFile { path, source }],
        cache_cap: None,
        invariants: false,
    };
    (request, response)
}

fn bench_frame(c: &mut Criterion) {
    let (request, response) = exchange();
    let request_bytes = request.encode();
    let response_bytes = response.encode();
    let mut group = c.benchmark_group("frame");
    timing(&mut group);
    group.throughput(Throughput::Bytes(request_bytes.len() as u64));
    group.bench_function(BenchmarkId::new("request", "encode"), |b| {
        b.iter(|| request.encode())
    });
    group.bench_function(BenchmarkId::new("request", "decode"), |b| {
        b.iter(|| Request::decode(&request_bytes).expect("request decodes"))
    });
    group.throughput(Throughput::Bytes(response_bytes.len() as u64));
    group.bench_function(BenchmarkId::new("response", "encode"), |b| {
        b.iter(|| response.encode())
    });
    group.bench_function(BenchmarkId::new("response", "decode"), |b| {
        b.iter(|| Response::decode(&response_bytes).expect("response decodes"))
    });
    group.finish();
}

criterion_group!(benches, bench_frame);

fn main() {
    let mut criterion = Criterion::new();
    benches(&mut criterion);
    criterion.final_summary();
    let (request, response) = exchange();
    let sizes = [
        ("request_bytes", request.encode().len() as f64),
        ("response_bytes", response.encode().len() as f64),
    ];
    println!("payloads: {} B request, {} B reply", sizes[0].1, sizes[1].1);
    let path = report::workspace_root().join("BENCH_frame.json");
    match report::emit_json_with_extras(&path, "frame", criterion.measurements(), BASELINES, &sizes)
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
