//! Invariant-engine benchmark: what the `--invariants` path costs on top
//! of classification. Five figures go to `BENCH_invariant.json`:
//! the exact coefficient-matching derivation over the canonical
//! running-sum IV pair and over a four-IV loop of the served mix, the
//! interpreter-trace checking predicate over realistic
//! histories, the checking traces of a large function (interpreter runs
//! plus per-φ history extraction), and the end-to-end batch analysis of
//! an invariant-bearing corpus (derivation + machine-checking included,
//! as served).

use std::time::Duration;

use biv_algebra::{Rational, SymId, SymPoly};
use biv_bench::criterion_group;
use biv_bench::harness::{BenchmarkId, Criterion, Throughput};
use biv_bench::report::{self, Baseline};
use biv_core::{
    analyze, analyze_batch_with_backend, seeded_inputs, BatchOptions, StructuralCache,
    ValidationOptions,
};
use biv_invariant::check::SeedHistories;
use biv_invariant::{check_candidate, derive_candidates, Candidate, InvariantConfig, IvClosedForm};
use biv_ssa::{fold_constants, SsaFunction, SsaInterpreter};
use biv_workload::{generate, WorkloadSpec};

/// A new subsystem has no pre-change medians to compare against.
const BASELINES: &[Baseline] = &[];

const CORPUS_FUNCTIONS: usize = 24;
const CHECK_SEEDS: usize = 4;
const CHECK_ITERATIONS: i64 = 64;
/// Size of the traced function, matching the large-function batch.
const TRACE_INSTS: usize = 2500;
/// The pipeline checker's per-run step budget.
const TRACE_STEP_LIMIT: usize = 20_000;

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

fn rat(n: i128, d: i128) -> Rational {
    Rational::new(n, d).expect("nonzero denominator")
}

/// The running-sum IV pair: `i = 1 + h`, `s = h/2 + h²/2`.
fn running_sum_ivs() -> Vec<IvClosedForm> {
    vec![
        IvClosedForm {
            name: "i".into(),
            coeffs: vec![
                SymPoly::constant(Rational::from_integer(1)),
                SymPoly::constant(Rational::from_integer(1)),
            ],
            geo: Vec::new(),
        },
        IvClosedForm {
            name: "s".into(),
            coeffs: vec![
                SymPoly::zero(),
                SymPoly::constant(rat(1, 2)),
                SymPoly::constant(rat(1, 2)),
            ],
            geo: Vec::new(),
        },
    ]
}

/// The shape of a `batch_mixed` invariant loop: the running-sum pair,
/// a mixed-geometric `5·2^h − 1`, and a linear IV starting at a
/// parameter `n` — four IVs, a 15-column degree-2 basis.
fn four_ivs() -> Vec<IvClosedForm> {
    let mut ivs = running_sum_ivs();
    ivs.push(IvClosedForm {
        name: "v".into(),
        coeffs: vec![SymPoly::constant(Rational::from_integer(-1))],
        geo: vec![(
            Rational::from_integer(2),
            SymPoly::constant(Rational::from_integer(5)),
        )],
    });
    ivs.push(IvClosedForm {
        name: "j".into(),
        coeffs: vec![
            SymPoly::symbol(SymId(0)),
            SymPoly::constant(Rational::from_integer(3)),
        ],
        geo: Vec::new(),
    });
    ivs
}

/// Derivation alone: basis construction, the exact coefficient-matching
/// system, and the rational null-space solve for the degree-2 basis
/// over two and over four IVs.
fn bench_derive(c: &mut Criterion) {
    let config = InvariantConfig::default();
    let mut group = c.benchmark_group("invariant");
    timing(&mut group);
    for (id, ivs) in [("2iv", running_sum_ivs()), ("4iv", four_ivs())] {
        let sanity = derive_candidates(&ivs, &config);
        assert!(
            !sanity.is_empty(),
            "{id}: the running-sum pair must yield relations"
        );
        group.bench_with_input(BenchmarkId::new("derive", id), &ivs, |b, ivs| {
            b.iter(|| derive_candidates(ivs, &config))
        });
    }
    group.finish();
}

/// Checking alone: the exact-i128 evaluation of one candidate over
/// realistic seeded histories (4 seeds × 64 observed iterations).
fn bench_check(c: &mut Criterion) {
    let cand = Candidate {
        coeffs: vec![0, 1, 2, -1, 0, 0],
        exps: vec![
            vec![0, 0],
            vec![1, 0],
            vec![0, 1],
            vec![2, 0],
            vec![1, 1],
            vec![0, 2],
        ],
    };
    let seeds: Vec<SeedHistories> = (0..CHECK_SEEDS)
        .map(|_| {
            let index: Vec<i64> = (1..=CHECK_ITERATIONS).collect();
            let sum: Vec<i64> = (1..=CHECK_ITERATIONS).map(|h| h * (h - 1) / 2).collect();
            vec![index, sum]
        })
        .collect();
    assert!(
        check_candidate(&cand, &seeds, 4),
        "bench candidate must verify"
    );
    let mut group = c.benchmark_group("invariant");
    timing(&mut group);
    group.throughput(Throughput::Elements(
        (CHECK_SEEDS as u64) * (CHECK_ITERATIONS as u64),
    ));
    group.bench_with_input(
        BenchmarkId::new("check", CHECK_SEEDS * CHECK_ITERATIONS as usize),
        &seeds,
        |b, seeds| b.iter(|| check_candidate(&cand, seeds, 4)),
    );
    group.finish();
}

/// Checking traces of a large function, as the pipeline's checker takes
/// them: the folded SSA of `sized_linear(2500)` run on 4 seeds, and the
/// history of every loop-header φ pulled from each trace. This is the
/// layer whose cost used to grow quadratically with function size.
fn bench_trace(c: &mut Criterion) {
    let func = generate(&WorkloadSpec::sized_linear(TRACE_INSTS, 0)).func;
    let analysis = analyze(&func);
    let phis: Vec<_> = analysis
        .loops()
        .flat_map(|(l, _)| {
            let header = analysis.forest().data(l).header;
            analysis.ssa().block(header).phis.clone()
        })
        .collect();
    let mut ssa = SsaFunction::build(&func);
    fold_constants(&mut ssa);
    let opts = ValidationOptions {
        inputs: CHECK_SEEDS,
        step_limit: TRACE_STEP_LIMIT,
        ..ValidationOptions::default()
    };
    let inputs = seeded_inputs(func.params().len(), &opts);
    let interp = SsaInterpreter {
        step_limit: TRACE_STEP_LIMIT,
    };
    let run = || -> usize {
        inputs
            .iter()
            .map(|input| {
                let trace = interp.run_partial(&ssa, input).0;
                phis.iter().map(|&v| trace.history(v).len()).sum::<usize>()
            })
            .sum()
    };
    assert!(
        !phis.is_empty() && run() > 0,
        "traced function must observe header φs"
    );
    let mut group = c.benchmark_group("invariant");
    timing(&mut group);
    group.bench_function(BenchmarkId::new("trace", "sized_linear"), |b| b.iter(run));
    group.finish();
}

/// End to end: batch analysis of an invariant-bearing corpus, exactly as
/// `bivc --invariants` serves it — classification, derivation, and
/// interpreter checking per function.
fn bench_batch(c: &mut Criterion) {
    let funcs: Vec<_> = (0..CORPUS_FUNCTIONS)
        .map(|i| generate(&WorkloadSpec::invariants(2, 0xBEEF + i as u64)).func)
        .collect();
    let opts = BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    };
    let cold_batch = |funcs: &[_]| {
        analyze_batch_with_backend(funcs, &opts, &mut StructuralCache::new(opts.cache_capacity))
    };
    let sanity = cold_batch(&funcs);
    let with_invariants = sanity
        .functions
        .iter()
        .flat_map(|f| f.summary.loops.iter())
        .filter(|l| !l.invariants.is_empty())
        .count();
    assert!(with_invariants > 0, "corpus must carry verified invariants");
    let mut group = c.benchmark_group("invariant");
    timing(&mut group);
    group.throughput(Throughput::Elements(CORPUS_FUNCTIONS as u64));
    group.bench_with_input(
        BenchmarkId::new("batch", CORPUS_FUNCTIONS),
        &funcs,
        |b, funcs| b.iter(|| cold_batch(funcs)),
    );
    group.finish();
}

criterion_group!(benches, bench_derive, bench_check, bench_trace, bench_batch);

fn main() {
    let mut criterion = Criterion::new();
    benches(&mut criterion);
    criterion.final_summary();
    let path = report::workspace_root().join("BENCH_invariant.json");
    match report::emit_json(&path, "invariant", criterion.measurements(), BASELINES) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
