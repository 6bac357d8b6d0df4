//! Panic isolation under deterministic fault injection: an injected
//! panic inside analysis becomes a structured error, never poisons the
//! structural cache or thread-local scratch, and disappears entirely
//! once the plan is uninstalled.
//!
//! Lives in its own integration-test binary because the fault plan is
//! process-global: these tests must not share a process with tests that
//! assume injection is off.

#![cfg(feature = "fault-injection")]

use biv_core::{
    analyze_batch_with_backend, analyze_protected, AnalysisConfig, BatchOptions, StructuralCache,
};
use biv_ir::parser::parse_program;

use std::sync::Mutex;

/// Serializes tests: the fault plan is one per process.
static GATE: Mutex<()> = Mutex::new(());

const SRC: &str = "func f(n) { j = 1 L14: for i = 1 to n { j = j + i A[j] = i } }\n";

/// Finds a seed whose very first `analyze.panic` draw fires (rate is
/// 256/1024, so one is always nearby).
fn arming_seed() -> u64 {
    for seed in 0..64 {
        biv_faults::install(seed, biv_faults::Profile::Analyze);
        let fires = biv_faults::fire("analyze.panic");
        biv_faults::uninstall();
        if fires {
            return seed;
        }
    }
    panic!("no arming seed in 0..64 at a 1/4 fire rate");
}

#[test]
fn injected_panic_becomes_structured_error_and_analysis_recovers() {
    let _gate = GATE.lock().unwrap();
    let program = parse_program(SRC).expect("parses");
    let func = &program.functions[0];
    let baseline = analyze_protected(func, AnalysisConfig::default()).expect("clean run succeeds");

    let seed = arming_seed();
    biv_faults::install(seed, biv_faults::Profile::Analyze);
    let err = analyze_protected(func, AnalysisConfig::default())
        .expect_err("the armed first draw must panic");
    assert!(
        err.to_string().contains("injected fault: analyze.panic"),
        "panic payload should surface in the error: {err}"
    );
    biv_faults::uninstall();

    // The catch path reset the thread-local scratch: the same thread
    // immediately produces the exact clean-run result again.
    let recovered = analyze_protected(func, AnalysisConfig::default()).expect("recovers");
    assert_eq!(
        recovered.describe_by_name("j3"),
        baseline.describe_by_name("j3")
    );
}

#[test]
fn panicked_summaries_render_an_error_line_and_stay_out_of_the_cache() {
    let _gate = GATE.lock().unwrap();
    let program = parse_program(SRC).expect("parses");
    let funcs = &program.functions[..1];
    let opts = BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    };

    let seed = arming_seed();
    biv_faults::install(seed, biv_faults::Profile::Analyze);
    let mut cache = StructuralCache::new(opts.cache_capacity);
    let report = analyze_batch_with_backend(funcs, &opts, &mut cache);
    biv_faults::uninstall();

    let rendered = report.functions[0].render();
    assert!(
        rendered.contains("error: internal:"),
        "panicked summary should carry an error line:\n{rendered}"
    );
    assert_eq!(cache.len(), 0, "a panicked summary must not be retained");

    // With the plan gone, the same cache serves a clean run: the poison
    // never happened.
    let report = analyze_batch_with_backend(funcs, &opts, &mut cache);
    let rendered = report.functions[0].render();
    assert!(
        !rendered.contains("error:"),
        "clean rerun should carry no error:\n{rendered}"
    );
    assert_eq!((report.stats.misses, report.stats.hits), (1, 0));
    assert_eq!(cache.len(), 1);
}
