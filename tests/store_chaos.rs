//! Store-layer fault injection: the `Store` profile arms torn writes,
//! short writes, and record corruption at a fixed seed. Served bytes
//! must never change, and reopening must repair whatever the faults
//! broke. Gated on the feature because production builds carry no
//! injection hooks.
//!
//! The fault plan is process-global, so these tests live in their own
//! test binary: sharing one with the ungated store tests let an
//! installed plan fire inside them. Within this binary a mutex
//! serializes the tests against each other.

#![cfg(feature = "fault-injection")]

use std::path::PathBuf;
use std::sync::Mutex;

use biv::core_analysis::{
    analyze_batch_with_backend, BatchOptions, Budget, CacheBackend, StructuralCache,
};
use biv::ir::parser::parse_program;
use biv::ir::Function;
use biv::store::{Store, StoreOptions, TieredCache};

/// Two α-renamed twins (`f`/`g`) and two distinct structures: three
/// equivalence classes over four functions, as in `store_differential`.
const CORPUS: &str = "func f(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }\n\
     func g(m) { s = 1 L1: for t = 1 to m { s = s + t A[s] = t } }\n\
     func h(n, c, k) { j = n L7: loop { i = j + c j = i + k A[j] = A[i] + 1 if j > 1000 { break } } }\n\
     func k(n) { s = 0 L3: for t = 1 to n { s = s + 2 A[s] = t } }\n";

fn corpus_funcs() -> Vec<Function> {
    parse_program(CORPUS).expect("corpus parses").functions
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("biv-store-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn batch_opts() -> BatchOptions {
    BatchOptions {
        jobs: 1,
        ..BatchOptions::default()
    }
}

static GATE: Mutex<()> = Mutex::new(());

/// The function blocks of a rendered report, without the trailing
/// stats line: warmth legitimately changes the true counters (the
/// CLI and daemon replay a cold cache for their printed line), so
/// byte-identity under faults is asserted on the analysis itself.
fn body(rendered: &str) -> String {
    let cut = rendered.rfind("batch:").expect("stats line");
    rendered[..cut].to_string()
}

#[test]
fn store_faults_never_change_served_bytes() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let dir = fresh_dir("chaos");

    // Every round extends the corpus with one fresh structure, so a
    // fully-persisted store still performs at least one injected
    // write per round, and reuses the surviving prefix of what
    // earlier rounds managed to persist. `install` clears the fired
    // counter, so fires accumulate across the per-round seeds.
    let mut fired = 0;
    for round in 0..40u64 {
        let source = format!(
            "{CORPUS}func r{round}(n) {{ s = 0 L9: for t = 1 to n {{ s = s + {stride} A[s] = t }} }}\n",
            stride = round + 3
        );
        let funcs = parse_program(&source)
            .expect("round corpus parses")
            .functions;
        let mut mem = StructuralCache::new(4096);
        let reference = body(&analyze_batch_with_backend(&funcs, &batch_opts(), &mut mem).render());

        biv_faults::install(round, biv_faults::Profile::Store);
        // A fresh tiered cache per round: each reopen replays
        // whatever consistent prefix survived the previous round's
        // faults, recomputes the rest, and keeps serving.
        let mut tiered = TieredCache::open(&dir, 4096, &options)
            .expect("open stays possible under store faults");
        let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        assert_eq!(
            body(&report.render()),
            reference,
            "round {round}: store faults must never leak into output"
        );
        assert_eq!(
            report.stats.hits + report.stats.misses,
            funcs.len(),
            "round {round}: the books must balance under injection"
        );
        // Flush may fail under injection — that is a durability
        // loss, never a correctness loss.
        let _ = tiered.flush();
        fired += biv_faults::total_fired();
        biv_faults::uninstall();
    }
    assert!(
        fired > 0,
        "the store fault plan never fired — the suite is inert"
    );

    // Recovery: with the plan gone, reopening yields a consistent
    // store whose surviving entries decode and serve correctly.
    let funcs = corpus_funcs();
    let mut mem = StructuralCache::new(4096);
    let reference = body(&analyze_batch_with_backend(&funcs, &batch_opts(), &mut mem).render());
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("clean reopen");
    let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    assert_eq!(
        body(&report.render()),
        reference,
        "clean reopen serves clean bytes"
    );
    tiered.flush().expect("clean flush");

    // And a final warm run serves everything without recomputation.
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("warm reopen");
    let warm = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    assert_eq!(body(&warm.render()), reference);
    assert_eq!(warm.stats.misses, 0, "the repaired store is fully warm");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_records_are_truncated_on_reopen_and_counted() {
    let _gate = GATE.lock().unwrap();
    biv_faults::uninstall();
    let funcs = corpus_funcs();
    let options = StoreOptions::for_budget(&Budget::UNLIMITED);
    let dir = fresh_dir("corrupt");

    // Populate under a corruption-heavy plan until at least one
    // record is corrupted on disk (a read of it in this process would
    // fail its CRC and answer a miss, so serving stays right all along).
    let mut corrupted = false;
    for seed in 0..64u64 {
        biv_faults::install(seed, biv_faults::Profile::Store);
        let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open");
        let _ = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
        let _ = tiered.flush();
        biv_faults::uninstall();
        let reopened = Store::open(&dir, &options).expect("reopen");
        if reopened.stats().corrupt_records_skipped > 0 {
            corrupted = true;
            // The consistent prefix survives; the corrupted tail is
            // truncated, never served.
            assert!(reopened.len() < 3, "corrupt records must be dropped");
            break;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        corrupted,
        "no seed in 0..64 corrupted a record — site inert"
    );

    // The truncated store heals: a clean run recomputes the missing
    // summaries and persists them again.
    let mut tiered = TieredCache::open(&dir, 4096, &options).expect("open healed");
    let report = analyze_batch_with_backend(&funcs, &batch_opts(), &mut tiered);
    assert_eq!(report.stats.hits + report.stats.misses, funcs.len());
    tiered.flush().expect("flush");
    let healed = Store::open(&dir, &options).expect("final reopen");
    assert_eq!(healed.len(), 3, "the store is whole again");
    assert_eq!(healed.stats().corrupt_records_skipped, 0);
    std::fs::remove_dir_all(&dir).ok();
}
