//! Robustness: resource budgets degrade gracefully to `Unknown` with a
//! recorded reason, pathological inputs never panic, and non-cacheable
//! (nondeterministically budget-limited) results stay out of the
//! structural cache.

use biv_core::{
    analyze_batch_with_backend, analyze_protected, analyze_source, analyze_with, AnalysisConfig,
    BatchOptions, Budget, BudgetBreach, Class, StructuralCache, TripCount,
};
use biv_ir::parser::parse_program;

/// Figure-14-style quadratic: `j` accumulates the linear `i`, so its
/// closed form has polynomial order 2.
const QUADRATIC: &str = "func f(n) { j = 1 L14: for i = 1 to n { j = j + i A[j] = i } }\n";

fn config_with(budget: Budget) -> AnalysisConfig {
    AnalysisConfig {
        budget,
        ..AnalysisConfig::default()
    }
}

fn analyze_quadratic(budget: Budget) -> biv_core::Analysis {
    let program = parse_program(QUADRATIC).expect("parses");
    analyze_with(&program.functions[0], config_with(budget))
}

fn class_of<'a>(analysis: &'a biv_core::Analysis, name: &str) -> &'a Class {
    let value = analysis
        .ssa()
        .value_by_name(name)
        .unwrap_or_else(|| panic!("no value named {name}"));
    let (_, class) = analysis
        .class_of(value)
        .unwrap_or_else(|| panic!("{name} has no class"));
    class
}

#[test]
fn unlimited_budget_records_no_breaches() {
    let analysis = analyze_quadratic(Budget::UNLIMITED);
    assert!(analysis.budget_breaches().is_empty());
    let Class::Induction(cf) = class_of(&analysis, "j3") else {
        panic!("expected a quadratic induction variable");
    };
    assert_eq!(cf.degree(), 2);
}

#[test]
fn order_cap_degrades_to_unknown_with_recorded_breach() {
    let analysis = analyze_quadratic(Budget {
        max_order: Some(1),
        ..Budget::UNLIMITED
    });
    assert_eq!(class_of(&analysis, "j3"), &Class::Unknown);
    assert_eq!(
        analysis.budget_breaches(),
        &[BudgetBreach::PolyOrder { order: 2, limit: 1 }]
    );
    assert!(analysis.budget_breaches()[0].is_deterministic());
    // The linear `i` is below the cap and keeps its classification.
    assert!(matches!(class_of(&analysis, "i2"), Class::Induction(_)));
}

#[test]
fn region_node_cap_degrades_the_whole_loop() {
    let analysis = analyze_quadratic(Budget {
        max_region_nodes: Some(1),
        ..Budget::UNLIMITED
    });
    assert_eq!(class_of(&analysis, "j3"), &Class::Unknown);
    assert_eq!(class_of(&analysis, "i2"), &Class::Unknown);
    assert!(matches!(
        analysis.budget_breaches(),
        [BudgetBreach::RegionNodes { limit: 1, .. }]
    ));
}

#[test]
fn scc_cap_degrades_cyclic_regions_only() {
    // Both `i` and `j` live in 2-member cyclic SCRs; a cap of 1 forces
    // them to Unknown but leaves acyclic values (the invariant `n`)
    // alone.
    let analysis = analyze_quadratic(Budget {
        max_scc: Some(1),
        ..Budget::UNLIMITED
    });
    assert_eq!(class_of(&analysis, "j3"), &Class::Unknown);
    assert_eq!(class_of(&analysis, "i2"), &Class::Unknown);
    assert!(analysis
        .budget_breaches()
        .iter()
        .all(|b| matches!(b, BudgetBreach::SccSize { limit: 1, .. })));
    assert!(!analysis.budget_breaches().is_empty());
}

#[test]
fn zero_deadline_degrades_and_is_marked_nondeterministic() {
    let analysis = analyze_quadratic(Budget {
        time_ms: Some(0),
        ..Budget::UNLIMITED
    });
    assert_eq!(class_of(&analysis, "j3"), &Class::Unknown);
    let breaches = analysis.budget_breaches();
    assert!(breaches.contains(&BudgetBreach::Deadline), "{breaches:?}");
    assert!(breaches.iter().any(|b| !b.is_deterministic()));
    for (_, info) in analysis.loops() {
        assert_eq!(info.trip_count, TripCount::Unknown);
    }
}

#[test]
fn budget_parse_roundtrips_and_rejects_garbage() {
    let budget = Budget::parse("time=5, nodes=100, scc=10, order=3").unwrap();
    assert_eq!(budget.time_ms, Some(5));
    assert_eq!(budget.max_region_nodes, Some(100));
    assert_eq!(budget.max_scc, Some(10));
    assert_eq!(budget.max_order, Some(3));
    assert_eq!(Budget::parse("").unwrap(), Budget::UNLIMITED);
    assert!(Budget::parse("order=-1").is_err());
    assert!(Budget::parse("speed=9").is_err());
    assert!(Budget::parse("order").is_err());
}

#[test]
fn deterministic_breaches_are_cacheable_deadline_is_not() {
    use biv_core::{analyze_batch_with_backend, StructuralCache};
    let program = parse_program(QUADRATIC).expect("parses");
    let funcs = &program.functions[..1];

    // An order-capped summary is a pure function of the input, so a
    // second batch over the same structure is served from the cache.
    let capped = BatchOptions {
        jobs: 1,
        config: config_with(Budget {
            max_order: Some(1),
            ..Budget::UNLIMITED
        }),
        ..BatchOptions::default()
    };
    let mut cache = StructuralCache::new(BatchOptions::default().cache_capacity);
    analyze_batch_with_backend(funcs, &capped, &mut cache);
    let report = analyze_batch_with_backend(funcs, &capped, &mut cache);
    assert_eq!((report.stats.misses, report.stats.hits), (0, 1));

    // A deadline-limited summary might differ on a faster machine, so
    // it is never retained: the second batch recomputes.
    let deadline = BatchOptions {
        jobs: 1,
        config: config_with(Budget {
            time_ms: Some(0),
            ..Budget::UNLIMITED
        }),
        ..BatchOptions::default()
    };
    let mut cache = StructuralCache::new(BatchOptions::default().cache_capacity);
    analyze_batch_with_backend(funcs, &deadline, &mut cache);
    let report = analyze_batch_with_backend(funcs, &deadline, &mut cache);
    assert_eq!((report.stats.misses, report.stats.hits), (1, 0));
}

#[test]
fn budget_breaches_render_in_batch_summaries() {
    let program = parse_program(QUADRATIC).expect("parses");
    let opts = BatchOptions {
        jobs: 1,
        config: config_with(Budget {
            max_order: Some(1),
            ..Budget::UNLIMITED
        }),
        ..BatchOptions::default()
    };
    let mut cache = StructuralCache::new(opts.cache_capacity);
    let report = analyze_batch_with_backend(&program.functions, &opts, &mut cache);
    let rendered = report.functions[0].render();
    assert!(
        rendered.contains("budget: polynomial order 2 (limit 1)"),
        "breach line missing from:\n{rendered}"
    );
}

#[test]
fn extreme_constants_do_not_panic() {
    // Near-i64 bounds and steps: trip counts either come out exact in
    // i128 or degrade to Unknown — never a checked-arithmetic panic.
    let sources = [
        "func a() { j = 0 L1: for i = 1 to 9000000000000000000 { j = j + 1 } }\n",
        "func b() { j = 9000000000000000000 L1: for i = 1 to 10 { j = j + 9000000000000000000 } }\n",
        "func c(n) { j = 1 L1: loop { j = j * 3 if j > 9000000000000000000 { break } } }\n",
        "func d() { j = -9000000000000000000 L1: for i = -9000000000000000000 to 9000000000000000000 { j = j + 3 } }\n",
    ];
    for src in sources {
        let analysis =
            analyze_source(src).unwrap_or_else(|e| panic!("analysis failed on {src:?}: {e}"));
        for (_, info) in analysis.loops() {
            // Force the lazy display paths too — they walk closed forms.
            let _ = format!("{}", info.trip_count);
        }
    }
}

#[test]
fn checked_rational_ceil_handles_the_i128_edge() {
    use biv_algebra::Rational;
    let r = |n, d| Rational::new(n, d).unwrap();
    assert_eq!(r(7, 2).checked_ceil(), Some(4));
    assert_eq!(r(-7, 2).checked_ceil(), Some(-3));
    assert_eq!(r(6, 3).checked_ceil(), Some(2));
    // `ceil` would negate i128::MIN and abort; the checked variant
    // reports the edge instead.
    assert_eq!(Rational::from_integer(i128::MIN).checked_ceil(), None);
}

#[test]
fn analyze_protected_matches_plain_analysis_when_nothing_panics() {
    let program = parse_program(QUADRATIC).expect("parses");
    let protected = analyze_protected(&program.functions[0], AnalysisConfig::default())
        .expect("no panic, no error");
    let plain = analyze_with(&program.functions[0], AnalysisConfig::default());
    assert_eq!(
        protected.describe_by_name("j3"),
        plain.describe_by_name("j3")
    );
    assert!(protected.budget_breaches().is_empty());
}
