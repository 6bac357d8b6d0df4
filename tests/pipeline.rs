//! Cross-crate integration: parse → SSA (verified) → classify →
//! dependence-test, over paper programs and generated workloads, plus the
//! coverage comparison between the unified classifier and the classical
//! baseline.

use biv::core_analysis::{analyze, analyze_with, AnalysisConfig};
use biv::depend::DependenceTester;
use biv::ir::interp::Interpreter;
use biv::ir::parser::parse_program;
use biv::ir::verify::verify_function;
use biv::ssa::{verify_ssa, SsaFunction, SsaInterpreter};
use biv::workload::{count_classes, generate, WorkloadSpec};

#[test]
fn every_generated_workload_passes_all_verifiers() {
    for seed in 0..8u64 {
        let w = generate(&WorkloadSpec {
            loops: 3,
            diamonds: 2,
            seed,
            ..WorkloadSpec::default()
        });
        verify_function(&w.func).expect("CFG verifies");
        let ssa = SsaFunction::build(&w.func);
        verify_ssa(&ssa).expect("SSA verifies");
        let analysis = analyze(&w.func);
        let counts = count_classes(&analysis);
        assert!(
            counts.linear >= w.expected.linear,
            "seed {seed}: {counts:?}"
        );
        assert!(counts.wraparound >= w.expected.wraparound, "seed {seed}");
        assert!(counts.periodic >= w.expected.periodic, "seed {seed}");
        assert!(counts.monotonic >= w.expected.monotonic, "seed {seed}");
    }
}

#[test]
fn cfg_and_ssa_interpreters_agree() {
    // Two independent semantics for the same program must agree on all
    // observable state — a strong check on SSA construction.
    for seed in 0..6u64 {
        let w = generate(&WorkloadSpec {
            loops: 2,
            trip: 9,
            geometric: 0, // avoid i64 overflow in long products
            seed,
            ..WorkloadSpec::default()
        });
        let cfg_trace = Interpreter::new().run(&w.func, &[5]).expect("CFG runs");
        let ssa = SsaFunction::build(&w.func);
        let ssa_trace = SsaInterpreter::new().run(&ssa, &[5]).expect("SSA runs");
        assert_eq!(
            cfg_trace.arrays,
            ssa_trace.arrays(),
            "array state diverged for seed {seed}\n{}",
            w.source
        );
    }
}

#[test]
fn linear_only_config_is_a_strict_subset() {
    let w = generate(&WorkloadSpec {
        loops: 2,
        ..WorkloadSpec::default()
    });
    let full = count_classes(&analyze(&w.func));
    let linear = count_classes(&analyze_with(&w.func, AnalysisConfig::linear_only()));
    // Linear-only classifies no extended classes...
    assert_eq!(linear.polynomial, 0);
    assert_eq!(linear.geometric, 0);
    assert_eq!(linear.periodic, 0);
    assert_eq!(linear.monotonic, 0);
    assert_eq!(linear.wraparound, 0);
    // ...but the same linear variables.
    assert_eq!(linear.linear, full.linear);
    // And the full config turns those unknowns into classifications.
    assert!(full.unknown < linear.unknown);
}

#[test]
fn unified_classifier_covers_more_than_classical() {
    let w = generate(&WorkloadSpec {
        loops: 3,
        ..WorkloadSpec::default()
    });
    let unified = count_classes(&analyze(&w.func));
    let classical = biv::classic::detect(&w.func);
    let unified_total = unified.linear
        + unified.polynomial
        + unified.geometric
        + unified.wraparound
        + unified.periodic
        + unified.monotonic;
    // SSA values outnumber source variables, so compare against the
    // planted ground truth instead: the classical detector misses the
    // polynomial, geometric, periodic, and monotonic plants entirely
    // (its wraparound matcher does fire).
    let classical_kinds: Vec<_> = classical
        .loops
        .iter()
        .flat_map(|l| l.ivs.iter().map(|iv| &iv.kind))
        .collect();
    assert!(classical_kinds
        .iter()
        .all(|k| !matches!(k, biv::classic::IvKind::FlipFlop { .. })));
    assert!(unified.polynomial > 0 && unified.periodic > 0 && unified.monotonic > 0);
    assert!(unified_total > classical.total());
}

#[test]
fn dependence_pipeline_runs_on_workloads() {
    for seed in 0..4u64 {
        let w = generate(&WorkloadSpec {
            loops: 2,
            seed,
            ..WorkloadSpec::default()
        });
        let analysis = analyze(&w.func);
        let tester = DependenceTester::new(&analysis);
        let deps = tester.all_dependences();
        // The ARR array is written through many different subscripts;
        // some pairs must survive, and none may panic.
        assert!(!deps.is_empty());
    }
}

#[test]
fn multi_function_programs_analyze_independently() {
    let program = parse_program(
        r#"
        func first(n) { L1: for i = 1 to n { A[i] = i } }
        func second(m) { L2: for j = 1 to m { B[j] = j * 2 } }
        "#,
    )
    .unwrap();
    assert_eq!(program.functions.len(), 2);
    for func in &program.functions {
        let analysis = analyze(func);
        assert_eq!(analysis.loops().count(), 1);
    }
}

#[test]
fn analysis_is_deterministic() {
    let w = generate(&WorkloadSpec {
        loops: 2,
        seed: 99,
        ..WorkloadSpec::default()
    });
    let a = count_classes(&analyze(&w.func));
    let b = count_classes(&analyze(&w.func));
    assert_eq!(a, b);
}

#[test]
fn deeply_nested_loops_classify() {
    let analysis = biv::core_analysis::analyze_source(
        r#"
        func deep(n) {
            s = 0
            L1: for i = 1 to 4 {
                L2: for j = 1 to 4 {
                    L3: for k = 1 to 4 {
                        s = s + 1
                        A[s] = i + j + k
                    }
                }
            }
        }
        "#,
    )
    .unwrap();
    assert_eq!(analysis.loops().count(), 3);
    // s is linear in the innermost loop and, via exit values, linear in
    // every enclosing loop with steps 1, 4, 16.
    let l1 = analysis.loop_by_label("L1").unwrap();
    let info = analysis.info(l1);
    let s_var = analysis.ssa().func().var_by_name("s").unwrap();
    let step_64 = info.classes.iter().any(|(v, c)| {
        analysis.ssa().values[v].var == Some(s_var)
            && matches!(c, biv::core_analysis::Class::Induction(cf)
                if cf.is_linear()
                && cf.coeffs[1].constant_value()
                    == Some(biv::algebra::Rational::from_integer(16)))
    });
    assert!(step_64, "s has step 16 in the outermost loop");
}
