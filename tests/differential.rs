//! Differential testing: every closed form the classifier produces is
//! checked, iteration by iteration, against the values the SSA
//! interpreter actually observes. This is the strongest end-to-end
//! evidence that the classification algorithm is sound.

use std::collections::HashMap;

use biv::algebra::Rational;
use biv::core_analysis::{analyze, Class, Direction, TripCount};
use biv::ir::parser::parse_program;
use biv::ssa::{SsaFunction, SsaInterpreter, SsaTrace, Value};

/// Builds an environment mapping symbol values to the (first) concrete
/// value the trace recorded for them.
fn env_from_trace(ssa: &SsaFunction, trace: &SsaTrace) -> HashMap<Value, i64> {
    ssa.values
        .ids()
        .filter_map(|v| trace.history(v).first().map(|&x| (v, x)))
        .collect()
}

/// Checks every classified value of every loop of `src` against an
/// execution with the given arguments.
fn check_program(src: &str, args: &[i64]) {
    let program = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}\n{src}"));
    for func in &program.functions {
        let analysis = analyze(func);
        // Fresh SSA (no synthetic exit values) for execution; SSA
        // construction is deterministic so value IDs agree with the
        // analysis for all original values.
        let ssa = SsaFunction::build(func);
        biv::ssa::verify_ssa(&ssa).expect("SSA verifies");
        let trace = match SsaInterpreter::new().run(&ssa, args) {
            Ok(t) => t,
            Err(e) => panic!("interpreter failed: {e}\n{src}"),
        };
        let env = env_from_trace(&ssa, &trace);
        // Symbols must be single-assignment in the trace for the check to
        // be meaningful (outer-loop symbols vary between inner-loop
        // instances).
        let lookup = |sym: biv::algebra::SymId| -> Option<Rational> {
            let v = biv::core_analysis::value_of_sym(sym);
            if trace.history(v).len() != 1 {
                return None;
            }
            env.get(&v).map(|&x| Rational::from_integer(i128::from(x)))
        };
        let dom = biv::ir::dom::DomTree::compute(ssa.func());
        let mut checked = 0usize;
        for (_, info) in analysis.loops() {
            // Histories index iterations only while the loop runs once:
            // a nested loop re-enters and restarts its counter, so the
            // per-h checks are limited to outermost loops.
            let outermost = analysis.forest().data(info.loop_id).depth == 1;
            let latch = analysis.forest().single_latch(info.loop_id);
            for (value, class) in &info.classes {
                // Only check values that exist in the executable SSA.
                if !ssa.values.contains(value) {
                    continue;
                }
                if ssa.value_name(value) != analysis.ssa().value_name(value) {
                    continue;
                }
                let history = trace.history(value);
                if history.is_empty() {
                    continue;
                }
                // Per-iteration indexing additionally requires the value
                // to execute on every iteration (its block dominates the
                // latch); conditionally executed values skip those checks.
                let every_iteration =
                    latch.is_some_and(|latch| dom.dominates(ssa.def_block(value), latch));
                match class {
                    Class::Induction(cf) if outermost && every_iteration => {
                        for (h, &observed) in history.iter().enumerate() {
                            let Some(expected) = cf.eval_at(h as i128) else {
                                continue;
                            };
                            let Some(expected) = expected.eval(lookup) else {
                                continue;
                            };
                            assert_eq!(
                                expected,
                                Rational::from_integer(i128::from(observed)),
                                "{}(h={h}) mismatch in {}\n{src}",
                                analysis.ssa().value_name(value),
                                info.name,
                            );
                            checked += 1;
                        }
                    }
                    Class::Invariant(p) => {
                        let Some(expected) = p.eval(lookup) else {
                            continue;
                        };
                        for &observed in &history {
                            assert_eq!(
                                expected,
                                Rational::from_integer(i128::from(observed)),
                                "invariant {} changed\n{src}",
                                analysis.ssa().value_name(value),
                            );
                            checked += 1;
                        }
                    }
                    Class::Periodic(p) if outermost && every_iteration => {
                        let values: Option<Vec<Rational>> =
                            p.values.iter().map(|v| v.eval(lookup)).collect();
                        let Some(values) = values else { continue };
                        for (h, &observed) in history.iter().enumerate() {
                            let expected = &values[(p.phase + h) % p.period()];
                            assert_eq!(
                                *expected,
                                Rational::from_integer(i128::from(observed)),
                                "periodic {}(h={h})\n{src}",
                                analysis.ssa().value_name(value),
                            );
                            checked += 1;
                        }
                    }
                    Class::Monotonic(m) if outermost => {
                        for pair in history.windows(2) {
                            match m.direction {
                                Direction::Increasing => {
                                    if m.strict {
                                        assert!(pair[0] < pair[1], "strict increasing\n{src}");
                                    } else {
                                        assert!(pair[0] <= pair[1], "increasing\n{src}");
                                    }
                                }
                                Direction::Decreasing => {
                                    if m.strict {
                                        assert!(pair[0] > pair[1], "strict decreasing\n{src}");
                                    } else {
                                        assert!(pair[0] >= pair[1], "decreasing\n{src}");
                                    }
                                }
                            }
                            checked += 1;
                        }
                    }
                    Class::WrapAround {
                        order,
                        steady,
                        initials,
                    } if outermost && every_iteration => {
                        // First `order` values match the initials; the
                        // steady class (when an IV) matches shifted.
                        for (h, &observed) in history.iter().enumerate() {
                            if h < *order as usize {
                                if let Some(expected) = initials[h].eval(lookup) {
                                    assert_eq!(
                                        expected,
                                        Rational::from_integer(i128::from(observed)),
                                        "wraparound initial {h}\n{src}"
                                    );
                                    checked += 1;
                                }
                            } else if let Class::Induction(cf) = steady.as_ref() {
                                let shifted = h as i128 - i128::from(*order);
                                let Some(expected) =
                                    cf.eval_at(shifted).and_then(|p| p.eval(lookup))
                                else {
                                    continue;
                                };
                                assert_eq!(
                                    expected,
                                    Rational::from_integer(i128::from(observed)),
                                    "wraparound steady at h={h}\n{src}"
                                );
                                checked += 1;
                            }
                        }
                    }
                    _ => {}
                }
            }
            // Trip counts: a constant count means the header is entered
            // count + 1 times (final exit test).
            if !outermost {
                continue;
            }
            if let TripCount::Finite(p) = &info.trip_count {
                if let Some(tc) = p.eval(lookup) {
                    let header = analysis.forest().data(info.loop_id).header;
                    let visits: usize = ssa
                        .values
                        .ids()
                        .filter(|&v| ssa.def_block(v) == header && ssa.def(v).is_phi())
                        .map(|v| trace.history(v).len())
                        .sum();
                    let phis = ssa.block(header).phis.len();
                    if phis > 0 && visits > 0 {
                        let iterations = visits / phis;
                        // Entered tc + 1 times; the final visit evaluates
                        // φs too, so histories have tc + 1 entries.
                        assert_eq!(
                            Rational::from_integer(iterations as i128 - 1),
                            tc,
                            "trip count of {}\n{src}",
                            info.name
                        );
                    }
                }
            }
        }
        assert!(checked > 0, "nothing was checked for\n{src}");
    }
}

#[test]
fn differential_fig1() {
    check_program(
        "func fig1(n, c, k) { j = n L7: loop { i = j + c j = i + k if j > 1000 { break } } }",
        &[5, 3, 2],
    );
}

#[test]
fn differential_fig3_branches() {
    check_program(
        "func fig3(e, n) { i = 1 L8: loop { if e > 0 { i = i + 2 } else { i = i + 2 } if i > n { break } } }",
        &[1, 25],
    );
    check_program(
        "func fig3(e, n) { i = 1 L8: loop { if e > 0 { i = i + 2 } else { i = i + 2 } if i > n { break } } }",
        &[0, 25],
    );
}

#[test]
fn differential_wraparound() {
    check_program(
        "func fig4(n, k0, j0) { k = k0 j = j0 i = 1 L10: loop { A[k] = i A[j] = i k = j j = i i = i + 1 if i > n { break } } }",
        &[12, 100, 200],
    );
}

#[test]
fn differential_periodic() {
    check_program(
        "func fig5(n, j0, k0, l0, t0) { t = t0 j = j0 k = k0 l = l0 c = 0 L13: loop { A[t] = j t = j j = k k = l l = t c = c + 1 if c > n { break } } }",
        &[10, 7, 8, 9, 6],
    );
}

#[test]
fn differential_l14_polynomials() {
    check_program(
        "func l14(n) { j = 1 k = 1 l = 1 L14: for i = 1 to n { j = j + i k = k + j + 1 l = l * 2 + 1 A[j] = k } }",
        &[12],
    );
}

#[test]
fn differential_l14_geometric_m() {
    check_program(
        "func l14m(n) { m = 0 L14: for i = 1 to n { m = 3 * m + 2 * i + 1 A[m] = i } }",
        &[10],
    );
}

#[test]
fn differential_flip_flops() {
    check_program(
        "func l12(n) { j = 1 L12: for it = 1 to n { j = 3 - j A[j] = it } }",
        &[9],
    );
    check_program(
        "func l11(n) { j = 1 jold = 2 L11: for it = 1 to n { jt = jold jold = j j = jt A[j] = it } }",
        &[9],
    );
}

#[test]
fn differential_monotonic() {
    check_program(
        "func fig6(n, e) { k = 0 L16: loop { if e > 0 { k = k + 1 } else { k = k + 2 } if k > n { break } } }",
        &[30, 1],
    );
}

#[test]
fn differential_nested_and_triangular() {
    check_program(
        "func fig7(n) { k = 0 L17: loop { i = 1 L18: loop { k = k + 2 if i > 100 { break } i = i + 1 } k = k + 2 if k > n { break } } }",
        &[1000],
    );
    check_program(
        "func fig9(n) { j = 0 L19: for i = 1 to n { j = j + i L20: for k = 1 to i { j = j + 1 } } }",
        &[9],
    );
}

#[test]
fn differential_negative_steps_and_bounds() {
    check_program("func f(n) { L1: for i = n to 1 by -3 { A[i] = i } }", &[20]);
    check_program("func f() { L1: for i = 10 to 5 { A[i] = i } }", &[]);
}

#[test]
fn differential_generated_workloads() {
    for seed in [1u64, 2, 3, 4, 5] {
        let spec = biv::workload::WorkloadSpec {
            loops: 2,
            trip: 12,
            geometric: 0, // geometric values overflow i64 quickly
            seed,
            ..Default::default()
        };
        let w = biv::workload::generate(&spec);
        check_program(&w.source, &[7]);
    }
}

#[test]
fn differential_generated_with_geometrics_short_trip() {
    for seed in [11u64, 12, 13] {
        let spec = biv::workload::WorkloadSpec {
            loops: 1,
            trip: 8, // keep geometric values inside i64
            seed,
            ..Default::default()
        };
        let w = biv::workload::generate(&spec);
        check_program(&w.source, &[3]);
    }
}
