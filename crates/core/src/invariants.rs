//! Bridges the classifier to the polynomial-invariant engine
//! (biv-invariant): per loop, the closed forms of the loop-header φs
//! classified as induction (or mixed-geometric) variables feed the
//! null-space derivation, and every candidate relation is machine-checked
//! against concrete traces from the SSA interpreter before it may appear
//! in a summary.
//!
//! Checking replays a *clean* rebuild of the function's SSA — the
//! analysis mutates its own copy with synthetic exit-value definitions,
//! which are not executable — over the same deterministic seeded inputs
//! the differential validator uses. Value numbering is construction-order
//! deterministic and synthetics are only ever appended, so the φ ids
//! recorded by the analysis address the identical values in the rebuild.

use std::collections::HashMap;

use biv_invariant::check::SeedHistories;
use biv_invariant::{check_candidate, derive_candidates, InvariantConfig, IvClosedForm};
use biv_ir::loops::Loop;
use biv_ir::Function;
use biv_ssa::{SsaFunction, SsaInterpreter, SsaTrace, Value};

use crate::class::Class;
use crate::config::AnalysisConfig;
use crate::display::canonical_value_name;
use crate::driver::Analysis;
use crate::validate::{seeded_inputs, ValidationOptions};

/// Seeds used for machine-checking. Few and shallow on purpose: the
/// derivation is exact over symbolic inits, so checking guards against
/// engine bugs and wrong closed forms, not against rare inputs.
const CHECK_INPUTS: usize = 4;

/// Step budget per checking run — invariant checking must never dominate
/// analysis time, and a truncated run still contributes its prefix.
const CHECK_STEP_LIMIT: usize = 20_000;

/// Minimum number of (seed, iteration) pairs that must actually evaluate
/// to zero before a candidate counts as verified.
const MIN_CHECKED_ITERATIONS: usize = 4;

/// One loop's derivation inputs and its as-yet-unchecked candidates.
type LoopCandidates = (
    Loop,
    Vec<Value>,
    Vec<IvClosedForm>,
    Vec<biv_invariant::Candidate>,
);

/// Derives and machine-checks polynomial invariants for every loop of an
/// analyzed function. Returns only verified relations, rendered with
/// canonical `%N` value names, keyed by loop. Loops without verified
/// relations are absent.
pub(crate) fn function_invariants(
    func: &Function,
    config: &AnalysisConfig,
    analysis: &Analysis,
) -> HashMap<Loop, Vec<String>> {
    let engine_config = InvariantConfig::default();
    let mut per_loop: Vec<LoopCandidates> = Vec::new();
    for (l, info) in analysis.loops() {
        let header = analysis.forest().data(l).header;
        let mut values = Vec::new();
        let mut ivs = Vec::new();
        for &phi in &analysis.ssa().block(header).phis {
            let Some(class) = info.classes.get(phi) else {
                continue;
            };
            let cf = match class {
                Class::Induction(cf) => cf.clone(),
                Class::MixedGeometric(mg) => mg.to_closed_form(),
                _ => continue,
            };
            values.push(phi);
            ivs.push(IvClosedForm {
                name: canonical_value_name(phi),
                coeffs: cf.coeffs.to_vec(),
                geo: cf.geo.clone(),
            });
        }
        let candidates = derive_candidates(&ivs, &engine_config);
        if !candidates.is_empty() {
            // Candidates range over the first `max_ivs` IVs only; trace
            // just those.
            values.truncate(engine_config.max_ivs);
            per_loop.push((l, values, ivs, candidates));
        }
    }
    if per_loop.is_empty() {
        return HashMap::new();
    }

    // At least one loop proposed a relation: pay for concrete traces. One
    // seed's trace is alive at a time — each yields its loops' histories
    // and is dropped before the next seed runs.
    let mut seeds: Vec<Vec<SeedHistories>> = vec![Vec::new(); per_loop.len()];
    for_each_checking_trace(func, config, |trace| {
        for ((_, values, _, _), loop_seeds) in per_loop.iter().zip(&mut seeds) {
            loop_seeds.push(values.iter().map(|&v| trace.history(v)).collect());
        }
    });
    let mut out = HashMap::new();
    for ((l, _, ivs, candidates), seeds) in per_loop.into_iter().zip(seeds) {
        let names: Vec<String> = ivs.iter().map(|iv| iv.name.clone()).collect();
        let verified: Vec<String> = candidates
            .into_iter()
            .filter(|c| check_candidate(c, &seeds, MIN_CHECKED_ITERATIONS))
            .map(|c| c.render(&names))
            .collect();
        if !verified.is_empty() {
            out.insert(l, verified);
        }
    }
    out
}

/// Runs the function on the deterministic seeded inputs, handing each
/// trace to `visit` and dropping it before the next run. Traces are
/// partial: a step-limited, overflowing, or otherwise faulting run still
/// contributes every iteration it observed.
fn for_each_checking_trace(
    func: &Function,
    config: &AnalysisConfig,
    mut visit: impl FnMut(&SsaTrace),
) {
    let opts = ValidationOptions {
        inputs: CHECK_INPUTS,
        step_limit: CHECK_STEP_LIMIT,
        ..ValidationOptions::default()
    };
    // Mirror the analysis driver's SSA construction so value ids line up.
    let mut ssa = SsaFunction::build(func);
    if config.constant_folding {
        biv_ssa::fold_constants(&mut ssa);
    }
    let interp = SsaInterpreter {
        step_limit: opts.step_limit,
    };
    for input in seeded_inputs(func.params().len(), &opts) {
        visit(&interp.run_partial(&ssa, &input).0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::analyze_source;

    fn invariants_of(src: &str) -> Vec<Vec<String>> {
        use biv_ir::EntityId as _;
        let analysis = analyze_source(src).expect("analyzes");
        let config = AnalysisConfig::default();
        let func = biv_ir::parser::parse_function(src).expect("parses");
        let map = function_invariants(&func, &config, &analysis);
        let mut loops: Vec<_> = map.into_iter().collect();
        loops.sort_by_key(|(l, _)| l.index());
        loops.into_iter().map(|(_, inv)| inv).collect()
    }

    #[test]
    fn running_sum_yields_checked_relation() {
        // Figure 3 shape with literal inits: i = 1, 2, 3, …; s the running
        // sum of i starting at 0. The classic relation is 2s = i² − i.
        let inv = invariants_of(
            r#"
            func sums(n) {
                i = 1
                s = 0
                loop {
                    s = s + i
                    i = i + 1
                    if i > n { break }
                }
            }
            "#,
        );
        assert_eq!(inv.len(), 1, "one loop carries relations: {inv:?}");
        assert!(
            inv[0].iter().any(|r| r.contains("= 0")),
            "expected rendered relations, got {inv:?}"
        );
    }

    #[test]
    fn symbolic_inits_yield_nothing() {
        // i starts at a parameter: any candidate would have to hold
        // identically in the symbolic init, so nothing is derived.
        let inv = invariants_of(
            r#"
            func param_init(n, m) {
                i = m
                loop {
                    i = i + 1
                    if i > n { break }
                }
            }
            "#,
        );
        assert!(inv.is_empty(), "got {inv:?}");
    }
}
