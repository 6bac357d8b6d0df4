//! Synthetic loop-program generation with known ground truth.
//!
//! The benchmark suite needs programs whose size and class mix are
//! controlled: so many linear induction variables, so many wrap-arounds,
//! periodic families, monotonic packers, and so much straight-line noise.
//! The generator emits mini-language source (exercising the real front
//! end), parses it, and reports the planted counts so tests can check the
//! classifier recovers everything.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use biv_core::{Analysis, Class};
use biv_ir::parser::parse_program;
use biv_ir::Function;

pub mod rng;

use rng::SplitMix64;

/// What to plant in each generated loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Number of sibling loops.
    pub loops: usize,
    /// Linear induction variables per loop (beyond the loop index).
    pub linear: usize,
    /// Polynomial (second-order) induction variables per loop.
    pub polynomial: usize,
    /// Geometric induction variables per loop.
    pub geometric: usize,
    /// Mixed geometric-linear recurrences per loop (`v ← r·v + c` with
    /// a guaranteed-nonzero additive step, so every plant classifies
    /// `MixedGeometric`, never pure geometric).
    pub mixed_geometric: usize,
    /// Running-sum / index pairs per loop, each in its own mini-loop
    /// with literal initial values — every pair carries exactly one
    /// machine-checkable polynomial invariant
    /// ([`running_sum_relation`]).
    pub running_sums: usize,
    /// Wrap-around variables per loop.
    pub wraparound: usize,
    /// Periodic families (period 3) per loop.
    pub periodic: usize,
    /// Monotonic (conditionally incremented) variables per loop.
    pub monotonic: usize,
    /// Extra two-sided conditionals with unclassifiable merges per loop.
    pub diamonds: usize,
    /// Extra loop-invariant computations per loop.
    pub invariants: usize,
    /// Derived induction variables per loop (`d = i * c` feeding a
    /// store) — strength-reduction targets.
    pub derived: usize,
    /// Flip-flop (period-2 swap) mini-loops per loop — unroll-by-two
    /// targets.
    pub flipflop: usize,
    /// Dead-IV mini-loops per loop (the index's only live use is a
    /// strength-reducible multiplication) — test-replacement targets.
    pub deadiv: usize,
    /// Column-major two-deep nests per loop — interchange targets.
    pub nests: usize,
    /// Constant trip count used in bounds.
    pub trip: i64,
    /// RNG seed (constants vary; structure does not).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            loops: 1,
            linear: 4,
            polynomial: 1,
            geometric: 1,
            mixed_geometric: 0,
            running_sums: 0,
            wraparound: 1,
            periodic: 1,
            monotonic: 1,
            diamonds: 1,
            invariants: 2,
            derived: 0,
            flipflop: 0,
            deadiv: 0,
            nests: 0,
            trip: 100,
            seed: 42,
        }
    }
}

impl WorkloadSpec {
    /// A linear-IV-only mix sized so the generated function has roughly
    /// `target_insts` instructions — for the scaling benchmarks.
    pub fn sized_linear(target_insts: usize, seed: u64) -> WorkloadSpec {
        // Each linear variable contributes ~3 instructions (update, use,
        // subscript temp); each loop ~8 of scaffolding.
        let per_loop = 32usize;
        let loops = (target_insts / (per_loop * 3 + 8)).max(1);
        WorkloadSpec {
            loops,
            linear: per_loop,
            polynomial: 0,
            geometric: 0,
            mixed_geometric: 0,
            running_sums: 0,
            wraparound: 0,
            periodic: 0,
            monotonic: 0,
            diamonds: 0,
            invariants: 0,
            derived: 0,
            flipflop: 0,
            deadiv: 0,
            nests: 0,
            trip: 100,
            seed,
        }
    }

    /// The full mixed mix at a given scale factor.
    pub fn mixed(scale: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            loops: scale.max(1),
            seed,
            ..WorkloadSpec::default()
        }
    }

    /// A mix exercising every transform of `biv-transform` with exactly
    /// known application counts ([`TransformLabels`]). The short trip
    /// count keeps geometric plants inside `i64` and differential
    /// interpretation cheap.
    pub fn transforms(scale: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            loops: scale.max(1),
            linear: 2,
            polynomial: 1,
            geometric: 1,
            mixed_geometric: 0,
            running_sums: 0,
            wraparound: 1,
            periodic: 1,
            monotonic: 1,
            diamonds: 1,
            invariants: 1,
            derived: 2,
            flipflop: 1,
            deadiv: 1,
            nests: 1,
            trip: 12,
            seed,
        }
    }

    /// The invariant-serving mix: `MixedGeometric` plants plus
    /// running-sum / index pairs with exact ground-truth labels. The
    /// short trip count keeps the mixed-geometric values inside `i64`
    /// while the checker interprets the whole function — an overflow in
    /// one loop truncates every later loop's observed iterations, which
    /// would (correctly, but unhelpfully) reject the planted
    /// invariants.
    pub fn invariants(scale: usize, seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            loops: scale.max(1),
            linear: 1,
            polynomial: 0,
            geometric: 0,
            mixed_geometric: 2,
            running_sums: 2,
            wraparound: 0,
            periodic: 0,
            monotonic: 0,
            diamonds: 0,
            invariants: 0,
            derived: 0,
            flipflop: 0,
            deadiv: 0,
            nests: 0,
            trip: 12,
            seed,
        }
    }
}

/// The exact relation every planted running-sum pair must verify, in
/// the engine's canonical rendering: with the sum starting at 0 and the
/// index at 1, `2s = i² − i` normalizes to `2s + i − i² = 0`. `sum` and
/// `index` are the canonical SSA names of the two loop-header φs.
pub fn running_sum_relation(sum: &str, index: &str) -> String {
    format!("2*{sum} + {index} - {index}^2 = 0")
}

/// Ground truth planted by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpectedCounts {
    /// Linear IVs planted (including the loop indices).
    pub linear: usize,
    /// Polynomial IVs planted.
    pub polynomial: usize,
    /// Geometric IVs planted.
    pub geometric: usize,
    /// Mixed geometric-linear IVs planted (guaranteed-nonzero step, so
    /// each must classify `MixedGeometric` exactly, never pure
    /// geometric).
    pub mixed_geometric: usize,
    /// Running-sum / index pairs planted, one verified invariant each.
    pub running_sums: usize,
    /// Wrap-around variables planted.
    pub wraparound: usize,
    /// Periodic variables planted (3 per family).
    pub periodic: usize,
    /// Monotonic variables planted.
    pub monotonic: usize,
}

/// Ground-truth transform applications planted by the generator: how
/// many times each `biv-transform` pass should fire on the generated
/// function. Plants are isolated (each transform target sits in its own
/// loop or feeds nothing else) so the counts are exact, not lower
/// bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransformLabels {
    /// Multiplications strength reduction must eliminate
    /// (derived-IV plants plus the dead-IV mini-loops' feeders).
    pub strength_reduce: usize,
    /// Loops wrap-around peeling must peel (loops containing at least
    /// one wrap-around plant).
    pub peel: usize,
    /// Flip-flop mini-loops unrolling must unroll by two.
    pub unroll: usize,
    /// Induction variables dead-IV elimination must delete.
    pub dead_iv: usize,
    /// Column-major nests loop interchange must transpose.
    pub interchange: usize,
}

impl TransformLabels {
    /// Total planted transform applications.
    pub fn total(&self) -> usize {
        self.strength_reduce + self.peel + self.unroll + self.dead_iv + self.interchange
    }
}

/// One planted running-sum pair: the mini-loop's label plus the pair's
/// exact invariant, fixed by construction (sum starts at 0, index at
/// 1). Tests resolve the φ names from the analysis and compare the
/// emitted relation to [`running_sum_relation`] verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantPlant {
    /// The mini-loop's source label (and therefore its loop name).
    pub label: String,
}

/// A generated workload.
#[derive(Debug)]
pub struct Workload {
    /// The generated source text.
    pub source: String,
    /// The parsed function.
    pub func: Function,
    /// Ground-truth class counts.
    pub expected: ExpectedCounts,
    /// Ground-truth transform applications.
    pub labels: TransformLabels,
    /// Ground-truth invariant plants, one per running-sum pair.
    pub invariant_plants: Vec<InvariantPlant>,
}

/// Generates a workload from a spec.
///
/// # Panics
///
/// Panics if the generator emits unparsable source (a bug).
pub fn generate(spec: &WorkloadSpec) -> Workload {
    let mut src = String::new();
    let mut expected = ExpectedCounts::default();
    let mut labels = TransformLabels::default();
    let mut plants = Vec::new();
    emit_function(
        &mut src,
        "generated",
        spec,
        &mut expected,
        &mut labels,
        &mut plants,
    );
    let program = parse_program(&src)
        .unwrap_or_else(|e| panic!("generator produced invalid source: {e}\n{src}"));
    Workload {
        source: src,
        func: program.functions.into_iter().next().expect("one function"),
        expected,
        labels,
        invariant_plants: plants,
    }
}

/// Emits one complete function from a spec, accumulating ground truth.
fn emit_function(
    src: &mut String,
    name: &str,
    spec: &WorkloadSpec,
    expected: &mut ExpectedCounts,
    labels: &mut TransformLabels,
    plants: &mut Vec<InvariantPlant>,
) {
    let mut rng = SplitMix64::seed_from_u64(spec.seed);
    let _ = writeln!(src, "func {name}(n) {{");
    for l in 0..spec.loops {
        emit_loop(src, spec, l, &mut rng, expected, labels, plants);
    }
    let _ = writeln!(src, "}}");
}

/// What to generate for a multi-function corpus — the workload shape of
/// the parallel batch driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Number of functions in the corpus.
    pub functions: usize,
    /// Every `duplicate_every`-th function (when > 0) reuses an earlier
    /// function's seed, making it a *structural duplicate* — identical
    /// modulo its name — as found in generated or macro-expanded code.
    /// The batch driver's cache classifies each such group once.
    pub duplicate_every: usize,
    /// Loops per function.
    pub loops: usize,
    /// Constant trip count used in bounds.
    pub trip: i64,
    /// Base RNG seed; function `i` uses `seed + i` (unless a duplicate).
    pub seed: u64,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        CorpusSpec {
            functions: 16,
            duplicate_every: 4,
            loops: 1,
            trip: 100,
            seed: 42,
        }
    }
}

/// A generated multi-function corpus.
#[derive(Debug)]
pub struct Corpus {
    /// The generated source text (all functions).
    pub source: String,
    /// The parsed functions, in source order.
    pub funcs: Vec<Function>,
    /// How many functions are structural duplicates of an earlier one.
    pub duplicates: usize,
    /// Ground-truth class counts summed over all functions.
    pub expected: ExpectedCounts,
    /// Ground-truth transform applications summed over all functions.
    pub labels: TransformLabels,
    /// Ground-truth invariant plants across all functions.
    pub invariant_plants: Vec<InvariantPlant>,
}

/// Generates a multi-function corpus from a spec.
///
/// # Panics
///
/// Panics if the generator emits unparsable source (a bug).
pub fn generate_corpus(spec: &CorpusSpec) -> Corpus {
    let mut src = String::new();
    let mut expected = ExpectedCounts::default();
    let mut labels = TransformLabels::default();
    let mut plants = Vec::new();
    let mut duplicates = 0;
    let mut last_fresh_seed = spec.seed;
    for i in 0..spec.functions {
        let is_dup = spec.duplicate_every > 0 && i > 0 && i % spec.duplicate_every == 0;
        let seed = if is_dup {
            duplicates += 1;
            // Reuse the seed of the most recent fresh function,
            // reproducing its structure *and* constants exactly.
            last_fresh_seed
        } else {
            last_fresh_seed = spec.seed + i as u64;
            last_fresh_seed
        };
        let fspec = WorkloadSpec {
            loops: spec.loops.max(1),
            trip: spec.trip,
            seed,
            ..WorkloadSpec::default()
        };
        emit_function(
            &mut src,
            &format!("f{i}"),
            &fspec,
            &mut expected,
            &mut labels,
            &mut plants,
        );
    }
    let program = parse_program(&src)
        .unwrap_or_else(|e| panic!("corpus generator produced invalid source: {e}\n{src}"));
    assert_eq!(
        program.functions.len(),
        spec.functions,
        "one function per spec"
    );
    Corpus {
        source: src,
        funcs: program.functions,
        duplicates,
        expected,
        labels,
        invariant_plants: plants,
    }
}

fn emit_loop(
    src: &mut String,
    spec: &WorkloadSpec,
    l: usize,
    rng: &mut SplitMix64,
    expected: &mut ExpectedCounts,
    labels: &mut TransformLabels,
    plants: &mut Vec<InvariantPlant>,
) {
    let trip = spec.trip;
    // Pre-loop initializations.
    for v in 0..spec.linear {
        let _ = writeln!(src, "    lin_{l}_{v} = {}", rng.gen_range(-50..50));
    }
    for v in 0..spec.polynomial {
        let _ = writeln!(src, "    poly_{l}_{v} = {}", rng.gen_range(0..10));
    }
    for v in 0..spec.geometric {
        // A positive initial value keeps the exponential coefficient
        // nonzero, so the plant really is geometric.
        let _ = writeln!(src, "    geo_{l}_{v} = {}", rng.gen_range(1..5));
    }
    for v in 0..spec.mixed_geometric {
        let _ = writeln!(src, "    mg_{l}_{v} = {}", rng.gen_range(1..5));
    }
    for v in 0..spec.wraparound {
        let _ = writeln!(src, "    wrap_{l}_{v} = {}", rng.gen_range(100..200));
    }
    for f in 0..spec.periodic {
        let base = rng.gen_range(0..100) * 10;
        let _ = writeln!(src, "    pa_{l}_{f} = {base}");
        let _ = writeln!(src, "    pb_{l}_{f} = {}", base + 1);
        let _ = writeln!(src, "    pc_{l}_{f} = {}", base + 2);
    }
    for v in 0..spec.monotonic {
        let _ = writeln!(src, "    mono_{l}_{v} = 0");
    }
    let _ = writeln!(src, "    L{l}: for i{l} = 1 to {trip} {{");
    expected.linear += 1; // the loop index
                          // Linear updates with uses so pruned SSA keeps the phis.
    for v in 0..spec.linear {
        let step = rng.gen_range(1..9);
        let _ = writeln!(src, "        lin_{l}_{v} = lin_{l}_{v} + {step}");
        let _ = writeln!(src, "        ARR[lin_{l}_{v}] = i{l}");
        expected.linear += 1;
    }
    for v in 0..spec.polynomial {
        let _ = writeln!(src, "        poly_{l}_{v} = poly_{l}_{v} + i{l}");
        let _ = writeln!(src, "        ARR[poly_{l}_{v}] = i{l}");
        expected.polynomial += 1;
    }
    for v in 0..spec.geometric {
        let g = rng.gen_range(2..4);
        let c = rng.gen_range(0..5);
        let _ = writeln!(src, "        geo_{l}_{v} = geo_{l}_{v} * {g} + {c}");
        let _ = writeln!(src, "        ARR[geo_{l}_{v}] = i{l}");
        expected.geometric += 1;
    }
    for v in 0..spec.mixed_geometric {
        // The additive step is never zero, so this is a fixed-point
        // recurrence `v ← r·v + c` with offset c/(1−r) — exactly the
        // MixedGeometric class, never pure geometric.
        let r = rng.gen_range(2..4);
        let c = rng.gen_range(1..5);
        let _ = writeln!(src, "        mg_{l}_{v} = mg_{l}_{v} * {r} + {c}");
        let _ = writeln!(src, "        ARR[mg_{l}_{v}] = i{l}");
        expected.geometric += 1;
        expected.mixed_geometric += 1;
    }
    for v in 0..spec.wraparound {
        let _ = writeln!(src, "        ARR[wrap_{l}_{v}] = i{l}");
        let _ = writeln!(src, "        wrap_{l}_{v} = i{l}");
        expected.wraparound += 1;
    }
    for f in 0..spec.periodic {
        let _ = writeln!(src, "        ARR[pa_{l}_{f}] = i{l}");
        let _ = writeln!(src, "        pt_{l}_{f} = pa_{l}_{f}");
        let _ = writeln!(src, "        pa_{l}_{f} = pb_{l}_{f}");
        let _ = writeln!(src, "        pb_{l}_{f} = pc_{l}_{f}");
        let _ = writeln!(src, "        pc_{l}_{f} = pt_{l}_{f}");
        expected.periodic += 3;
    }
    for v in 0..spec.monotonic {
        let inc = rng.gen_range(1..4);
        let _ = writeln!(src, "        t_{l}_{v} = SRC[i{l}]");
        let _ = writeln!(src, "        if t_{l}_{v} > 0 {{");
        let _ = writeln!(src, "            mono_{l}_{v} = mono_{l}_{v} + {inc}");
        let _ = writeln!(src, "            PACK[mono_{l}_{v}] = t_{l}_{v}");
        let _ = writeln!(src, "        }}");
        expected.monotonic += 1;
    }
    for d in 0..spec.diamonds {
        let _ = writeln!(
            src,
            "        if i{l} > {} {{ dia_{l}_{d} = i{l} + 1 }} else {{ dia_{l}_{d} = i{l} + 2 }}",
            rng.gen_range(0..spec.trip)
        );
        let _ = writeln!(src, "        ARR[dia_{l}_{d}] = i{l}");
    }
    for v in 0..spec.derived {
        // A derived IV: the only use of the multiplication result is a
        // store, so strength reduction must replace exactly this mul.
        let c = rng.gen_range(2..9);
        let _ = writeln!(src, "        der_{l}_{v} = i{l} * {c}");
        let _ = writeln!(src, "        DER[der_{l}_{v}] = i{l}");
        expected.linear += 1;
        labels.strength_reduce += 1;
    }
    for v in 0..spec.invariants {
        let a = rng.gen_range(2..9);
        let b = rng.gen_range(1..99);
        let _ = writeln!(src, "        inv_{l}_{v} = n * {a} + {b}");
    }
    let _ = writeln!(src, "    }}");
    if spec.wraparound > 0 {
        // Classification-driven peeling fires once per loop containing a
        // wrap-around, however many wrap-arounds it carries.
        labels.peel += 1;
    }
    // The remaining transform targets each live in their own mini-loop so
    // transforms cannot interact (unrolling a loop would double any
    // strength-reducible multiplications inside it, for example) and the
    // labels stay exact.
    for v in 0..spec.flipflop {
        let base = rng.gen_range(0..50) * 4;
        let _ = writeln!(src, "    fa_{l}_{v} = {base}");
        let _ = writeln!(src, "    fb_{l}_{v} = {}", base + 1);
        let _ = writeln!(src, "    FL{l}x{v}: for fi{l}_{v} = 1 to {trip} {{");
        let _ = writeln!(src, "        FLIP[fi{l}_{v}] = fa_{l}_{v}");
        let _ = writeln!(src, "        ft_{l}_{v} = fa_{l}_{v}");
        let _ = writeln!(src, "        fa_{l}_{v} = fb_{l}_{v}");
        let _ = writeln!(src, "        fb_{l}_{v} = ft_{l}_{v}");
        let _ = writeln!(src, "    }}");
        expected.linear += 1; // the mini-loop index
        expected.periodic += 2; // the two swapped values
        labels.unroll += 1;
    }
    for v in 0..spec.deadiv {
        // The index's only live use is the multiplication; after strength
        // reduction replaces it, test replacement retires the index.
        let k = rng.gen_range(2..9);
        let _ = writeln!(src, "    DL{l}x{v}: for di{l}_{v} = 1 to {trip} {{");
        let _ = writeln!(src, "        dd_{l}_{v} = di{l}_{v} * {k}");
        let _ = writeln!(src, "        DEAD[dd_{l}_{v}] = dd_{l}_{v}");
        let _ = writeln!(src, "    }}");
        expected.linear += 2; // the index and the derived value
        labels.strength_reduce += 1;
        labels.dead_iv += 1;
    }
    for v in 0..spec.running_sums {
        // A running-sum / index pair with literal initial values: the
        // engine must derive — and the checker must confirm —
        // `2s = i² − i` exactly ([`running_sum_relation`]). The store
        // keeps the sum φ live through pruned SSA.
        let _ = writeln!(src, "    rsum_{l}_{v} = 0");
        let _ = writeln!(src, "    RS{l}x{v}: for ri{l}_{v} = 1 to {trip} {{");
        let _ = writeln!(src, "        rsum_{l}_{v} = rsum_{l}_{v} + ri{l}_{v}");
        let _ = writeln!(src, "        ARR[rsum_{l}_{v}] = ri{l}_{v}");
        let _ = writeln!(src, "    }}");
        expected.linear += 1; // the mini-loop index
        expected.polynomial += 1; // the running sum (degree 2)
        expected.running_sums += 1;
        plants.push(InvariantPlant {
            label: format!("RS{l}x{v}"),
        });
    }
    for v in 0..spec.nests {
        // Column-major access: the store's first (slowest) subscript is
        // the inner index, so interchange is profitable; distinct
        // subscripts per iteration keep it legal.
        let _ = writeln!(src, "    NO{l}x{v}: for no{l}_{v} = 1 to {trip} {{");
        let _ = writeln!(src, "        NI{l}x{v}: for ni{l}_{v} = 1 to {trip} {{");
        let _ = writeln!(src, "            ns_{l}_{v} = no{l}_{v} + ni{l}_{v}");
        let _ = writeln!(src, "            MAT[ni{l}_{v}, no{l}_{v}] = ns_{l}_{v}");
        let _ = writeln!(src, "        }}");
        let _ = writeln!(src, "    }}");
        expected.linear += 2; // both nest indices
        labels.interchange += 1;
    }
}

/// Counts classifications across all loops of an analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassCounts {
    /// Linear induction variables.
    pub linear: usize,
    /// Higher-order polynomial induction variables.
    pub polynomial: usize,
    /// Geometric induction variables (includes mixed geometric-linear
    /// forms, which are geometric with a nonzero fixed point).
    pub geometric: usize,
    /// Mixed geometric-linear recurrences (`v ← r·v + step`), also
    /// included in `geometric`.
    pub mixed_geometric: usize,
    /// Wrap-around variables.
    pub wraparound: usize,
    /// Periodic variables.
    pub periodic: usize,
    /// Monotonic variables.
    pub monotonic: usize,
    /// Loop invariants.
    pub invariant: usize,
    /// Unclassified values.
    pub unknown: usize,
}

/// Tallies the classes of every value across every loop.
pub fn count_classes(analysis: &Analysis) -> ClassCounts {
    let mut counts = ClassCounts::default();
    for (_, info) in analysis.loops() {
        for class in info.classes.values() {
            match class {
                Class::Invariant(_) => counts.invariant += 1,
                Class::Induction(cf) => {
                    if !cf.geo.is_empty() {
                        counts.geometric += 1;
                    } else if cf.degree() >= 2 {
                        counts.polynomial += 1;
                    } else {
                        counts.linear += 1;
                    }
                }
                Class::MixedGeometric(_) => {
                    counts.geometric += 1;
                    counts.mixed_geometric += 1;
                }
                Class::WrapAround { .. } => counts.wraparound += 1,
                Class::Periodic(_) => counts.periodic += 1,
                Class::Monotonic(_) => counts.monotonic += 1,
                Class::Unknown => counts.unknown += 1,
            }
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use biv_core::analyze;

    #[test]
    fn generator_produces_valid_source() {
        let w = generate(&WorkloadSpec::default());
        assert!(w.func.blocks.len() > 3);
        assert!(w.expected.linear >= 5);
    }

    #[test]
    fn classifier_recovers_planted_classes() {
        let spec = WorkloadSpec {
            loops: 2,
            ..WorkloadSpec::default()
        };
        let w = generate(&spec);
        let analysis = analyze(&w.func);
        let counts = count_classes(&analysis);
        // Distinct SSA values per variable mean counts are at least the
        // planted number (each planted variable contributes its header φ
        // and often body defs).
        assert!(
            counts.linear >= w.expected.linear,
            "linear: {counts:?} vs {:?}",
            w.expected
        );
        assert!(counts.polynomial >= w.expected.polynomial, "{counts:?}");
        assert!(counts.geometric >= w.expected.geometric, "{counts:?}");
        assert!(counts.wraparound >= w.expected.wraparound, "{counts:?}");
        assert!(counts.periodic >= w.expected.periodic, "{counts:?}");
        assert!(counts.monotonic >= w.expected.monotonic, "{counts:?}");
    }

    #[test]
    fn invariants_preset_plants_are_exactly_recovered() {
        let w = generate(&WorkloadSpec::invariants(2, 11));
        assert_eq!(w.expected.mixed_geometric, 4, "2 loops × 2 plants");
        assert_eq!(w.expected.running_sums, 4);
        assert_eq!(w.invariant_plants.len(), 4);

        let analysis = analyze(&w.func);
        let counts = count_classes(&analysis);
        assert!(
            counts.mixed_geometric >= w.expected.mixed_geometric,
            "{counts:?}"
        );

        // Every planted pair's summary must carry *exactly* the planted
        // relation, rendered over the pair's canonical φ names.
        let opts = biv_core::BatchOptions::default();
        let report = biv_core::analyze_batch_with_backend(
            std::slice::from_ref(&w.func),
            &opts,
            &mut biv_core::StructuralCache::new(opts.cache_capacity),
        );
        let summary = &report.functions[0].summary;
        for plant in &w.invariant_plants {
            let ls = summary
                .loops
                .iter()
                .find(|l| l.name == plant.label)
                .unwrap_or_else(|| panic!("loop {} missing from summary", plant.label));
            let (l, _) = analysis
                .loops()
                .find(|(_, info)| info.name == plant.label)
                .expect("planted loop analyzed");
            let header = analysis.forest().data(l).header;
            let phis = &analysis.ssa().block(header).phis;
            assert_eq!(phis.len(), 2, "index and sum φs in {}", plant.label);
            let info = analysis.info(l);
            let degree = |v| match info.classes.get(v) {
                Some(Class::Induction(cf)) => cf.degree(),
                other => panic!("φ in {} classified {other:?}", plant.label),
            };
            let (sum, index) = if degree(phis[0]) == 2 {
                (phis[0], phis[1])
            } else {
                (phis[1], phis[0])
            };
            assert_eq!(degree(sum), 2);
            assert_eq!(degree(index), 1);
            let want = running_sum_relation(
                &biv_core::canonical_value_name(sum),
                &biv_core::canonical_value_name(index),
            );
            assert_eq!(
                ls.invariants,
                vec![want],
                "loop {} must verify exactly the planted relation",
                plant.label
            );
        }
    }

    #[test]
    fn mixed_geometric_plants_never_degrade_to_pure_geometric() {
        // Every mg plant has a nonzero additive step, so the exact
        // count — not just a lower bound — of MixedGeometric header φs
        // must match: one φ plus one body def per plant.
        let w = generate(&WorkloadSpec {
            loops: 3,
            linear: 0,
            polynomial: 0,
            geometric: 0,
            mixed_geometric: 2,
            wraparound: 0,
            periodic: 0,
            monotonic: 0,
            diamonds: 0,
            invariants: 0,
            trip: 12,
            ..WorkloadSpec::default()
        });
        let analysis = analyze(&w.func);
        let counts = count_classes(&analysis);
        // φ, body def, and exit value all classify MixedGeometric;
        // nothing else in the loop is geometric at all, so every
        // geometric classification is a mixed one.
        assert!(
            counts.mixed_geometric >= 2 * w.expected.mixed_geometric,
            "{counts:?}"
        );
        assert_eq!(counts.geometric, counts.mixed_geometric, "{counts:?}");
    }

    #[test]
    fn transform_plants_are_labeled() {
        let w = generate(&WorkloadSpec::transforms(2, 9));
        // Per loop: 2 derived + 1 dead-IV feeder = 3 strength reductions.
        assert_eq!(w.labels.strength_reduce, 6);
        assert_eq!(w.labels.peel, 2);
        assert_eq!(w.labels.unroll, 2);
        assert_eq!(w.labels.dead_iv, 2);
        assert_eq!(w.labels.interchange, 2);
        assert_eq!(w.labels.total(), 14);
        // The planted classes are still recovered on top of the plants.
        let analysis = analyze(&w.func);
        let counts = count_classes(&analysis);
        assert!(counts.periodic >= w.expected.periodic, "{counts:?}");
        assert!(counts.wraparound >= w.expected.wraparound, "{counts:?}");
    }

    #[test]
    fn default_spec_has_no_transform_plants() {
        let w = generate(&WorkloadSpec::default());
        assert_eq!(
            w.labels,
            TransformLabels {
                peel: 1, // the default mix plants one wrap-around
                ..TransformLabels::default()
            }
        );
    }

    #[test]
    fn seeds_vary_constants_not_structure() {
        let a = generate(&WorkloadSpec {
            seed: 1,
            ..WorkloadSpec::default()
        });
        let b = generate(&WorkloadSpec {
            seed: 2,
            ..WorkloadSpec::default()
        });
        assert_ne!(a.source, b.source);
        assert_eq!(a.func.blocks.len(), b.func.blocks.len());
        assert_eq!(a.expected, b.expected);
    }

    #[test]
    fn corpus_has_expected_shape_and_duplicates() {
        let spec = CorpusSpec {
            functions: 9,
            duplicate_every: 3,
            ..CorpusSpec::default()
        };
        let c = generate_corpus(&spec);
        assert_eq!(c.funcs.len(), 9);
        assert_eq!(c.duplicates, 2); // f3 dups f2, f6 dups f5
                                     // Duplicate pairs are structurally identical: same block count,
                                     // same instruction mix, different names.
        let count_insts =
            |f: &Function| -> usize { f.blocks.iter().map(|(_, b)| b.insts.len()).sum() };
        assert_eq!(count_insts(&c.funcs[3]), count_insts(&c.funcs[2]));
        assert_ne!(c.funcs[3].name(), c.funcs[2].name());
    }

    #[test]
    fn corpus_without_duplicates() {
        let spec = CorpusSpec {
            functions: 4,
            duplicate_every: 0,
            ..CorpusSpec::default()
        };
        let c = generate_corpus(&spec);
        assert_eq!(c.duplicates, 0);
        assert_eq!(c.funcs.len(), 4);
    }

    #[test]
    fn sized_spec_scales() {
        let small = generate(&WorkloadSpec::sized_linear(500, 7));
        let large = generate(&WorkloadSpec::sized_linear(5000, 7));
        let count_insts =
            |f: &Function| -> usize { f.blocks.iter().map(|(_, b)| b.insts.len()).sum() };
        assert!(count_insts(&large.func) > 4 * count_insts(&small.func));
    }
}
