//! The **classical** induction-variable detector the paper replaces:
//! basic induction variables found by scanning loop bodies (every
//! definition must be `i = i ± c`), derived induction variables
//! `j = a*i + b` chased to a fixpoint, and the traditional *ad hoc*
//! pattern matchers for wrap-around and flip-flop variables bolted on the
//! side (§1, §4.1).
//!
//! This crate exists as the head-to-head baseline for the benchmark
//! suite: it is a faithful rendition of the Allen–Cocke–Kennedy-style
//! approach on the (non-SSA) CFG, scanning each loop's definitions
//! directly, and it
//! deliberately has the classical blind spots — no polynomial or
//! geometric variables, no periodic families beyond the two-variable
//! flip-flop pattern, no monotonic variables, no multi-loop closed forms.
//!
//! # Example
//!
//! ```
//! use biv_classic::{detect, IvKind};
//! use biv_ir::parser::parse_program;
//!
//! let program = parse_program(
//!     "func f(n) { L1: for i = 1 to n { j = 2 * i + 1 A[j] = i } }",
//! )?;
//! let report = detect(&program.functions[0]);
//! let ivs = &report.loops[0].ivs;
//! assert!(ivs.iter().any(|iv| matches!(iv.kind, IvKind::Basic { .. })));
//! assert!(ivs.iter().any(|iv| matches!(iv.kind, IvKind::Derived { .. })));
//! # Ok::<(), biv_ir::parser::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, HashSet};

use biv_ir::dom::DomTree;
use biv_ir::loops::{Loop, LoopForest};
use biv_ir::{BinOp, Block, Function, Inst, Operand, Var};

/// The classification a classical detector can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IvKind {
    /// A basic induction variable: every in-loop definition increments or
    /// decrements by a loop-invariant amount.
    Basic {
        /// Net step per iteration when every path agrees and all steps
        /// are constants; `None` for invariant-but-symbolic steps.
        step: Option<i64>,
    },
    /// A derived induction variable `j = scale*i + offset` (single
    /// definition).
    Derived {
        /// The base (basic) induction variable.
        base: Var,
        /// Multiplier when constant.
        scale: i64,
        /// Additive constant.
        offset: i64,
    },
    /// Recognized by the ad-hoc wrap-around matcher: a single in-loop
    /// copy from an induction variable, used earlier in the body.
    WrapAround {
        /// The variable whose value wraps around.
        source: Var,
    },
    /// Recognized by the ad-hoc flip-flop matcher: single definition
    /// `j = c − j`.
    FlipFlop {
        /// The reflection constant.
        about: i64,
    },
}

/// One classified variable in one loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassicIv {
    /// The variable.
    pub var: Var,
    /// What the classical detector decided.
    pub kind: IvKind,
}

/// Results for one loop.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// The loop analyzed.
    pub loop_id: Loop,
    /// Header block.
    pub header: Block,
    /// Everything classified, in detection order.
    pub ivs: Vec<ClassicIv>,
}

/// Whole-function results.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-loop reports, innermost loops first.
    pub loops: Vec<LoopReport>,
}

impl Report {
    /// Total number of classified variables across loops.
    pub fn total(&self) -> usize {
        self.loops.iter().map(|l| l.ivs.len()).sum()
    }
}

/// Runs the classical detector on every loop of the function.
pub fn detect(func: &Function) -> Report {
    let dom = DomTree::compute(func);
    let forest = LoopForest::compute(func, &dom);
    let mut loops = Vec::new();
    for l in forest.inner_to_outer() {
        loops.push(detect_in_loop(func, &forest, &dom, l));
    }
    Report { loops }
}

/// Operand invariance: constants, or variables with no definition inside
/// the loop.
fn invariant_operand(op: &Operand, defs_in_loop: &HashMap<Var, Vec<(Block, usize)>>) -> bool {
    match op {
        Operand::Const(_) => true,
        Operand::Var(v) => !defs_in_loop.contains_key(v),
    }
}

fn const_operand(op: &Operand) -> Option<i64> {
    match op {
        Operand::Const(c) => Some(*c),
        Operand::Var(_) => None,
    }
}

/// Whether `var` is used somewhere in the loop not strictly after its
/// single definition at `(def_block, def_index)` — i.e. a use that can
/// observe the loop-carried (previous-iteration) value.
fn used_before_def(
    func: &Function,
    blocks: &HashSet<Block>,
    var: Var,
    def_block: Block,
    def_index: usize,
) -> bool {
    let mut uses = Vec::new();
    for &ub in blocks {
        for (ui, inst) in func.blocks[ub].insts.iter().enumerate() {
            uses.clear();
            inst.uses(&mut uses);
            if uses.contains(&var) && (ub != def_block || ui < def_index) {
                return true;
            }
        }
    }
    false
}

fn detect_in_loop(func: &Function, forest: &LoopForest, dom: &DomTree, l: Loop) -> LoopReport {
    let data = forest.data(l);
    let blocks: HashSet<Block> = data.blocks.iter().copied().collect();
    // Collect in-loop definitions per variable.
    let mut defs_in_loop: HashMap<Var, Vec<(Block, usize)>> = HashMap::new();
    for &b in &blocks {
        for (i, inst) in func.blocks[b].insts.iter().enumerate() {
            if let Some(v) = inst.def() {
                defs_in_loop.entry(v).or_default().push((b, i));
            }
        }
    }
    let mut ivs: Vec<ClassicIv> = Vec::new();
    let mut basic: HashMap<Var, Option<i64>> = HashMap::new();
    // --- Basic induction variables -----------------------------------
    'vars: for (&var, defs) in &defs_in_loop {
        let mut total_step: Option<i64> = Some(0);
        for &(b, i) in defs {
            match &func.blocks[b].insts[i] {
                Inst::Binary {
                    op: BinOp::Add,
                    lhs,
                    rhs,
                    ..
                } => {
                    // i = i + inv or i = inv + i
                    let (other, uses_self) = match (lhs, rhs) {
                        (Operand::Var(v), o) if *v == var => (o, true),
                        (o, Operand::Var(v)) if *v == var => (o, true),
                        _ => (lhs, false),
                    };
                    if !uses_self || !invariant_operand(other, &defs_in_loop) {
                        continue 'vars;
                    }
                    total_step = match (total_step, const_operand(other)) {
                        (Some(acc), Some(c)) => acc.checked_add(c),
                        _ => None,
                    };
                }
                Inst::Binary {
                    op: BinOp::Sub,
                    lhs,
                    rhs,
                    ..
                } => {
                    // Only i = i - inv (not i = inv - i).
                    let ok = matches!(lhs, Operand::Var(v) if *v == var)
                        && invariant_operand(rhs, &defs_in_loop);
                    if !ok {
                        continue 'vars;
                    }
                    total_step = match (total_step, const_operand(rhs)) {
                        (Some(acc), Some(c)) => acc.checked_sub(c),
                        _ => None,
                    };
                }
                _ => continue 'vars,
            }
        }
        // The classical definition also wants the increments to execute
        // exactly once per iteration; require each def's block to
        // dominate the latch (conservative but standard).
        let latch_ok = data
            .latches
            .iter()
            .all(|&latch| defs.iter().all(|&(b, _)| dom.dominates(b, latch)));
        if !latch_ok {
            continue;
        }
        basic.insert(var, total_step);
        ivs.push(ClassicIv {
            var,
            kind: IvKind::Basic { step: total_step },
        });
    }
    // --- Derived induction variables, to a fixpoint -------------------
    // j = a*i + b with a single in-loop definition, i basic or derived.
    let mut derived: HashMap<Var, (Var, i64, i64)> = HashMap::new();
    loop {
        let mut changed = false;
        for (&var, defs) in &defs_in_loop {
            if basic.contains_key(&var) || derived.contains_key(&var) {
                continue;
            }
            if defs.len() != 1 {
                continue;
            }
            let (b, i) = defs[0];
            // A use before the (single) definition means the loop-carried
            // value is observed — the wrap-around shape, not a derived IV.
            if used_before_def(func, &blocks, var, b, i) {
                continue;
            }
            let derived_of = |op: &Operand| -> Option<(Var, i64, i64)> {
                let v = op.as_var()?;
                if basic.contains_key(&v) {
                    Some((v, 1, 0))
                } else {
                    derived.get(&v).copied()
                }
            };
            let found = match &func.blocks[b].insts[i] {
                Inst::Copy { src, .. } => derived_of(src),
                Inst::Binary { op, lhs, rhs, .. } => {
                    let scaled = |iv: (Var, i64, i64), c: i64, op: BinOp| match op {
                        BinOp::Mul => Some((iv.0, iv.1.checked_mul(c)?, iv.2.checked_mul(c)?)),
                        BinOp::Add => Some((iv.0, iv.1, iv.2.checked_add(c)?)),
                        BinOp::Sub => Some((iv.0, iv.1, iv.2.checked_sub(c)?)),
                        _ => None,
                    };
                    match (derived_of(lhs), derived_of(rhs), op) {
                        (Some(iv), None, BinOp::Mul | BinOp::Add | BinOp::Sub) => {
                            const_operand(rhs).and_then(|c| scaled(iv, c, *op))
                        }
                        (None, Some(iv), BinOp::Mul | BinOp::Add) => {
                            const_operand(lhs).and_then(|c| scaled(iv, c, *op))
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            if let Some(info) = found {
                derived.insert(var, info);
                ivs.push(ClassicIv {
                    var,
                    kind: IvKind::Derived {
                        base: info.0,
                        scale: info.1,
                        offset: info.2,
                    },
                });
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // --- Ad-hoc wrap-around matcher -----------------------------------
    // A variable with a single in-loop def that copies an induction
    // variable, where some use appears earlier in the body than the def.
    for (&var, defs) in &defs_in_loop {
        if basic.contains_key(&var) || derived.contains_key(&var) {
            continue;
        }
        if defs.len() != 1 {
            continue;
        }
        let (b, i) = defs[0];
        let Inst::Copy { src, .. } = &func.blocks[b].insts[i] else {
            continue;
        };
        let Some(source) = src.as_var() else {
            continue;
        };
        if !basic.contains_key(&source) && !derived.contains_key(&source) {
            continue;
        }
        if used_before_def(func, &blocks, var, b, i) {
            ivs.push(ClassicIv {
                var,
                kind: IvKind::WrapAround { source },
            });
        }
    }
    // --- Ad-hoc flip-flop matcher --------------------------------------
    for (&var, defs) in &defs_in_loop {
        if defs.len() != 1 {
            continue;
        }
        let (b, i) = defs[0];
        if let Inst::Binary {
            op: BinOp::Sub,
            lhs,
            rhs,
            ..
        } = &func.blocks[b].insts[i]
        {
            if let (Some(c), Some(v)) = (const_operand(lhs), rhs.as_var()) {
                if v == var {
                    ivs.push(ClassicIv {
                        var,
                        kind: IvKind::FlipFlop { about: c },
                    });
                }
            }
        }
    }
    LoopReport {
        loop_id: l,
        header: data.header,
        ivs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use biv_ir::parser::parse_program;

    fn report(src: &str) -> Report {
        let program = parse_program(src).unwrap();
        detect(&program.functions[0])
    }

    fn kinds_of<'r>(r: &'r Report, func_src: &str, name: &str) -> Vec<&'r IvKind> {
        let program = parse_program(func_src).unwrap();
        let var = program.functions[0].var_by_name(name).unwrap();
        r.loops
            .iter()
            .flat_map(|l| l.ivs.iter())
            .filter(|iv| iv.var == var)
            .map(|iv| &iv.kind)
            .collect()
    }

    #[test]
    fn detects_basic_iv() {
        let src = "func f(n) { L1: for i = 1 to n { x = i } }";
        let r = report(src);
        let kinds = kinds_of(&r, src, "i");
        assert_eq!(kinds, vec![&IvKind::Basic { step: Some(1) }]);
    }

    #[test]
    fn detects_mutual_increments_as_single_basic() {
        // i incremented twice per iteration: step 3.
        let src = "func f(n) { i = 0 L1: loop { i = i + 1 i = i + 2 if i > n { break } } }";
        let r = report(src);
        let kinds = kinds_of(&r, src, "i");
        assert_eq!(kinds, vec![&IvKind::Basic { step: Some(3) }]);
    }

    #[test]
    fn detects_derived_iv_chain() {
        let src = "func f(n) { L1: for i = 1 to n { j = 2 * i k = j + 5 A[k] = i } }";
        let r = report(src);
        let j = kinds_of(&r, src, "j");
        assert!(matches!(
            j[0],
            IvKind::Derived {
                scale: 2,
                offset: 0,
                ..
            }
        ));
        let k = kinds_of(&r, src, "k");
        assert!(matches!(
            k[0],
            IvKind::Derived {
                scale: 2,
                offset: 5,
                ..
            }
        ));
    }

    #[test]
    fn conditional_increment_is_not_basic() {
        let src = "func f(n, e) { k = 0 L1: for i = 1 to n { if e > 0 { k = k + 1 } } }";
        let r = report(src);
        // The classical detector finds nothing for k (no monotonic class).
        assert!(kinds_of(&r, src, "k").is_empty());
    }

    #[test]
    fn polynomial_not_detected() {
        // j = j + i is beyond the classical definition.
        let src = "func f(n) { j = 1 L1: for i = 1 to n { j = j + i A[j] = i } }";
        let r = report(src);
        assert!(kinds_of(&r, src, "j").is_empty());
    }

    #[test]
    fn wraparound_matcher_fires() {
        let src = r#"
            func f(n) {
                iml = n
                L9: for i = 1 to n {
                    A[i] = A[iml] + 1
                    iml = i
                }
            }
        "#;
        let r = report(src);
        let kinds = kinds_of(&r, src, "iml");
        assert!(matches!(kinds[0], IvKind::WrapAround { .. }));
    }

    #[test]
    fn flip_flop_matcher_fires() {
        let src = "func f(n) { j = 1 L1: for i = 1 to n { j = 3 - j A[j] = i } }";
        let r = report(src);
        let kinds = kinds_of(&r, src, "j");
        assert!(matches!(kinds[0], IvKind::FlipFlop { about: 3 }));
    }

    #[test]
    fn symbolic_step_reported_as_unknown_step() {
        let src = "func f(n, s) { i = 0 L1: loop { i = i + s if i > n { break } } }";
        let r = report(src);
        let kinds = kinds_of(&r, src, "i");
        assert_eq!(kinds, vec![&IvKind::Basic { step: None }]);
    }

    #[test]
    fn total_counts_all_loops() {
        let src = r#"
            func f(n) {
                L1: for i = 1 to n {
                    L2: for j = 1 to n {
                        A[i, j] = i + j
                    }
                }
            }
        "#;
        let r = report(src);
        assert!(r.total() >= 2, "at least i and j detected: {r:?}");
    }
}
