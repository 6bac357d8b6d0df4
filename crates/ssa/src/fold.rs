//! Constant folding over SSA form.
//!
//! The paper notes that "often the initial value coming in from outside
//! the loop can be evaluated and substituted, using an algorithm such as
//! constant propagation [WZ91]". This pass is that step:
//! definitions whose operands are all constants become constant copies,
//! iterated to a fixpoint, so copy-chasing consumers (the classifier's
//! `resolve_copies`) see literal initial values.

use biv_ir::BinOp;

use crate::ssa::{Operand, SsaFunction, Value, ValueDef};

/// Folds constant expressions to `Copy` of a literal, to a fixpoint.
/// φ-functions whose arguments all resolve to the *same* constant fold
/// too. Returns the number of definitions rewritten.
pub fn fold_constants(ssa: &mut SsaFunction) -> usize {
    let mut folded = 0usize;
    loop {
        let mut changed = false;
        let values: Vec<Value> = ssa.values.ids().collect();
        for v in values {
            if matches!(
                ssa.def(v),
                ValueDef::Copy {
                    src: Operand::Const(_)
                }
            ) {
                continue;
            }
            if let Some(c) = fold_value(ssa, v) {
                ssa.values[v].def = ValueDef::Copy {
                    src: Operand::Const(c),
                };
                folded += 1;
                changed = true;
            }
        }
        if !changed {
            return folded;
        }
    }
}

/// The constant an operand resolves to through copies, if any.
pub fn constant_operand(ssa: &SsaFunction, op: &Operand) -> Option<i64> {
    match op {
        Operand::Const(c) => Some(*c),
        Operand::Value(v) => {
            let mut cur = *v;
            for _ in 0..64 {
                match ssa.def(cur) {
                    ValueDef::Copy {
                        src: Operand::Const(c),
                    } => return Some(*c),
                    ValueDef::Copy {
                        src: Operand::Value(next),
                    } => cur = *next,
                    _ => return None,
                }
            }
            None
        }
    }
}

fn fold_value(ssa: &SsaFunction, v: Value) -> Option<i64> {
    match ssa.def(v) {
        ValueDef::Neg { src } => constant_operand(ssa, src)?.checked_neg(),
        ValueDef::Binary { op, lhs, rhs } => {
            let l = constant_operand(ssa, lhs)?;
            let r = constant_operand(ssa, rhs)?;
            match op {
                BinOp::Add => l.checked_add(r),
                BinOp::Sub => l.checked_sub(r),
                BinOp::Mul => l.checked_mul(r),
                BinOp::Div => {
                    if r == 0 {
                        None
                    } else {
                        l.checked_div(r)
                    }
                }
                BinOp::Exp => {
                    let e = u32::try_from(r).ok()?;
                    l.checked_pow(e)
                }
            }
        }
        ValueDef::Phi { args } => {
            // All incoming values the same constant: fold (safe without
            // reachability analysis, merely less precise than SCCP).
            let mut result: Option<i64> = None;
            for (_, op) in args {
                let c = constant_operand(ssa, op)?;
                match result {
                    None => result = Some(c),
                    Some(prev) if prev == c => {}
                    Some(_) => return None,
                }
            }
            result
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::SsaFunction;
    use biv_ir::parser::parse_program;

    fn build(src: &str) -> SsaFunction {
        let program = parse_program(src).unwrap();
        SsaFunction::build(&program.functions[0])
    }

    #[test]
    fn folds_arithmetic_chains() {
        let mut ssa = build("func f() { a = 2 + 3 b = a * 4 c = b - 1 }");
        let folded = fold_constants(&mut ssa);
        assert_eq!(folded, 3);
        let c1 = ssa.value_by_name("c1").unwrap();
        assert_eq!(constant_operand(&ssa, &Operand::Value(c1)), Some(19));
    }

    #[test]
    fn folds_same_constant_phi() {
        let mut ssa = build("func f(e) { if e > 0 { x = 2 + 3 } else { x = 5 } y = x + 1 }");
        fold_constants(&mut ssa);
        let y1 = ssa.value_by_name("y1").unwrap();
        assert_eq!(constant_operand(&ssa, &Operand::Value(y1)), Some(6));
    }

    #[test]
    fn leaves_symbolic_values_alone() {
        let mut ssa = build("func f(n) { a = n + 1 b = 2 * 3 }");
        let folded = fold_constants(&mut ssa);
        assert_eq!(folded, 1);
        let a1 = ssa.value_by_name("a1").unwrap();
        assert_eq!(constant_operand(&ssa, &Operand::Value(a1)), None);
    }

    #[test]
    fn loop_phis_do_not_fold() {
        let mut ssa = build("func f(n) { i = 0 L1: loop { i = i + 1 if i > n { break } } }");
        let folded = fold_constants(&mut ssa);
        assert_eq!(folded, 0, "loop-carried phi is not constant");
    }

    #[test]
    fn division_and_pow_fold_safely() {
        let mut ssa = build("func f() { a = 7 / 2 b = 2 ^ 5 }");
        fold_constants(&mut ssa);
        let a1 = ssa.value_by_name("a1").unwrap();
        let b1 = ssa.value_by_name("b1").unwrap();
        assert_eq!(constant_operand(&ssa, &Operand::Value(a1)), Some(3));
        assert_eq!(constant_operand(&ssa, &Operand::Value(b1)), Some(32));
    }

    #[test]
    fn overflow_is_not_folded() {
        let mut ssa = build("func f() { a = 9223372036854775807 + 1 }");
        assert_eq!(fold_constants(&mut ssa), 0);
    }
}
