//! An interpreter for SSA form.
//!
//! Executing the SSA function directly gives per-iteration values for
//! every SSA value — the ground truth the classifier's closed forms are
//! differentially tested against. It is also an independent semantics:
//! agreement between the CFG interpreter and the SSA interpreter is itself
//! a strong test of SSA construction.

use std::collections::HashMap;
use std::fmt;

use biv_ir::{Array, BinOp, Block, EntityId, EntityMap};

use crate::ssa::{Operand, SsaFunction, SsaInst, SsaTerminator, Value, ValueDef};

/// Errors the SSA interpreter can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SsaInterpError {
    /// Executed more block transitions than the configured limit.
    StepLimitExceeded,
    /// Integer overflow.
    Overflow,
    /// Division by zero.
    DivisionByZero,
    /// Negative exponent.
    NegativeExponent,
    /// A φ had no argument for the incoming edge (malformed SSA).
    MissingPhiArg,
    /// An `ExitValue` definition was encountered (synthetic values are not
    /// executable).
    SyntheticValue,
}

impl fmt::Display for SsaInterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsaInterpError::StepLimitExceeded => write!(f, "step limit exceeded"),
            SsaInterpError::Overflow => write!(f, "integer overflow"),
            SsaInterpError::DivisionByZero => write!(f, "division by zero"),
            SsaInterpError::NegativeExponent => write!(f, "negative exponent"),
            SsaInterpError::MissingPhiArg => write!(f, "phi missing argument for edge"),
            SsaInterpError::SyntheticValue => write!(f, "synthetic value is not executable"),
        }
    }
}

impl std::error::Error for SsaInterpError {}

/// Execution trace of an SSA function, grouped by value.
///
/// The interpreter appends one `(value, result)` entry per (re)computation
/// while it runs; when the run ends, one counting-sort pass regroups that
/// log by value id and drops it. Value `v`'s results then sit contiguously
/// in `results[offsets[v]..offsets[v + 1]]`, in execution order, so
/// [`SsaTrace::history`] is a slice copy rather than a scan of the whole
/// run: the invariant checker asks for one history per (seed, loop-header
/// φ), and a scan per request would make checking quadratic in function
/// size.
#[derive(Debug, Clone)]
pub struct SsaTrace {
    /// `ssa.values.len() + 1` group boundaries into `results`.
    offsets: Vec<usize>,
    /// Every computed result, grouped by value, each group in execution
    /// order.
    results: Vec<i64>,
    /// Final array contents.
    pub arrays: HashMap<(Array, Vec<i64>), i64>,
}

impl SsaTrace {
    /// Regroups an execution-order log over `value_count` values by
    /// value in one counting-sort pass (stable, so each group keeps
    /// execution order).
    fn grouped(
        log: Vec<(Value, i64)>,
        value_count: usize,
        arrays: HashMap<(Array, Vec<i64>), i64>,
    ) -> SsaTrace {
        let mut offsets = vec![0usize; value_count + 1];
        for &(v, _) in &log {
            offsets[v.index() + 1] += 1;
        }
        for i in 0..value_count {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets[..value_count].to_vec();
        let mut results = vec![0i64; log.len()];
        for (v, x) in log {
            let at = &mut cursor[v.index()];
            results[*at] = x;
            *at += 1;
        }
        SsaTrace {
            offsets,
            results,
            arrays,
        }
    }

    /// The sequence of values `value` took on, in execution order. For a
    /// loop-header φ this is exactly the paper's per-iteration sequence
    /// (an inner-loop φ re-entered by an outer loop gets every instance's
    /// iterations, concatenated). A value that never ran — or whose id
    /// lies past the executed function's value table, like the analysis
    /// copy's synthetic exit values — has an empty history.
    pub fn history(&self, value: Value) -> Vec<i64> {
        let i = value.index();
        match self.offsets.get(i..i + 2) {
            Some(&[start, end]) => self.results[start..end].to_vec(),
            _ => Vec::new(),
        }
    }

    /// The trace's *observable state*: final array contents keyed by
    /// array **name** and index vector, in deterministic order — the SSA
    /// twin of `biv_ir::interp::Trace::observable_arrays`, so the two
    /// interpreters' observable states compare directly.
    pub fn observable_arrays(
        &self,
        func: &biv_ir::Function,
    ) -> std::collections::BTreeMap<(String, Vec<i64>), i64> {
        self.arrays
            .iter()
            .map(|((a, idx), &v)| ((func.array_name(*a).to_string(), idx.clone()), v))
            .collect()
    }
}

/// SSA interpreter configuration and entry point.
#[derive(Debug, Clone)]
pub struct SsaInterpreter {
    /// Maximum number of block transitions.
    pub step_limit: usize,
}

impl Default for SsaInterpreter {
    fn default() -> Self {
        SsaInterpreter {
            step_limit: 100_000,
        }
    }
}

impl SsaInterpreter {
    /// Creates an interpreter with the default step limit.
    pub fn new() -> SsaInterpreter {
        SsaInterpreter::default()
    }

    /// Runs the SSA function. Parameters bind by position; live-ins of
    /// non-parameter variables evaluate to 0 (matching the CFG
    /// interpreter's defaults).
    ///
    /// # Errors
    ///
    /// Returns an [`SsaInterpError`] on arithmetic faults, malformed SSA,
    /// or step-limit exhaustion.
    pub fn run(&self, ssa: &SsaFunction, args: &[i64]) -> Result<SsaTrace, SsaInterpError> {
        let (trace, fault) = self.run_partial(ssa, args);
        match fault {
            None => Ok(trace),
            Some(err) => Err(err),
        }
    }

    /// Like [`SsaInterpreter::run`], but a fault keeps everything executed
    /// so far: the trace covers the prefix up to (excluding) the faulting
    /// step, with the error alongside. A `None` fault means the function
    /// ran to completion. Invariant checking uses this so a step-limited
    /// or overflowing run still contributes its observed iterations.
    pub fn run_partial(
        &self,
        ssa: &SsaFunction,
        args: &[i64],
    ) -> (SsaTrace, Option<SsaInterpError>) {
        let func = ssa.func();
        // Presence matters: an absent value means a φ argument was read
        // before its edge executed, which `eval` reports as MissingPhiArg.
        let mut env: EntityMap<Value, i64> = EntityMap::with_capacity(ssa.values.len());
        let mut arrays: HashMap<(Array, Vec<i64>), i64> = HashMap::new();
        // Every (re)computation in execution order; grouped by value once
        // the run ends.
        let mut log: Vec<(Value, i64)> = Vec::new();
        // Bind live-ins.
        let param_values: EntityMap<_, _> = func
            .params()
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, args.get(i).copied().unwrap_or(0)))
            .collect();
        for (v, data) in ssa.values.iter() {
            if let ValueDef::LiveIn { var } = data.def {
                let val = param_values.get(var).copied().unwrap_or(0);
                env.insert(v, val);
                log.push((v, val));
            }
        }
        let fault = (|| -> Result<(), SsaInterpError> {
            // One step's φ results, reused across steps.
            let mut phi_updates: Vec<(Value, i64)> = Vec::new();
            let mut block = func.entry();
            let mut prev: Option<Block> = None;
            let mut steps = 0usize;
            loop {
                steps += 1;
                if steps > self.step_limit {
                    return Err(SsaInterpError::StepLimitExceeded);
                }
                let data = ssa.block(block);
                // φs evaluate in parallel from the incoming edge.
                phi_updates.clear();
                for &phi in &data.phis {
                    let ValueDef::Phi { args } = ssa.def(phi) else {
                        continue;
                    };
                    let Some(from) = prev else {
                        return Err(SsaInterpError::MissingPhiArg);
                    };
                    let arg = args
                        .iter()
                        .find(|(b, _)| *b == from)
                        .ok_or(SsaInterpError::MissingPhiArg)?;
                    let val = self.eval(&arg.1, &env)?;
                    phi_updates.push((phi, val));
                }
                for &(phi, val) in &phi_updates {
                    env.insert(phi, val);
                    log.push((phi, val));
                }
                // Body.
                for inst in &data.body {
                    match inst {
                        SsaInst::Def(v) => {
                            let val = match ssa.def(*v) {
                                ValueDef::Phi { .. } => continue, // not in bodies
                                ValueDef::Copy { src } => self.eval(src, &env)?,
                                ValueDef::Neg { src } => self
                                    .eval(src, &env)?
                                    .checked_neg()
                                    .ok_or(SsaInterpError::Overflow)?,
                                ValueDef::Binary { op, lhs, rhs } => {
                                    let l = self.eval(lhs, &env)?;
                                    let r = self.eval(rhs, &env)?;
                                    eval_binop(*op, l, r)?
                                }
                                ValueDef::Load { array, index } => {
                                    let idx: Result<Vec<i64>, _> =
                                        index.iter().map(|o| self.eval(o, &env)).collect();
                                    arrays.get(&(*array, idx?)).copied().unwrap_or(0)
                                }
                                ValueDef::LiveIn { .. } => continue, // pre-bound
                                ValueDef::ExitValue { .. } => {
                                    return Err(SsaInterpError::SyntheticValue)
                                }
                            };
                            env.insert(*v, val);
                            log.push((*v, val));
                        }
                        SsaInst::Store {
                            array,
                            index,
                            value,
                        } => {
                            let idx: Result<Vec<i64>, _> =
                                index.iter().map(|o| self.eval(o, &env)).collect();
                            let val = self.eval(value, &env)?;
                            arrays.insert((*array, idx?), val);
                        }
                    }
                }
                match data.term.as_ref().expect("reachable block has terminator") {
                    SsaTerminator::Jump(b) => {
                        prev = Some(block);
                        block = *b;
                    }
                    SsaTerminator::Branch {
                        op,
                        lhs,
                        rhs,
                        then_bb,
                        else_bb,
                    } => {
                        let l = self.eval(lhs, &env)?;
                        let r = self.eval(rhs, &env)?;
                        prev = Some(block);
                        block = if op.eval(l, r) { *then_bb } else { *else_bb };
                    }
                    SsaTerminator::Return => return Ok(()),
                }
            }
        })()
        .err();
        (SsaTrace::grouped(log, ssa.values.len(), arrays), fault)
    }

    fn eval(&self, op: &Operand, env: &EntityMap<Value, i64>) -> Result<i64, SsaInterpError> {
        match op {
            Operand::Const(c) => Ok(*c),
            Operand::Value(v) => env.get(*v).copied().ok_or(SsaInterpError::MissingPhiArg),
        }
    }
}

fn eval_binop(op: BinOp, l: i64, r: i64) -> Result<i64, SsaInterpError> {
    match op {
        BinOp::Add => l.checked_add(r).ok_or(SsaInterpError::Overflow),
        BinOp::Sub => l.checked_sub(r).ok_or(SsaInterpError::Overflow),
        BinOp::Mul => l.checked_mul(r).ok_or(SsaInterpError::Overflow),
        BinOp::Div => {
            if r == 0 {
                Err(SsaInterpError::DivisionByZero)
            } else {
                l.checked_div(r).ok_or(SsaInterpError::Overflow)
            }
        }
        BinOp::Exp => {
            if r < 0 {
                return Err(SsaInterpError::NegativeExponent);
            }
            let exp = u32::try_from(r).map_err(|_| SsaInterpError::Overflow)?;
            l.checked_pow(exp).ok_or(SsaInterpError::Overflow)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssa::SsaFunction;
    use biv_ir::interp::Interpreter;
    use biv_ir::parser::parse_program;

    #[test]
    fn phi_history_matches_iterations() {
        let program =
            parse_program("func f(n) { i = 0 L1: loop { i = i + 1 if i > n { break } } }").unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let trace = SsaInterpreter::new().run(&ssa, &[4]).unwrap();
        let header = ssa.func().block_by_label("L1").unwrap();
        let phi = ssa.block(header).phis[0];
        // φ sees 0,1,2,3,4 (the value entering each iteration).
        assert_eq!(trace.history(phi), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn agrees_with_cfg_interpreter_on_arrays() {
        let src = r#"
            func pack(n) {
                k = 0
                L15: for i = 1 to n {
                    t = A[i]
                    if t > 0 {
                        k = k + 1
                        B[k] = t
                    }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let f = &program.functions[0];
        // Pre-populate A via a generator prefix is not possible here, so
        // just compare empty-array behavior between both interpreters.
        let cfg_trace = Interpreter::new().run(f, &[6]).unwrap();
        let ssa = SsaFunction::build(f);
        let ssa_trace = SsaInterpreter::new().run(&ssa, &[6]).unwrap();
        assert_eq!(cfg_trace.arrays, ssa_trace.arrays);
    }

    #[test]
    fn differential_scalar_check() {
        // Values of j at the loop header must agree between CFG trace and
        // SSA φ history.
        let src = r#"
            func fig1(n) {
                j = n
                L7: loop {
                    i = j + 1
                    j = i + 2
                    if j > 40 { break }
                }
            }
        "#;
        let program = parse_program(src).unwrap();
        let f = &program.functions[0];
        let cfg_trace = Interpreter::new().run(f, &[5]).unwrap();
        let ssa = SsaFunction::build(f);
        let ssa_trace = SsaInterpreter::new().run(&ssa, &[5]).unwrap();
        let header = f.block_by_label("L7").unwrap();
        // The loop-simplified SSA function may have renumbered blocks, so
        // look the header up again in the SSA function.
        let ssa_header = ssa.func().block_by_label("L7").unwrap();
        let j = f.var_by_name("j").unwrap();
        let phi = ssa.block(ssa_header).phis[0];
        assert_eq!(cfg_trace.values_at(header, j), ssa_trace.history(phi),);
    }

    #[test]
    fn run_partial_keeps_prefix_on_fault() {
        // The loop never exits, so run() errors; run_partial keeps the φ
        // history observed before the step limit hit, in order.
        let program = parse_program("func f() { i = 0 loop { i = i + 1 } }").unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let interp = SsaInterpreter { step_limit: 10 };
        let (trace, fault) = interp.run_partial(&ssa, &[]);
        assert_eq!(fault, Some(SsaInterpError::StepLimitExceeded));
        let phi = ssa
            .values
            .iter()
            .find(|(_, d)| matches!(d.def, ValueDef::Phi { .. }))
            .map(|(v, _)| v)
            .expect("loop has a phi");
        let hist = trace.history(phi);
        assert!(!hist.is_empty(), "partial trace keeps observed iterations");
        let expected: Vec<i64> = (0..hist.len() as i64).collect();
        assert_eq!(hist, expected, "prefix is the first iterations in order");
    }

    const NESTED: &str = r#"
        func nest(n, m) {
            s = 0
            L1: for i = 1 to n {
                t = i
                L2: for j = 1 to m {
                    s = s + j
                    t = t + 2
                }
            }
        }
    "#;

    /// The header φs of `label` in `ssa`, paired with their variables.
    fn header_phis(ssa: &SsaFunction, label: &str) -> Vec<(Value, biv_ir::Var)> {
        let header = ssa.func().block_by_label(label).unwrap();
        ssa.block(header)
            .phis
            .iter()
            .map(|&phi| {
                let var = ssa.values[phi].var.expect("header φ versions a variable");
                (phi, var)
            })
            .collect()
    }

    #[test]
    fn reentered_inner_phi_concatenates_instances() {
        let program = parse_program(NESTED).unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let trace = SsaInterpreter::new().run(&ssa, &[2, 3]).unwrap();
        let j = ssa.func().var_by_name("j").unwrap();
        let (phi, _) = header_phis(&ssa, "L2")
            .into_iter()
            .find(|&(_, var)| var == j)
            .expect("inner header has a φ for j");
        // Two outer iterations, each running the inner loop's header for
        // j = 1, 2, 3 and the exit test at 4: one history, in order.
        assert_eq!(trace.history(phi), vec![1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    fn value_that_never_ran_has_empty_history() {
        let src = "func f(n) { x = 0 if n > 0 { x = 7 } y = x }";
        let program = parse_program(src).unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let trace = SsaInterpreter::new().run(&ssa, &[0]).unwrap();
        let seven = ssa
            .values
            .iter()
            .find(|(_, d)| {
                matches!(
                    d.def,
                    ValueDef::Copy {
                        src: Operand::Const(7)
                    }
                )
            })
            .map(|(v, _)| v)
            .expect("the untaken arm defines x = 7");
        assert!(trace.history(seven).is_empty());
    }

    #[test]
    fn exit_value_past_the_table_has_empty_history() {
        // The analysis copy appends synthetic exit values; the checker
        // runs a clean rebuild, so their ids lie past its value table.
        let program = parse_program(NESTED).unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let trace = SsaInterpreter::new().run(&ssa, &[2, 3]).unwrap();
        let (inner, var) = header_phis(&ssa, "L2")[0];
        let mut analysis_copy = ssa.clone();
        let exit = analysis_copy.add_synthetic_value(
            ssa.def_block(inner),
            ValueDef::ExitValue { inner },
            Some(var),
            99,
        );
        assert!(!ssa.values.contains(exit));
        assert!(trace.history(exit).is_empty());
        assert!(trace
            .history(Value::from_index(ssa.values.len() + 1000))
            .is_empty());
    }

    #[test]
    fn nested_header_phis_agree_with_cfg_interpreter() {
        let program = parse_program(NESTED).unwrap();
        let f = &program.functions[0];
        let ssa = SsaFunction::build(f);
        for args in [[3, 4], [1, 0], [0, 5]] {
            let cfg_trace = Interpreter::new().run(f, &args).unwrap();
            let ssa_trace = SsaInterpreter::new().run(&ssa, &args).unwrap();
            let mut checked = 0;
            for label in ["L1", "L2"] {
                let header = f.block_by_label(label).unwrap();
                for (phi, var) in header_phis(&ssa, label) {
                    assert_eq!(
                        ssa_trace.history(phi),
                        cfg_trace.values_at(header, var),
                        "{label} φ of {} on {args:?}",
                        f.var_name(var)
                    );
                    checked += 1;
                }
            }
            assert!(checked >= 4, "both headers carry φs");
        }
    }

    #[test]
    fn step_limit_enforced() {
        let program = parse_program("func f() { loop { x = 1 } }").unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let interp = SsaInterpreter { step_limit: 50 };
        assert_eq!(
            interp.run(&ssa, &[]).unwrap_err(),
            SsaInterpError::StepLimitExceeded
        );
    }
}
