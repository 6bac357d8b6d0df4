//! An interpreter for SSA form.
//!
//! Executing the SSA function directly gives per-iteration values for
//! every SSA value — the ground truth the classifier's closed forms are
//! differentially tested against. It is also an independent semantics:
//! agreement between the CFG interpreter and the SSA interpreter is itself
//! a strong test of SSA construction.
//!
//! Each run first decodes the function into a flat register program and
//! then executes that over a register file, so the hot loop never matches
//! on [`Operand`]s, looks up [`ValueDef`]s, or searches a φ's argument
//! list.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasher;

use biv_ir::{Array, BinOp, Block, CmpOp, EntityId, EntityMap, Var};

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

/// Execution trace of an SSA function.
///
/// The interpreter logs every (re)computed result in execution order and
/// nothing else per write: which value a logged result belongs to is
/// implied by the decoded program, because a step that enters block `b`
/// writes `b`'s φs and then its body's definitions, always in that order.
/// When the run ends the trace indexes the log by step — for each block,
/// where each of its steps' writes begin — and by value — where within a
/// step of which block the value is written. [`SsaTrace::history`] then
/// gathers one value's results from its block's steps, so its cost is the
/// history's length, not the run's: the invariant checker asks for one
/// history per (seed, loop-header φ), and a scan per request would make
/// checking quadratic in function size.
#[derive(Debug, Clone)]
pub struct SsaTrace {
    /// Every computed result in execution order: the live-ins, then each
    /// step's writes.
    log: Vec<i64>,
    /// `block_starts[b]..block_starts[b + 1]` spans block `b`'s entries in
    /// `starts`.
    block_starts: Vec<usize>,
    /// Log positions where steps' writes begin, grouped by block, each
    /// group in execution order.
    starts: Vec<usize>,
    /// `value_sites[v]..value_sites[v + 1]` spans value `v`'s entries in
    /// `sites`.
    value_sites: Vec<usize>,
    /// Where values are written.
    sites: Vec<Site>,
    /// Final array contents, one table per (array, subscript arity).
    cells: Vec<Cells>,
}

/// Where a value is written: a live-in's fixed log position, or an offset
/// into the writes of every step that enters a block. Well-formed SSA
/// gives each value exactly one site.
#[derive(Debug, Clone, Copy)]
enum Site {
    LiveIn(usize),
    Step { block: usize, offset: usize },
}

impl SsaTrace {
    /// The sequence of values `value` took on, in execution order. For a
    /// loop-header φ this is exactly the paper's per-iteration sequence
    /// (an inner-loop φ re-entered by an outer loop gets every instance's
    /// iterations, concatenated). A value that never ran — or whose id
    /// lies past the executed function's value table, like the analysis
    /// copy's synthetic exit values — has an empty history.
    pub fn history(&self, value: Value) -> Vec<i64> {
        let i = value.index();
        let Some(&[first, end]) = self.value_sites.get(i..i + 2) else {
            return Vec::new();
        };
        match &self.sites[first..end] {
            [site] => {
                let (starts, offset) = self.positions(site);
                starts.iter().map(|&s| self.log[s + offset]).collect()
            }
            sites => {
                // Malformed SSA may write a value from several places:
                // merge them in log (execution) order.
                let mut all: Vec<usize> = Vec::new();
                for site in sites {
                    let (starts, offset) = self.positions(site);
                    all.extend(starts.iter().map(|&s| s + offset));
                }
                all.sort_unstable();
                all.into_iter().map(|p| self.log[p]).collect()
            }
        }
    }

    /// Where `site` was written: at each returned step start plus the
    /// offset, in execution order. A fault can cut the last step short,
    /// so the starts stop where the log does.
    fn positions<'a>(&'a self, site: &'a Site) -> (&'a [usize], usize) {
        let (starts, offset) = match site {
            Site::LiveIn(at) => (std::slice::from_ref(at), 0),
            &Site::Step { block, offset } => (
                &self.starts[self.block_starts[block]..self.block_starts[block + 1]],
                offset,
            ),
        };
        let kept = starts.partition_point(|&s| s + offset < self.log.len());
        (&starts[..kept], offset)
    }

    /// Final array contents keyed by array and index vector, the shape of
    /// `biv_ir::interp::Trace::arrays`. Built on request: checking never
    /// reads arrays, so runs do not pay for the map.
    pub fn arrays(&self) -> HashMap<(Array, Vec<i64>), i64> {
        self.cells()
            .map(|(a, idx, v)| ((a, idx.to_vec()), v))
            .collect()
    }

    /// The trace's *observable state*: final array contents keyed by
    /// array **name** and index vector, in deterministic order — the SSA
    /// twin of `biv_ir::interp::Trace::observable_arrays`, so the two
    /// interpreters' observable states compare directly.
    pub fn observable_arrays(
        &self,
        func: &biv_ir::Function,
    ) -> std::collections::BTreeMap<(String, Vec<i64>), i64> {
        self.cells()
            .map(|(a, idx, v)| ((func.array_name(a).to_string(), idx.to_vec()), v))
            .collect()
    }

    /// Every stored cell as `(array, subscripts, value)`.
    fn cells(&self) -> impl Iterator<Item = (Array, &[i64], i64)> {
        self.cells.iter().flat_map(|cells| {
            (0..cells.values.len()).map(move |c| (cells.array, cells.key(c), cells.values[c]))
        })
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
        let program = Program::decode(ssa);
        let mut machine = Machine::new(&program, ssa.func(), args);
        let fault = machine.run(&program, self.step_limit).err();
        (machine.into_trace(&program), fault)
    }
}

/// A register index. Registers `0..value_count` hold the SSA values (same
/// index as the [`Value`]); register `value_count` is never defined and
/// stands for operands naming a value outside the table; constants follow.
type Reg = u32;

/// `i` as a 32-bit table index. Decoded programs and cell tables index
/// with `u32` to stay compact; a function or run that outgrows that is a
/// broken assumption, not a fault of the interpreted program.
fn to_u32(i: usize) -> u32 {
    u32::try_from(i).expect("interpreter tables hold fewer than 2^32 entries")
}

/// A run of entries in one of [`Program`]'s pools.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Span {
        Span {
            start: to_u32(start),
            len: to_u32(end - start),
        }
    }

    fn of<T>(self, pool: &[T]) -> &[T] {
        &pool[self.start as usize..][..self.len as usize]
    }
}

/// One decoded body instruction. `cells` indexes the run's cell tables;
/// `index` spans [`Program::subscripts`].
#[derive(Debug, Clone, Copy)]
enum Op {
    Copy {
        dst: Reg,
        src: Reg,
    },
    Binary {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    Load {
        dst: Reg,
        cells: u32,
        index: Span,
    },
    Store {
        cells: u32,
        index: Span,
        value: Reg,
    },
    /// An `ExitValue` definition: executing it faults.
    Synthetic,
}

/// A control-flow edge: the block it enters and the φ moves it performs,
/// a span of [`Program::moves`] in φ order. `moves` is `None` when some
/// φ of the target has no argument for this edge, so entering through it
/// faults.
#[derive(Debug, Clone, Copy)]
struct Edge {
    target: u32,
    moves: Option<Span>,
}

/// A decoded terminator; edges are indices into [`Program::edges`].
#[derive(Debug, Clone, Copy)]
enum Exit {
    Jump(u32),
    Branch {
        op: CmpOp,
        lhs: Reg,
        rhs: Reg,
        then_edge: u32,
        else_edge: u32,
    },
    Return,
    /// No terminator: the block is absent from the source function.
    Missing,
}

/// A decoded block.
#[derive(Debug, Clone, Copy)]
struct DecodedBlock {
    /// Span of [`Program::ops`].
    body: Span,
    /// Span of [`Program::writes`]: the registers a step entering this
    /// block writes, in order — its φs, then its body's definitions.
    writes: Span,
    exit: Exit,
}

/// An SSA function decoded into a flat register program. Operands are
/// register indices, a block's body is a span of [`Op`]s, and terminators
/// name their successor edges, whose φ moves are resolved up front.
#[derive(Debug)]
struct Program {
    value_count: usize,
    /// Indexed by block index.
    blocks: Vec<DecodedBlock>,
    ops: Vec<Op>,
    writes: Vec<Reg>,
    /// Subscript registers of every load and store.
    subscripts: Vec<Reg>,
    edges: Vec<Edge>,
    /// `(φ register, source register)` moves of every edge.
    moves: Vec<(Reg, Reg)>,
    /// The edge into the entry block. It has no source block, so any φ
    /// there faults.
    entry: u32,
    /// The register file before live-ins bind: constants in place.
    init: Vec<i64>,
    /// Which registers start defined: the constants.
    defined: Vec<bool>,
    /// Live-in registers and their variables, in value order.
    live_ins: Vec<(Reg, Var)>,
    /// The `(array, arity)` each cell table holds.
    tables: Vec<(Array, usize)>,
}

impl Program {
    fn decode(ssa: &SsaFunction) -> Program {
        let value_count = ssa.values.len();
        let mut p = Program {
            value_count,
            blocks: Vec::new(),
            ops: Vec::new(),
            writes: Vec::new(),
            subscripts: Vec::new(),
            edges: Vec::new(),
            moves: Vec::new(),
            entry: 0,
            init: vec![0; value_count + 1],
            defined: vec![false; value_count + 1],
            live_ins: Vec::new(),
            tables: Vec::new(),
        };
        for (v, data) in ssa.values.iter() {
            if let ValueDef::LiveIn { var } = data.def {
                p.live_ins.push((to_u32(v.index()), var));
            }
        }
        let mut table_of: HashMap<(Array, usize), u32> = HashMap::new();
        for block in ssa.block_ids() {
            debug_assert_eq!(block.index(), p.blocks.len());
            let data = ssa.block(block);
            let (ops_start, writes_start) = (p.ops.len(), p.writes.len());
            let phis = data.phis.iter().filter(|&&phi| ssa.def(phi).is_phi());
            p.writes.extend(phis.map(|phi| to_u32(phi.index())));
            for inst in &data.body {
                let op = match inst {
                    SsaInst::Def(v) => {
                        let dst = to_u32(v.index());
                        let op = match ssa.def(*v) {
                            // φs never sit in bodies; live-ins are pre-bound.
                            ValueDef::Phi { .. } | ValueDef::LiveIn { .. } => continue,
                            ValueDef::ExitValue { .. } => {
                                p.ops.push(Op::Synthetic);
                                continue;
                            }
                            ValueDef::Copy { src } => Op::Copy {
                                dst,
                                src: p.reg(*src),
                            },
                            // `0 - x` overflows exactly when `-x` does.
                            ValueDef::Neg { src } => Op::Binary {
                                op: BinOp::Sub,
                                dst,
                                lhs: p.reg(Operand::Const(0)),
                                rhs: p.reg(*src),
                            },
                            ValueDef::Binary { op, lhs, rhs } => Op::Binary {
                                op: *op,
                                dst,
                                lhs: p.reg(*lhs),
                                rhs: p.reg(*rhs),
                            },
                            ValueDef::Load { array, index } => Op::Load {
                                dst,
                                cells: p.table(&mut table_of, *array, index.len()),
                                index: p.subscripts(index),
                            },
                        };
                        p.writes.push(dst);
                        op
                    }
                    SsaInst::Store {
                        array,
                        index,
                        value,
                    } => Op::Store {
                        cells: p.table(&mut table_of, *array, index.len()),
                        index: p.subscripts(index),
                        value: p.reg(*value),
                    },
                };
                p.ops.push(op);
            }
            let exit = match &data.term {
                Some(SsaTerminator::Jump(b)) => Exit::Jump(p.edge(ssa, Some(block), *b)),
                Some(SsaTerminator::Branch {
                    op,
                    lhs,
                    rhs,
                    then_bb,
                    else_bb,
                }) => Exit::Branch {
                    op: *op,
                    lhs: p.reg(*lhs),
                    rhs: p.reg(*rhs),
                    then_edge: p.edge(ssa, Some(block), *then_bb),
                    else_edge: p.edge(ssa, Some(block), *else_bb),
                },
                Some(SsaTerminator::Return) => Exit::Return,
                None => Exit::Missing,
            };
            p.blocks.push(DecodedBlock {
                body: Span::new(ops_start, p.ops.len()),
                writes: Span::new(writes_start, p.writes.len()),
                exit,
            });
        }
        p.entry = p.edge(ssa, None, ssa.func().entry());
        p
    }

    /// The register `operand` reads, allocating one for a constant.
    fn reg(&mut self, operand: Operand) -> Reg {
        match operand {
            Operand::Value(v) if v.index() < self.value_count => to_u32(v.index()),
            Operand::Value(_) => to_u32(self.value_count),
            Operand::Const(c) => {
                self.init.push(c);
                self.defined.push(true);
                to_u32(self.init.len() - 1)
            }
        }
    }

    fn subscripts(&mut self, index: &[Operand]) -> Span {
        let start = self.subscripts.len();
        for &o in index {
            let r = self.reg(o);
            self.subscripts.push(r);
        }
        Span::new(start, self.subscripts.len())
    }

    /// The cell table of `array` at subscript arity `arity`. The IR
    /// verifier fixes one arity per array; keying on both keeps malformed
    /// SSA's mixed arities apart, as distinct index vectors always were.
    fn table(
        &mut self,
        table_of: &mut HashMap<(Array, usize), u32>,
        array: Array,
        arity: usize,
    ) -> u32 {
        *table_of.entry((array, arity)).or_insert_with(|| {
            self.tables.push((array, arity));
            to_u32(self.tables.len() - 1)
        })
    }

    /// Adds the edge `from → to` (`from` is `None` for function entry),
    /// resolving each φ of `to` to its argument for the edge.
    fn edge(&mut self, ssa: &SsaFunction, from: Option<Block>, to: Block) -> u32 {
        let start = self.moves.len();
        let mut moves = None;
        for &phi in &ssa.block(to).phis {
            let ValueDef::Phi { args } = ssa.def(phi) else {
                continue;
            };
            let Some(&(_, src)) = from.and_then(|from| args.iter().find(|(b, _)| *b == from))
            else {
                self.moves.truncate(start);
                moves = Some(None);
                break;
            };
            let src = self.reg(src);
            self.moves.push((to_u32(phi.index()), src));
        }
        self.edges.push(Edge {
            target: to_u32(to.index()),
            moves: moves.unwrap_or(Some(Span::new(start, self.moves.len()))),
        });
        to_u32(self.edges.len() - 1)
    }
}

/// One run's state over a decoded [`Program`].
struct Machine {
    regs: Vec<i64>,
    /// Whether each register holds a value yet. Reading one that does
    /// not is the [`SsaInterpError::MissingPhiArg`] fault.
    defined: Vec<bool>,
    /// One table per `Program::tables` entry.
    cells: Vec<Cells>,
    /// Every (re)computed result, in execution order.
    log: Vec<i64>,
    /// The block each step entered, in execution order.
    steps: Vec<u32>,
    /// One step's φ results, all read before any is written.
    phi_values: Vec<i64>,
    /// One load's or store's subscripts.
    index: Vec<i64>,
}

impl Machine {
    /// The machine before the first step: constants set, live-ins bound
    /// (parameters by position, other variables 0, matching the CFG
    /// interpreter) and logged in value order.
    fn new(program: &Program, func: &biv_ir::Function, args: &[i64]) -> Machine {
        // The interpreted program chooses its subscripts, so the cell hash
        // starts from a fresh random seed each run: no program can aim
        // its subscripts at one probe chain.
        let seed = RandomState::new().hash_one(0u64);
        let mut machine = Machine {
            regs: program.init.clone(),
            defined: program.defined.clone(),
            cells: program
                .tables
                .iter()
                .map(|&(array, arity)| Cells::new(array, arity, seed))
                .collect(),
            log: Vec::new(),
            steps: Vec::new(),
            phi_values: Vec::new(),
            index: Vec::new(),
        };
        let param_values: EntityMap<_, _> = func
            .params()
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, args.get(i).copied().unwrap_or(0)))
            .collect();
        for &(reg, var) in &program.live_ins {
            machine.write(reg, param_values.get(var).copied().unwrap_or(0));
        }
        machine
    }

    #[inline]
    fn read(&self, reg: Reg) -> Result<i64, SsaInterpError> {
        let r = reg as usize;
        if self.defined[r] {
            Ok(self.regs[r])
        } else {
            Err(SsaInterpError::MissingPhiArg)
        }
    }

    #[inline]
    fn write(&mut self, reg: Reg, val: i64) {
        let r = reg as usize;
        self.regs[r] = val;
        self.defined[r] = true;
        self.log.push(val);
    }

    /// Reads `regs` into `self.index`.
    #[inline]
    fn gather(&mut self, regs: &[Reg]) -> Result<(), SsaInterpError> {
        self.index.clear();
        for &r in regs {
            let v = self.read(r)?;
            self.index.push(v);
        }
        Ok(())
    }

    /// Executes from the entry edge until `Return` or a fault. A step is
    /// one block entered; the limit is checked before the block's φs run.
    fn run(&mut self, p: &Program, step_limit: usize) -> Result<(), SsaInterpError> {
        let mut edge = p.entry;
        loop {
            if self.steps.len() >= step_limit {
                return Err(SsaInterpError::StepLimitExceeded);
            }
            let Edge { target, moves } = p.edges[edge as usize];
            self.steps.push(target);
            let moves = moves.ok_or(SsaInterpError::MissingPhiArg)?.of(&p.moves);
            self.phi_values.clear();
            for &(_, src) in moves {
                let v = self.read(src)?;
                self.phi_values.push(v);
            }
            for (i, &(dst, _)) in moves.iter().enumerate() {
                self.write(dst, self.phi_values[i]);
            }
            let DecodedBlock { body, exit, .. } = p.blocks[target as usize];
            for &op in body.of(&p.ops) {
                match op {
                    Op::Copy { dst, src } => {
                        let v = self.read(src)?;
                        self.write(dst, v);
                    }
                    Op::Binary { op, dst, lhs, rhs } => {
                        let v = eval_binop(op, self.read(lhs)?, self.read(rhs)?)?;
                        self.write(dst, v);
                    }
                    Op::Load { dst, cells, index } => {
                        self.gather(index.of(&p.subscripts))?;
                        let v = self.cells[cells as usize].get(&self.index);
                        self.write(dst, v);
                    }
                    Op::Store {
                        cells,
                        index,
                        value,
                    } => {
                        self.gather(index.of(&p.subscripts))?;
                        let v = self.read(value)?;
                        self.cells[cells as usize].set(&self.index, v);
                    }
                    Op::Synthetic => return Err(SsaInterpError::SyntheticValue),
                }
            }
            edge = match exit {
                Exit::Jump(next) => next,
                Exit::Branch {
                    op,
                    lhs,
                    rhs,
                    then_edge,
                    else_edge,
                } => {
                    if op.eval(self.read(lhs)?, self.read(rhs)?) {
                        then_edge
                    } else {
                        else_edge
                    }
                }
                Exit::Return => return Ok(()),
                Exit::Missing => panic!("reachable block has terminator"),
            };
        }
    }

    /// Indexes the log by step and by value (see [`SsaTrace`]).
    fn into_trace(self, program: &Program) -> SsaTrace {
        let blocks = &program.blocks;
        // Each block's step starts, in execution order: a counting sort of
        // the steps by block, placing each step's running log position.
        let mut block_starts = vec![0usize; blocks.len() + 1];
        for &b in &self.steps {
            block_starts[b as usize + 1] += 1;
        }
        for b in 0..blocks.len() {
            block_starts[b + 1] += block_starts[b];
        }
        let mut cursor = block_starts[..blocks.len()].to_vec();
        let mut starts = vec![0usize; self.steps.len()];
        let mut at = program.live_ins.len();
        for &b in &self.steps {
            starts[cursor[b as usize]] = at;
            cursor[b as usize] += 1;
            at += blocks[b as usize].writes.len as usize;
        }
        // Every value's sites, by a counting sort over the write lists.
        let live_in_sites = program
            .live_ins
            .iter()
            .enumerate()
            .map(|(i, &(r, _))| (r, Site::LiveIn(i)));
        let step_sites = blocks.iter().enumerate().flat_map(|(block, data)| {
            let writes = data.writes.of(&program.writes).iter().enumerate();
            writes.map(move |(offset, &r)| (r, Site::Step { block, offset }))
        });
        let all_sites = || live_in_sites.clone().chain(step_sites.clone());
        let n = program.value_count;
        let mut value_sites = vec![0usize; n + 1];
        for (r, _) in all_sites() {
            value_sites[r as usize + 1] += 1;
        }
        for v in 0..n {
            value_sites[v + 1] += value_sites[v];
        }
        let mut cursor = value_sites[..n].to_vec();
        let mut sites = vec![Site::LiveIn(0); value_sites[n]];
        for (r, site) in all_sites() {
            sites[cursor[r as usize]] = site;
            cursor[r as usize] += 1;
        }
        SsaTrace {
            log: self.log,
            block_starts,
            starts,
            value_sites,
            sites,
            cells: self.cells,
        }
    }
}

/// The cells of one array at one subscript arity. Every key is exactly
/// `arity` words, stored flat in `keys`, and found by linear probing on a
/// hash taken one whole word at a time, so a load or store neither
/// allocates nor hashes bytewise.
#[derive(Debug, Clone)]
struct Cells {
    array: Array,
    arity: usize,
    /// Start state of [`word_hash`].
    seed: u64,
    /// Cell `c`'s subscripts are `keys[c * arity..][..arity]`.
    keys: Vec<i64>,
    values: Vec<i64>,
    /// A power-of-two table of cell numbers plus one; 0 marks an empty
    /// slot. Empty until the first store, and at most half full.
    slots: Vec<u32>,
}

impl Cells {
    fn new(array: Array, arity: usize, seed: u64) -> Cells {
        Cells {
            array,
            arity,
            seed,
            keys: Vec::new(),
            values: Vec::new(),
            slots: Vec::new(),
        }
    }

    fn key(&self, cell: usize) -> &[i64] {
        &self.keys[cell * self.arity..][..self.arity]
    }

    /// The slot holding `key`, or the empty slot where it would go.
    fn probe(&self, key: &[i64]) -> usize {
        let mask = self.slots.len() - 1;
        // The multiply leaves its best-mixed bits at the top.
        let mut slot =
            (word_hash(self.seed, key) >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let c = self.slots[slot] as usize;
            if c == 0 || self.key(c - 1).iter().eq(key) {
                return slot;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The cell's value; a cell never stored reads 0.
    fn get(&self, key: &[i64]) -> i64 {
        if self.slots.is_empty() {
            return 0;
        }
        match self.slots[self.probe(key)] {
            0 => 0,
            c => self.values[c as usize - 1],
        }
    }

    fn set(&mut self, key: &[i64], value: i64) {
        if 2 * (self.values.len() + 1) > self.slots.len() {
            self.slots = vec![0; (2 * self.slots.len()).max(16)];
            for c in 0..self.values.len() {
                let slot = self.probe(self.key(c));
                self.slots[slot] = to_u32(c + 1);
            }
        }
        let slot = self.probe(key);
        match self.slots[slot] {
            0 => {
                self.keys.extend_from_slice(key);
                self.values.push(value);
                self.slots[slot] = to_u32(self.values.len());
            }
            c => self.values[c as usize - 1] = value,
        }
    }
}

/// Hashes subscripts word by word with `ConsHasher`'s mix from
/// `biv_algebra::sympoly` (rotate, xor, multiply by a large odd
/// constant), starting from `seed`. Feeding `i64` slices through `Hash`
/// would hand the hasher a single byte slice.
fn word_hash(seed: u64, words: &[i64]) -> u64 {
    words.iter().fold(seed, |h, &w| {
        (h.rotate_left(5) ^ w as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
    })
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
        assert_eq!(cfg_trace.arrays, ssa_trace.arrays());
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

    /// The first value whose definition matches `pred`.
    fn find_value(ssa: &SsaFunction, pred: impl Fn(&ValueDef) -> bool) -> Value {
        ssa.values
            .iter()
            .find(|(_, d)| pred(&d.def))
            .map(|(v, _)| v)
            .expect("a matching value")
    }

    #[test]
    fn overflow_keeps_the_iterations_before_it() {
        let program = parse_program("func f() { x = 1 L1: loop { x = x * 2 } }").unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let (trace, fault) = SsaInterpreter::new().run_partial(&ssa, &[]);
        assert_eq!(fault, Some(SsaInterpError::Overflow));
        let phi = ssa.block(ssa.func().block_by_label("L1").unwrap()).phis[0];
        let doubled = find_value(&ssa, |d| matches!(d, ValueDef::Binary { .. }));
        // 2^0 ..= 2^62 entered the loop; 2^63 is the faulting product.
        let powers: Vec<i64> = (0..63).map(|k| 1i64 << k).collect();
        assert_eq!(trace.history(phi), powers);
        assert_eq!(trace.history(doubled), powers[1..].to_vec());

        // Negation overflows only at i64::MIN.
        let program = parse_program("func g(n) { a = n + 0 b = -n }").unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let a = find_value(&ssa, |d| {
            matches!(d, ValueDef::Binary { op: BinOp::Add, .. })
        });
        let b = find_value(&ssa, |d| matches!(d, ValueDef::Neg { .. }));
        let (trace, fault) = SsaInterpreter::new().run_partial(&ssa, &[i64::MIN]);
        assert_eq!(fault, Some(SsaInterpError::Overflow));
        assert_eq!(trace.history(a), vec![i64::MIN]);
        assert!(trace.history(b).is_empty());
        let trace = SsaInterpreter::new().run(&ssa, &[i64::MIN + 1]).unwrap();
        assert_eq!(trace.history(b), vec![i64::MAX]);
    }

    #[test]
    fn division_by_zero_keeps_the_prefix() {
        let program = parse_program("func f(n) { a = n + 1 b = 10 / n c = b + 1 }").unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let interp = SsaInterpreter::new();
        let (trace, fault) = interp.run_partial(&ssa, &[0]);
        assert_eq!(fault, Some(SsaInterpError::DivisionByZero));
        let a = find_value(&ssa, |d| {
            matches!(
                d,
                ValueDef::Binary {
                    op: BinOp::Add,
                    rhs: Operand::Const(1),
                    ..
                }
            )
        });
        let b = find_value(&ssa, |d| {
            matches!(d, ValueDef::Binary { op: BinOp::Div, .. })
        });
        assert_eq!(trace.history(a), vec![1]);
        assert!(trace.history(b).is_empty());
        assert_eq!(
            interp.run(&ssa, &[0]).unwrap_err(),
            SsaInterpError::DivisionByZero
        );
        assert_eq!(interp.run(&ssa, &[5]).unwrap().history(b), vec![2]);
    }

    #[test]
    fn negative_exponent_keeps_the_prefix() {
        let program = parse_program("func f(n) { a = n + 1 b = 2 ^ n }").unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let (trace, fault) = SsaInterpreter::new().run_partial(&ssa, &[-1]);
        assert_eq!(fault, Some(SsaInterpError::NegativeExponent));
        let a = find_value(&ssa, |d| {
            matches!(d, ValueDef::Binary { op: BinOp::Add, .. })
        });
        let b = find_value(&ssa, |d| {
            matches!(d, ValueDef::Binary { op: BinOp::Exp, .. })
        });
        assert_eq!(trace.history(a), vec![0]);
        assert!(trace.history(b).is_empty());
    }

    #[test]
    fn missing_phi_arg_on_hand_built_ssa() {
        let program =
            parse_program("func f(n) { i = 0 L1: loop { i = i + 1 if i > n { break } } }").unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let header = ssa.func().block_by_label("L1").unwrap();
        let phi = ssa.block(header).phis[0];
        let step = find_value(&ssa, |d| {
            matches!(d, ValueDef::Binary { op: BinOp::Add, .. })
        });
        let ValueDef::Phi { args } = ssa.def(phi).clone() else {
            panic!("header φ");
        };
        // The back edge carries the incremented value.
        let latch = args
            .iter()
            .find(|&&(_, op)| op == Operand::Value(step))
            .map(|&(b, _)| b)
            .expect("a back edge");

        // Drop the back edge's argument: the second header entry faults
        // before any of its φs is recorded.
        let mut no_back_edge = ssa.clone();
        no_back_edge.values[phi].def = ValueDef::Phi {
            args: args.iter().copied().filter(|&(b, _)| b != latch).collect(),
        };
        let (trace, fault) = SsaInterpreter::new().run_partial(&no_back_edge, &[5]);
        assert_eq!(fault, Some(SsaInterpError::MissingPhiArg));
        assert_eq!(trace.history(phi), vec![0]);
        assert_eq!(trace.history(step), vec![1]);

        // Point the back edge at a value that never runs: reading it is the
        // same fault.
        let mut unset = ssa.clone();
        let ghost = Value::from_index(ssa.values.len() + 3);
        unset.values[phi].def = ValueDef::Phi {
            args: args
                .iter()
                .map(|&(b, op)| {
                    (
                        b,
                        if b == latch {
                            Operand::Value(ghost)
                        } else {
                            op
                        },
                    )
                })
                .collect(),
        };
        let (trace, fault) = SsaInterpreter::new().run_partial(&unset, &[5]);
        assert_eq!(fault, Some(SsaInterpError::MissingPhiArg));
        assert_eq!(trace.history(phi), vec![0]);
        assert_eq!(trace.history(step), vec![1]);
    }

    #[test]
    fn synthetic_exit_value_is_not_executable() {
        let program = parse_program(NESTED).unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let (inner, var) = header_phis(&ssa, "L2")[0];
        let mut analysis_copy = ssa.clone();
        analysis_copy.add_synthetic_value(
            ssa.def_block(inner),
            ValueDef::ExitValue { inner },
            Some(var),
            99,
        );
        let (trace, fault) = SsaInterpreter::new().run_partial(&analysis_copy, &[2, 3]);
        assert_eq!(fault, Some(SsaInterpError::SyntheticValue));
        // The first entry into the inner header ran its φs, then faulted.
        for (phi, _) in header_phis(&ssa, "L1") {
            assert_eq!(trace.history(phi).len(), 1);
        }
        for (phi, _) in header_phis(&ssa, "L2") {
            assert_eq!(trace.history(phi).len(), 1);
        }
        let j = ssa.func().var_by_name("j").unwrap();
        let (j_phi, _) = header_phis(&ssa, "L2")
            .into_iter()
            .find(|&(_, v)| v == j)
            .unwrap();
        assert_eq!(trace.history(j_phi), vec![1]);
    }

    /// Five-subscript stores and loads, negative indices included.
    const GRID: &str = r#"
        func grid(n) {
            L1: for i = 1 to n {
                A[i, -i, i - 3, 0 - 2 * i, -7] = i * i
                A[-i, i, 3 - i, 2 * i, -7] = 0 - i
                t = A[i - 1, 1 - i, i - 4, 2 - 2 * i, -7]
                B[t, i, t, i, t] = t + i
            }
        }
    "#;

    #[test]
    fn five_subscript_arrays_with_negative_indices_match_cfg_interpreter() {
        let program = parse_program(GRID).unwrap();
        let f = &program.functions[0];
        let ssa = SsaFunction::build(f);
        for n in [0, 1, 6] {
            let cfg = Interpreter::new().run(f, &[n]).unwrap();
            let ssa_trace = SsaInterpreter::new().run(&ssa, &[n]).unwrap();
            let observed = ssa_trace.observable_arrays(f);
            assert_eq!(observed, cfg.observable_arrays(f), "n = {n}");
            assert_eq!(observed.len(), 3 * n as usize, "n = {n}");
            if n > 0 {
                assert_eq!(
                    observed[&("A".to_string(), vec![n, -n, n - 3, -2 * n, -7])],
                    n * n
                );
                assert_eq!(
                    observed[&("A".to_string(), vec![-n, n, 3 - n, 2 * n, -7])],
                    -n
                );
            }
        }
    }

    #[test]
    fn repeated_runs_return_identical_traces() {
        let interp = SsaInterpreter { step_limit: 40 };
        for (src, args) in [
            (NESTED, [3, 4]),
            (NESTED, [50, 50]),
            (GRID, [5, 0]),
            (GRID, [90, 0]),
        ] {
            let program = parse_program(src).unwrap();
            let ssa = SsaFunction::build(&program.functions[0]);
            let (first, first_fault) = interp.run_partial(&ssa, &args);
            let (second, second_fault) = interp.run_partial(&ssa, &args);
            assert_eq!(first_fault, second_fault);
            assert_eq!(first.arrays(), second.arrays());
            for v in ssa.values.ids() {
                assert_eq!(first.history(v), second.history(v), "{v}");
            }
        }
    }

    #[test]
    fn value_written_from_two_blocks_keeps_execution_order() {
        // Hand-built: the loop's increment is also defined after the loop,
        // where it recomputes the last header value plus one.
        let program =
            parse_program("func f(n) { i = 0 L1: loop { i = i + 1 if i > n { break } } y = n }")
                .unwrap();
        let ssa = SsaFunction::build(&program.functions[0]);
        let step = find_value(&ssa, |d| {
            matches!(d, ValueDef::Binary { op: BinOp::Add, .. })
        });
        let y = find_value(&ssa, |d| {
            matches!(
                d,
                ValueDef::Copy {
                    src: Operand::Value(_)
                }
            )
        });
        let mut twice = ssa.clone();
        twice
            .block_mut(ssa.def_block(y))
            .body
            .push(SsaInst::Def(step));
        let trace = SsaInterpreter::new().run(&twice, &[3]).unwrap();
        assert_eq!(trace.history(step), vec![1, 2, 3, 4, 4]);
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
