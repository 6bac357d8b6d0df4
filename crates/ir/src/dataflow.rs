//! An iterative bit-vector dataflow framework with the one classical
//! problem the rest of the system needs: **live variables**, used for
//! pruned SSA construction.
//!
//! All per-block state is stored in dense block-indexed vectors — no
//! hashing on the fixpoint path.

use crate::entity::EntityId;
use crate::function::{Block, Function, Var};

/// A fixed-width bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// Creates an empty set over a universe of `len` elements.
    pub fn new(len: usize) -> BitSet {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Inserts `idx`. Returns `true` if newly inserted.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn insert(&mut self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index out of range");
        let (w, b) = (idx / 64, idx % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Membership test.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of range.
    pub fn contains(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index out of range");
        self.words[idx / 64] & (1 << (idx % 64)) != 0
    }

    /// `self |= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            if new != *a {
                changed = true;
                *a = new;
            }
        }
        changed
    }

    /// `self &= !other`.
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }
}

/// Live-variables analysis results (backward may-analysis).
#[derive(Debug)]
pub struct Liveness {
    /// Variables live at block entry, indexed by block. Unreachable
    /// blocks keep empty sets.
    pub live_in: Vec<BitSet>,
}

impl Liveness {
    /// Runs the classical backward liveness analysis over scalar variables.
    pub fn compute(func: &Function) -> Liveness {
        let n = func.vars.len();
        let nblocks = func.blocks.len();
        // USE/DEF per block (USE = used before any def in the block).
        let mut use_set: Vec<BitSet> = Vec::with_capacity(nblocks);
        let mut def_set: Vec<BitSet> = Vec::with_capacity(nblocks);
        let mut scratch = Vec::new();
        for (_, data) in func.blocks.iter() {
            let mut u = BitSet::new(n);
            let mut d = BitSet::new(n);
            for inst in &data.insts {
                scratch.clear();
                inst.uses(&mut scratch);
                for &v in &scratch {
                    if !d.contains(v.index()) {
                        u.insert(v.index());
                    }
                }
                if let Some(v) = inst.def() {
                    d.insert(v.index());
                }
            }
            scratch.clear();
            data.term.uses(&mut scratch);
            for &v in &scratch {
                if !d.contains(v.index()) {
                    u.insert(v.index());
                }
            }
            use_set.push(u);
            def_set.push(d);
        }
        let po = func.postorder();
        let mut lin: Vec<BitSet> = (0..nblocks).map(|_| BitSet::new(n)).collect();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &po {
                let bi = b.index();
                let mut input = BitSet::new(n);
                for s in func.successors(b) {
                    input.union_with(&lin[s.index()]);
                }
                input.subtract(&def_set[bi]);
                input.union_with(&use_set[bi]);
                if lin[bi] != input {
                    lin[bi] = input;
                    changed = true;
                }
            }
        }
        Liveness { live_in: lin }
    }

    /// Whether `var` is live at the entry of `block`.
    pub fn live_at_entry(&self, block: Block, var: Var) -> bool {
        self.live_in
            .get(block.index())
            .map(|s| s.contains(var.index()))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn bitset_basics() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0));
        assert!(s.contains(129));
        assert!(s.contains(0));
        assert!(!s.contains(64));
        assert!(!s.contains(128));
    }

    #[test]
    fn bitset_union_subtract() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(1);
        b.insert(2);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        a.subtract(&b);
        assert!(a.contains(1));
        assert!(!a.contains(2));
    }

    #[test]
    fn liveness_through_loop() {
        let program =
            parse_program("func f(n) { i = 0 L1: loop { i = i + 1 if i > n { break } } x = i }")
                .unwrap();
        let f = &program.functions[0];
        let live = Liveness::compute(f);
        let header = f.block_by_label("L1").unwrap();
        let i = f.var_by_name("i").unwrap();
        let n = f.var_by_name("n").unwrap();
        assert!(live.live_at_entry(header, i));
        assert!(live.live_at_entry(header, n));
    }

    #[test]
    fn dead_variable_not_live() {
        let program = parse_program("func f() { x = 1 y = 2 }").unwrap();
        let f = &program.functions[0];
        let live = Liveness::compute(f);
        let x = f.var_by_name("x").unwrap();
        assert!(!live.live_at_entry(f.entry(), x));
    }
}
