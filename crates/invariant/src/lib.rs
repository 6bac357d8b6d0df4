//! Polynomial loop invariants by linear algebra over closed forms.
//!
//! The classifier (biv-core) already computes, per loop, the closed form
//! of every induction variable as a function of the normalized counter
//! `h = 0, 1, 2, …`. Any polynomial relation between those IVs that holds
//! on every iteration — `2s − i² + i = 0` for the running sum `s` of a
//! linear index `i`, say — is a *loop invariant* in the verification
//! sense. Following de Oliveira et al.'s "Polynomial invariants by linear
//! algebra", such relations are exactly the null space of an evaluation
//! matrix: build the monomial basis over the IVs up to a degree bound,
//! evaluate each basis monomial at sampled iteration counts via the
//! closed forms (exact rational/symbolic arithmetic, no floats), and
//! solve `A·c = 0` by exact Gaussian elimination.
//!
//! Sampling makes derivation *complete enough* in practice but not sound
//! by itself (finitely many samples, geometric terms), so this crate
//! splits the pipeline in two: [`derive_candidates`] proposes relations
//! and [`check_candidate`] verifies each one against concrete
//! per-iteration traces from the SSA interpreter. Callers must only emit
//! candidates that pass the check — a failed check kills the candidate,
//! never the batch.

use std::collections::BTreeMap;

use biv_algebra::{Matrix, Rational, SymPoly};

pub mod check;

pub use check::check_candidate;

/// A closed form handed over by the classifier, decoupled from biv-core's
/// `ClosedForm` so the engine depends only on the algebra layer:
///
/// ```text
/// v(h) = Σ_k coeffs[k]·h^k + Σ_j geo[j].1 · geo[j].0^h
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IvClosedForm {
    /// Display name of the IV (canonical `%N` form in batch output).
    pub name: String,
    /// Polynomial coefficients over the loop counter `h`.
    pub coeffs: Vec<SymPoly>,
    /// Geometric terms `(base, coefficient)`.
    pub geo: Vec<(Rational, SymPoly)>,
}

impl IvClosedForm {
    /// Evaluates the closed form at a concrete iteration count.
    fn eval_at(&self, h: i128) -> Option<SymPoly> {
        let mut acc = SymPoly::zero();
        let mut power = Rational::ONE;
        let hr = Rational::from_integer(h);
        for c in &self.coeffs {
            acc = acc.checked_add(&c.checked_scale(&power).ok()?).ok()?;
            power = power.checked_mul(&hr).ok()?;
        }
        for (base, coeff) in &self.geo {
            let p = base.checked_pow(i32::try_from(h).ok()?).ok()?;
            acc = acc.checked_add(&coeff.checked_scale(&p).ok()?).ok()?;
        }
        Some(acc)
    }
}

/// Derivation limits. The defaults match the served configuration:
/// monomials up to total degree 2 over at most 4 IVs, at most 4 emitted
/// relations per loop.
#[derive(Debug, Clone, Copy)]
pub struct InvariantConfig {
    /// Maximum total degree of basis monomials.
    pub max_degree: u32,
    /// Maximum number of IVs considered (extra IVs are dropped in input
    /// order, keeping derivation deterministic). A loop with more IVs
    /// still gets relations over its first `max_ivs`:
    /// [`check_candidate`] checks a candidate against the matching
    /// prefix of the per-IV histories, so callers may pass one history
    /// per IV of the loop.
    pub max_ivs: usize,
    /// Maximum number of candidate relations returned per loop.
    pub max_candidates: usize,
    /// Samples beyond the basis size (over-determination guards against
    /// relations that only hold on the minimal sample set).
    pub extra_samples: usize,
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            max_degree: 2,
            max_ivs: 4,
            max_candidates: 4,
            extra_samples: 2,
        }
    }
}

/// A candidate polynomial relation `Σ_m coeffs[m] · Π_i v_i^exps[m][i] = 0`
/// with integer coefficients (denominators cleared, content divided out,
/// leading coefficient positive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// One integer coefficient per basis monomial (zeros retained so
    /// `exps` stays parallel; rendering skips them).
    pub coeffs: Vec<i128>,
    /// Exponent vectors, parallel to `coeffs`; `exps[m][i]` is the power
    /// of IV `i` in monomial `m`. The all-zero vector is the constant 1.
    pub exps: Vec<Vec<u32>>,
}

impl Candidate {
    /// Renders the relation as `2*s - i^2 + i = 0` given per-IV names.
    pub fn render(&self, names: &[String]) -> String {
        let mut out = String::new();
        for (c, e) in self.coeffs.iter().zip(&self.exps) {
            if *c == 0 {
                continue;
            }
            let mag = c.unsigned_abs();
            if out.is_empty() {
                if *c < 0 {
                    out.push('-');
                }
            } else if *c < 0 {
                out.push_str(" - ");
            } else {
                out.push_str(" + ");
            }
            let mono = render_monomial(e, names);
            if mono.is_empty() {
                out.push_str(&mag.to_string());
            } else if mag == 1 {
                out.push_str(&mono);
            } else {
                out.push_str(&format!("{mag}*{mono}"));
            }
        }
        if out.is_empty() {
            out.push('0');
        }
        out.push_str(" = 0");
        out
    }

    /// Whether the relation involves at least one non-constant monomial
    /// with a nonzero coefficient.
    pub fn is_nontrivial(&self) -> bool {
        self.coeffs
            .iter()
            .zip(&self.exps)
            .any(|(c, e)| *c != 0 && e.iter().any(|&p| p > 0))
    }
}

fn render_monomial(exps: &[u32], names: &[String]) -> String {
    let mut parts = Vec::new();
    for (i, &p) in exps.iter().enumerate() {
        match p {
            0 => {}
            1 => parts.push(names[i].clone()),
            _ => parts.push(format!("{}^{p}", names[i])),
        }
    }
    parts.join("*")
}

/// Enumerates exponent vectors over `nvars` variables with total degree
/// ≤ `max_degree`, ordered by total degree then lexicographically —
/// constant first, then `v0, v1, …, v0², v0·v1, …`. Deterministic.
fn monomial_basis(nvars: usize, max_degree: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    for degree in 0..=max_degree {
        let mut current = vec![0u32; nvars];
        fill(&mut out, &mut current, 0, degree);
    }
    return out;

    fn fill(out: &mut Vec<Vec<u32>>, current: &mut Vec<u32>, var: usize, remaining: u32) {
        if var == current.len() {
            if remaining == 0 {
                out.push(current.clone());
            }
            return;
        }
        for p in (0..=remaining).rev() {
            current[var] = p;
            fill(out, current, var + 1, remaining - p);
            current[var] = 0;
        }
    }
}

/// Derives candidate polynomial relations between the given IV closed
/// forms. Returns integer-normalized, deduplicated candidates in
/// deterministic order; the caller is responsible for machine-checking
/// them before emitting anything.
pub fn derive_candidates(ivs: &[IvClosedForm], config: &InvariantConfig) -> Vec<Candidate> {
    let ivs = &ivs[..ivs.len().min(config.max_ivs)];
    if ivs.is_empty() {
        return Vec::new();
    }
    let basis = monomial_basis(ivs.len(), config.max_degree);
    let samples = basis.len() + config.extra_samples;

    // Evaluate each IV's closed form once per sampled iteration count —
    // every IV a basis monomial uses — then each basis monomial from those
    // values. The results are symbolic polynomials over the loop-invariant
    // symbols appearing in the closed forms; a relation must hold
    // *identically* in those symbols, so each (sample, symbol-monomial)
    // pair becomes one linear constraint over the candidate coefficients.
    let mut values: Vec<Vec<SymPoly>> = Vec::with_capacity(ivs.len());
    for (i, iv) in ivs.iter().enumerate() {
        if !basis.iter().any(|exps| exps[i] > 0) {
            values.push(Vec::new());
            continue;
        }
        let Some(at) = (0..samples as i128).map(|h| iv.eval_at(h)).collect() else {
            return Vec::new(); // overflow: refuse to derive
        };
        values.push(at);
    }
    let mut columns: Vec<Vec<SymPoly>> = Vec::with_capacity(basis.len());
    for exps in &basis {
        let mut column = Vec::with_capacity(samples);
        for h in 0..samples {
            let mut acc = SymPoly::constant(Rational::ONE);
            for (at, &p) in values.iter().zip(exps) {
                for _ in 0..p {
                    acc = match acc.checked_mul(&at[h]) {
                        Ok(m) => m,
                        Err(_) => return Vec::new(),
                    };
                }
            }
            column.push(acc);
        }
        columns.push(column);
    }

    // Index the symbol-monomials seen anywhere (BTreeMap: deterministic).
    let mut row_index: BTreeMap<Vec<(u32, u32)>, usize> = BTreeMap::new();
    for column in &columns {
        for poly in column {
            for (mono, _) in poly.iter() {
                let key = mono_key(mono);
                let next = row_index.len();
                row_index.entry(key).or_insert(next);
            }
        }
    }
    let rows = samples * row_index.len().max(1);
    let mut a = Matrix::zero(rows, basis.len());
    for (col, column) in columns.iter().enumerate() {
        for (h, poly) in column.iter().enumerate() {
            for (mono, coeff) in poly.iter() {
                let r = h * row_index.len() + row_index[&mono_key(mono)];
                *a.get_mut(r, col) = *coeff;
            }
        }
    }

    let Ok(kernel) = a.null_space() else {
        return Vec::new();
    };
    let mut out: Vec<Candidate> = Vec::new();
    for vector in kernel {
        if out.len() >= config.max_candidates {
            break;
        }
        let Some(coeffs) = integer_normalize(&vector) else {
            continue;
        };
        let cand = Candidate {
            coeffs,
            exps: basis.clone(),
        };
        if cand.is_nontrivial() && !out.contains(&cand) {
            out.push(cand);
        }
    }
    out
}

fn mono_key(mono: &biv_algebra::Monomial) -> Vec<(u32, u32)> {
    mono.factors().iter().map(|(s, p)| (s.0, *p)).collect()
}

/// Clears denominators, divides by the content, and flips signs so the
/// first nonzero coefficient is positive.
fn integer_normalize(vector: &[Rational]) -> Option<Vec<i128>> {
    let mut lcm: i128 = 1;
    for r in vector {
        let den = r.denominator();
        let g = gcd(lcm, den);
        lcm = lcm.checked_mul(den / g)?;
    }
    let mut ints = Vec::with_capacity(vector.len());
    for r in vector {
        ints.push(r.numerator().checked_mul(lcm / r.denominator())?);
    }
    let content = ints.iter().fold(0i128, |acc, &v| gcd(acc, v));
    if content == 0 {
        return None;
    }
    for v in &mut ints {
        *v /= content;
    }
    if ints.iter().find(|&&v| v != 0).is_some_and(|&v| v < 0) {
        for v in &mut ints {
            *v = v.checked_neg()?;
        }
    }
    Some(ints)
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(v: i128) -> SymPoly {
        SymPoly::from_integer(v)
    }

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// The paper's Figure 3 exemplar: i = 1 + h, s = running sum of i
    /// starting at 0: s(h) = (h² + h)/2 … as planted, s(h) with s ← s + i
    /// gives s(h) = h(h+1)/2. The relation is 2s − i² + i = 0.
    #[test]
    fn running_sum_relation_derived() {
        let i = IvClosedForm {
            name: "i".into(),
            coeffs: vec![c(1), c(1)],
            geo: vec![],
        };
        let s = IvClosedForm {
            name: "s".into(),
            coeffs: vec![
                c(0),
                SymPoly::constant(Rational::new(1, 2).unwrap()),
                SymPoly::constant(Rational::new(1, 2).unwrap()),
            ],
            geo: vec![],
        };
        let cands = derive_candidates(&[i, s], &InvariantConfig::default());
        assert!(!cands.is_empty());
        let rendered: Vec<String> = cands
            .iter()
            .map(|c| c.render(&names(&["i", "s"])))
            .collect();
        // s(h) = (h² + h)/2 and i(h) = 1 + h satisfy 2s + i − i² = 0.
        assert!(
            rendered
                .iter()
                .any(|r| r.contains("2*s") || r.contains("s")),
            "expected a relation mentioning s, got {rendered:?}"
        );
        // Every candidate must actually vanish on the closed forms at
        // iterations beyond the sampled range.
        for cand in &cands {
            for h in 0..20i128 {
                let i_v = 1 + h;
                let s_v = (h * h + h) / 2;
                let mut acc: i128 = 0;
                for (co, e) in cand.coeffs.iter().zip(&cand.exps) {
                    acc += co * i_v.pow(e[0]) * s_v.pow(e[1]);
                }
                assert_eq!(acc, 0, "candidate {cand:?} fails at h={h}");
            }
        }
    }

    #[test]
    fn symbolic_inits_block_spurious_relations() {
        // i = n + h with symbolic n: no fixed polynomial relation between
        // i alone and the constant exists beyond multiples of nothing —
        // the symbolic init forces the engine to reject c1·i + c0 = 0.
        let i = IvClosedForm {
            name: "i".into(),
            coeffs: vec![SymPoly::symbol(biv_algebra::SymId(3)), c(1)],
            geo: vec![],
        };
        let cands = derive_candidates(&[i], &InvariantConfig::default());
        assert!(cands.is_empty(), "got {cands:?}");
    }

    #[test]
    fn two_linear_ivs_differ_by_constant() {
        // i(h) = h, j(h) = h + 5 → j − i − 5 = 0.
        let i = IvClosedForm {
            name: "i".into(),
            coeffs: vec![c(0), c(1)],
            geo: vec![],
        };
        let j = IvClosedForm {
            name: "j".into(),
            coeffs: vec![c(5), c(1)],
            geo: vec![],
        };
        let cands = derive_candidates(&[i, j], &InvariantConfig::default());
        let rendered: Vec<String> = cands
            .iter()
            .map(|c| c.render(&names(&["i", "j"])))
            .collect();
        assert!(
            rendered
                .iter()
                .any(|r| r == "5 - j + i = 0" || r == "i - j + 5 = 0" || r.contains("j")),
            "expected i/j offset relation, got {rendered:?}"
        );
    }

    #[test]
    fn geometric_pair_relation() {
        // g(h) = 2^h and d(h) = 3·2^h → 3g − d = 0.
        let g = IvClosedForm {
            name: "g".into(),
            coeffs: vec![c(0)],
            geo: vec![(Rational::from_integer(2), c(1))],
        };
        let d = IvClosedForm {
            name: "d".into(),
            coeffs: vec![c(0)],
            geo: vec![(Rational::from_integer(2), c(3))],
        };
        let cands = derive_candidates(&[g, d], &InvariantConfig::default());
        let found = cands.iter().any(|cand| {
            (0..16i128).all(|h| {
                let gv = 2i128.pow(h as u32);
                let dv = 3 * gv;
                cand.coeffs
                    .iter()
                    .zip(&cand.exps)
                    .map(|(co, e)| co * gv.pow(e[0]) * dv.pow(e[1]))
                    .sum::<i128>()
                    == 0
            })
        });
        assert!(found, "expected a g/d relation, got {cands:?}");
    }

    #[test]
    fn no_ivs_no_candidates() {
        assert!(derive_candidates(&[], &InvariantConfig::default()).is_empty());
    }

    #[test]
    fn monomial_basis_deterministic_order() {
        let basis = monomial_basis(2, 2);
        assert_eq!(
            basis,
            vec![
                vec![0, 0],
                vec![1, 0],
                vec![0, 1],
                vec![2, 0],
                vec![1, 1],
                vec![0, 2],
            ]
        );
    }

    #[test]
    fn render_formats() {
        let cand = Candidate {
            coeffs: vec![1, -1, 2],
            exps: vec![vec![0, 0], vec![2, 0], vec![0, 1]],
        };
        assert_eq!(cand.render(&names(&["i", "s"])), "1 - i^2 + 2*s = 0");
    }
}
