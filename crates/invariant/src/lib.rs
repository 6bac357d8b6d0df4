//! Polynomial loop invariants by linear algebra over closed forms.
//!
//! The classifier (biv-core) already computes, per loop, the closed form
//! of every induction variable as a function of the normalized counter
//! `h = 0, 1, 2, …`: an exponential polynomial `Σ c_k·h^k + Σ g_j·r_j^h`
//! whose coefficients are polynomials over loop-invariant symbols. Any
//! polynomial relation between those IVs that holds on every iteration —
//! `2s − i² + i = 0` for the running sum `s` of a linear index `i`, say —
//! is a *loop invariant* in the verification sense.
//!
//! Following de Oliveira et al.'s "Polynomial invariants by linear
//! algebra", [`derive_candidates`] finds such relations by coefficient
//! matching. It builds the monomial basis over the IVs up to a degree
//! bound and expands each basis monomial exactly into terms
//! `h^a · r^h · m` (`m` a monomial over the symbols). Distinct terms are
//! linearly independent functions of `h ≥ 0`, so a combination of basis
//! monomials vanishes on every iteration, for every value of the symbols,
//! exactly when the coefficient of each distinct term does. That is one
//! linear equation per term, solved by exact rational Gaussian
//! elimination: no sample points and no floats. The derived relations
//! follow from the closed forms.
//!
//! The closed forms are the classifier's claim, though, and the checker
//! must not trust them. So the pipeline stays split in two:
//! [`derive_candidates`] proposes relations and [`check_candidate`]
//! verifies each one against concrete per-iteration traces from the SSA
//! interpreter. Callers must only emit candidates that pass the check — a
//! failed check kills the candidate, never the batch.

use std::borrow::Cow;
use std::collections::BTreeMap;

use biv_algebra::{Matrix, Monomial, Rational, RationalError, SymPoly};

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

/// One term `coeff · h^power · base^h · mono` of an expanded closed form.
#[derive(Clone)]
struct Term {
    power: u32,
    base: Rational,
    mono: Monomial,
    coeff: Rational,
}

/// The row a term's coefficient lands in: the counter power, the base as
/// its reduced `(numerator, denominator)` pair, and the symbol monomial.
/// The base is keyed by its exact parts because `Rational`'s `Ord` falls
/// back to an `f64` compare on overflow and could merge distinct bases.
type TermKey = (u32, (i128, i128), Monomial);

impl Term {
    fn key(&self) -> TermKey {
        (
            self.power,
            (self.base.numerator(), self.base.denominator()),
            self.mono.clone(),
        )
    }

    /// The product term, or `None` when it is `h^a·0^h` with `a ≥ 1`,
    /// which is zero at every `h ≥ 0`.
    fn times(&self, other: &Term) -> Result<Option<Term>, RationalError> {
        let power = self.power + other.power;
        let base = self.base.checked_mul(&other.base)?;
        if base.is_zero() && power > 0 {
            return Ok(None);
        }
        Ok(Some(Term {
            power,
            base,
            mono: self.mono.mul(&other.mono),
            coeff: self.coeff.checked_mul(&other.coeff)?,
        }))
    }
}

/// Expands a closed form into its terms. A polynomial coefficient
/// `c_k` contributes `h^k·1^h` terms, so a geometric term with base 1
/// lands in the same row as the constant term. Terms may repeat a key;
/// the coefficient matrix sums them.
fn expand(iv: &IvClosedForm) -> Vec<Term> {
    let poly = iv
        .coeffs
        .iter()
        .enumerate()
        .map(|(k, c)| (k as u32, Rational::ONE, c));
    let geo = iv.geo.iter().map(|(base, g)| (0, *base, g));
    poly.chain(geo)
        .flat_map(|(power, base, poly)| {
            poly.iter().map(move |(mono, coeff)| Term {
                power,
                base,
                mono: mono.clone(),
                coeff: *coeff,
            })
        })
        .collect()
}

/// Every pairwise product of two expansions.
fn product(lhs: &[Term], rhs: &[Term]) -> Result<Vec<Term>, RationalError> {
    let mut out = Vec::with_capacity(lhs.len() * rhs.len());
    for a in lhs {
        for b in rhs {
            out.extend(a.times(b)?);
        }
    }
    Ok(out)
}

/// The coefficient-matching system: one column per basis monomial, one
/// row per distinct term key of any column's expansion. Each IV is
/// expanded once; a degree-`d` column is the product of `d` expansions.
fn coefficient_matrix(ivs: &[IvClosedForm], basis: &[Vec<u32>]) -> Result<Matrix, RationalError> {
    let expansions: Vec<Vec<Term>> = ivs.iter().map(expand).collect();
    let one = [Term {
        power: 0,
        base: Rational::ONE,
        mono: Monomial::one(),
        coeff: Rational::ONE,
    }];
    // Rows are numbered in first-seen order. The RREF, and so the
    // candidates, depend only on the row space, not on that order.
    let mut rows: BTreeMap<TermKey, usize> = BTreeMap::new();
    let mut entries: Vec<(usize, usize, Rational)> = Vec::new();
    for (col, exps) in basis.iter().enumerate() {
        let mut factors = exps
            .iter()
            .enumerate()
            .flat_map(|(i, &p)| std::iter::repeat_n(i, p as usize));
        let column: Cow<'_, [Term]> = match factors.next() {
            None => Cow::Borrowed(&one),
            Some(first) => factors.try_fold(Cow::Borrowed(&expansions[first][..]), |acc, i| {
                product(&acc, &expansions[i]).map(Cow::Owned)
            })?,
        };
        for term in column.iter() {
            let next = rows.len();
            let row = *rows.entry(term.key()).or_insert(next);
            entries.push((row, col, term.coeff));
        }
    }
    let mut a = Matrix::zero(rows.len(), basis.len());
    for (row, col, coeff) in entries {
        let cell = a.get_mut(row, col);
        *cell = cell.checked_add(&coeff)?;
    }
    Ok(a)
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
}

impl Default for InvariantConfig {
    fn default() -> Self {
        InvariantConfig {
            max_degree: 2,
            max_ivs: 4,
            max_candidates: 4,
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
    // Any overflow, in the expansion or in the solve, refuses the loop.
    let Ok(kernel) = coefficient_matrix(ivs, &basis).and_then(|a| a.null_space()) else {
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
        // Every candidate must actually vanish on the closed forms.
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
        let cands = derive_candidates(std::slice::from_ref(&i), &InvariantConfig::default());
        assert!(cands.is_empty(), "got {cands:?}");
        // With j = h beside it, i − j = n: still no relation with
        // rational coefficients holds for every n.
        let j = IvClosedForm {
            name: "j".into(),
            coeffs: vec![c(0), c(1)],
            geo: vec![],
        };
        let cands = derive_candidates(&[i, j], &InvariantConfig::default());
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

    fn geometric(name: &str, base: Rational, coeff: i128) -> IvClosedForm {
        IvClosedForm {
            name: name.into(),
            coeffs: vec![c(0)],
            geo: vec![(base, c(coeff))],
        }
    }

    fn rendered(ivs: &[IvClosedForm]) -> Vec<String> {
        let names: Vec<String> = ivs.iter().map(|iv| iv.name.clone()).collect();
        derive_candidates(ivs, &InvariantConfig::default())
            .iter()
            .map(|cand| cand.render(&names))
            .collect()
    }

    #[test]
    fn large_bases_are_never_raised_to_a_power() {
        // 1000^h overflows i128 by h = 13; coefficient matching only ever
        // multiplies bases pairwise, so the relations survive.
        let g = geometric("g", Rational::from_integer(1000), 1);
        let d = geometric("d", Rational::from_integer(1000), 3);
        assert_eq!(
            rendered(&[g, d]),
            ["3*g - d = 0", "3*g^2 - g*d = 0", "9*g^2 - d^2 = 0"]
        );
    }

    #[test]
    fn bases_whose_product_is_one_cancel() {
        // 2^h · (1/2)^h = 1^h, the constant row: g·k − 1 = 0.
        let g = geometric("g", Rational::from_integer(2), 1);
        let k = geometric("k", Rational::new(1, 2).unwrap(), 1);
        assert_eq!(rendered(&[g, k]), ["1 - g*k = 0"]);
    }

    #[test]
    fn alternating_sign_squares_to_one() {
        let v = geometric("v", Rational::MINUS_ONE, 1);
        assert_eq!(rendered(&[v]), ["1 - v^2 = 0"]);
    }

    #[test]
    fn base_one_geometric_term_merges_with_the_constant() {
        // v(h) = 2 + 3·1^h is the constant 5. Kept apart, the 1^h term
        // would be a second row and v would have no relation at all.
        let v = IvClosedForm {
            name: "v".into(),
            coeffs: vec![c(2)],
            geo: vec![(Rational::ONE, c(3))],
        };
        assert_eq!(rendered(&[v]), ["5 - v = 0", "25 - v^2 = 0"]);
    }

    #[test]
    fn base_zero_term_is_an_h_zero_indicator() {
        // v(h) = 7·0^h is 7 at h = 0 and 0 afterwards; with i = h,
        // i·v ≡ 0 (the h·0^h row is dropped) while v alone stays free.
        let i = IvClosedForm {
            name: "i".into(),
            coeffs: vec![c(0), c(1)],
            geo: vec![],
        };
        let v = geometric("v", Rational::ZERO, 7);
        assert_eq!(rendered(&[i, v]), ["i*v = 0", "7*v - v^2 = 0"]);
    }

    /// xorshift64: deterministic, dependency-free randomness for the
    /// property test below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> i128 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            i128::from(self.0 % n)
        }
    }

    /// A small random coefficient: an integer in −3..=3, sometimes plus
    /// a multiple of one of two symbols.
    fn random_coeff(rng: &mut Rng) -> SymPoly {
        let constant = c(rng.below(7) - 3);
        if rng.below(4) > 0 {
            return constant;
        }
        let sym = SymPoly::symbol(biv_algebra::SymId(rng.below(2) as u32));
        let scaled = sym.checked_scale(&Rational::from_integer(rng.below(3) + 1));
        constant.checked_add(&scaled.unwrap()).unwrap()
    }

    fn random_iv(rng: &mut Rng, k: usize) -> IvClosedForm {
        const BASES: [(i128, i128); 6] = [(2, 1), (1, 2), (-1, 1), (3, 1), (1, 1), (0, 1)];
        let degree = rng.below(3) as usize;
        let coeffs = (0..=degree)
            .map(|d| {
                let coeff = random_coeff(rng);
                // Halves keep the running-sum shape (h² + h)/2 reachable.
                let half = if d > 0 && rng.below(2) == 0 { 2 } else { 1 };
                coeff
                    .checked_scale(&Rational::new(1, half).unwrap())
                    .unwrap()
            })
            .collect();
        let geo = (0..rng.below(2))
            .map(|_| {
                let (n, d) = BASES[rng.below(BASES.len() as u64) as usize];
                (Rational::new(n, d).unwrap(), random_coeff(rng))
            })
            .collect();
        IvClosedForm {
            name: format!("v{k}"),
            coeffs,
            geo,
        }
    }

    /// The closed form at `h` with every symbol assigned, by direct
    /// exact evaluation — no expansion, no matrix. `None` on overflow.
    fn eval_closed_form(iv: &IvClosedForm, h: u32, symbols: &[Rational]) -> Option<Rational> {
        let lookup = |s: biv_algebra::SymId| symbols.get(s.0 as usize).copied();
        let hr = Rational::from_integer(i128::from(h));
        let mut acc = Rational::ZERO;
        for (k, coeff) in iv.coeffs.iter().enumerate() {
            let term = coeff
                .eval(lookup)?
                .checked_mul(&hr.checked_pow(k as i32).ok()?);
            acc = acc.checked_add(&term.ok()?).ok()?;
        }
        for (base, coeff) in &iv.geo {
            let power = base.checked_pow(h as i32).ok()?;
            acc = acc
                .checked_add(&coeff.eval(lookup)?.checked_mul(&power).ok()?)
                .ok()?;
        }
        Some(acc)
    }

    fn eval_candidate(cand: &Candidate, values: &[Rational]) -> Option<Rational> {
        let mut acc = Rational::ZERO;
        for (coeff, exps) in cand.coeffs.iter().zip(&cand.exps) {
            let mut term = Rational::from_integer(*coeff);
            for (value, &p) in values.iter().zip(exps) {
                term = term.checked_mul(&value.checked_pow(p as i32).ok()?).ok()?;
            }
            acc = acc.checked_add(&term).ok()?;
        }
        Some(acc)
    }

    /// Soundness: every derived candidate vanishes at h = 0..64 under
    /// several integer assignments of the symbols, evaluated exactly
    /// from the closed forms with no shared derivation code.
    #[test]
    fn every_candidate_vanishes_on_the_closed_forms() {
        let mut rng = Rng(0x2545_f491_4f6c_dd1d);
        let mut candidates = 0;
        for _ in 0..300 {
            let count = 1 + rng.below(4) as usize;
            let ivs: Vec<IvClosedForm> = (0..count).map(|k| random_iv(&mut rng, k)).collect();
            let cands = derive_candidates(&ivs, &InvariantConfig::default());
            candidates += cands.len();
            for _ in 0..4 {
                let symbols = [
                    Rational::from_integer(rng.below(11) - 5),
                    Rational::from_integer(rng.below(11) - 5),
                ];
                for cand in &cands {
                    let mut checked = 0;
                    for h in 0..=64 {
                        let values: Option<Vec<Rational>> = ivs
                            .iter()
                            .map(|iv| eval_closed_form(iv, h, &symbols))
                            .collect();
                        let Some(value) = values.and_then(|v| eval_candidate(cand, &v)) else {
                            continue; // overflow at a large h: skip, counted below
                        };
                        assert!(value.is_zero(), "{cand:?} is {value} at h={h} for {ivs:?}");
                        checked += 1;
                    }
                    assert!(
                        checked >= 20,
                        "only {checked} iterations checkable for {ivs:?}"
                    );
                }
            }
        }
        assert!(
            candidates >= 100,
            "only {candidates} candidates: the test is vacuous"
        );
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
