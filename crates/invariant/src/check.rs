//! Machine-checking of candidate invariants against concrete traces.
//!
//! Derivation works from the *closed forms*; checking replays the *program*.
//! The SSA interpreter (biv-ssa) executes the original function on seeded
//! inputs and records the per-iteration history of every loop-header φ —
//! the candidate must vanish at every observed iteration of every seed.
//! Overflowing iterations are skipped (the check is over exact i128
//! arithmetic widened from the interpreter's i64 values, so only extreme
//! monomials overflow); a candidate with *no* checkable iteration at all
//! is rejected, never emitted unverified.

use crate::Candidate;

/// Per-seed, per-IV iteration histories: `histories[iv][h]` is the value
/// IV `iv` took entering iteration `h`. Histories of different IVs may
/// have different lengths (a φ later in the header list misses the final
/// partial iteration); checking stops at the shortest.
pub type SeedHistories = Vec<Vec<i64>>;

/// Checks a candidate against every seed trace. Returns `true` only when
/// the relation holds at every checkable iteration of every seed *and*
/// at least `min_iterations` iterations were actually checked in total.
///
/// A candidate over `n` IVs is checked against the first `n` histories
/// of each seed: [`crate::derive_candidates`] keeps only the first
/// [`crate::InvariantConfig::max_ivs`] IVs in input order, so callers may
/// pass one history per IV of the loop and the extra ones are ignored
/// (their lengths do not shorten the check either). Fewer histories than
/// the candidate's IVs is a wiring error and rejects.
pub fn check_candidate(cand: &Candidate, seeds: &[SeedHistories], min_iterations: usize) -> bool {
    let nvars = cand.exps.first().map(Vec::len).unwrap_or(0);
    let mut checked = 0usize;
    for histories in seeds {
        let Some(histories) = histories.get(..nvars) else {
            return false; // fewer histories than IVs: caller wiring error
        };
        let len = histories.iter().map(Vec::len).min().unwrap_or(0);
        for h in 0..len {
            match value_at(cand, histories, h) {
                Some(0) => checked += 1,
                Some(_) => return false,
                None => {} // overflow: skip this iteration
            }
        }
    }
    checked >= min_iterations.max(1)
}

/// Evaluates the candidate at iteration `h`; `None` on i128 overflow.
fn value_at(cand: &Candidate, histories: &[Vec<i64>], h: usize) -> Option<i128> {
    let mut acc: i128 = 0;
    for (coeff, exps) in cand.coeffs.iter().zip(&cand.exps) {
        if *coeff == 0 {
            continue;
        }
        let mut term: i128 = *coeff;
        for (iv, &p) in exps.iter().enumerate() {
            for _ in 0..p {
                term = term.checked_mul(i128::from(histories[iv][h]))?;
            }
        }
        acc = acc.checked_add(term)?;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn running_sum_candidate() -> Candidate {
        // 2s − i² + i = 0 over (i, s), basis order [1, i, s, i², is, s²].
        Candidate {
            coeffs: vec![0, 1, 2, -1, 0, 0],
            exps: vec![
                vec![0, 0],
                vec![1, 0],
                vec![0, 1],
                vec![2, 0],
                vec![1, 1],
                vec![0, 2],
            ],
        }
    }

    fn running_sum_trace(n: i64) -> SeedHistories {
        // i = 1, 2, …; s enters iteration h as sum of 0..h terms.
        let mut i_hist = Vec::new();
        let mut s_hist = Vec::new();
        let mut s = 0i64;
        for h in 0..n {
            i_hist.push(1 + h);
            s_hist.push(s);
            s += 1 + h;
        }
        vec![i_hist, s_hist]
    }

    #[test]
    fn true_invariant_passes() {
        let cand = running_sum_candidate();
        assert!(check_candidate(&cand, &[running_sum_trace(10)], 1));
    }

    #[test]
    fn off_by_one_coefficient_rejected() {
        // The tripwire: 3s − i² + i ≠ 0.
        let mut broken = running_sum_candidate();
        broken.coeffs[2] = 3;
        assert!(!check_candidate(&broken, &[running_sum_trace(10)], 1));
    }

    #[test]
    fn zero_observed_iterations_rejected() {
        let cand = running_sum_candidate();
        assert!(!check_candidate(&cand, &[running_sum_trace(0)], 1));
    }

    #[test]
    fn extra_histories_beyond_the_candidate_ivs_are_ignored() {
        // Five IV histories, a candidate over the first two: the IV-prefix
        // rule of derive_candidates. The trailing histories are shorter
        // and would cut the check to one iteration if they were read.
        let cand = running_sum_candidate();
        let mut five = running_sum_trace(10);
        five.extend([vec![7; 2], vec![-1; 3], vec![0; 1]]);
        assert!(check_candidate(&cand, &[five.clone()], 10));
        let mut broken = cand.clone();
        broken.coeffs[2] = 3;
        assert!(!check_candidate(&broken, &[five], 1));
    }

    #[test]
    fn fewer_histories_than_ivs_rejected() {
        let cand = running_sum_candidate();
        let mut one = running_sum_trace(10);
        one.truncate(1);
        assert!(!check_candidate(&cand, &[one], 1));
    }

    #[test]
    fn any_failing_seed_rejects() {
        let cand = running_sum_candidate();
        let mut bad = running_sum_trace(6);
        bad[1][3] += 1; // corrupt one iteration of s
        assert!(!check_candidate(&cand, &[running_sum_trace(10), bad], 1));
    }
}
