//! Shared helpers for the Criterion benchmark binaries in `benches/`.
//!
//! The benchmarks reproduce the paper's performance claims:
//!
//! - `scaling` (P1): "this algorithm is linear in the size of the SSA
//!   graph, not iterative";
//! - `vs_classic` (P2): "giving a unified approach improves the speed of
//!   compilers";
//! - `dependence` (P3): dependence testing throughput with classified
//!   variables;
//! - `ablation` (A1/A2): the incremental cost of each extension beyond
//!   linear induction variables, and of pruned vs minimal SSA;
//! - `paper_figures` (E1–E9): classification latency on each worked
//!   example from the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;

/// The paper-figure sources benchmarked by `benches/paper_figures.rs`, as
/// `(experiment id, source)` pairs.
pub fn paper_sources() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "fig1_linear",
            "func fig1(n, c, k) { j = n L7: loop { i = j + c j = i + k if j > 1000 { break } } }",
        ),
        (
            "fig3_branch",
            "func fig3(e, n) { i = 1 L8: loop { if e > 0 { i = i + 2 } else { i = i + 2 } if i > n { break } } }",
        ),
        (
            "fig4_wraparound",
            "func fig4(n, k0, j0) { k = k0 j = j0 i = 1 L10: loop { A[k] = i A[j] = i k = j j = i i = i + 1 if i > n { break } } }",
        ),
        (
            "fig5_periodic",
            "func fig5(n, j0, k0, l0, t0) { t = t0 j = j0 k = k0 l = l0 L13: loop { A[t] = j t = j j = k k = l l = t if j > n { break } } }",
        ),
        (
            "l14_polynomial",
            "func l14(n) { j = 1 k = 1 l = 1 L14: for i = 1 to n { j = j + i k = k + j + 1 l = l * 2 + 1 A[j] = k } }",
        ),
        (
            "fig6_monotonic",
            "func fig6(n, e) { k = 0 L16: loop { if e > 0 { k = k + 1 } else { k = k + 2 } if k > n { break } } }",
        ),
        (
            "fig7_nested",
            "func fig7(n) { k = 0 L17: loop { i = 1 L18: loop { k = k + 2 if i > 100 { break } i = i + 1 } k = k + 2 if k > n { break } } }",
        ),
        (
            "fig9_triangular",
            "func fig9(n) { j = 0 L19: for i = 1 to n { j = j + i L20: for k = 1 to i { j = j + 1 } } }",
        ),
        (
            "fig10_mixed",
            "func fig10(n) { k = 0 L15: for i = 1 to n { F[k] = A[i] t = A[i] if t > 0 { C[k] = D[i] k = k + 1 B[k] = A[i] E[i] = B[k] } G[i] = F[k] } }",
        ),
    ]
}

/// Counts three-address instructions in a function (benchmark size
/// metric).
pub fn instruction_count(func: &biv_ir::Function) -> usize {
    func.blocks.iter().map(|(_, b)| b.insts.len()).sum()
}
