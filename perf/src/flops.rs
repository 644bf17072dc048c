//! Useful floating-point operations of the benchmark programs.
//!
//! These are *computed*, not measured: exact counts from operand shapes
//! and the measured non-zero count of the sparse input, counting one
//! multiply and one add per stored product term and one operation per
//! output cell of a cell-wise operator. Work the implementation adds on
//! top (zero fill, partial-sum merges, format conversion) is not useful
//! work and is not counted, so a faster kernel raises GFLOP/s and a
//! wasteful one lowers it.

/// `A (m×k) · B (k×n)` with `nnz_a` stored entries in `A` and a dense
/// `B`: every stored `a[i,l]` meets `n` cells of `B`.
pub fn matmul_sparse_dense(nnz_a: u64, n: u64) -> u64 {
    2 * nnz_a * n
}

/// Dense `A (m×k) · B (k×n)`.
pub fn matmul_dense(m: u64, k: u64, n: u64) -> u64 {
    2 * m * k * n
}

/// One GNMF multiplicative update (both factors) on `V (d×w)` with
/// `nnz_v` stored entries and rank `k`:
///
/// ```text
/// H ← H * (Wᵀ V) / (Wᵀ W H)      W ← W * (V Hᵀ) / (W H Hᵀ)
/// ```
pub fn gnmf_iteration(d: u64, w: u64, k: u64, nnz_v: u64) -> u64 {
    let wt_v = matmul_sparse_dense(nnz_v, k); // Wᵀ·V: each v[i,j] meets k cells of W
    let wt_w = matmul_dense(k, d, k);
    let wt_w_h = matmul_dense(k, k, w);
    let h_update = 2 * k * w; // one multiply and one divide per cell of H
    let v_ht = matmul_sparse_dense(nnz_v, k);
    let h_ht = matmul_dense(k, w, k);
    let w_h_ht = matmul_dense(d, k, k);
    let w_update = 2 * d * k;
    wt_v + wt_w + wt_w_h + h_update + v_ht + h_ht + w_h_ht + w_update
}

/// One PageRank step `rank ← (rank · link)·α + D·(1−α)` on `n` nodes with
/// `nnz_link` stored links: the sparse product, two scalings, one add.
pub fn pagerank_iteration(n: u64, nnz_link: u64) -> u64 {
    2 * nnz_link + 3 * n
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A GNMF step on a 2×2-block `V`: block 2, so `V` is 4×4, with rank
    /// 2 and 5 stored entries. Counted by hand, term by term:
    ///
    /// * `Wᵀ·V`   (2×4 · 4×4, V sparse): 5 entries × 2 rows of Wᵀ × 2 = 20
    /// * `Wᵀ·W`   (2×4 · 4×2): 2·2·4·2 = 32
    /// * `(WᵀW)·H` (2×2 · 2×4): 2·2·2·4 = 32
    /// * `H * · / ·` on 2×4 cells: 2·8 = 16
    /// * `V·Hᵀ`   (4×4 sparse · 4×2): 5 × 2 × 2 = 20
    /// * `H·Hᵀ`   (2×4 · 4×2): 32
    /// * `W·(HHᵀ)` (4×2 · 2×2): 2·4·2·2 = 32
    /// * `W * · / ·` on 4×2 cells: 16
    #[test]
    fn gnmf_step_matches_hand_count() {
        assert_eq!(
            gnmf_iteration(4, 4, 2, 5),
            20 + 32 + 32 + 16 + 20 + 32 + 32 + 16
        );
    }

    #[test]
    fn dense_v_reduces_to_the_dense_formula() {
        let (d, w, k) = (6, 5, 3);
        let dense = gnmf_iteration(d, w, k, d * w);
        // With V dense both V-products are plain 2·d·w·k multiplies.
        let expect = 2 * matmul_dense(d, w, k)
            + matmul_dense(k, d, k)
            + matmul_dense(k, k, w)
            + matmul_dense(k, w, k)
            + matmul_dense(d, k, k)
            + 2 * k * w
            + 2 * d * k;
        assert_eq!(dense, expect);
    }

    #[test]
    fn pagerank_step_counts_the_walk_and_the_three_vector_ops() {
        // 4 nodes, 6 links: 12 for the walk, 4 + 4 for the scalings, 4 for the add.
        assert_eq!(pagerank_iteration(4, 6), 24);
    }
}
