//! Sparsity statistics for DMac: per-matrix [`SparsityProfile`]s and
//! MatFast-style estimator propagation through a decomposed program.
//!
//! The paper's Table-2 cost model prices every acquisition as dense
//! `N·|A|` bytes, yet real workloads (powerlaw graphs, rating matrices)
//! are overwhelmingly sparse and the block layer already ships CSC-sized
//! payloads on the wire. This crate closes the gap on the *planning*
//! side: it measures an exact profile per input matrix (total nnz plus
//! per-block-row / per-block-column nnz vectors) and propagates estimated
//! profiles through every DSL operator, so the planner can cost
//! communication in predicted-nnz bytes with the dense formulas falling
//! out as the `density = 1.0` special case.
//!
//! # Estimator semantics (the documented contract)
//!
//! Every rule is an *estimate under stated assumptions*, not a bound,
//! except where noted. The independent verifier in `dmac-analyze`
//! re-derives exactly these formulas through a disjoint code path and
//! asserts byte-exact agreement, so the operation order below is pinned.
//!
//! * **Transpose** — exact: swap shape and swap the row/column vectors.
//! * **Scale, `+ 0.0`** — exact pass-through (scaling by zero is still
//!   estimated at the input's profile, mirroring the worst-case static
//!   estimator). A non-zero `add_scalar` densifies: the result profile
//!   is fully dense.
//! * **Add / Sub** — union upper bound: `nnz ≤ nnz(A) + nnz(B)`,
//!   saturating at `rows·cols`; per-strip vectors use the same rule
//!   capped at the strip capacity. Cancellation can only lower the true
//!   value, so this is a valid bound for the cell-wise sum rules.
//! * **CellMul / CellDiv** — intersection upper bound:
//!   `nnz ≤ min(nnz(A), nnz(B))`, per-strip `min` likewise. (Division
//!   follows the block kernels' `x/0 = 0` convention, so the bound
//!   holds for it too.)
//! * **MatMul** — *expectation*, not a bound (MatFast §estimation, under
//!   the independence assumption): for output strip `(i, j)` of an
//!   `(m×n)·(n×p)` product, take row-strip density `dA = row_nnz_A[i] /
//!   (r_i·n)`, column-strip density `dB = col_nnz_B[j] / (n·c_j)`, the
//!   probability a single `k`-term hits is `d = dA·dB`, and a cell of
//!   the strip is non-zero with probability `1 − (1 − d)^n`. Dense
//!   inputs give `d = 1` and reproduce `m·p` exactly. Because this is
//!   an expectation, observed nnz may exceed it; only the hard cap
//!   `nnz ≤ rows·cols` is guaranteed.
//! * **Sources** — `Load` uses the measured profile when one is
//!   available, else falls back to a uniform spread of the static
//!   estimate `ceil(rows·cols·sparsity)`; `Random` cells are dense by
//!   construction.

use std::collections::HashMap;

use dmac_lang::infer::MatrixStats;
use dmac_lang::{MatrixId, MatrixOrigin, OpKind, Program, ScalarExpr, UnaryOp};
use dmac_matrix::blocking::blocks_along;
use dmac_matrix::BlockedMatrix;

/// Coarse density classification of a (predicted or measured) profile.
///
/// The thresholds are the conventional sparse-kernel crossovers: below
/// 5% CSC-style formats win outright, above 50% dense storage wins, the
/// band between is format-ambiguous ("medium").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DensityClass {
    /// No non-zero cells at all.
    Empty,
    /// Density below 5%.
    Sparse,
    /// Density in `[5%, 50%)`.
    Medium,
    /// Density at or above 50%.
    Dense,
}

impl DensityClass {
    /// Classify `nnz` non-zeros in an `rows × cols` matrix.
    pub fn classify(nnz: u64, rows: usize, cols: usize) -> DensityClass {
        if nnz == 0 {
            return DensityClass::Empty;
        }
        let cells = rows as f64 * cols as f64;
        let d = if cells > 0.0 { nnz as f64 / cells } else { 0.0 };
        if d < 0.05 {
            DensityClass::Sparse
        } else if d < 0.5 {
            DensityClass::Medium
        } else {
            DensityClass::Dense
        }
    }

    /// Stable lower-case label (used in traces, reports, cache keys).
    pub fn as_str(self) -> &'static str {
        match self {
            DensityClass::Empty => "empty",
            DensityClass::Sparse => "sparse",
            DensityClass::Medium => "medium",
            DensityClass::Dense => "dense",
        }
    }
}

/// Sparsity profile of one matrix value: total nnz plus nnz per
/// block-row strip and per block-column strip at blocking `block`.
///
/// The strip vectors are `f64` because propagated profiles are
/// real-valued expectations; measured profiles hold exact integers.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityProfile {
    /// Rows of the matrix this profile describes.
    pub rows: usize,
    /// Columns of the matrix this profile describes.
    pub cols: usize,
    /// Blocking the strip vectors are expressed in.
    pub block: usize,
    /// Total (predicted or measured) non-zero count, capped at
    /// `rows·cols`.
    pub nnz: u64,
    /// Non-zeros per block-row strip; length `blocks_along(rows, block)`.
    pub row_nnz: Vec<f64>,
    /// Non-zeros per block-column strip; length `blocks_along(cols, block)`.
    pub col_nnz: Vec<f64>,
}

/// Length of strip `i` when `len` is cut into strips of `block`.
fn strip_len(len: usize, block: usize, i: usize) -> usize {
    (len - i * block).min(block)
}

impl SparsityProfile {
    /// Profile of a fully dense `rows × cols` matrix.
    pub fn dense(rows: usize, cols: usize, block: usize) -> SparsityProfile {
        let block = block.max(1);
        let row_nnz = (0..blocks_along(rows, block))
            .map(|i| (strip_len(rows, block, i) * cols) as f64)
            .collect();
        let col_nnz = (0..blocks_along(cols, block))
            .map(|j| (rows * strip_len(cols, block, j)) as f64)
            .collect();
        SparsityProfile {
            rows,
            cols,
            block,
            nnz: rows as u64 * cols as u64,
            row_nnz,
            col_nnz,
        }
    }

    /// Profile of an all-zero `rows × cols` matrix.
    pub fn empty(rows: usize, cols: usize, block: usize) -> SparsityProfile {
        let block = block.max(1);
        SparsityProfile {
            rows,
            cols,
            block,
            nnz: 0,
            row_nnz: vec![0.0; blocks_along(rows, block)],
            col_nnz: vec![0.0; blocks_along(cols, block)],
        }
    }

    /// Uniform fallback profile from static [`MatrixStats`]: the total
    /// is the static estimate `ceil(rows·cols·sparsity)` (so for dense
    /// stats it matches [`SparsityProfile::dense`] exactly) spread over
    /// the strips in proportion to their cell counts.
    pub fn from_stats(stats: MatrixStats, block: usize) -> SparsityProfile {
        let block = block.max(1);
        let (rows, cols) = (stats.rows, stats.cols);
        let cells = rows as f64 * cols as f64;
        let total = (cells * stats.sparsity).ceil();
        let nnz = (total as u64).min(rows as u64 * cols as u64);
        let row_nnz = (0..blocks_along(rows, block))
            .map(|i| {
                if rows == 0 {
                    0.0
                } else {
                    total * strip_len(rows, block, i) as f64 / rows as f64
                }
            })
            .collect();
        let col_nnz = (0..blocks_along(cols, block))
            .map(|j| {
                if cols == 0 {
                    0.0
                } else {
                    total * strip_len(cols, block, j) as f64 / cols as f64
                }
            })
            .collect();
        SparsityProfile {
            rows,
            cols,
            block,
            nnz,
            row_nnz,
            col_nnz,
        }
    }

    /// Measure the exact profile of a materialised blocked matrix.
    pub fn measure(m: &BlockedMatrix) -> SparsityProfile {
        let block = m.block_size().max(1);
        let mut p = SparsityProfile::empty(m.rows(), m.cols(), block);
        for (bi, bj, b) in m.iter_blocks() {
            let n = b.nnz() as u64;
            p.nnz += n;
            p.row_nnz[bi] += n as f64;
            p.col_nnz[bj] += n as f64;
        }
        p.nnz = p.nnz.min(m.rows() as u64 * m.cols() as u64);
        p
    }

    /// The profile of the transposed matrix (exact rule).
    pub fn transposed(&self) -> SparsityProfile {
        SparsityProfile {
            rows: self.cols,
            cols: self.rows,
            block: self.block,
            nnz: self.nnz,
            row_nnz: self.col_nnz.clone(),
            col_nnz: self.row_nnz.clone(),
        }
    }

    /// Fraction of non-zero cells in `[0, 1]`.
    pub fn density(&self) -> f64 {
        let cells = self.rows as f64 * self.cols as f64;
        if cells > 0.0 {
            (self.nnz as f64 / cells).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Density class of this profile.
    pub fn class(&self) -> DensityClass {
        DensityClass::classify(self.nnz, self.rows, self.cols)
    }

    /// Predicted payload bytes: 8 bytes per (estimated) non-zero — the
    /// nnz analogue of the static `est_bytes`, and equal to it for
    /// dense profiles.
    pub fn predicted_bytes(&self) -> u64 {
        8 * self.nnz
    }
}

/// Cell-wise sum rule (`Add` / `Sub`): union upper bound, saturating at
/// the matrix (and per-strip) capacity.
pub fn propagate_sum(a: &SparsityProfile, b: &SparsityProfile) -> SparsityProfile {
    debug_assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    let (rows, cols, block) = (a.rows, a.cols, a.block);
    let nnz = a.nnz.saturating_add(b.nnz).min(rows as u64 * cols as u64);
    let row_nnz = (0..a.row_nnz.len())
        .map(|i| {
            let cap = (strip_len(rows, block, i) * cols) as f64;
            (a.row_nnz[i] + b.row_nnz[i]).min(cap)
        })
        .collect();
    let col_nnz = (0..a.col_nnz.len())
        .map(|j| {
            let cap = (rows * strip_len(cols, block, j)) as f64;
            (a.col_nnz[j] + b.col_nnz[j]).min(cap)
        })
        .collect();
    SparsityProfile {
        rows,
        cols,
        block,
        nnz,
        row_nnz,
        col_nnz,
    }
}

/// Cell-wise product rule (`CellMul` / `CellDiv`): intersection upper
/// bound — element-wise `min` of the two profiles.
pub fn propagate_min(a: &SparsityProfile, b: &SparsityProfile) -> SparsityProfile {
    debug_assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    SparsityProfile {
        rows: a.rows,
        cols: a.cols,
        block: a.block,
        nnz: a.nnz.min(b.nnz),
        row_nnz: (0..a.row_nnz.len())
            .map(|i| a.row_nnz[i].min(b.row_nnz[i]))
            .collect(),
        col_nnz: (0..a.col_nnz.len())
            .map(|j| a.col_nnz[j].min(b.col_nnz[j]))
            .collect(),
    }
}

/// Matrix-multiplication rule (MatFast-style expectation under the
/// independence assumption). See the crate docs for the formula; the
/// f64 operation order here is pinned — the verifier re-derives it
/// byte-exactly.
pub fn propagate_matmul(a: &SparsityProfile, b: &SparsityProfile) -> SparsityProfile {
    debug_assert_eq!(a.cols, b.rows);
    let (m, n, p) = (a.rows, a.cols, b.cols);
    let block = a.block;
    let mut row_nnz = vec![0.0; blocks_along(m, block)];
    let mut col_nnz = vec![0.0; blocks_along(p, block)];
    let mut total = 0.0f64;
    for (i, acc_i) in row_nnz.iter_mut().enumerate() {
        let r_i = strip_len(m, block, i);
        let d_a = if r_i * n > 0 {
            a.row_nnz[i] / (r_i * n) as f64
        } else {
            0.0
        };
        for (j, acc_j) in col_nnz.iter_mut().enumerate() {
            let c_j = strip_len(p, block, j);
            let d_b = if n * c_j > 0 {
                b.col_nnz[j] / (n * c_j) as f64
            } else {
                0.0
            };
            let d = (d_a * d_b).clamp(0.0, 1.0);
            let p_ij = 1.0 - (1.0 - d).powi(n as i32);
            let e_ij = (r_i * c_j) as f64 * p_ij;
            *acc_i += e_ij;
            *acc_j += e_ij;
            total += e_ij;
        }
    }
    let nnz = (total.ceil() as u64).min(m as u64 * p as u64);
    SparsityProfile {
        rows: m,
        cols: p,
        block,
        nnz,
        row_nnz,
        col_nnz,
    }
}

/// Whether a unary operator densifies its output (a non-zero
/// `add_scalar`); mirrors the static estimator's condition exactly.
pub fn unary_densifies(op: &UnaryOp) -> bool {
    matches!(op, UnaryOp::AddScalar(s) if !matches!(s, ScalarExpr::Const(v) if *v == 0.0))
}

/// Propagate profiles through a whole program: one profile per declared
/// matrix, indexed by [`MatrixId`].
///
/// `sources` supplies measured profiles for `Load` inputs (missing
/// entries fall back to the uniform static estimate); `Random` inputs
/// are dense by construction; operator outputs follow the estimator
/// rules above. `block` is the blocking every profile is expressed in —
/// measured source profiles at a different blocking are re-spread
/// uniformly so strip vectors always line up.
pub fn propagate(
    program: &Program,
    sources: &HashMap<MatrixId, SparsityProfile>,
    block: usize,
) -> Vec<SparsityProfile> {
    let block = block.max(1);
    let mut profiles: Vec<SparsityProfile> = Vec::with_capacity(program.matrices().len());
    for decl in program.matrices() {
        let profile = match decl.origin {
            MatrixOrigin::Load => match sources.get(&decl.id) {
                Some(p) if p.block == block && (p.rows, p.cols) == decl.stats.shape() => p.clone(),
                Some(p) => {
                    // Rescale a measured total onto this blocking.
                    let stats = MatrixStats::new(decl.stats.rows, decl.stats.cols, p.density());
                    SparsityProfile::from_stats(stats, block)
                }
                None => SparsityProfile::from_stats(decl.stats, block),
            },
            MatrixOrigin::Random => SparsityProfile::dense(decl.stats.rows, decl.stats.cols, block),
            MatrixOrigin::Op(i) => {
                let op = &program.ops()[i];
                let input = |r: &dmac_lang::MatrixRef| -> SparsityProfile {
                    let p = &profiles[r.id as usize];
                    if r.transposed {
                        p.transposed()
                    } else {
                        p.clone()
                    }
                };
                match &op.kind {
                    OpKind::Binary { op, lhs, rhs } => {
                        let (a, b) = (input(lhs), input(rhs));
                        match op {
                            dmac_lang::BinOp::MatMul => propagate_matmul(&a, &b),
                            dmac_lang::BinOp::Add | dmac_lang::BinOp::Sub => propagate_sum(&a, &b),
                            dmac_lang::BinOp::CellMul | dmac_lang::BinOp::CellDiv => {
                                propagate_min(&a, &b)
                            }
                        }
                    }
                    OpKind::Unary { op, input: r } => {
                        let a = input(r);
                        if unary_densifies(op) {
                            SparsityProfile::dense(a.rows, a.cols, block)
                        } else {
                            a
                        }
                    }
                    // Reductions produce scalars, never a matrix decl.
                    OpKind::Reduce { .. } => {
                        SparsityProfile::empty(decl.stats.rows, decl.stats.cols, block)
                    }
                }
            }
        };
        debug_assert_eq!(profile.row_nnz.len(), blocks_along(profile.rows, block));
        debug_assert_eq!(profile.col_nnz.len(), blocks_along(profile.cols, block));
        profiles.push(profile);
    }
    profiles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse_matrix(rows: usize, cols: usize, block: usize, every: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, block, |i, j| {
            if (i * cols + j).is_multiple_of(every) {
                1.0
            } else {
                0.0
            }
        })
        .unwrap()
    }

    #[test]
    fn dense_profile_matches_static_estimate() {
        let p = SparsityProfile::dense(100, 60, 32);
        assert_eq!(p.nnz, 6000);
        assert_eq!(
            p.predicted_bytes(),
            MatrixStats::new(100, 60, 1.0).est_bytes()
        );
        assert_eq!(
            p.row_nnz,
            vec![32.0 * 60.0, 32.0 * 60.0, 32.0 * 60.0, 4.0 * 60.0]
        );
        assert_eq!(p.class(), DensityClass::Dense);
        // from_stats with sparsity 1.0 is the same profile.
        assert_eq!(
            SparsityProfile::from_stats(MatrixStats::new(100, 60, 1.0), 32),
            p
        );
    }

    #[test]
    fn measure_counts_exactly() {
        let m = sparse_matrix(40, 40, 16, 7);
        let p = SparsityProfile::measure(&m);
        assert_eq!(p.nnz, m.nnz() as u64);
        assert_eq!(p.row_nnz.iter().sum::<f64>(), p.nnz as f64);
        assert_eq!(p.col_nnz.iter().sum::<f64>(), p.nnz as f64);
        assert_eq!(p.block, 16);
        let zero = BlockedMatrix::zeros(8, 8, 4).unwrap();
        let pz = SparsityProfile::measure(&zero);
        assert_eq!(pz.nnz, 0);
        assert_eq!(pz.class(), DensityClass::Empty);
    }

    #[test]
    fn transpose_swaps_strips() {
        let m = sparse_matrix(24, 8, 8, 3);
        let p = SparsityProfile::measure(&m);
        let t = p.transposed();
        assert_eq!((t.rows, t.cols), (8, 24));
        assert_eq!(t.row_nnz, p.col_nnz);
        assert_eq!(t.col_nnz, p.row_nnz);
        assert_eq!(t.nnz, p.nnz);
        // Exact against a real transpose.
        assert_eq!(SparsityProfile::measure(&m.transpose()), t);
    }

    #[test]
    fn sum_and_min_rules_bound_reality() {
        let a = sparse_matrix(32, 32, 16, 3);
        let b = sparse_matrix(32, 32, 16, 5);
        let (pa, pb) = (SparsityProfile::measure(&a), SparsityProfile::measure(&b));
        let sum = propagate_sum(&pa, &pb);
        let min = propagate_min(&pa, &pb);
        assert!(a.add(&b).unwrap().nnz() as u64 <= sum.nnz);
        assert!(a.cell_mul(&b).unwrap().nnz() as u64 <= min.nnz);
        assert_eq!(min.nnz, pa.nnz.min(pb.nnz));
        // Dense + dense saturates at capacity.
        let d = SparsityProfile::dense(32, 32, 16);
        assert_eq!(propagate_sum(&d, &d), d);
    }

    #[test]
    fn matmul_rule_is_exact_for_dense_and_zero() {
        let a = SparsityProfile::dense(48, 20, 16);
        let b = SparsityProfile::dense(20, 36, 16);
        let c = propagate_matmul(&a, &b);
        assert_eq!(c.nnz, 48 * 36);
        assert_eq!(c, SparsityProfile::dense(48, 36, 16));
        let z = SparsityProfile::empty(48, 20, 16);
        assert_eq!(propagate_matmul(&z, &b).nnz, 0);
    }

    #[test]
    fn matmul_expectation_is_reasonable_for_sparse() {
        // 1% dense square inputs: expected output density
        // 1 - (1 - 1e-4)^128 ≈ 1.27% — far below dense.
        let s = SparsityProfile::from_stats(MatrixStats::new(128, 128, 0.01), 32);
        let c = propagate_matmul(&s, &s);
        assert!(c.nnz > 0);
        assert!(c.nnz < 128 * 128 / 10, "c.nnz = {}", c.nnz);
    }

    #[test]
    fn unary_densify_condition_mirrors_static_estimator() {
        assert!(!unary_densifies(&UnaryOp::Scale(ScalarExpr::c(0.0))));
        assert!(!unary_densifies(&UnaryOp::AddScalar(ScalarExpr::c(0.0))));
        assert!(unary_densifies(&UnaryOp::AddScalar(ScalarExpr::c(2.0))));
    }

    #[test]
    fn propagate_walks_a_whole_program() {
        let mut prog = Program::new();
        let l = prog.load("L", 64, 64, 0.02);
        let r = prog.random("r", 1, 64);
        let x = prog.matmul(r, l).unwrap();
        let y = prog.scale_const(x, 0.85).unwrap();
        let z = prog.add(y, prog.t(prog.t(y))).unwrap();
        prog.output(z);

        // Measured source profile for L.
        let lm = sparse_matrix(64, 64, 16, 50);
        let mut sources = HashMap::new();
        sources.insert(l.id, SparsityProfile::measure(&lm));
        let profiles = propagate(&prog, &sources, 16);
        assert_eq!(profiles.len(), prog.matrices().len());
        assert_eq!(profiles[l.id as usize].nnz, lm.nnz() as u64);
        assert_eq!(profiles[r.id as usize].nnz, 64);
        // Scale passes through.
        assert_eq!(profiles[y.id as usize], profiles[x.id as usize]);
        // Everything respects the hard cap.
        for (p, d) in profiles.iter().zip(prog.matrices()) {
            assert!(p.nnz <= d.stats.rows as u64 * d.stats.cols as u64);
            assert_eq!(p.row_nnz.len(), blocks_along(p.rows, 16));
        }
        assert_eq!(
            profiles[z.id as usize].nnz,
            propagate_sum(&profiles[y.id as usize], &profiles[y.id as usize],).nnz
        );
    }

    #[test]
    fn uniform_fallback_spreads_proportionally() {
        let p = SparsityProfile::from_stats(MatrixStats::new(100, 10, 0.1), 40);
        assert_eq!(p.nnz, 100);
        // Strips of 40/40/20 rows get 40/40/20 of the mass.
        assert_eq!(p.row_nnz, vec![40.0, 40.0, 20.0]);
    }

    #[test]
    fn measure_ignores_blocking_of_values() {
        // Same logical matrix, two blockings: same totals.
        let m1 = sparse_matrix(30, 30, 8, 4);
        let m2 = sparse_matrix(30, 30, 30, 4);
        assert_eq!(
            SparsityProfile::measure(&m1).nnz,
            SparsityProfile::measure(&m2).nnz
        );
    }
}
