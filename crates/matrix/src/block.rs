//! [`Block`]: the tagged dense/sparse tile the whole system computes on.
//!
//! DMac keeps most blocks of a sparse input matrix sparse (CSC) and promotes
//! to dense where an operation fills the tile in (e.g. products of factor
//! matrices in GNMF). `Block` centralises that dispatch so the executors and
//! the distributed runtime never care which representation a tile uses.

use crate::csc::CscBlock;
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};

/// Density threshold above which [`Block::compact`] converts a sparse block
/// to dense (CSC stores 12 bytes per item vs. 8 per dense cell, so the
/// break-even is 2/3; we use 0.5 to also buy the faster dense kernels).
pub const DENSIFY_THRESHOLD: f64 = 0.5;

/// A single tile of a blocked matrix: dense or CSC-sparse.
#[derive(Debug, Clone, PartialEq)]
pub enum Block {
    /// Dense row-major tile.
    Dense(DenseBlock),
    /// Sparse CSC tile.
    Sparse(CscBlock),
}

impl Block {
    /// A zero tile, represented sparsely (zero storage for items).
    pub fn zeros(rows: usize, cols: usize) -> Block {
        Block::Sparse(CscBlock::zeros(rows, cols))
    }

    /// A zero tile, represented densely (for accumulation targets).
    pub fn dense_zeros(rows: usize, cols: usize) -> Block {
        Block::Dense(DenseBlock::zeros(rows, cols))
    }

    /// Rows of the tile.
    pub fn rows(&self) -> usize {
        match self {
            Block::Dense(d) => d.rows(),
            Block::Sparse(s) => s.rows(),
        }
    }

    /// Columns of the tile.
    pub fn cols(&self) -> usize {
        match self {
            Block::Dense(d) => d.cols(),
            Block::Sparse(s) => s.cols(),
        }
    }

    /// Exact number of non-zero cells.
    pub fn nnz(&self) -> usize {
        match self {
            Block::Dense(d) => d.nnz(),
            Block::Sparse(s) => s.nnz(),
        }
    }

    /// True when no cell is non-zero — `nnz() == 0` without the full count:
    /// CSC answers from its item array's length, dense stops at the first
    /// non-zero cell.
    pub fn is_all_zero(&self) -> bool {
        match self {
            Block::Dense(d) => d.data().iter().all(|v| *v == 0.0),
            Block::Sparse(s) => s.values().is_empty(),
        }
    }

    /// Exact equality: same shape, same representation, every stored value
    /// equal by [`f64::to_bits`] — so `-0.0` is not `0.0` and a NaN equals
    /// only its own payload. This is what "the same tile" means to a
    /// bit-exact system; `==` is too loose. Stops at the first difference.
    pub fn bits_eq(&self, other: &Block) -> bool {
        match (self, other) {
            (Block::Dense(a), Block::Dense(b)) => {
                (a.rows(), a.cols()) == (b.rows(), b.cols())
                    && (a.data().iter().zip(b.data())).all(|(x, y)| x.to_bits() == y.to_bits())
            }
            (Block::Sparse(a), Block::Sparse(b)) => a.bits_eq(b),
            _ => false,
        }
    }

    /// True if stored sparsely.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Block::Sparse(_))
    }

    /// Checked element access.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        match self {
            Block::Dense(d) => d.get(i, j),
            Block::Sparse(s) => s.get(i, j),
        }
    }

    /// Bytes of the arrays this tile holds in memory with its current
    /// representation: `8·rows·cols` dense, [`CscBlock::actual_bytes`]
    /// sparse (which for a near-empty tile is less than Figure 5's
    /// `4(n + 1) + 12·nnz`). This is what the cluster's communication meter
    /// and the residency ledger count; the exact frame size of a tile on a
    /// socket is `binfmt::tile_wire_len`, defined over the logical format.
    pub fn actual_bytes(&self) -> usize {
        match self {
            Block::Dense(d) => d.actual_bytes(),
            Block::Sparse(s) => s.actual_bytes(),
        }
    }

    /// View as dense, converting if necessary.
    pub fn to_dense(&self) -> DenseBlock {
        match self {
            Block::Dense(d) => d.clone(),
            Block::Sparse(s) => s.to_dense(),
        }
    }

    /// Pick the cheaper representation for this tile's density: sparse tiles
    /// denser than [`DENSIFY_THRESHOLD`] become dense; dense tiles sparser
    /// than half of it become sparse.
    pub fn compact(self) -> Block {
        let total = (self.rows() * self.cols()).max(1);
        let density = self.nnz() as f64 / total as f64;
        match self {
            Block::Sparse(s) if density > DENSIFY_THRESHOLD => Block::Dense(s.to_dense()),
            Block::Dense(ref d) if density < DENSIFY_THRESHOLD / 2.0 => {
                Block::Sparse(CscBlock::from_dense(d))
            }
            other => other,
        }
    }

    /// `acc += self · other` dispatching over all four representation
    /// combinations. The accumulator is always dense (the In-Place strategy
    /// needs a mutable random-access target).
    pub fn matmul_acc(&self, other: &Block, acc: &mut DenseBlock) -> Result<()> {
        match (self, other) {
            (Block::Dense(a), Block::Dense(b)) => a.matmul_acc(b, acc),
            (Block::Sparse(a), Block::Dense(b)) => a.matmul_dense_acc(b, acc),
            (Block::Dense(a), Block::Sparse(b)) => b.rmatmul_dense_acc(a, acc),
            (Block::Sparse(a), Block::Sparse(b)) => a.matmul_sparse_acc(b, acc),
        }
    }

    /// Element-wise binary operation; result is dense unless both operands
    /// are sparse and the op preserves zero-zero (add/sub do; mul does with
    /// an intersection, div does not — for simplicity results of sparse
    /// pairs for add/sub/mul stay sparse via triplet merge).
    fn zip(&self, other: &Block, op: &'static str, f: impl Fn(f64, f64) -> f64) -> Result<Block> {
        if self.rows() != other.rows() || self.cols() != other.cols() {
            return Err(MatrixError::DimensionMismatch {
                op,
                left: (self.rows(), self.cols()),
                right: (other.rows(), other.cols()),
            });
        }
        match (self, other) {
            (Block::Sparse(a), Block::Sparse(b)) if op != "cell_div" => {
                // Merge stored items; f must map (0,0) -> 0 for this to be
                // sound, which holds for add/sub/cell_mul.
                let mut trips = Vec::with_capacity(a.nnz() + b.nnz());
                for (j, ra, rb) in merge_by_key(a.columns(), b.columns()) {
                    let items_a = a.items(ra.unwrap_or(0..0));
                    let items_b = b.items(rb.unwrap_or(0..0));
                    for (i, va, vb) in merge_by_key(items_a, items_b) {
                        trips.push((i, j, f(va.unwrap_or(0.0), vb.unwrap_or(0.0))));
                    }
                }
                Ok(Block::Sparse(CscBlock::from_triplets(
                    a.rows(),
                    a.cols(),
                    trips,
                )?))
            }
            _ => {
                let a = self.to_dense();
                let b = other.to_dense();
                Ok(Block::Dense(a.zip_with(&b, op, f)?))
            }
        }
    }

    /// Element-wise addition.
    pub fn add(&self, other: &Block) -> Result<Block> {
        self.zip(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &Block) -> Result<Block> {
        self.zip(other, "sub", |a, b| a - b)
    }

    /// Cell-wise multiplication.
    pub fn cell_mul(&self, other: &Block) -> Result<Block> {
        self.zip(other, "cell_mul", |a, b| a * b)
    }

    /// Cell-wise division (zero divisor yields zero, see
    /// [`DenseBlock::cell_div`]).
    pub fn cell_div(&self, other: &Block) -> Result<Block> {
        self.zip(other, "cell_div", |a, b| if b == 0.0 { 0.0 } else { a / b })
    }

    /// Scale by a constant (keeps representation).
    pub fn scale(&self, c: f64) -> Block {
        match self {
            Block::Dense(d) => Block::Dense(d.scale(c)),
            Block::Sparse(s) => Block::Sparse(s.scale(c)),
        }
    }

    /// Add a constant to every cell. Forces dense unless `c == 0`.
    pub fn add_scalar(&self, c: f64) -> Block {
        if c == 0.0 {
            return self.clone();
        }
        Block::Dense(self.to_dense().add_scalar(c))
    }

    /// Map every (stored and implicit-zero) cell through `f`; keeps sparsity
    /// only if `f(0) == 0`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Block {
        if f(0.0) == 0.0 {
            match self {
                Block::Dense(d) => Block::Dense(d.map(&f)),
                Block::Sparse(s) => Block::Sparse(s.map_values(&f)),
            }
        } else {
            Block::Dense(self.to_dense().map(&f))
        }
    }

    /// Transposed copy (keeps representation).
    pub fn transpose(&self) -> Block {
        match self {
            Block::Dense(d) => Block::Dense(d.transpose()),
            Block::Sparse(s) => Block::Sparse(s.transpose()),
        }
    }

    /// Sum of all cells.
    pub fn sum(&self) -> f64 {
        match self {
            Block::Dense(d) => d.sum(),
            Block::Sparse(s) => s.sum(),
        }
    }

    /// Sum of squares of all cells.
    pub fn sum_sq(&self) -> f64 {
        match self {
            Block::Dense(d) => d.sum_sq(),
            Block::Sparse(s) => s.sum_sq(),
        }
    }
}

/// Merge two streams ascending in their key: every key either holds, once,
/// with what each side has for it.
fn merge_by_key<K: Ord + Copy, A, B>(
    a: impl Iterator<Item = (K, A)>,
    b: impl Iterator<Item = (K, B)>,
) -> impl Iterator<Item = (K, Option<A>, Option<B>)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || {
        let k = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => x.0.min(y.0),
            (Some(x), None) => x.0,
            (None, Some(y)) => y.0,
            (None, None) => return None,
        };
        let at_k = a.next_if(|x| x.0 == k).map(|x| x.1);
        Some((k, at_k, b.next_if(|y| y.0 == k).map(|y| y.1)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, v: &[f64]) -> Block {
        Block::Dense(DenseBlock::from_vec(rows, cols, v.to_vec()).unwrap())
    }

    fn sparse(rows: usize, cols: usize, t: &[(usize, usize, f64)]) -> Block {
        Block::Sparse(CscBlock::from_triplets(rows, cols, t.to_vec()).unwrap())
    }

    #[test]
    fn mixed_matmul_all_combinations_agree() {
        let ad = dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let as_ = sparse(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]);
        let bd = dense(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let bs = Block::Sparse(CscBlock::from_dense(&bd.to_dense()));
        let expect = ad.to_dense().matmul(&bd.to_dense()).unwrap();
        for a in [&ad, &as_] {
            for b in [&bd, &bs] {
                let mut acc = DenseBlock::zeros(2, 2);
                a.matmul_acc(b, &mut acc).unwrap();
                assert_eq!(acc, expect, "combination failed");
            }
        }
    }

    #[test]
    fn is_all_zero_agrees_with_nnz() {
        let cases = [
            Block::zeros(2, 3),
            Block::dense_zeros(2, 3),
            dense(1, 3, &[0.0, -0.0, 0.0]),
            dense(1, 3, &[0.0, 0.0, 1.0]),
            dense(1, 2, &[f64::NAN, 0.0]),
            sparse(2, 2, &[(1, 1, 4.0)]),
            Block::zeros(0, 0),
        ];
        for b in &cases {
            assert_eq!(b.is_all_zero(), b.nnz() == 0, "{b:?}");
        }
    }

    #[test]
    fn bits_eq_is_stricter_than_eq() {
        let a = dense(1, 2, &[0.0, 1.0]);
        assert!(a.bits_eq(&a.clone()));
        // `==` calls these equal; the bits differ.
        let neg = dense(1, 2, &[-0.0, 1.0]);
        assert_eq!(a, neg);
        assert!(!a.bits_eq(&neg));
        // `==` calls a NaN unequal to itself; the bits agree.
        let nan = dense(1, 1, &[f64::NAN]);
        assert_ne!(nan, nan.clone());
        assert!(nan.bits_eq(&nan.clone()));
        let other_nan = dense(1, 1, &[f64::from_bits(f64::NAN.to_bits() ^ 1)]);
        assert!(!nan.bits_eq(&other_nan));
        // Same cells, other representation or other shape.
        let s = sparse(1, 2, &[(0, 1, 1.0)]);
        assert!(!a.bits_eq(&s) && !s.bits_eq(&a));
        assert!(s.bits_eq(&sparse(1, 2, &[(0, 1, 1.0)])));
        assert!(!s.bits_eq(&sparse(1, 2, &[(0, 0, 1.0)])));
        assert!(!dense(1, 2, &[0.0; 2]).bits_eq(&dense(2, 1, &[0.0; 2])));
        assert!(!Block::zeros(1, 2).bits_eq(&Block::zeros(2, 2)));
    }

    #[test]
    fn sparse_add_stays_sparse() {
        let a = sparse(3, 3, &[(0, 0, 1.0), (2, 2, 2.0)]);
        let b = sparse(3, 3, &[(0, 0, -1.0), (1, 1, 5.0)]);
        let c = a.add(&b).unwrap();
        assert!(c.is_sparse());
        assert_eq!(c.get(0, 0).unwrap(), 0.0);
        assert_eq!(c.get(1, 1).unwrap(), 5.0);
        assert_eq!(c.get(2, 2).unwrap(), 2.0);
        // cancelled cell dropped from storage
        assert_eq!(c.nnz(), 2);
    }

    #[test]
    fn sparse_sub_and_cellmul() {
        let a = sparse(2, 2, &[(0, 0, 3.0), (1, 1, 4.0)]);
        let b = sparse(2, 2, &[(0, 0, 1.0), (0, 1, 9.0)]);
        let s = a.sub(&b).unwrap();
        assert_eq!(s.get(0, 0).unwrap(), 2.0);
        assert_eq!(s.get(0, 1).unwrap(), -9.0);
        let m = a.cell_mul(&b).unwrap();
        assert_eq!(m.get(0, 0).unwrap(), 3.0);
        assert_eq!(m.get(0, 1).unwrap(), 0.0);
        assert_eq!(m.get(1, 1).unwrap(), 0.0);
    }

    #[test]
    fn cell_div_mixed_goes_dense() {
        let a = sparse(2, 2, &[(0, 0, 4.0)]);
        let b = dense(2, 2, &[2.0, 1.0, 1.0, 0.0]);
        let c = a.cell_div(&b).unwrap();
        assert!(!c.is_sparse());
        assert_eq!(c.get(0, 0).unwrap(), 2.0);
        assert_eq!(c.get(1, 1).unwrap(), 0.0); // 0/0 -> 0 by convention
    }

    #[test]
    fn compact_densifies_and_sparsifies() {
        // fully dense sparse block -> dense
        let full = sparse(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
        assert!(!full.compact().is_sparse());
        // nearly-empty dense block -> sparse
        let mut d = DenseBlock::zeros(10, 10);
        d.set(0, 0, 1.0).unwrap();
        assert!(Block::Dense(d).compact().is_sparse());
    }

    #[test]
    fn transpose_and_reductions() {
        let a = sparse(2, 3, &[(0, 2, 5.0), (1, 0, -1.0)]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 0).unwrap(), 5.0);
        assert_eq!(a.sum(), 4.0);
        assert_eq!(a.sum_sq(), 26.0);
    }

    #[test]
    fn map_respects_zero_preservation() {
        let a = sparse(2, 2, &[(0, 0, 2.0)]);
        let doubled = a.map(|v| v * 2.0);
        assert!(doubled.is_sparse());
        let shifted = a.map(|v| v + 1.0);
        assert!(!shifted.is_sparse());
        assert_eq!(shifted.get(1, 1).unwrap(), 1.0);
    }

    #[test]
    fn scale_and_add_scalar() {
        let a = dense(1, 2, &[1.0, 2.0]);
        assert_eq!(a.scale(3.0).get(0, 1).unwrap(), 6.0);
        assert_eq!(a.add_scalar(1.0).get(0, 0).unwrap(), 2.0);
        let s = sparse(1, 2, &[(0, 0, 1.0)]);
        assert!(s.add_scalar(0.0).is_sparse());
    }

    #[test]
    fn dimension_mismatch_errors() {
        let a = Block::zeros(2, 2);
        let b = Block::zeros(3, 3);
        assert!(a.add(&b).is_err());
        let mut acc = DenseBlock::zeros(2, 2);
        assert!(a.matmul_acc(&b, &mut acc).is_err());
    }
}
