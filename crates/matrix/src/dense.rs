//! Dense blocks: row-major `f64` tiles.
//!
//! A [`DenseBlock`] is the dense half of DMac's block representation
//! (paper §5.3): "a one-dimensional array is used for dense block". All
//! kernels are written as straightforward loops with cache-friendly
//! orderings (i-k-j for multiplication) rather than calling out to BLAS, so
//! the reproduction is self-contained.

use crate::error::{MatrixError, Result};
use crate::mem;

/// A dense `rows × cols` tile stored row-major in a single `Vec<f64>`.
#[derive(Debug, PartialEq)]
pub struct DenseBlock {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseBlock {
    /// Create a zero-filled block. Registers the allocation with the global
    /// memory tracker.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        mem::track_alloc(rows * cols * 8);
        DenseBlock {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create a block from row-major data.
    ///
    /// # Errors
    /// Returns [`MatrixError::DimensionMismatch`] if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::DimensionMismatch {
                op: "from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        mem::track_alloc(data.capacity() * 8);
        Ok(DenseBlock { rows, cols, data })
    }

    /// Build a block by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        mem::track_alloc(data.capacity() * 8);
        DenseBlock { rows, cols, data }
    }

    /// Identity-like block: ones on the diagonal, zeros elsewhere.
    pub fn eye(n: usize) -> Self {
        Self::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the row-major backing storage.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the row-major backing storage.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access (checked).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                dims: (self.rows, self.cols),
            });
        }
        Ok(self.data[i * self.cols + j])
    }

    /// Element access (unchecked in release; debug-asserted).
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Set an element (checked).
    pub fn set(&mut self, i: usize, j: usize, v: f64) -> Result<()> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                dims: (self.rows, self.cols),
            });
        }
        self.data[i * self.cols + j] = v;
        Ok(())
    }

    /// Number of stored (i.e. all) cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the block has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Count of non-zero entries (exact).
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|v| **v != 0.0).count()
    }

    /// Bytes of payload this block occupies in memory (`8·m·n`); the paper's
    /// analytical model (§5.3) charges `4·m·n` because it assumes 4-byte
    /// floats — see [`crate::blocking::model_dense_bytes`] for the paper's
    /// formula used in the Figure 8(b) analytics.
    pub fn actual_bytes(&self) -> usize {
        self.data.len() * 8
    }

    /// `self · other`, dense × dense, i-k-j loop order.
    pub fn matmul(&self, other: &DenseBlock) -> Result<DenseBlock> {
        if self.cols != other.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = DenseBlock::zeros(self.rows, other.cols);
        self.matmul_acc(other, &mut out)?;
        Ok(out)
    }

    /// `acc += self · other` — the In-Place building block: no intermediate
    /// allocation, results folded straight into the caller-owned block.
    pub fn matmul_acc(&self, other: &DenseBlock, acc: &mut DenseBlock) -> Result<()> {
        self.check_acc(other, (acc.rows, acc.cols))?;
        self.matmul_band(other, &mut acc.data, 0..self.rows, false);
        Ok(())
    }

    /// The shape rule of `acc += self · other` for an accumulator of
    /// `acc` rows × columns.
    pub(crate) fn check_acc(&self, other: &DenseBlock, acc: (usize, usize)) -> Result<()> {
        if self.cols != other.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        if acc != (self.rows, other.cols) {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply-acc",
                left: acc,
                right: (self.rows, other.cols),
            });
        }
        Ok(())
    }

    /// The one dense i-k-j loop: `band += self[rows, ·] · other`, where
    /// `band` holds the accumulator's rows `rows` (row-major,
    /// `other.cols()` wide). With `upper` only the cells with `j ≥ i` are
    /// computed — the triangle of a symmetric product, which
    /// [`DenseBlock::mirror_upper`] completes. Shapes are the caller's to
    /// check ([`DenseBlock::check_acc`]).
    pub(crate) fn matmul_band(
        &self,
        other: &DenseBlock,
        band: &mut [f64],
        rows: std::ops::Range<usize>,
        upper: bool,
    ) {
        // Cache-blocked i-k-j: the k×j panel of `other` touched by the two
        // inner loops is capped at KC×NC cells (256 KiB of f64, L2-resident)
        // so it is reused across the whole i sweep instead of being
        // re-streamed from memory for every row. Within one (i, j) cell the
        // k loop still visits ascending k — panels ascend and k ascends
        // inside a panel — so the f64 accumulation order (and the result
        // bit pattern) is identical to the naïve i-k-j loop, whichever
        // rows and columns a call covers.
        const KC: usize = 64;
        const NC: usize = 512;
        let n = other.cols;
        for k0 in (0..self.cols).step_by(KC) {
            let k1 = (k0 + KC).min(self.cols);
            for j0 in (0..n).step_by(NC) {
                let j1 = (j0 + NC).min(n);
                for i in rows.clone() {
                    let jf = if upper { j0.max(i) } else { j0 };
                    if jf >= j1 {
                        continue;
                    }
                    let arow = &self.data[i * self.cols + k0..i * self.cols + k1];
                    let c0 = (i - rows.start) * n;
                    let crow = &mut band[c0 + jf..c0 + j1];
                    for (dk, &aik) in arow.iter().enumerate() {
                        if aik == 0.0 {
                            continue;
                        }
                        let k = k0 + dk;
                        let brow = &other.data[k * n + jf..k * n + j1];
                        for (c, &b) in crow.iter_mut().zip(brow.iter()) {
                            *c += aik * b;
                        }
                    }
                }
            }
        }
    }

    /// Whether `self · other` is symmetric by construction: `self` finite
    /// and bit-equal to `other`'s transpose. Stops at the first cell that
    /// differs.
    pub(crate) fn is_finite_transpose_of(&self, other: &DenseBlock) -> bool {
        (self.rows, self.cols) == (other.cols, other.rows)
            && (0..self.rows).all(|i| {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                row.iter()
                    .enumerate()
                    .all(|(k, v)| v.to_bits() == other.data[k * other.cols + i].to_bits())
            })
            && self.data.iter().all(|v| v.is_finite())
    }

    /// Copy the cells above the diagonal of a square block onto those below.
    pub(crate) fn mirror_upper(&mut self) {
        let n = self.cols;
        for i in 1..self.rows {
            for j in 0..i {
                self.data[i * n + j] = self.data[j * n + i];
            }
        }
    }

    /// Element-wise combine with another block of identical shape.
    pub fn zip_with(
        &self,
        other: &DenseBlock,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<DenseBlock> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MatrixError::DimensionMismatch {
                op,
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        DenseBlock::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise addition.
    pub fn add(&self, other: &DenseBlock) -> Result<DenseBlock> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    pub fn sub(&self, other: &DenseBlock) -> Result<DenseBlock> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Cell-wise (Hadamard) multiplication.
    pub fn cell_mul(&self, other: &DenseBlock) -> Result<DenseBlock> {
        self.zip_with(other, "cell_mul", |a, b| a * b)
    }

    /// Cell-wise division. Division by zero yields `0.0`, matching the
    /// GNMF-style update conventions (a zero denominator means a zero
    /// numerator in well-formed factorization updates).
    pub fn cell_div(&self, other: &DenseBlock) -> Result<DenseBlock> {
        self.zip_with(other, "cell_div", |a, b| if b == 0.0 { 0.0 } else { a / b })
    }

    /// Map every element through `f`.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> DenseBlock {
        let data = self.data.iter().map(|&v| f(v)).collect();
        DenseBlock::from_vec(self.rows, self.cols, data).expect("same shape")
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, c: f64) -> DenseBlock {
        self.map(|v| v * c)
    }

    /// Add a scalar to every element.
    pub fn add_scalar(&self, c: f64) -> DenseBlock {
        self.map(|v| v + c)
    }

    /// In-place `self += other` (same shape).
    pub fn add_assign(&mut self, other: &DenseBlock) -> Result<()> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "add_assign",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseBlock {
        // TILE×TILE squares (8 f64 = one cache line a side): a row sweep of
        // the plain double loop stores at a stride of `rows` cells, which
        // for power-of-two shapes lands on a handful of cache sets and
        // evicts every line before its next use. A square keeps its TILE
        // source and TILE destination lines live until it is done.
        const TILE: usize = 8;
        let (m, n) = (self.rows, self.cols);
        let mut out = DenseBlock::zeros(n, m);
        for i0 in (0..m).step_by(TILE) {
            let i1 = (i0 + TILE).min(m);
            for j0 in (0..n).step_by(TILE) {
                let j1 = (j0 + TILE).min(n);
                for i in i0..i1 {
                    let src = &self.data[i * n + j0..i * n + j1];
                    for (j, &v) in (j0..j1).zip(src) {
                        out.data[j * m + i] = v;
                    }
                }
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Sum of squares (for norms computed across blocks).
    pub fn sum_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Reset all cells to zero, keeping the allocation (used by the result
    /// buffer pool when recycling blocks between tasks).
    pub fn clear(&mut self) {
        for v in &mut self.data {
            *v = 0.0;
        }
    }

    /// Reshape the block in place to `rows × cols`, reusing the allocation
    /// when capacity allows. Contents are zeroed.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) {
        // `Drop` frees `capacity`, so charge what the capacity grew by —
        // not the distance from `len`, which a shrink-then-regrow inside the
        // same allocation would be billed for without allocating anything.
        let before = self.data.capacity();
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        mem::track_alloc((self.data.capacity() - before) * 8);
        self.rows = rows;
        self.cols = cols;
    }
}

/// A copy is a block of its own to the memory tracker: it is charged here
/// because it will be freed by [`Drop`] like any other.
impl Clone for DenseBlock {
    fn clone(&self) -> Self {
        let data = self.data.clone();
        mem::track_alloc(data.capacity() * 8);
        DenseBlock {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Drop for DenseBlock {
    fn drop(&mut self) {
        mem::track_free(self.data.capacity() * 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(rows: usize, cols: usize, v: &[f64]) -> DenseBlock {
        DenseBlock::from_vec(rows, cols, v.to_vec()).unwrap()
    }

    #[test]
    fn zeros_and_accessors() {
        let z = DenseBlock::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert_eq!(z.len(), 6);
        assert!(!z.is_empty());
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.get(1, 2).unwrap(), 0.0);
        assert!(z.get(2, 0).is_err());
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(DenseBlock::from_vec(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn matmul_small_known_answer() {
        let a = b(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = b(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&x).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_dim_mismatch() {
        let a = DenseBlock::zeros(2, 3);
        let x = DenseBlock::zeros(2, 3);
        assert!(matches!(
            a.matmul(&x),
            Err(MatrixError::DimensionMismatch { op: "multiply", .. })
        ));
    }

    #[test]
    fn matmul_acc_accumulates() {
        let a = DenseBlock::eye(2);
        let x = b(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let mut acc = b(2, 2, &[10.0, 10.0, 10.0, 10.0]);
        a.matmul_acc(&x, &mut acc).unwrap();
        assert_eq!(acc.data(), &[11.0, 12.0, 13.0, 14.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = b(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let c = b(2, 2, &[4.0, 3.0, 2.0, 0.0]);
        assert_eq!(a.add(&c).unwrap().data(), &[5.0, 5.0, 5.0, 4.0]);
        assert_eq!(a.sub(&c).unwrap().data(), &[-3.0, -1.0, 1.0, 4.0]);
        assert_eq!(a.cell_mul(&c).unwrap().data(), &[4.0, 6.0, 6.0, 0.0]);
        // division by zero yields zero by convention
        assert_eq!(a.cell_div(&c).unwrap().data(), &[0.25, 2.0 / 3.0, 1.5, 0.0]);
    }

    #[test]
    fn scalar_ops_and_reductions() {
        let a = b(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(a.sum(), 10.0);
        assert_eq!(a.sum_sq(), 30.0);
    }

    #[test]
    fn transpose_round_trip() {
        let a = b(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.at(0, 1), 4.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn reset_shape_reuses_allocation() {
        let mut a = DenseBlock::zeros(4, 4);
        a.set(0, 0, 5.0).unwrap();
        a.reset_shape(2, 2);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    fn zip_with_shape_mismatch() {
        let a = DenseBlock::zeros(2, 2);
        let c = DenseBlock::zeros(2, 3);
        assert!(a.add(&c).is_err());
    }
}
