//! Sparse blocks in Compressed Sparse Column (CSC) format.
//!
//! This is the representation of paper Figure 5: a *value* array holding the
//! non-zero items, a *row index* array with the row of each item, and a
//! *column start index* array whose `j`-th entry is the offset of the first
//! item of column `j` (with a final sentinel equal to `nnz`).
//!
//! The paper's memory model charges `4n + 8mns` bytes for an `m × n` block
//! of sparsity `s` (4-byte column pointers and 8 bytes per stored item); our
//! physical layout uses `u32` pointers/indices and `f64` values, and
//! [`CscBlock::actual_bytes`] reports the real footprint while
//! [`crate::blocking`] exposes the paper's analytical formula.

use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};
use crate::mem;

/// A sparse `rows × cols` tile in CSC format.
#[derive(Debug, Clone, PartialEq)]
pub struct CscBlock {
    rows: usize,
    cols: usize,
    /// `col_ptr[j] .. col_ptr[j+1]` indexes the items of column `j`.
    col_ptr: Vec<u32>,
    /// Row index of each stored item, grouped by column, ascending per column.
    row_idx: Vec<u32>,
    /// The stored item values.
    values: Vec<f64>,
}

impl CscBlock {
    /// An empty (all-zero) sparse block.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        mem::track_alloc((cols + 1) * 4);
        CscBlock {
            rows,
            cols,
            col_ptr: vec![0; cols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from raw CSC arrays, validating every invariant.
    ///
    /// # Errors
    /// [`MatrixError::MalformedSparse`] when the arrays are inconsistent
    /// (wrong pointer length, non-monotone pointers, out-of-range or
    /// unsorted row indices, length mismatch).
    pub fn from_csc(
        rows: usize,
        cols: usize,
        col_ptr: Vec<u32>,
        row_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if col_ptr.len() != cols + 1 {
            return Err(MatrixError::MalformedSparse(format!(
                "col_ptr length {} != cols+1 = {}",
                col_ptr.len(),
                cols + 1
            )));
        }
        if row_idx.len() != values.len() {
            return Err(MatrixError::MalformedSparse(format!(
                "row_idx length {} != values length {}",
                row_idx.len(),
                values.len()
            )));
        }
        if col_ptr[0] != 0 || *col_ptr.last().unwrap() as usize != values.len() {
            return Err(MatrixError::MalformedSparse(
                "col_ptr must start at 0 and end at nnz".into(),
            ));
        }
        for j in 0..cols {
            if col_ptr[j] > col_ptr[j + 1] {
                return Err(MatrixError::MalformedSparse(format!(
                    "col_ptr not monotone at column {j}"
                )));
            }
            let lo = col_ptr[j] as usize;
            let hi = col_ptr[j + 1] as usize;
            for t in lo..hi {
                if row_idx[t] as usize >= rows {
                    return Err(MatrixError::MalformedSparse(format!(
                        "row index {} out of range in column {j}",
                        row_idx[t]
                    )));
                }
                if t > lo && row_idx[t] <= row_idx[t - 1] {
                    return Err(MatrixError::MalformedSparse(format!(
                        "row indices not strictly ascending in column {j}"
                    )));
                }
            }
        }
        mem::track_alloc(col_ptr.len() * 4 + row_idx.len() * 4 + values.len() * 8);
        Ok(CscBlock {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Build from `(row, col, value)` triplets (any order; duplicates summed).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        let mut per_col: Vec<Vec<(u32, f64)>> = vec![Vec::new(); cols];
        for (i, j, v) in triplets {
            if i >= rows || j >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (i, j),
                    dims: (rows, cols),
                });
            }
            if v != 0.0 {
                per_col[j].push((i as u32, v));
            }
        }
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0u32);
        for col in per_col.iter_mut() {
            col.sort_unstable_by_key(|(i, _)| *i);
            let mut k = 0;
            while k < col.len() {
                let (i, mut v) = col[k];
                let mut k2 = k + 1;
                while k2 < col.len() && col[k2].0 == i {
                    v += col[k2].1;
                    k2 += 1;
                }
                if v != 0.0 {
                    row_idx.push(i);
                    values.push(v);
                }
                k = k2;
            }
            col_ptr.push(values.len() as u32);
        }
        mem::track_alloc(col_ptr.len() * 4 + row_idx.len() * 4 + values.len() * 8);
        Ok(CscBlock {
            rows,
            cols,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Convert a dense block into CSC, dropping zeros.
    pub fn from_dense(d: &DenseBlock) -> Self {
        let mut col_ptr = Vec::with_capacity(d.cols() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0u32);
        for j in 0..d.cols() {
            for i in 0..d.rows() {
                let v = d.at(i, j);
                if v != 0.0 {
                    row_idx.push(i as u32);
                    values.push(v);
                }
            }
            col_ptr.push(values.len() as u32);
        }
        mem::track_alloc(col_ptr.len() * 4 + row_idx.len() * 4 + values.len() * 8);
        CscBlock {
            rows: d.rows(),
            cols: d.cols(),
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Materialise as a dense block.
    pub fn to_dense(&self) -> DenseBlock {
        let mut out = DenseBlock::zeros(self.rows, self.cols);
        for j in 0..self.cols {
            for t in self.col_range(j) {
                let i = self.row_idx[t] as usize;
                out.data_mut()[i * self.cols + j] = self.values[t];
            }
        }
        out
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

    /// Number of stored non-zero items.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Fraction of cells that are non-zero.
    pub fn sparsity(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows * self.cols) as f64
        }
    }

    /// Item range of column `j` into [`Self::row_indices`]/[`Self::values`].
    #[inline]
    pub fn col_range(&self, j: usize) -> std::ops::Range<usize> {
        self.col_ptr[j] as usize..self.col_ptr[j + 1] as usize
    }

    /// Column `j`'s stored `(row, value)` items, in stored order.
    #[inline]
    fn col_items(&self, j: usize) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        let r = self.col_range(j);
        self.row_idx[r.clone()]
            .iter()
            .zip(&self.values[r])
            .map(|(&i, &v)| (i as usize, v))
    }

    /// The column-start-index array (length `cols + 1`).
    #[inline]
    pub fn col_ptrs(&self) -> &[u32] {
        &self.col_ptr
    }

    /// The row-index array.
    #[inline]
    pub fn row_indices(&self) -> &[u32] {
        &self.row_idx
    }

    /// The value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Element lookup (binary search within the column).
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                dims: (self.rows, self.cols),
            });
        }
        let r = self.col_range(j);
        match self.row_idx[r.clone()].binary_search(&(i as u32)) {
            Ok(off) => Ok(self.values[r.start + off]),
            Err(_) => Ok(0.0),
        }
    }

    /// Real bytes used by the three arrays (`4(n+1) + 4·nnz + 8·nnz`).
    pub fn actual_bytes(&self) -> usize {
        self.col_ptr.len() * 4 + self.row_idx.len() * 4 + self.values.len() * 8
    }

    /// Transposed copy (CSC of the transpose == CSR of self, re-encoded).
    pub fn transpose(&self) -> CscBlock {
        // Counting sort by row index to build the transposed column pointers.
        let mut counts = vec![0u32; self.rows + 1];
        for &i in &self.row_idx {
            counts[i as usize + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let col_ptr = counts.clone();
        let mut cursor = counts;
        let mut row_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        for j in 0..self.cols {
            for t in self.col_range(j) {
                let i = self.row_idx[t] as usize;
                let dst = cursor[i] as usize;
                row_idx[dst] = j as u32;
                values[dst] = self.values[t];
                cursor[i] += 1;
            }
        }
        mem::track_alloc(col_ptr.len() * 4 + row_idx.len() * 4 + values.len() * 8);
        CscBlock {
            rows: self.cols,
            cols: self.rows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// `acc += self · other` where `other` is dense; the sparse × dense
    /// workhorse. Iterates stored items of `self` once.
    pub fn matmul_dense_acc(&self, other: &DenseBlock, acc: &mut DenseBlock) -> Result<()> {
        if self.cols != other.rows() {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply",
                left: (self.rows, self.cols),
                right: (other.rows(), other.cols()),
            });
        }
        if acc.rows() != self.rows || acc.cols() != other.cols() {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply-acc",
                left: (acc.rows(), acc.cols()),
                right: (self.rows, other.cols()),
            });
        }
        let n = other.cols();
        let b = other.data();
        let c = acc.data_mut();
        // acc[i, :] += v_ik * other[k, :] — columns k ascending, items in
        // stored order, so each cell sees its products in ascending k.
        for k in 0..self.cols {
            let brow = &b[k * n..][..n];
            for (i, v) in self.col_items(k) {
                let crow = &mut c[i * n..][..n];
                for (c, &b) in crow.iter_mut().zip(brow) {
                    *c += v * b;
                }
            }
        }
        Ok(())
    }

    /// `acc += other · self` where `other` is dense (dense × sparse).
    pub fn rmatmul_dense_acc(&self, other: &DenseBlock, acc: &mut DenseBlock) -> Result<()> {
        if other.cols() != self.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply",
                left: (other.rows(), other.cols()),
                right: (self.rows, self.cols),
            });
        }
        if acc.rows() != other.rows() || acc.cols() != self.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply-acc",
                left: (acc.rows(), acc.cols()),
                right: (other.rows(), self.cols),
            });
        }
        if self.values.is_empty() {
            // Nothing to add — and no zero-width chunking below.
            return Ok(());
        }
        // acc[i, j] += other[i, k] * v_kj over column j's items in stored
        // order. CSC yields one output column at a time, a stride-`n` walk
        // of `acc`, so rows are taken ROW_TILE at a time and the tile's
        // running sums of a column stay in registers across that column's
        // items (see `rmatmul_rows`). Ragged tail rows — and the whole
        // `1 × n` PageRank shape — run the one-row instance of that loop.
        const ROW_TILE: usize = 8;
        let (oc, n) = (self.rows, self.cols);
        let a = other.data();
        let c = acc.data_mut();
        let full = other.rows() / ROW_TILE * ROW_TILE;
        let a_tiles = a[..full * oc].chunks_exact(ROW_TILE * oc);
        let c_tiles = c[..full * n].chunks_exact_mut(ROW_TILE * n);
        for (a_tile, c_tile) in a_tiles.zip(c_tiles) {
            self.rmatmul_rows::<ROW_TILE>(a_tile, c_tile);
        }
        let a_rows = a[full * oc..].chunks_exact(oc);
        let c_rows = c[full * n..].chunks_exact_mut(n);
        for (a_row, c_row) in a_rows.zip(c_rows) {
            self.rmatmul_rows::<1>(a_row, c_row);
        }
        Ok(())
    }

    /// `T` rows of `acc += other · self`: `a` holds `T` rows of `other`, `c`
    /// the same `T` rows of `acc`. Each cell starts from its `acc` value and
    /// adds its column's products in stored order, exactly as the plain
    /// `for j, for item, for i` loop does, so the bits are the same.
    fn rmatmul_rows<const T: usize>(&self, a: &[f64], c: &mut [f64]) {
        let (oc, n) = (self.rows, self.cols);
        let a_rows: [&[f64]; T] = std::array::from_fn(|r| &a[r * oc..(r + 1) * oc]);
        for j in 0..n {
            let items = self.col_items(j);
            if items.len() == 0 {
                continue;
            }
            let mut sums = [0.0; T];
            for (s, c_row) in sums.iter_mut().zip(c.chunks_exact(n)) {
                *s = c_row[j];
            }
            for (k, v) in items {
                for (s, a_row) in sums.iter_mut().zip(&a_rows) {
                    *s += a_row[k] * v;
                }
            }
            for (&s, c_row) in sums.iter().zip(c.chunks_exact_mut(n)) {
                c_row[j] = s;
            }
        }
    }

    /// `acc += self · other` where both are sparse; the result accumulator
    /// stays dense (products of sparse blocks fill in quickly, and the
    /// In-Place strategy needs a mutable accumulation target).
    pub fn matmul_sparse_acc(&self, other: &CscBlock, acc: &mut DenseBlock) -> Result<()> {
        if self.cols != other.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        if acc.rows() != self.rows || acc.cols() != other.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply-acc",
                left: (acc.rows(), acc.cols()),
                right: (self.rows, other.cols),
            });
        }
        let n = other.cols;
        let c = acc.data_mut();
        for j in 0..n {
            for (k, bv) in other.col_items(j) {
                for (i, av) in self.col_items(k) {
                    c[i * n + j] += av * bv;
                }
            }
        }
        Ok(())
    }

    /// Map stored values through `f` (zeros stay zero, so sparsity is kept).
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CscBlock {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = f(*v);
        }
        out
    }

    /// Scale all stored values.
    pub fn scale(&self, c: f64) -> CscBlock {
        self.map_values(|v| v * c)
    }

    /// Sum of all stored values.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Sum of squares of stored values.
    pub fn sum_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }
}

impl Drop for CscBlock {
    fn drop(&mut self) {
        mem::track_free(
            self.col_ptr.capacity() * 4 + self.row_idx.capacity() * 4 + self.values.capacity() * 8,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The example matrix of paper Figure 5 (4×4):
    /// ```text
    /// col: 0    1    2       3
    ///      .    3    2       .
    ///      2(1,0) .  4(r1?)  ...
    /// ```
    /// We use the exact arrays from the figure: col_ptr = [0,1,3,6,7],
    /// row_idx = [1,0,2,0,1,3,2], values = [2,3,2,2,4,2,1].
    #[test]
    fn figure5_example_round_trips() {
        let b = CscBlock::from_csc(
            4,
            4,
            vec![0, 1, 3, 6, 7],
            vec![1, 0, 2, 0, 1, 3, 2],
            vec![2.0, 3.0, 2.0, 2.0, 4.0, 2.0, 1.0],
        )
        .unwrap();
        assert_eq!(b.nnz(), 7);
        assert_eq!(b.get(1, 0).unwrap(), 2.0);
        assert_eq!(b.get(0, 1).unwrap(), 3.0);
        assert_eq!(b.get(2, 1).unwrap(), 2.0);
        assert_eq!(b.get(0, 2).unwrap(), 2.0);
        assert_eq!(b.get(1, 2).unwrap(), 4.0);
        assert_eq!(b.get(3, 2).unwrap(), 2.0);
        assert_eq!(b.get(2, 3).unwrap(), 1.0);
        assert_eq!(b.get(0, 0).unwrap(), 0.0);
        let d = b.to_dense();
        let back = CscBlock::from_dense(&d);
        assert_eq!(back, b);
    }

    #[test]
    fn from_csc_validates() {
        // wrong col_ptr length
        assert!(CscBlock::from_csc(2, 2, vec![0, 0], vec![], vec![]).is_err());
        // non-monotone
        assert!(CscBlock::from_csc(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).is_err());
        // row out of range
        assert!(CscBlock::from_csc(2, 2, vec![0, 1, 1], vec![5], vec![1.0]).is_err());
        // duplicate rows in a column
        assert!(CscBlock::from_csc(3, 1, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).is_err());
        // values/row_idx length mismatch
        assert!(CscBlock::from_csc(2, 2, vec![0, 1, 1], vec![0], vec![]).is_err());
    }

    #[test]
    fn from_triplets_sums_duplicates_and_sorts() {
        let b = CscBlock::from_triplets(
            3,
            3,
            vec![
                (2, 1, 1.0),
                (0, 1, 5.0),
                (2, 1, 2.0),
                (1, 0, -1.0),
                (1, 2, 0.0),
            ],
        )
        .unwrap();
        assert_eq!(b.nnz(), 3);
        assert_eq!(b.get(2, 1).unwrap(), 3.0);
        assert_eq!(b.get(0, 1).unwrap(), 5.0);
        assert_eq!(b.get(1, 0).unwrap(), -1.0);
        assert_eq!(b.get(1, 2).unwrap(), 0.0);
    }

    #[test]
    fn triplets_cancelling_to_zero_are_dropped() {
        let b = CscBlock::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 0, -1.0)]).unwrap();
        assert_eq!(b.nnz(), 0);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let b = CscBlock::from_triplets(
            3,
            4,
            vec![(0, 3, 1.5), (2, 0, -2.0), (1, 1, 4.0), (2, 3, 7.0)],
        )
        .unwrap();
        let t = b.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 3);
        assert_eq!(t.to_dense(), b.to_dense().transpose());
        // double transpose is identity
        assert_eq!(t.transpose(), b);
    }

    #[test]
    fn sparse_dense_multiply_matches_dense() {
        let s = CscBlock::from_triplets(3, 3, vec![(0, 1, 2.0), (1, 2, 3.0), (2, 0, 4.0)]).unwrap();
        let d = DenseBlock::from_fn(3, 2, |i, j| (i * 2 + j) as f64 + 1.0);
        let mut acc = DenseBlock::zeros(3, 2);
        s.matmul_dense_acc(&d, &mut acc).unwrap();
        let expect = s.to_dense().matmul(&d).unwrap();
        assert_eq!(acc, expect);
    }

    #[test]
    fn dense_sparse_multiply_matches_dense() {
        let s = CscBlock::from_triplets(3, 4, vec![(0, 1, 2.0), (1, 3, 3.0), (2, 0, 4.0)]).unwrap();
        let d = DenseBlock::from_fn(2, 3, |i, j| (i + j) as f64);
        let mut acc = DenseBlock::zeros(2, 4);
        s.rmatmul_dense_acc(&d, &mut acc).unwrap();
        let expect = d.matmul(&s.to_dense()).unwrap();
        assert_eq!(acc, expect);
    }

    #[test]
    fn sparse_sparse_multiply_matches_dense() {
        let a = CscBlock::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0), (0, 2, 1.0)],
        )
        .unwrap();
        let b =
            CscBlock::from_triplets(3, 3, vec![(0, 1, 5.0), (2, 0, 1.0), (2, 2, -1.0)]).unwrap();
        let mut acc = DenseBlock::zeros(3, 3);
        a.matmul_sparse_acc(&b, &mut acc).unwrap();
        let expect = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert_eq!(acc, expect);
    }

    #[test]
    fn sparsity_and_bytes() {
        let b = CscBlock::from_triplets(10, 10, vec![(0, 0, 1.0), (5, 5, 1.0)]).unwrap();
        assert!((b.sparsity() - 0.02).abs() < 1e-12);
        // 11 col ptrs * 4 + 2 * 4 + 2 * 8
        assert_eq!(b.actual_bytes(), 44 + 8 + 16);
    }

    #[test]
    fn reductions_and_scaling() {
        let b = CscBlock::from_triplets(2, 2, vec![(0, 0, 3.0), (1, 1, -4.0)]).unwrap();
        assert_eq!(b.sum(), -1.0);
        assert_eq!(b.sum_sq(), 25.0);
        assert_eq!(b.scale(2.0).get(1, 1).unwrap(), -8.0);
    }

    #[test]
    fn get_out_of_bounds() {
        let b = CscBlock::zeros(2, 2);
        assert!(b.get(2, 0).is_err());
        assert!(b.get(0, 2).is_err());
    }
}
