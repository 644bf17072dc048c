//! Sparse blocks in Compressed Sparse Column (CSC) format.
//!
//! This is the representation of paper Figure 5: a *value* array holding the
//! non-zero items, a *row index* array with the row of each item, and a
//! *column start index* array whose `j`-th entry is the offset of the first
//! item of column `j` (with a final sentinel equal to `nnz`).
//!
//! # Packed columns
//!
//! On a graph cut into tiles the column start array *is* the tile: a
//! 128-wide link tile with 16 items holds 129 pointers that mostly say
//! "this column is empty". So a tile whose non-empty columns number **fewer
//! than half** of `cols` keeps pointers for those columns only — an
//! ascending `nz_cols` id array beside a `col_ptr` of `nz_cols.len() + 1`
//! entries (Buluç–Gilbert's doubly-compressed columns); every other tile
//! keeps Figure 5's `cols + 1` array. The rule reads nothing but the
//! structure and is applied in the one constructor tail every builder ends
//! in (`with_layout`), so equal structure means equal arrays: derived `==`
//! and [`CscBlock::bits_eq`] stay exact, no caller can ask for a layout,
//! and nothing outside the process can tell — the codecs write the logical
//! array, [`CscBlock::col_ptrs`].
//!
//! Every walk over columns goes through [`CscBlock::columns`], which yields
//! the same items in the same order under either layout, so products are
//! bit-identical whichever one a tile has.
//!
//! The paper's memory model charges `4n + 8mns` bytes for an `m × n` block
//! of sparsity `s` (4-byte column pointers and 8 bytes per stored item); our
//! physical layout uses `u32` pointers/indices and `f64` values, and
//! [`CscBlock::actual_bytes`] reports the real footprint while
//! [`crate::blocking`] exposes the paper's analytical formula.

use std::ops::Range;

use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};
use crate::mem;

/// A sparse `rows × cols` tile in CSC format.
#[derive(Debug, PartialEq)]
pub struct CscBlock {
    rows: usize,
    cols: usize,
    /// Packed layout: the ids of the non-empty columns, ascending. Full
    /// layout: empty.
    nz_cols: Vec<u32>,
    /// `col_ptr[c] .. col_ptr[c+1]` indexes the items of column
    /// `nz_cols[c]` (packed) or of column `c` (full, `cols + 1` entries).
    col_ptr: Vec<u32>,
    /// Row index of each stored item, grouped by column, ascending per column.
    row_idx: Vec<u32>,
    /// The stored item values.
    values: Vec<f64>,
}

impl CscBlock {
    /// The tail of every constructor: takes valid CSC arrays with the
    /// logical `cols + 1` pointer array, keeps pointers only for the
    /// non-empty columns when fewer than half are non-empty, and registers
    /// the block with the memory tracker.
    fn with_layout(
        rows: usize,
        cols: usize,
        col_ptr: Vec<u32>,
        row_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> CscBlock {
        let occupied = col_ptr.windows(2).filter(|w| w[0] < w[1]).count();
        let (nz_cols, col_ptr) = if occupied * 2 < cols {
            let mut ids = Vec::with_capacity(occupied);
            let mut ptr = Vec::with_capacity(occupied + 1);
            ptr.push(0);
            for (j, w) in col_ptr.windows(2).enumerate() {
                if w[0] < w[1] {
                    ids.push(j as u32);
                    ptr.push(w[1]);
                }
            }
            (ids, ptr)
        } else {
            (Vec::new(), col_ptr)
        };
        CscBlock {
            rows,
            cols,
            nz_cols,
            col_ptr,
            row_idx,
            values,
        }
        .counted()
    }

    /// Charge the memory tracker what [`Drop`] will give back.
    fn counted(self) -> CscBlock {
        mem::track_alloc(self.heap_bytes());
        self
    }

    /// Bytes the four arrays have allocated (capacity, not length).
    fn heap_bytes(&self) -> usize {
        (self.nz_cols.capacity() + self.col_ptr.capacity() + self.row_idx.capacity()) * 4
            + self.values.capacity() * 8
    }

    /// True when only the non-empty columns have pointers: under half of
    /// `cols` of them, so at most `cols` entries where a full tile has
    /// `cols + 1`.
    #[inline]
    fn is_packed(&self) -> bool {
        self.col_ptr.len() <= self.cols
    }

    /// An empty (all-zero) sparse block.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::with_layout(rows, cols, vec![0; cols + 1], Vec::new(), Vec::new())
    }

    /// Build from raw CSC arrays — `col_ptr` is the logical `cols + 1`
    /// array of Figure 5 — validating every invariant.
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
        Ok(Self::with_layout(rows, cols, col_ptr, row_idx, values))
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
        Ok(Self::with_layout(rows, cols, col_ptr, row_idx, values))
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
        Self::with_layout(d.rows(), d.cols(), col_ptr, row_idx, values)
    }

    /// Materialise as a dense block.
    pub fn to_dense(&self) -> DenseBlock {
        let mut out = DenseBlock::zeros(self.rows, self.cols);
        let cells = out.data_mut();
        for (j, r) in self.columns() {
            for (i, v) in self.items(r) {
                cells[i * self.cols + j] = v;
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

    /// The columns in ascending order, each as `(j, item range)` into
    /// [`Self::row_indices`] / [`Self::values`]. A packed tile yields its
    /// non-empty columns only, a full one all `cols` — the same items in the
    /// same order either way.
    #[inline]
    pub fn columns(&self) -> Columns<'_> {
        let ptrs = self.col_ptr.windows(2);
        Columns(if self.is_packed() {
            Layout::Packed(self.nz_cols.iter().zip(ptrs))
        } else {
            Layout::Full(ptrs.enumerate())
        })
    }

    /// Item range of column `j` — a binary search on a packed tile, so walk
    /// with [`Self::columns`] and keep this for single lookups.
    #[inline]
    pub fn col_range(&self, j: usize) -> Range<usize> {
        let c = if self.is_packed() {
            match self.nz_cols.binary_search(&(j as u32)) {
                Ok(c) => c,
                Err(c) => return self.col_ptr[c] as usize..self.col_ptr[c] as usize,
            }
        } else {
            j
        };
        self.col_ptr[c] as usize..self.col_ptr[c + 1] as usize
    }

    /// The stored `(row, value)` items of an item range, in stored order.
    #[inline]
    pub(crate) fn items(
        &self,
        r: Range<usize>,
    ) -> impl ExactSizeIterator<Item = (usize, f64)> + '_ {
        self.row_idx[r.clone()]
            .iter()
            .zip(&self.values[r])
            .map(|(&i, &v)| (i as usize, v))
    }

    /// The logical column-start-index array of Figure 5 (`cols + 1`
    /// entries), whichever layout the tile holds. This is what the wire and
    /// disk formats and the shard checksums are defined over.
    pub fn col_ptrs(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        let packed = self.is_packed();
        // Packed columns left of `j`: advances by at most one per step.
        let mut c = 0;
        (0..self.cols + 1).map(move |j| {
            if !packed {
                return self.col_ptr[j];
            }
            if self.nz_cols.get(c).is_some_and(|&id| (id as usize) < j) {
                c += 1;
            }
            self.col_ptr[c]
        })
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

    /// Real bytes of the arrays held: `4(n+1) + 12·nnz` in the full layout,
    /// `4(2c+1) + 12·nnz` for a packed tile with `c` non-empty columns
    /// (`c < n/2`, so never more than full). An all-zero tile holds 4.
    pub fn actual_bytes(&self) -> usize {
        (self.nz_cols.len() + self.col_ptr.len() + self.row_idx.len()) * 4 + self.values.len() * 8
    }

    /// Exact equality: same shape, same structure, every stored value equal
    /// by [`f64::to_bits`]. The layout follows from the structure, so
    /// comparing the arrays held compares the logical ones.
    pub fn bits_eq(&self, other: &CscBlock) -> bool {
        (self.rows, self.cols) == (other.rows, other.cols)
            && self.nz_cols == other.nz_cols
            && self.col_ptr == other.col_ptr
            && self.row_idx == other.row_idx
            && (self.values.iter().zip(&other.values)).all(|(x, y)| x.to_bits() == y.to_bits())
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
        for (j, r) in self.columns() {
            for (i, v) in self.items(r) {
                let dst = cursor[i] as usize;
                row_idx[dst] = j as u32;
                values[dst] = v;
                cursor[i] += 1;
            }
        }
        Self::with_layout(self.cols, self.rows, col_ptr, row_idx, values)
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
        for (k, r) in self.columns() {
            let brow = &b[k * n..][..n];
            for (i, v) in self.items(r) {
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
        //
        // This is the one walk that resolves the layout itself, once per
        // product: the per-column branch inside `Columns::next` cost this
        // loop 8 % on a full 5 % tile (every other walk reads level).
        match self.columns().0 {
            Layout::Full(cols) => self.rmatmul_tiles(cols.map(full_column), other, acc),
            Layout::Packed(cols) => self.rmatmul_tiles(cols.map(packed_column), other, acc),
        }
        Ok(())
    }

    /// [`Self::rmatmul_dense_acc`] over the tile's columns `cols`.
    fn rmatmul_tiles(
        &self,
        cols: impl Iterator<Item = (usize, Range<usize>)> + Clone,
        other: &DenseBlock,
        acc: &mut DenseBlock,
    ) {
        const ROW_TILE: usize = 8;
        let (oc, n) = (self.rows, self.cols);
        let a = other.data();
        let c = acc.data_mut();
        let full = other.rows() / ROW_TILE * ROW_TILE;
        let a_tiles = a[..full * oc].chunks_exact(ROW_TILE * oc);
        let c_tiles = c[..full * n].chunks_exact_mut(ROW_TILE * n);
        for (a_tile, c_tile) in a_tiles.zip(c_tiles) {
            self.rmatmul_rows::<ROW_TILE>(cols.clone(), a_tile, c_tile);
        }
        let a_rows = a[full * oc..].chunks_exact(oc);
        let c_rows = c[full * n..].chunks_exact_mut(n);
        for (a_row, c_row) in a_rows.zip(c_rows) {
            self.rmatmul_rows::<1>(cols.clone(), a_row, c_row);
        }
    }

    /// `T` rows of `acc += other · self`: `a` holds `T` rows of `other`, `c`
    /// the same `T` rows of `acc`. Each cell starts from its `acc` value and
    /// adds its column's products in stored order, exactly as the plain
    /// `for j, for item, for i` loop does, so the bits are the same.
    fn rmatmul_rows<const T: usize>(
        &self,
        cols: impl Iterator<Item = (usize, Range<usize>)>,
        a: &[f64],
        c: &mut [f64],
    ) {
        let (oc, n) = (self.rows, self.cols);
        let a_rows: [&[f64]; T] = std::array::from_fn(|r| &a[r * oc..(r + 1) * oc]);
        for (j, r) in cols {
            let items = self.items(r);
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
        for (j, r) in other.columns() {
            for (k, bv) in other.items(r) {
                for (i, av) in self.items(self.col_range(k)) {
                    c[i * n + j] += av * bv;
                }
            }
        }
        Ok(())
    }

    /// Map stored values through `f` (zeros stay zero, so sparsity is kept).
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> CscBlock {
        self.map_values_by_row(|_, v| f(v))
    }

    /// Map stored values through `f(row, value)` — [`Self::map_values`] for
    /// an `f` that depends on the row an item sits in (a row scaling). The
    /// structure is kept as it is, a stored zero included.
    pub fn map_values_by_row(&self, f: impl Fn(usize, f64) -> f64) -> CscBlock {
        let mut out = self.clone();
        for (v, &i) in out.values.iter_mut().zip(&self.row_idx) {
            *v = f(i as usize, *v);
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

/// A copy is a block of its own to the memory tracker: it is charged here
/// because it will be freed by [`Drop`] like any other.
impl Clone for CscBlock {
    fn clone(&self) -> Self {
        CscBlock {
            rows: self.rows,
            cols: self.cols,
            nz_cols: self.nz_cols.clone(),
            col_ptr: self.col_ptr.clone(),
            row_idx: self.row_idx.clone(),
            values: self.values.clone(),
        }
        .counted()
    }
}

impl Drop for CscBlock {
    fn drop(&mut self) {
        mem::track_free(self.heap_bytes());
    }
}

/// Iterator of [`CscBlock::columns`].
pub struct Columns<'a>(Layout<'a>);

#[derive(Clone)]
enum Layout<'a> {
    Full(std::iter::Enumerate<std::slice::Windows<'a, u32>>),
    Packed(std::iter::Zip<std::slice::Iter<'a, u32>, std::slice::Windows<'a, u32>>),
}

#[inline]
fn full_column((j, w): (usize, &[u32])) -> (usize, Range<usize>) {
    (j, w[0] as usize..w[1] as usize)
}

#[inline]
fn packed_column((&j, w): (&u32, &[u32])) -> (usize, Range<usize>) {
    (j as usize, w[0] as usize..w[1] as usize)
}

impl Iterator for Columns<'_> {
    type Item = (usize, Range<usize>);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Layout::Full(it) => it.next().map(full_column),
            Layout::Packed(it) => it.next().map(packed_column),
        }
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
        // 2 of 10 columns hold items, so packed: (2 ids + 3 ptrs) * 4,
        // then 2 row indices * 4 + 2 values * 8.
        assert_eq!(b.actual_bytes(), 20 + 8 + 16);
        // 5 of 10 is the boundary and stays full: 11 ptrs * 4 + 5 * 12.
        let half = CscBlock::from_triplets(10, 10, (0..5).map(|j| (j, 2 * j, 1.0))).unwrap();
        assert_eq!(half.actual_bytes(), 44 + 60);
        assert_eq!(CscBlock::zeros(128, 128).actual_bytes(), 4);
    }

    /// Random valid CSC arrays with exactly `occupied` non-empty columns.
    fn random_csc(
        rng: &mut crate::rng::SplitMix64,
        rows: usize,
        cols: usize,
        occupied: usize,
    ) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let mut holds = vec![false; cols];
        let mut left = occupied;
        while left > 0 {
            let j = rng.below(cols);
            if !holds[j] {
                holds[j] = true;
                left -= 1;
            }
        }
        let (mut col_ptr, mut row_idx, mut values) = (vec![0u32], Vec::new(), Vec::new());
        for held in holds {
            if held {
                let first = rng.below(rows);
                for i in first..rows {
                    if i == first || rng.chance(0.3) {
                        row_idx.push(i as u32);
                        // A stored zero is an item like any other, sign included.
                        values.push([1.5, -0.0, 0.0, -7.25][rng.below(4)]);
                    }
                }
            }
            col_ptr.push(values.len() as u32);
        }
        (col_ptr, row_idx, values)
    }

    #[test]
    fn layout_follows_structure_and_round_trips() {
        let mut rng = crate::rng::SplitMix64::new(0xC5C);
        // (rows, cols): square, ragged both ways, odd width, one column.
        for (rows, cols) in [
            (8usize, 8usize),
            (3, 17),
            (17, 4),
            (5, 9),
            (128, 128),
            (4, 1),
        ] {
            // None, one, just under half, exactly half, just over, all.
            for occupied in [
                0,
                1,
                (cols / 2).saturating_sub(1),
                cols / 2,
                cols / 2 + 1,
                cols,
            ] {
                let occupied = occupied.min(cols);
                let (col_ptr, row_idx, values) = random_csc(&mut rng, rows, cols, occupied);
                let b = CscBlock::from_csc(
                    rows,
                    cols,
                    col_ptr.clone(),
                    row_idx.clone(),
                    values.clone(),
                )
                .unwrap();
                let what = format!("{rows}x{cols}, {occupied} occupied");
                assert_eq!(b.is_packed(), occupied * 2 < cols, "{what}");
                assert_eq!(b.col_ptrs().len(), cols + 1, "{what}");
                assert_eq!(b.col_ptrs().collect::<Vec<_>>(), col_ptr, "{what}");
                assert_eq!(b.row_indices(), row_idx, "{what}");
                assert!(
                    b.values()
                        .iter()
                        .zip(&values)
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{what}"
                );
                let ptr_words = if b.is_packed() {
                    2 * occupied + 1
                } else {
                    cols + 1
                };
                assert_eq!(
                    b.actual_bytes(),
                    ptr_words * 4 + values.len() * 12,
                    "{what}"
                );
                // Both access paths see the logical columns.
                for j in 0..cols {
                    let want = col_ptr[j] as usize..col_ptr[j + 1] as usize;
                    assert_eq!(b.col_range(j), want, "{what}, column {j}");
                }
                let walked: Vec<_> = b.columns().filter(|(_, r)| !r.is_empty()).collect();
                let want: Vec<_> = (0..cols)
                    .map(|j| (j, col_ptr[j] as usize..col_ptr[j + 1] as usize))
                    .filter(|(_, r)| !r.is_empty())
                    .collect();
                assert_eq!(walked, want, "{what}");
                // Through the logical view and back: the same block.
                let again = CscBlock::from_csc(
                    rows,
                    cols,
                    b.col_ptrs().collect(),
                    b.row_indices().to_vec(),
                    b.values().to_vec(),
                )
                .unwrap();
                assert!(
                    again.bits_eq(&b) && b.transpose().transpose().bits_eq(&b),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn every_builder_agrees_on_the_layout() {
        // One item in 2 of 8 columns (packed) and in 6 of 8 (full).
        for held in [2, 6] {
            let trips: Vec<_> = (0..held).map(|j| (j % 3, j, j as f64 + 1.0)).collect();
            let t = CscBlock::from_triplets(3, 8, trips.clone()).unwrap();
            let mut dense = DenseBlock::zeros(3, 8);
            for &(i, j, v) in &trips {
                dense.set(i, j, v).unwrap();
            }
            let d = CscBlock::from_dense(&dense);
            let c = CscBlock::from_csc(
                3,
                8,
                t.col_ptrs().collect(),
                t.row_indices().to_vec(),
                t.values().to_vec(),
            )
            .unwrap();
            assert_eq!(t.is_packed(), held == 2);
            for other in [&d, &c, &t.transpose().transpose(), &t.clone()] {
                assert_eq!(&t, other);
                assert!(t.bits_eq(other));
                assert_eq!(t.actual_bytes(), other.actual_bytes());
            }
        }
        assert_eq!(
            CscBlock::zeros(3, 8),
            CscBlock::from_triplets(3, 8, vec![]).unwrap()
        );
    }

    #[test]
    fn mapping_values_to_zero_keeps_structure_and_layout() {
        for held in [1, 4] {
            let b = CscBlock::from_triplets(4, 4, (0..held).map(|j| (j, j, 2.0))).unwrap();
            let z = b.map_values(|_| 0.0);
            assert_eq!(z.nnz(), held, "stored zeros stay stored");
            assert_eq!(z.is_packed(), b.is_packed());
            assert_eq!(z.actual_bytes(), b.actual_bytes());
            assert!(z.col_ptrs().eq(b.col_ptrs()) && z.row_indices() == b.row_indices());
            assert!(!z.bits_eq(&b) && z.bits_eq(&b.scale(0.0)));
            // By row: item (j, j) holds 2.0, so row j maps to 2j.
            let r = b.map_values_by_row(|i, v| i as f64 * v);
            assert_eq!(r.is_packed(), b.is_packed());
            assert!(r.col_ptrs().eq(b.col_ptrs()) && r.row_indices() == b.row_indices());
            let want: Vec<f64> = (0..held).map(|j| 2.0 * j as f64).collect();
            assert_eq!(r.values(), want, "row 0 maps to a stored zero");
        }
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
