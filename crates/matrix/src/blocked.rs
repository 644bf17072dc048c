//! [`BlockedMatrix`]: a matrix split into a grid of square blocks.
//!
//! This is DMac's two-level representation (§5.3): "a given matrix is
//! partitioned into blocks and block becomes the base computing unit". A
//! `BlockedMatrix` is the *local* view — a full grid of tiles. The cluster
//! crate distributes subsets of this grid (block-rows or block-columns) to
//! workers; each worker then computes on its sub-grid with the executors in
//! [`crate::exec`].
//!
//! Tiles are reference-counted ([`Arc<Block>`]) so that broadcasting a
//! matrix to `N` simulated workers inside one process does not physically
//! copy the payload `N` times (the communication *meter* still charges the
//! bytes — see `dmac-cluster`).

use std::sync::Arc;

use crate::block::Block;
use crate::blocking::blocks_along;
use crate::csc::CscBlock;
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};

/// A dense or sparse matrix stored as an `rb × cb` grid of square blocks
/// (edge blocks are trimmed to the matrix boundary).
///
/// ```
/// use dmac_matrix::BlockedMatrix;
///
/// // 5x4 matrix in 2x2 blocks (edges trimmed), from triplets.
/// let m = BlockedMatrix::from_triplets(5, 4, 2, vec![(0, 0, 1.0), (4, 3, 2.0)]).unwrap();
/// assert_eq!(m.row_blocks(), 3);
/// assert_eq!(m.col_blocks(), 2);
/// assert_eq!(m.get(4, 3).unwrap(), 2.0);
/// assert_eq!(m.nnz(), 2);
///
/// // transpose is local re-indexing; multiply against the reference.
/// let g = m.transpose().matmul_reference(&m).unwrap();
/// assert_eq!(g.rows(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct BlockedMatrix {
    rows: usize,
    cols: usize,
    block: usize,
    row_blocks: usize,
    col_blocks: usize,
    /// Row-major grid of tiles: `blocks[bi * col_blocks + bj]`.
    blocks: Vec<Arc<Block>>,
}

impl BlockedMatrix {
    /// Build from a grid of blocks. Validates every tile's shape.
    pub fn from_blocks(
        rows: usize,
        cols: usize,
        block: usize,
        blocks: Vec<Arc<Block>>,
    ) -> Result<Self> {
        if block == 0 {
            return Err(MatrixError::InvalidBlockSize(0));
        }
        let row_blocks = blocks_along(rows, block);
        let col_blocks = blocks_along(cols, block);
        if blocks.len() != row_blocks * col_blocks {
            return Err(MatrixError::MalformedSparse(format!(
                "expected {} blocks, got {}",
                row_blocks * col_blocks,
                blocks.len()
            )));
        }
        let m = BlockedMatrix {
            rows,
            cols,
            block,
            row_blocks,
            col_blocks,
            blocks,
        };
        for bi in 0..row_blocks {
            for bj in 0..col_blocks {
                let t = m.block_at(bi, bj);
                let (er, ec) = (m.block_rows_of(bi), m.block_cols_of(bj));
                if t.rows() != er || t.cols() != ec {
                    return Err(MatrixError::DimensionMismatch {
                        op: "from_blocks",
                        left: (t.rows(), t.cols()),
                        right: (er, ec),
                    });
                }
            }
        }
        Ok(m)
    }

    /// All-zero matrix with sparse (empty) tiles.
    pub fn zeros(rows: usize, cols: usize, block: usize) -> Result<Self> {
        if block == 0 {
            return Err(MatrixError::InvalidBlockSize(0));
        }
        let row_blocks = blocks_along(rows, block);
        let col_blocks = blocks_along(cols, block);
        let mut blocks = Vec::with_capacity(row_blocks * col_blocks);
        for bi in 0..row_blocks {
            for bj in 0..col_blocks {
                let r = Self::edge(rows, block, bi);
                let c = Self::edge(cols, block, bj);
                blocks.push(Arc::new(Block::zeros(r, c)));
            }
        }
        Ok(BlockedMatrix {
            rows,
            cols,
            block,
            row_blocks,
            col_blocks,
            blocks,
        })
    }

    fn edge(len: usize, block: usize, idx: usize) -> usize {
        let start = idx * block;
        block.min(len.saturating_sub(start))
    }

    /// Build a dense blocked matrix by evaluating `f(row, col)` everywhere.
    pub fn from_fn(
        rows: usize,
        cols: usize,
        block: usize,
        f: impl Fn(usize, usize) -> f64,
    ) -> Result<Self> {
        if block == 0 {
            return Err(MatrixError::InvalidBlockSize(0));
        }
        let row_blocks = blocks_along(rows, block);
        let col_blocks = blocks_along(cols, block);
        let mut blocks = Vec::with_capacity(row_blocks * col_blocks);
        for bi in 0..row_blocks {
            for bj in 0..col_blocks {
                let tile = Self::tile_from_fn(rows, cols, block, (bi, bj), &f);
                blocks.push(Arc::new(tile));
            }
        }
        Ok(BlockedMatrix {
            rows,
            cols,
            block,
            row_blocks,
            col_blocks,
            blocks,
        })
    }

    /// Tile `(bi, bj)` of the `rows × cols` grid of `block`: a dense tile,
    /// trimmed at the grid's edges, holding `f(row, col)` at global
    /// coordinates. The one tile generator: [`BlockedMatrix::from_fn`]
    /// makes every tile with it, and a worker process the tiles it owns
    /// of a `random` source. The caller keeps `(bi, bj)` inside the grid.
    pub fn tile_from_fn(
        rows: usize,
        cols: usize,
        block: usize,
        (bi, bj): (usize, usize),
        f: impl Fn(usize, usize) -> f64,
    ) -> Block {
        let (r0, c0) = (bi * block, bj * block);
        let (r, c) = (Self::edge(rows, block, bi), Self::edge(cols, block, bj));
        Block::Dense(DenseBlock::from_fn(r, c, |i, j| f(r0 + i, c0 + j)))
    }

    /// Build a sparse blocked matrix from global `(row, col, value)`
    /// triplets, routing each item to its tile.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        block: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        if block == 0 {
            return Err(MatrixError::InvalidBlockSize(0));
        }
        let row_blocks = blocks_along(rows, block);
        let col_blocks = blocks_along(cols, block);
        let mut per_tile: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); row_blocks * col_blocks];
        for (i, j, v) in triplets {
            if i >= rows || j >= cols {
                return Err(MatrixError::IndexOutOfBounds {
                    index: (i, j),
                    dims: (rows, cols),
                });
            }
            let (bi, bj) = (i / block, j / block);
            per_tile[bi * col_blocks + bj].push((i % block, j % block, v));
        }
        let mut blocks = Vec::with_capacity(per_tile.len());
        for (t, trips) in per_tile.into_iter().enumerate() {
            let (bi, bj) = (t / col_blocks, t % col_blocks);
            let tile = CscBlock::from_triplets(
                Self::edge(rows, block, bi),
                Self::edge(cols, block, bj),
                trips,
            )?;
            blocks.push(Arc::new(Block::Sparse(tile).compact()));
        }
        Ok(BlockedMatrix {
            rows,
            cols,
            block,
            row_blocks,
            col_blocks,
            blocks,
        })
    }

    /// Build from a single dense block (test convenience).
    pub fn from_dense(d: DenseBlock, block: usize) -> Result<Self> {
        let (rows, cols) = (d.rows(), d.cols());
        Self::from_fn(rows, cols, block, |i, j| d.at(i, j))
    }

    /// Total rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Configured (square) block size.
    pub fn block_size(&self) -> usize {
        self.block
    }

    /// Number of block-rows in the grid.
    pub fn row_blocks(&self) -> usize {
        self.row_blocks
    }

    /// Number of block-columns in the grid.
    pub fn col_blocks(&self) -> usize {
        self.col_blocks
    }

    /// Rows covered by block-row `bi` (trimmed at the edge).
    pub fn block_rows_of(&self, bi: usize) -> usize {
        Self::edge(self.rows, self.block, bi)
    }

    /// Columns covered by block-column `bj` (trimmed at the edge).
    pub fn block_cols_of(&self, bj: usize) -> usize {
        Self::edge(self.cols, self.block, bj)
    }

    /// Borrow the tile at grid position `(bi, bj)`.
    pub fn block_at(&self, bi: usize, bj: usize) -> &Arc<Block> {
        &self.blocks[bi * self.col_blocks + bj]
    }

    /// Iterate `(bi, bj, tile)` over the whole grid.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize, &Arc<Block>)> {
        self.blocks
            .iter()
            .enumerate()
            .map(move |(t, b)| (t / self.col_blocks, t % self.col_blocks, b))
    }

    /// Checked global element access.
    pub fn get(&self, i: usize, j: usize) -> Result<f64> {
        if i >= self.rows || j >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                index: (i, j),
                dims: (self.rows, self.cols),
            });
        }
        self.block_at(i / self.block, j / self.block)
            .get(i % self.block, j % self.block)
    }

    /// Exact non-zero count over all tiles.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(|b| b.nnz()).sum()
    }

    /// Real bytes across all tiles (what the communication meter charges
    /// when the whole matrix moves).
    pub fn actual_bytes(&self) -> usize {
        self.blocks.iter().map(|b| b.actual_bytes()).sum()
    }

    /// Materialise the full matrix as one dense block (tests/small results).
    pub fn to_dense(&self) -> DenseBlock {
        let mut out = DenseBlock::zeros(self.rows, self.cols);
        for (bi, bj, tile) in self.iter_blocks() {
            let (r0, c0) = (bi * self.block, bj * self.block);
            let d = tile.to_dense();
            for i in 0..d.rows() {
                for j in 0..d.cols() {
                    out.data_mut()[(r0 + i) * self.cols + c0 + j] = d.at(i, j);
                }
            }
        }
        out
    }

    /// Transposed copy: tiles transposed and grid re-indexed. Purely local
    /// (this is what makes DMac's *Transpose dependency* communication-free).
    pub fn transpose(&self) -> BlockedMatrix {
        let mut blocks = vec![None; self.blocks.len()];
        for (bi, bj, tile) in self.iter_blocks() {
            blocks[bj * self.row_blocks + bi] = Some(Arc::new(tile.transpose()));
        }
        BlockedMatrix {
            rows: self.cols,
            cols: self.rows,
            block: self.block,
            row_blocks: self.col_blocks,
            col_blocks: self.row_blocks,
            blocks: blocks.into_iter().map(|b| b.unwrap()).collect(),
        }
    }

    /// Apply an element-wise binary op tile-by-tile (sequential reference
    /// path; the threaded path lives in [`crate::exec`]).
    pub fn zip_with(
        &self,
        other: &BlockedMatrix,
        op: &'static str,
        f: impl Fn(&Block, &Block) -> Result<Block>,
    ) -> Result<BlockedMatrix> {
        if self.rows != other.rows || self.cols != other.cols || self.block != other.block {
            return Err(MatrixError::DimensionMismatch {
                op,
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let blocks = self
            .blocks
            .iter()
            .zip(other.blocks.iter())
            .map(|(a, b)| Ok(Arc::new(f(a, b)?)))
            .collect::<Result<Vec<_>>>()?;
        Ok(BlockedMatrix {
            blocks,
            ..self.clone()
        })
    }

    /// Element-wise addition (sequential).
    pub fn add(&self, other: &BlockedMatrix) -> Result<BlockedMatrix> {
        self.zip_with(other, "add", |a, b| a.add(b))
    }

    /// Element-wise subtraction (sequential).
    pub fn sub(&self, other: &BlockedMatrix) -> Result<BlockedMatrix> {
        self.zip_with(other, "sub", |a, b| a.sub(b))
    }

    /// Cell-wise multiplication (sequential).
    pub fn cell_mul(&self, other: &BlockedMatrix) -> Result<BlockedMatrix> {
        self.zip_with(other, "cell_mul", |a, b| a.cell_mul(b))
    }

    /// Cell-wise division (sequential).
    pub fn cell_div(&self, other: &BlockedMatrix) -> Result<BlockedMatrix> {
        self.zip_with(other, "cell_div", |a, b| a.cell_div(b))
    }

    /// Map every tile (unary ops: scale, add-scalar, arbitrary map).
    pub fn map_blocks(&self, f: impl Fn(&Block) -> Block) -> BlockedMatrix {
        BlockedMatrix {
            blocks: self.blocks.iter().map(|b| Arc::new(f(b))).collect(),
            ..self.clone()
        }
    }

    /// Scale every cell by `c`.
    pub fn scale(&self, c: f64) -> BlockedMatrix {
        self.map_blocks(|b| b.scale(c))
    }

    /// Add `c` to every cell.
    pub fn add_scalar(&self, c: f64) -> BlockedMatrix {
        self.map_blocks(|b| b.add_scalar(c))
    }

    /// Sum of all cells.
    pub fn sum(&self) -> f64 {
        self.blocks.iter().map(|b| b.sum()).sum()
    }

    /// Frobenius norm.
    pub fn norm2(&self) -> f64 {
        self.blocks.iter().map(|b| b.sum_sq()).sum::<f64>().sqrt()
    }

    /// Iterate all non-zero cells as global `(row, col, value)` triplets.
    pub fn to_triplets(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for (bi, bj, tile) in self.iter_blocks() {
            let (r0, c0) = (bi * self.block, bj * self.block);
            match tile.as_ref() {
                Block::Dense(d) => {
                    for i in 0..d.rows() {
                        for j in 0..d.cols() {
                            let v = d.at(i, j);
                            if v != 0.0 {
                                out.push((r0 + i, c0 + j, v));
                            }
                        }
                    }
                }
                Block::Sparse(s) => {
                    for (j, r) in s.columns() {
                        out.extend(s.items(r).map(|(i, v)| (r0 + i, c0 + j, v)));
                    }
                }
            }
        }
        out
    }

    /// Rebuild this matrix with a different block size. Sparse-aware: goes
    /// through triplets, never materialises a dense copy.
    pub fn reblock(&self, new_block: usize) -> Result<BlockedMatrix> {
        if new_block == self.block {
            return Ok(self.clone());
        }
        let density = self.nnz() as f64 / (self.rows * self.cols).max(1) as f64;
        if density > 0.5 {
            let d = self.to_dense();
            BlockedMatrix::from_fn(self.rows, self.cols, new_block, |i, j| d.at(i, j))
        } else {
            BlockedMatrix::from_triplets(self.rows, self.cols, new_block, self.to_triplets())
        }
    }

    /// Sequential reference matrix multiply (`self · other`). The parallel,
    /// memory-managed versions live in [`crate::exec::LocalExecutor`]; this
    /// one exists as the correctness oracle.
    pub fn matmul_reference(&self, other: &BlockedMatrix) -> Result<BlockedMatrix> {
        if self.cols != other.rows || self.block != other.block {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut blocks = Vec::with_capacity(self.row_blocks * other.col_blocks);
        for bi in 0..self.row_blocks {
            for bj in 0..other.col_blocks {
                let mut acc = DenseBlock::zeros(self.block_rows_of(bi), other.block_cols_of(bj));
                for bk in 0..self.col_blocks {
                    self.block_at(bi, bk)
                        .matmul_acc(other.block_at(bk, bj), &mut acc)?;
                }
                blocks.push(Arc::new(Block::Dense(acc).compact()));
            }
        }
        BlockedMatrix::from_blocks(self.rows, other.cols, self.block, blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_matrix(rows: usize, cols: usize, block: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, block, |i, j| (i * cols + j) as f64).unwrap()
    }

    #[test]
    fn grid_geometry_with_edge_blocks() {
        let m = seq_matrix(5, 7, 3);
        assert_eq!(m.row_blocks(), 2);
        assert_eq!(m.col_blocks(), 3);
        assert_eq!(m.block_rows_of(1), 2);
        assert_eq!(m.block_cols_of(2), 1);
        assert_eq!(m.get(4, 6).unwrap(), 34.0);
        assert!(m.get(5, 0).is_err());
    }

    #[test]
    fn from_triplets_routes_to_tiles() {
        let m = BlockedMatrix::from_triplets(6, 6, 2, vec![(0, 0, 1.0), (5, 5, 2.0), (2, 3, 3.0)])
            .unwrap();
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(5, 5).unwrap(), 2.0);
        assert_eq!(m.get(2, 3).unwrap(), 3.0);
        assert_eq!(m.get(0, 1).unwrap(), 0.0);
        assert!(BlockedMatrix::from_triplets(2, 2, 2, vec![(3, 0, 1.0)]).is_err());
    }

    #[test]
    fn transpose_blocked_matches_dense() {
        let m = seq_matrix(5, 3, 2);
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 5);
        assert_eq!(t.to_dense(), m.to_dense().transpose());
    }

    #[test]
    fn matmul_reference_matches_flat_dense() {
        let a = seq_matrix(5, 4, 2);
        let b = seq_matrix(4, 3, 2);
        let c = a.matmul_reference(&b).unwrap();
        let expect = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert_eq!(c.to_dense(), expect);
    }

    #[test]
    fn matmul_block_size_mismatch_rejected() {
        let a = seq_matrix(4, 4, 2);
        let b = seq_matrix(4, 4, 3);
        assert!(a.matmul_reference(&b).is_err());
    }

    #[test]
    fn elementwise_ops_match_dense() {
        let a = seq_matrix(4, 5, 3);
        let b = BlockedMatrix::from_fn(4, 5, 3, |i, j| 1.0 + (i + j) as f64).unwrap();
        assert_eq!(
            a.add(&b).unwrap().to_dense(),
            a.to_dense().add(&b.to_dense()).unwrap()
        );
        assert_eq!(
            a.sub(&b).unwrap().to_dense(),
            a.to_dense().sub(&b.to_dense()).unwrap()
        );
        assert_eq!(
            a.cell_mul(&b).unwrap().to_dense(),
            a.to_dense().cell_mul(&b.to_dense()).unwrap()
        );
        assert_eq!(
            a.cell_div(&b).unwrap().to_dense(),
            a.to_dense().cell_div(&b.to_dense()).unwrap()
        );
    }

    #[test]
    fn scalar_ops_and_reductions() {
        let a = seq_matrix(3, 3, 2);
        assert_eq!(a.scale(2.0).get(1, 1).unwrap(), 8.0);
        assert_eq!(a.add_scalar(1.0).get(0, 0).unwrap(), 1.0);
        assert_eq!(a.sum(), (0..9).sum::<usize>() as f64);
        let expect: f64 = (0..9).map(|v| (v * v) as f64).sum();
        assert!((a.norm2() - expect.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn zeros_is_all_sparse() {
        let z = BlockedMatrix::zeros(5, 5, 2).unwrap();
        assert_eq!(z.nnz(), 0);
        assert!(z.iter_blocks().all(|(_, _, b)| b.is_sparse()));
    }

    #[test]
    fn invalid_block_size_rejected() {
        assert!(BlockedMatrix::zeros(5, 5, 0).is_err());
    }
}
