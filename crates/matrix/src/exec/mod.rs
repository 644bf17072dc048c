//! The local execution engine (paper §5.3, Figure 4).
//!
//! Each DMac worker executes the operators of a stage with:
//!
//! * a **task queue** drained by `L` threads ([`pool::run_tasks`]),
//! * a **result buffer pool** recycling accumulation blocks between tasks
//!   ([`buffer_pool::ResultBufferPool`]),
//! * the **In-Place** aggregation strategy for multiplication: the block
//!   products contributing to one result block are packaged into a single
//!   task that folds them into one pooled accumulator — no intermediate
//!   product blocks are ever materialised. [`fold_tile`] is that fold and
//!   [`finish_tile`] its result-representation rule; every multiply in the
//!   workspace, local or distributed, simulated or in a worker process,
//!   reaches [`Block::matmul_acc`] through them.
//!
//! The paper's Figure 7 compares In-Place against the naive **Buffer**
//! strategy (materialise all `MA × NA × NB` intermediate block products,
//! aggregate at the end); [`AggregationMode`] selects between the two so the
//! experiment can be reproduced.

pub mod buffer_pool;
pub mod pool;

pub use buffer_pool::{PoolStats, ResultBufferPool};
pub use pool::run_tasks;

use std::ops::Range;
use std::sync::Arc;

use crate::block::Block;
use crate::blocked::BlockedMatrix;
use crate::csc::CscBlock;
use crate::dense::DenseBlock;
use crate::error::{MatrixError, Result};

/// How block products are aggregated into result blocks during
/// multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregationMode {
    /// One task per result block; products folded into a pooled accumulator
    /// in place (DMac's strategy).
    InPlace,
    /// One task per block product; all intermediates buffered, then summed
    /// (the baseline of Figure 7).
    Buffer,
}

/// The In-Place tile fold of Figure 4 — the one place a result tile's
/// block products are accumulated, for every executor in the workspace
/// (this crate's [`LocalExecutor`], the simulated cluster's RMM / CPMM,
/// and the `dmac-workerd` daemon).
///
/// Folds `Σ_k A[·,k]·B[k,·]` into one accumulator, visiting `ks` in the
/// order given (callers pass ascending `k`, which fixes the f64 summation
/// order) and skipping every term where either tile is all-zero. `at` /
/// `bt` look the two tiles of a term up; a lookup that comes back empty is
/// [`MatrixError::MissingTile`] naming `k`. The accumulator is acquired
/// from `pool`, zeroed, once some term contributes, so a fold no term
/// contributes to acquires nothing and returns `None`. An error after
/// that hands the accumulator back to the pool.
///
/// When every term is a dense pair the fold runs the one dense loop
/// ([`DenseBlock::matmul_acc`]'s) itself, with two parameters the data
/// decides (DESIGN §8l):
/// - **the triangle** — a square tile whose every left tile is finite and
///   bit-equal to its right tile's transpose is symmetric, so only its
///   cells with `j ≥ i` are computed, then mirrored. Same bits: products
///   commute, and a term one side's zero skip drops adds ±0 on the other,
///   which changes no bit of an accumulator that starts at +0;
/// - **row bands** — with `threads > 1` the accumulator's rows are cut
///   into at most one band per 16 rows and no more bands than threads,
///   balanced by the work of their rows; each band runs every term in
///   ascending `k` on a thread of its own.
pub fn fold_tile<'t>(
    pool: &ResultBufferPool,
    (rows, cols): (usize, usize),
    threads: usize,
    ks: impl IntoIterator<Item = usize>,
    mut at: impl FnMut(usize) -> Option<&'t Block>,
    mut bt: impl FnMut(usize) -> Option<&'t Block>,
) -> Result<Option<DenseBlock>> {
    let mut terms = Vec::new();
    for k in ks {
        match (at(k), bt(k)) {
            (Some(a), Some(b)) if a.is_all_zero() || b.is_all_zero() => {}
            (Some(a), Some(b)) => terms.push((a, b)),
            _ => return Err(MatrixError::MissingTile { k }),
        }
    }
    if terms.is_empty() {
        return Ok(None);
    }
    let mut acc = pool.acquire(rows, cols);
    let dense = (terms.iter())
        .map(|t| match *t {
            (Block::Dense(a), Block::Dense(b)) => Some((a, b)),
            _ => None,
        })
        .collect::<Option<Vec<_>>>();
    let folded = match dense {
        None => (terms.iter()).try_for_each(|(a, b)| a.matmul_acc(b, &mut acc)),
        Some(pairs) => (pairs.iter())
            .try_for_each(|(a, b)| a.check_acc(b, (rows, cols)))
            .map(|()| {
                let upper = rows == cols && pairs.iter().all(|(a, b)| a.is_finite_transpose_of(b));
                let run = |(span, band): (Range<usize>, &mut [f64])| {
                    for (a, b) in &pairs {
                        a.matmul_band(b, band, span.clone(), upper);
                    }
                };
                std::thread::scope(|s| {
                    let mut bands = row_bands(acc.data_mut(), cols, upper, threads).into_iter();
                    let first = bands.next();
                    for band in bands {
                        s.spawn(|| run(band));
                    }
                    if let Some(band) = first {
                        run(band);
                    }
                });
                if upper {
                    acc.mirror_upper();
                }
            }),
    };
    match folded {
        Ok(()) => Ok(Some(acc)),
        Err(e) => {
            pool.release(acc);
            Err(e)
        }
    }
}

/// Rows per band, on average, below which a fold is not cut further: a
/// band of a 128-row tile is at least 16 rows × its terms' depth.
const BAND_FLOOR: usize = 16;

/// The row bands of a `cols`-wide accumulator `data` for `threads`
/// threads: at most one band per [`BAND_FLOOR`] rows, each about equal
/// work. A row of the triangle (`upper`) costs its cells on and right of
/// the diagonal.
fn row_bands(
    mut data: &mut [f64],
    cols: usize,
    upper: bool,
    threads: usize,
) -> Vec<(Range<usize>, &mut [f64])> {
    let rows = data.len() / cols.max(1);
    let work = |i: usize| if upper { cols - i } else { cols };
    let total: usize = (0..rows).map(work).sum();
    let count = (rows / BAND_FLOOR).clamp(1, threads.max(1));
    let (mut bands, mut start, mut done) = (Vec::with_capacity(count), 0, 0);
    for i in 0..rows {
        done += work(i);
        let full = bands.len() + 1 < count && done * count >= total * (bands.len() + 1);
        if full || i + 1 == rows {
            let (band, rest) = std::mem::take(&mut data).split_at_mut((i + 1 - start) * cols);
            bands.push((start..i + 1, band));
            (start, data) = (i + 1, rest);
        }
    }
    bands
}

/// The result-representation rule of a finished fold: a tile with fewer
/// than half its cells non-zero is stored CSC and its accumulator goes back
/// to `pool`; otherwise the accumulator *is* the tile.
pub fn finish_tile(pool: &ResultBufferPool, acc: DenseBlock) -> Block {
    if acc.nnz() * 2 < acc.rows() * acc.cols() {
        let sparse = CscBlock::from_dense(&acc);
        pool.release(acc);
        Block::Sparse(sparse)
    } else {
        Block::Dense(acc)
    }
}

/// One result tile of a multiplication: [`fold_tile`], then
/// [`finish_tile`] (a fold nothing contributed to is the zero tile).
pub fn matmul_tile<'t>(
    pool: &ResultBufferPool,
    shape: (usize, usize),
    threads: usize,
    ks: impl IntoIterator<Item = usize>,
    at: impl FnMut(usize) -> Option<&'t Block>,
    bt: impl FnMut(usize) -> Option<&'t Block>,
) -> Result<Block> {
    Ok(match fold_tile(pool, shape, threads, ks, at, bt)? {
        Some(acc) => finish_tile(pool, acc),
        None => Block::zeros(shape.0, shape.1),
    })
}

/// CPMM's phase-2 combine for one output tile: sum the phase-1 partials in
/// the order given (callers pass ascending source worker) and compact. No
/// partial at all is the zero tile.
pub fn combine_partials<'t>(
    (rows, cols): (usize, usize),
    partials: impl IntoIterator<Item = &'t DenseBlock>,
) -> Result<Block> {
    let mut partials = partials.into_iter();
    let Some(first) = partials.next() else {
        return Ok(Block::zeros(rows, cols));
    };
    let mut acc = first.clone();
    for p in partials {
        acc.add_assign(p)?;
    }
    Ok(Block::Dense(acc).compact())
}

/// A multi-threaded local executor for blocked-matrix operations.
///
/// ```
/// use dmac_matrix::{AggregationMode, BlockedMatrix, LocalExecutor};
///
/// let a = BlockedMatrix::from_fn(8, 8, 4, |i, j| (i + j) as f64).unwrap();
/// let ex = LocalExecutor::new(2, AggregationMode::InPlace);
/// let c = ex.matmul(&a, &a).unwrap();
/// assert_eq!(c.to_dense(), a.matmul_reference(&a).unwrap().to_dense());
/// ```
#[derive(Debug)]
pub struct LocalExecutor {
    threads: usize,
    mode: AggregationMode,
    pool: ResultBufferPool,
}

impl LocalExecutor {
    /// Create an executor with `threads` local threads (the paper's `L`).
    pub fn new(threads: usize, mode: AggregationMode) -> Self {
        let threads = threads.max(1);
        LocalExecutor {
            threads,
            mode,
            pool: ResultBufferPool::new(2 * threads),
        }
    }

    /// Local thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured aggregation mode.
    pub fn mode(&self) -> AggregationMode {
        self.mode
    }

    /// Buffer-pool statistics (observability).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// `a · b` with the configured aggregation mode.
    pub fn matmul(&self, a: &BlockedMatrix, b: &BlockedMatrix) -> Result<BlockedMatrix> {
        if a.cols() != b.rows() || a.block_size() != b.block_size() {
            return Err(MatrixError::DimensionMismatch {
                op: "multiply",
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
            });
        }
        match self.mode {
            AggregationMode::InPlace => self.matmul_in_place(a, b),
            AggregationMode::Buffer => self.matmul_buffered(a, b),
        }
    }

    /// In-Place multiplication: one task per result block `(bi, bj)`, each
    /// folding all `k` products into a single pooled accumulator on its
    /// share of the threads ([`fold_tile`]'s row bands).
    fn matmul_in_place(&self, a: &BlockedMatrix, b: &BlockedMatrix) -> Result<BlockedMatrix> {
        let tasks: Vec<(usize, usize)> = (0..a.row_blocks())
            .flat_map(|bi| (0..b.col_blocks()).map(move |bj| (bi, bj)))
            .collect();
        let share = (self.threads / tasks.len().max(1)).max(1);
        let results = run_tasks(self.threads, tasks, |(bi, bj)| -> Result<Arc<Block>> {
            let shape = (a.block_rows_of(bi), b.block_cols_of(bj));
            let at = |k| Some(&**a.block_at(bi, k));
            let bt = |k| Some(&**b.block_at(k, bj));
            matmul_tile(&self.pool, shape, share, 0..a.col_blocks(), at, bt).map(Arc::new)
        });
        let blocks = results.into_iter().collect::<Result<Vec<_>>>()?;
        BlockedMatrix::from_blocks(a.rows(), b.cols(), a.block_size(), blocks)
    }

    /// Buffer multiplication: materialise every `(bi, bk, bj)` product as an
    /// intermediate dense block, then aggregate. This is intentionally
    /// memory-hungry; it exists to reproduce Figure 7.
    fn matmul_buffered(&self, a: &BlockedMatrix, b: &BlockedMatrix) -> Result<BlockedMatrix> {
        // Phase 1: all products.
        let mut triples = Vec::new();
        for bi in 0..a.row_blocks() {
            for bk in 0..a.col_blocks() {
                for bj in 0..b.col_blocks() {
                    if a.block_at(bi, bk).nnz() > 0 && b.block_at(bk, bj).nnz() > 0 {
                        triples.push((bi, bk, bj));
                    }
                }
            }
        }
        let products = run_tasks(
            self.threads,
            triples,
            |(bi, bk, bj)| -> Result<((usize, usize), Block)> {
                let mut acc = DenseBlock::zeros(a.block_rows_of(bi), b.block_cols_of(bj));
                a.block_at(bi, bk)
                    .matmul_acc(b.block_at(bk, bj), &mut acc)?;
                // Intermediates are buffered in their natural (compacted)
                // representation — the memory cost of this strategy is the
                // sheer *number* of intermediates held live at once.
                Ok(((bi, bj), Block::Dense(acc).compact()))
            },
        )
        .into_iter()
        .collect::<Result<Vec<_>>>()?;

        // Phase 2: group the buffered intermediates by result block and sum.
        let cb = b.col_blocks();
        let mut groups: Vec<Vec<Block>> = (0..a.row_blocks() * cb).map(|_| Vec::new()).collect();
        for ((bi, bj), p) in products {
            groups[bi * cb + bj].push(p);
        }
        let tasks: Vec<(usize, Vec<Block>)> = groups.into_iter().enumerate().collect();
        let results = run_tasks(self.threads, tasks, |(t, group)| -> Result<Arc<Block>> {
            let (bi, bj) = (t / cb, t % cb);
            let rows = a.block_rows_of(bi);
            let cols = b.block_cols_of(bj);
            let mut acc = DenseBlock::zeros(rows, cols);
            for p in &group {
                acc.add_assign(&p.to_dense())?;
            }
            Ok(Arc::new(Block::Dense(acc).compact()))
        });
        let blocks = results.into_iter().collect::<Result<Vec<_>>>()?;
        BlockedMatrix::from_blocks(a.rows(), b.cols(), a.block_size(), blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(rows: usize, cols: usize, block: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, block, |i, j| ((i * cols + j) % 7) as f64 - 3.0).unwrap()
    }

    fn sparse_rand(rows: usize, cols: usize, block: usize) -> BlockedMatrix {
        // deterministic pseudo-sparse pattern
        BlockedMatrix::from_triplets(
            rows,
            cols,
            block,
            (0..rows * cols)
                .filter(|t| t % 13 == 0)
                .map(|t| (t / cols, t % cols, (t % 5) as f64 + 1.0)),
        )
        .unwrap()
    }

    /// Non-negative entries, so no product is `-0.0` and skipping a zero
    /// tile cannot change a bit relative to multiplying it.
    fn ramp(rows: usize, cols: usize, block: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, block, |i, j| ((i * 3 + j * 5) % 4) as f64).unwrap()
    }

    fn as_csc(m: &BlockedMatrix) -> BlockedMatrix {
        let blocks = m
            .iter_blocks()
            .map(|(_, _, b)| Arc::new(Block::Sparse(CscBlock::from_dense(&b.to_dense()))))
            .collect();
        BlockedMatrix::from_blocks(m.rows(), m.cols(), m.block_size(), blocks).unwrap()
    }

    #[test]
    fn fold_matches_reference_bit_for_bit_on_ragged_grids_and_all_pairings() {
        // 10x7 · 7x9 at block 4: ragged edge tiles on every side and a
        // ragged last k-panel.
        let (ad, bd) = (ramp(10, 7, 4), ramp(7, 9, 4));
        let (a_sparse, b_sparse) = (as_csc(&ad), as_csc(&bd));
        let pool = ResultBufferPool::new(2);
        for a in [&ad, &a_sparse] {
            for b in [&bd, &b_sparse] {
                let expect = a.matmul_reference(b).unwrap();
                for bi in 0..a.row_blocks() {
                    for bj in 0..b.col_blocks() {
                        let tile = matmul_tile(
                            &pool,
                            (a.block_rows_of(bi), b.block_cols_of(bj)),
                            1,
                            0..a.col_blocks(),
                            |k| Some(&**a.block_at(bi, k)),
                            |k| Some(&**b.block_at(k, bj)),
                        )
                        .unwrap();
                        let bits = |t: &Block| -> Vec<u64> {
                            t.to_dense().data().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(&tile), bits(expect.block_at(bi, bj)), "({bi},{bj})");
                        // The representation rule: sparse iff nnz·2 < cells.
                        let cells = tile.rows() * tile.cols();
                        assert_eq!(tile.is_sparse(), tile.nnz() * 2 < cells, "({bi},{bj})");
                    }
                }
            }
        }
    }

    #[test]
    fn all_zero_tiles_are_skipped_without_touching_the_accumulator() {
        // The zero tile has the wrong shape: multiplying it would be a
        // DimensionMismatch, so an Ok result proves the term was skipped.
        let misfit = Block::zeros(5, 5);
        let two = Block::Dense(DenseBlock::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        let pool = ResultBufferPool::new(1);
        let none = fold_tile(&pool, (2, 2), 1, 0..3, |_| Some(&misfit), |_| Some(&two)).unwrap();
        assert!(none.is_none(), "no term contributed");
        assert_eq!(pool.stats().outstanding(), 0);
        let tile = matmul_tile(
            &pool,
            (2, 2),
            1,
            0..2,
            |k| Some(if k == 0 { &misfit } else { &two }),
            |_| Some(&two),
        )
        .unwrap();
        let expect = two.to_dense().matmul(&two.to_dense()).unwrap();
        assert_eq!(tile.to_dense(), expect);
    }

    #[test]
    fn a_fold_no_term_contributes_to_acquires_nothing() {
        let zero = Block::zeros(2, 2);
        let two = Block::Dense(DenseBlock::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap());
        let pool = ResultBufferPool::new(1);
        matmul_tile(&pool, (2, 2), 1, 0..1, |_| Some(&two), |_| Some(&two)).unwrap();
        let before = pool.stats();
        // Every term has a zero tile: on the right (k = 1), on the left
        // (k = 2), or both (k = 0).
        let (a, b) = ([&zero, &two, &zero], [&zero, &zero, &two]);
        let none = fold_tile(&pool, (2, 2), 1, 0..3, |k| Some(a[k]), |k| Some(b[k])).unwrap();
        assert!(none.is_none(), "no term contributed");
        assert_eq!(pool.stats().acquires(), before.acquires());
        assert_eq!(pool.stats(), before, "nothing acquired, nothing released");
    }

    #[test]
    fn missing_tile_is_typed_names_k_and_returns_the_accumulator() {
        let t = Block::Dense(DenseBlock::from_vec(1, 1, vec![2.0]).unwrap());
        let pool = ResultBufferPool::new(1);
        let err = matmul_tile(
            &pool,
            (1, 1),
            1,
            0..4,
            |k| (k != 2).then_some(&t),
            |_| Some(&t),
        );
        assert_eq!(err, Err(MatrixError::MissingTile { k: 2 }));
        assert_eq!(pool.stats().outstanding(), 0, "{:?}", pool.stats());
        // A kernel error mid-fold hands the accumulator back too.
        let wide = Block::dense_zeros(1, 3).add_scalar(1.0);
        assert!(fold_tile(&pool, (1, 1), 1, 0..1, |_| Some(&t), |_| Some(&wide)).is_err());
        assert_eq!(pool.stats().outstanding(), 0, "{:?}", pool.stats());
    }

    #[test]
    fn combine_sums_in_the_given_order_and_compacts() {
        let d = |v: f64| {
            let mut b = DenseBlock::zeros(3, 3);
            b.set(0, 0, v).unwrap();
            b
        };
        assert_eq!(combine_partials((3, 3), []).unwrap(), Block::zeros(3, 3));
        // (1e16 + 1) + 1 != 1e16 + (1 + 1): the left fold is observable.
        let parts = [d(1e16), d(1.0), d(1.0)];
        let sum = combine_partials((3, 3), &parts).unwrap();
        assert!(sum.is_sparse(), "one cell of nine compacts to CSC");
        assert_eq!(sum.get(0, 0).unwrap(), (1e16 + 1.0) + 1.0);
        assert_ne!(sum.get(0, 0).unwrap(), 1e16 + 2.0);
    }

    #[test]
    fn in_place_matches_reference() {
        let a = seq(13, 9, 4);
        let b = seq(9, 11, 4);
        let ex = LocalExecutor::new(4, AggregationMode::InPlace);
        let c = ex.matmul(&a, &b).unwrap();
        assert_eq!(c.to_dense(), a.matmul_reference(&b).unwrap().to_dense());
    }

    #[test]
    fn buffered_matches_reference() {
        let a = seq(13, 9, 4);
        let b = seq(9, 11, 4);
        let ex = LocalExecutor::new(4, AggregationMode::Buffer);
        let c = ex.matmul(&a, &b).unwrap();
        assert_eq!(c.to_dense(), a.matmul_reference(&b).unwrap().to_dense());
    }

    #[test]
    fn sparse_inputs_sparse_output() {
        let a = sparse_rand(40, 40, 8);
        let b = sparse_rand(40, 40, 8);
        let ex = LocalExecutor::new(2, AggregationMode::InPlace);
        let c = ex.matmul(&a, &b).unwrap();
        let expect = a.matmul_reference(&b).unwrap();
        assert_eq!(c.to_dense(), expect.to_dense());
        // the mostly-zero result should be held sparsely
        assert!(c.iter_blocks().filter(|(_, _, b)| b.is_sparse()).count() > 0);
    }

    #[test]
    fn pool_is_exercised_by_in_place_multiply() {
        let a = sparse_rand(64, 64, 8);
        let b = sparse_rand(64, 64, 8);
        let ex = LocalExecutor::new(2, AggregationMode::InPlace);
        let _ = ex.matmul(&a, &b).unwrap();
        let s = ex.pool_stats();
        assert!(s.reused + s.allocated >= 64, "{s:?}");
        assert!(
            s.reused > 0,
            "sparse results must recycle accumulators: {s:?}"
        );
    }

    #[test]
    fn dim_mismatch_is_rejected() {
        let a = seq(4, 4, 2);
        let b = seq(5, 5, 2);
        let ex = LocalExecutor::new(2, AggregationMode::InPlace);
        assert!(ex.matmul(&a, &b).is_err());
    }

    #[test]
    fn in_place_uses_less_memory_than_buffer() {
        // A multiplication with a long shared dimension: many intermediate
        // products per result block. Buffer must hold them all; In-Place
        // holds one accumulator per live task.
        let a = seq(32, 256, 8);
        let b = seq(256, 32, 8);
        // The counters are process-wide and the tests of this binary run in
        // parallel: a neighbour allocating inside a measured region inflates
        // that reading, one freeing deflates it. So each mode is read a few
        // times and the comparison takes, on either side, the reading a
        // disturbance would have had to reach every time to fail it falsely.
        let peak_of = |mode| {
            let ex = LocalExecutor::new(2, mode);
            let guard = crate::mem::PeakGuard::start();
            let c = ex.matmul(&a, &b).unwrap();
            (guard.peak_delta(), c)
        };
        let (mut ip_peak, c1) = peak_of(AggregationMode::InPlace);
        let (mut buf_peak, c2) = peak_of(AggregationMode::Buffer);
        for _ in 0..4 {
            ip_peak = ip_peak.min(peak_of(AggregationMode::InPlace).0);
            buf_peak = buf_peak.max(peak_of(AggregationMode::Buffer).0);
        }

        assert_eq!(c1.to_dense(), c2.to_dense());
        assert!(
            buf_peak > ip_peak,
            "buffer peak {buf_peak} should exceed in-place peak {ip_peak}"
        );
    }
}
