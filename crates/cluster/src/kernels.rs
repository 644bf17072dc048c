//! The kernels shared by the in-process simulator and the `dmac-workerd`
//! worker daemon: the reduction order, the multiply stage and the fused
//! tile task.
//!
//! A physical backend proves its results bit-equal to the simulator's,
//! which holds because both sides run this code. Reductions: each logical
//! worker folds its tiles in ascending `(bi, bj)` order ([`reduce_shard`]),
//! the driver combines the per-worker partials in ascending worker order
//! ([`reduce_combine`]). Multiplies: one [`MulStage`] per logical worker,
//! the only caller under `crates/cluster/src` of
//! [`dmac_matrix::exec::fold_tile`] / [`dmac_matrix::exec::matmul_tile`].
//! A compute stage's output tile — an RMM's, a cell-wise operator's or a
//! fused chain's — is one [`fused_tile`] task.

use dmac_matrix::exec::{fold_tile, matmul_tile, ResultBufferPool};
use dmac_matrix::{eval_fused_block, Block, DenseBlock, FusedOp, MatrixError};

use crate::cluster::ReduceKind;

type Result<T> = std::result::Result<T, MatrixError>;

/// One operand of a multiply stage: the tiles a shard holds, found by block
/// coordinate with an index instead of a hash or tree probe per term.
/// Row-major over the bounding grid of the keys *held* — a command or a
/// grid description never sizes it.
struct TileGrid<'t> {
    rows: usize,
    cols: usize,
    tiles: Vec<Option<&'t Block>>,
}

/// Grid cells a [`TileGrid`] may span per tile held. A Row or Column shard
/// fills one `N`-th of its bounding grid, so this is a worker count no
/// cluster here reaches; a stray key far outside a small shard (which would
/// otherwise size the index) is past it.
const MAX_SPREAD: usize = 1 << 12;

impl<'t> TileGrid<'t> {
    fn new(held: impl Iterator<Item = ((usize, usize), &'t Block)> + Clone) -> Result<Self> {
        let (mut rows, mut cols, mut count) = (0usize, 0usize, 0usize);
        for ((bi, bj), _) in held.clone() {
            rows = rows.max(bi.saturating_add(1));
            cols = cols.max(bj.saturating_add(1));
            count += 1;
        }
        let cells = rows
            .checked_mul(cols)
            .filter(|&cells| cells / MAX_SPREAD <= count)
            .ok_or_else(|| {
                MatrixError::MalformedSparse(format!(
                    "a shard of {count} tiles spans a {rows}x{cols} block grid"
                ))
            })?;
        let mut tiles = vec![None; cells];
        for ((bi, bj), tile) in held {
            tiles[bi * cols + bj] = Some(tile);
        }
        Ok(TileGrid { rows, cols, tiles })
    }

    #[inline]
    fn get(&self, bi: usize, bj: usize) -> Option<&'t Block> {
        if bi < self.rows && bj < self.cols {
            self.tiles[bi * self.cols + bj]
        } else {
            None
        }
    }
}

/// One logical worker's multiply stage (Figure 4): both operand shards
/// resolved once, every task of the stage folded against them. RMM tasks
/// are [`MulStage::product`], CPMM phase-1 tasks [`MulStage::partial`] —
/// ascending `k`, all-zero terms skipped, an absent tile
/// [`MatrixError::MissingTile`], in the simulator and in the daemon alike.
pub struct MulStage<'t> {
    a: TileGrid<'t>,
    b: TileGrid<'t>,
    kb: usize,
}

impl<'t> MulStage<'t> {
    /// Resolve the shards `a` and `b` of a product over `kb` blocks of the
    /// shared dimension. No shared block, or a shard holding a tile at or
    /// past `kb`, is an error: the product described is not one these
    /// shards are operands of.
    pub fn new(
        a: impl Iterator<Item = ((usize, usize), &'t Block)> + Clone,
        b: impl Iterator<Item = ((usize, usize), &'t Block)> + Clone,
        kb: usize,
    ) -> Result<Self> {
        let (a, b) = (TileGrid::new(a)?, TileGrid::new(b)?);
        if kb == 0 || a.cols.max(b.rows) > kb {
            return Err(MatrixError::MalformedSparse(format!(
                "a product over {kb} shared blocks of shards that hold {} and {}",
                a.cols, b.rows
            )));
        }
        Ok(MulStage { a, b, kb })
    }

    /// Block rows the left shard holds × block columns the right one does:
    /// the result grid when each shard spans its operand's full extent on
    /// that side (CPMM's Column × Row shards do).
    pub fn out_grid(&self) -> (usize, usize) {
        (self.a.rows, self.b.cols)
    }

    /// The RMM task: result tile `at = (bi, bj)`, all `kb` terms, on
    /// `threads` local threads.
    pub fn product(
        &self,
        (pool, threads): (&ResultBufferPool, usize),
        shape: (usize, usize),
        at: (usize, usize),
    ) -> Result<Block> {
        self.check(shape, at, 0)?;
        let (a, b) = (self.a_row(at.0), self.b_col(at.1));
        matmul_tile(pool, shape, threads, 0..self.kb, a, b)
    }

    /// The shape result tile `at` has: the rows of the left shard's first
    /// term tile, the columns of the right's — what a task that is not
    /// told it reads off its operands.
    pub fn shape_at(&self, (bi, bj): (usize, usize)) -> Result<(usize, usize)> {
        match (self.a.get(bi, 0), self.b.get(0, bj)) {
            (Some(a), Some(b)) => Ok((a.rows(), b.cols())),
            _ => Err(MatrixError::MissingTile { k: 0 }),
        }
    }

    /// The CPMM phase-1 task of logical worker `w` of `n`: the terms
    /// `k ≡ w (mod n)` of result tile `at`, as the raw accumulator; `None`
    /// when none contributed.
    pub fn partial(
        &self,
        (pool, threads): (&ResultBufferPool, usize),
        shape: (usize, usize),
        at: (usize, usize),
        (w, n): (usize, usize),
    ) -> Result<Option<DenseBlock>> {
        if w >= self.kb {
            return Ok(None);
        }
        self.check(shape, at, w)?;
        let ks = (w..self.kb).step_by(n.max(1));
        fold_tile(pool, shape, threads, ks, self.a_row(at.0), self.b_col(at.1))
    }

    fn a_row(&self, bi: usize) -> impl Fn(usize) -> Option<&'t Block> + '_ {
        move |k| self.a.get(bi, k)
    }

    fn b_col(&self, bj: usize) -> impl Fn(usize) -> Option<&'t Block> + '_ {
        move |k| self.b.get(k, bj)
    }

    /// Before an accumulator is sized by `shape`, hold it against the tiles
    /// of the task's first term, `first < kb`: a result tile has its
    /// operands' shape, whoever describes it.
    fn check(&self, shape: (usize, usize), (bi, bj): (usize, usize), first: usize) -> Result<()> {
        match (self.a.get(bi, first), self.b.get(first, bj)) {
            (Some(a), Some(b)) if (a.rows(), b.cols()) == shape => Ok(()),
            (Some(a), Some(b)) => Err(MatrixError::DimensionMismatch {
                op: "multiply-acc",
                left: shape,
                right: (a.rows(), b.cols()),
            }),
            _ => Err(MatrixError::MissingTile { k: first }),
        }
    }
}

/// One output tile of a fused stage, shape `shape` at `at` (the Row
/// template's task): each of `muls` folds its product tile there
/// ([`MulStage::product`]), then the cell-wise program `prog` runs over
/// the `plain` leaf tiles followed by those ([`eval_fused_block`]). A
/// program that is one product leaf — a lone multiply — is that
/// product's tile, not a copy of it. The product tiles are dropped, not
/// handed back to `pool`: handing them back measured slower (DESIGN
/// §8d).
pub fn fused_tile(
    (pool, threads): (&ResultBufferPool, usize),
    prog: &[FusedOp],
    plain: &[&Block],
    muls: &[MulStage<'_>],
    shape: (usize, usize),
    at: (usize, usize),
) -> Result<Block> {
    let mut products = (muls.iter())
        .map(|m| m.product((pool, threads), shape, at))
        .collect::<Result<Vec<Block>>>()?;
    if let [FusedOp::Leaf(i)] = *prog {
        if let Some(j) = i.checked_sub(plain.len()).filter(|&j| j < products.len()) {
            return Ok(products.swap_remove(j));
        }
    }
    let leaves: Vec<&Block> = plain.iter().copied().chain(&products).collect();
    eval_fused_block(prog, &leaves, pool)
}

/// Fold one logical worker's tiles, visited in ascending `(bi, bj)`
/// order, into a raw (un-finished) reduction partial.
pub fn reduce_shard<'t>(kind: ReduceKind, tiles: impl Iterator<Item = &'t Block>) -> f64 {
    let mut partial = 0.0;
    for t in tiles {
        partial += kind.fold_tile(t);
    }
    partial
}

/// Combine per-worker raw partials (indexed by logical worker,
/// ascending) into the raw total. A Broadcast-partitioned matrix is
/// fully replicated, so only worker 0's partial counts — the others are
/// identical copies.
pub fn reduce_combine(broadcast: bool, partials: &[f64]) -> f64 {
    if broadcast {
        partials.first().copied().unwrap_or(0.0)
    } else {
        let mut total = 0.0;
        for &p in partials {
            total += p;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    type Shard = BTreeMap<(usize, usize), Block>;

    /// A `rows x cols` grid of 2x2 tiles, tile `(bi, bj)` filled with
    /// `bi * 10 + bj + 1`.
    fn shard(rows: usize, cols: usize) -> Shard {
        let keys = (0..rows).flat_map(|bi| (0..cols).map(move |bj| (bi, bj)));
        keys.map(|(bi, bj)| {
            let fill = (bi * 10 + bj + 1) as f64;
            (
                (bi, bj),
                Block::Dense(DenseBlock::from_fn(2, 2, |_, _| fill)),
            )
        })
        .collect()
    }

    fn tiles(shard: &Shard) -> impl Iterator<Item = ((usize, usize), &Block)> + Clone {
        shard.iter().map(|(&k, t)| (k, t))
    }

    #[test]
    fn stage_folds_like_the_lookups_it_replaced() {
        let (a, b) = (shard(2, 3), shard(3, 2));
        let pool = ResultBufferPool::new(2);
        let local = (&pool, 1);
        let stage = MulStage::new(tiles(&a), tiles(&b), 3).unwrap();
        assert_eq!(stage.out_grid(), (2, 2));
        for (bi, bj) in [(0, 0), (1, 0), (1, 1)] {
            let (at, bt) = (|k| a.get(&(bi, k)), |k| b.get(&(k, bj)));
            let want = matmul_tile(&pool, (2, 2), 1, 0..3, at, bt).unwrap();
            let got = stage.product(local, (2, 2), (bi, bj)).unwrap();
            assert!(got.bits_eq(&want), "product ({bi},{bj})");
            // Worker 1 of 2 folds k = 1 alone.
            let want = fold_tile(&pool, (2, 2), 1, [1], at, bt).unwrap();
            let got = stage.partial(local, (2, 2), (bi, bj), (1, 2)).unwrap();
            assert_eq!(got, want, "partial ({bi},{bj})");
        }
        // A worker past the shared dimension has no term, and takes no
        // accumulator to find that out.
        let before = pool.stats();
        assert_eq!(stage.partial(local, (2, 2), (0, 0), (3, 4)), Ok(None));
        assert_eq!(pool.stats(), before);
    }

    #[test]
    fn stage_errors_are_typed_and_sized_by_the_shards() {
        let (mut a, b) = (shard(2, 3), shard(3, 2));
        let pool = ResultBufferPool::new(2);
        let local = (&pool, 1);
        fn missing<T>(k: usize) -> Result<T> {
            Err(MatrixError::MissingTile { k })
        }

        // The tile a product needs first, or a later one.
        a.remove(&(1, 2));
        let stage = MulStage::new(tiles(&a), tiles(&b), 3).unwrap();
        assert_eq!(stage.product(local, (2, 2), (1, 0)), missing(2));
        assert_eq!(stage.partial(local, (2, 2), (1, 1), (2, 3)), missing(2));
        assert!(stage.product(local, (2, 2), (0, 0)).is_ok());
        // A result tile outside what the shards span, however far.
        assert_eq!(stage.product(local, (2, 2), (2, 0)), missing(0));
        assert_eq!(stage.product(local, (2, 2), (0, usize::MAX)), missing(0));
        // A described shape the operands do not have never sizes a buffer.
        let acquired = pool.stats();
        let huge = (usize::MAX, usize::MAX);
        for shape in [(2, 3), (0, 0), huge] {
            let err = stage.product(local, shape, (0, 0)).unwrap_err();
            assert!(
                matches!(err, MatrixError::DimensionMismatch { .. }),
                "{err}"
            );
            let err = stage.partial(local, shape, (0, 0), (1, 2)).unwrap_err();
            assert!(
                matches!(err, MatrixError::DimensionMismatch { .. }),
                "{err}"
            );
        }
        assert_eq!(pool.stats(), acquired);

        // A shared dimension the shards contradict: none, or shorter than
        // what they hold. Longer is a missing tile where it runs out.
        for kb in [0, 2] {
            assert!(MulStage::new(tiles(&a), tiles(&b), kb).is_err(), "kb {kb}");
        }
        let long = MulStage::new(tiles(&a), tiles(&b), usize::MAX).unwrap();
        assert_eq!(long.product(local, (2, 2), (0, 0)), missing(3));

        // One stray key must not size the index: a shard of 7 tiles
        // spanning 2^40 block rows is refused, not allocated.
        let mut stray = shard(3, 2);
        stray.insert((1 << 40, 0), Block::zeros(2, 2));
        let err = MulStage::new(tiles(&a), tiles(&stray), 1 << 41).err();
        assert!(
            matches!(err, Some(MatrixError::MalformedSparse(_))),
            "{err:?}"
        );
        stray.insert((usize::MAX, usize::MAX), Block::zeros(2, 2));
        assert!(MulStage::new(tiles(&stray), tiles(&b), usize::MAX).is_err());
        // No shard at all is the empty stage: every tile is missing.
        let empty = Shard::new();
        let none = MulStage::new(tiles(&empty), tiles(&b), 3).unwrap();
        assert_eq!(none.out_grid(), (0, 2));
        assert_eq!(none.product(local, (2, 2), (0, 0)), missing(0));
    }

    #[test]
    fn reduce_combine_broadcast_uses_first_partial() {
        assert_eq!(reduce_combine(true, &[2.5, 2.5, 2.5]), 2.5);
        assert_eq!(reduce_combine(false, &[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(reduce_combine(true, &[]), 0.0);
    }
}
