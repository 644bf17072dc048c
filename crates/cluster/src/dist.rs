//! [`DistMatrix`]: a blocked matrix partitioned across simulated workers.
//!
//! A distributed matrix is a block grid (same geometry as
//! [`dmac_matrix::BlockedMatrix`]) plus a [`PartitionScheme`] that decides
//! which worker stores each tile. Tiles are `Arc`-shared: replication for
//! Broadcast is logical, and the communication meter (in
//! [`crate::cluster`]) charges the bytes the real copies would cost.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dmac_matrix::{Block, BlockedMatrix};

use crate::error::{ClusterError, Result};
use crate::partition::PartitionScheme;

/// Process-global counter behind [`DistMatrix::rid`]. Every materialised
/// distributed value gets a fresh identity; clones share it (they are the
/// same value). Transport backends key worker-side tile stores on rids.
static NEXT_RID: AtomicU64 = AtomicU64::new(1);

pub(crate) fn fresh_rid() -> u64 {
    NEXT_RID.fetch_add(1, Ordering::Relaxed)
}

/// Geometry of a block grid (shared by all per-worker stores).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridMeta {
    /// Total rows.
    pub rows: usize,
    /// Total columns.
    pub cols: usize,
    /// Square block size.
    pub block: usize,
    /// Grid height in blocks.
    pub row_blocks: usize,
    /// Grid width in blocks.
    pub col_blocks: usize,
}

impl GridMeta {
    /// Geometry for an `rows × cols` matrix with `block`-sized tiles.
    pub fn new(rows: usize, cols: usize, block: usize) -> GridMeta {
        GridMeta {
            rows,
            cols,
            block,
            row_blocks: dmac_matrix::blocking::blocks_along(rows, block),
            col_blocks: dmac_matrix::blocking::blocks_along(cols, block),
        }
    }

    /// Rows covered by block-row `bi` (none past the grid).
    pub fn block_rows_of(&self, bi: usize) -> usize {
        let start = bi.saturating_mul(self.block);
        self.block.min(self.rows.saturating_sub(start))
    }

    /// Columns covered by block-column `bj` (none past the grid).
    pub fn block_cols_of(&self, bj: usize) -> usize {
        let start = bj.saturating_mul(self.block);
        self.block.min(self.cols.saturating_sub(start))
    }

    /// Geometry of the transposed grid.
    pub fn transposed(&self) -> GridMeta {
        GridMeta {
            rows: self.cols,
            cols: self.rows,
            block: self.block,
            row_blocks: self.col_blocks,
            col_blocks: self.row_blocks,
        }
    }
}

/// What a primitive reads: a held value `m`, as it is held or — a *view*,
/// Table 2's free Transpose dependency — as its transpose, which the
/// primitive reading it resolves into scratch on either backend.
#[derive(Debug, Clone, Copy)]
pub struct View<M> {
    /// The held value.
    pub m: M,
    /// Read as its transpose.
    pub transposed: bool,
}

impl<M> From<M> for View<M> {
    /// A value read as it is held.
    fn from(m: M) -> View<M> {
        View {
            m,
            transposed: false,
        }
    }
}

impl View<DistMatrix> {
    /// The view of the same value, borrowed.
    pub fn borrowed(&self) -> View<&DistMatrix> {
        View {
            m: &self.m,
            transposed: self.transposed,
        }
    }
}

impl View<&DistMatrix> {
    /// The grid the view reads: the held value's, transposed with it.
    pub fn meta(&self) -> GridMeta {
        let meta = *self.m.meta();
        if self.transposed {
            meta.transposed()
        } else {
            meta
        }
    }
}

/// A matrix distributed over `N` simulated workers.
#[derive(Debug, Clone)]
pub struct DistMatrix {
    meta: GridMeta,
    scheme: PartitionScheme,
    /// Process-unique identity of this materialisation (see
    /// [`DistMatrix::rid`]).
    rid: u64,
    /// `stores[w]` maps block coordinates to the tiles worker `w` holds.
    stores: Vec<HashMap<(usize, usize), Arc<Block>>>,
}

impl DistMatrix {
    /// Distribute a local blocked matrix under `scheme` over `workers`
    /// workers. This is the *initial load* — no communication is metered
    /// here; the caller's cluster decides whether loading counts.
    pub fn from_blocked(m: &BlockedMatrix, scheme: PartitionScheme, workers: usize) -> DistMatrix {
        let meta = GridMeta::new(m.rows(), m.cols(), m.block_size());
        let mut stores = vec![HashMap::new(); workers];
        for (bi, bj, tile) in m.iter_blocks() {
            match scheme.owner(bi, bj, workers) {
                Some(w) => {
                    stores[w].insert((bi, bj), Arc::clone(tile));
                }
                None => {
                    for store in stores.iter_mut() {
                        store.insert((bi, bj), Arc::clone(tile));
                    }
                }
            }
        }
        DistMatrix {
            meta,
            scheme,
            rid: fresh_rid(),
            stores,
        }
    }

    /// Rebuild a matrix from explicitly placed tiles, preserving the
    /// exact physical layout a previous run produced (the disk tier's
    /// decode path). Each tile is `(worker, bi, bj, tile)`; a `None`
    /// worker replicates the tile on every worker (Broadcast). The
    /// result is [`DistMatrix::validate`]d, so torn or mislabelled
    /// serialisations are rejected rather than silently accepted.
    pub fn from_placed_tiles(
        rows: usize,
        cols: usize,
        block: usize,
        scheme: PartitionScheme,
        workers: usize,
        tiles: impl IntoIterator<Item = (Option<usize>, usize, usize, Arc<Block>)>,
    ) -> Result<DistMatrix> {
        let meta = GridMeta::new(rows, cols, block);
        let mut stores = vec![HashMap::new(); workers.max(1)];
        for (w, bi, bj, tile) in tiles {
            match w {
                Some(w) => {
                    let store = stores.get_mut(w).ok_or_else(|| {
                        ClusterError::Matrix(dmac_matrix::MatrixError::MalformedSparse(format!(
                            "tile ({bi},{bj}) placed on worker {w} of {workers}"
                        )))
                    })?;
                    store.insert((bi, bj), tile);
                }
                None => {
                    for store in stores.iter_mut() {
                        store.insert((bi, bj), Arc::clone(&tile));
                    }
                }
            }
        }
        let d = DistMatrix {
            meta,
            scheme,
            rid: fresh_rid(),
            stores,
        };
        d.validate()?;
        Ok(d)
    }

    /// Build directly from per-worker stores (used by cluster primitives).
    pub(crate) fn from_parts(
        meta: GridMeta,
        scheme: PartitionScheme,
        stores: Vec<HashMap<(usize, usize), Arc<Block>>>,
    ) -> DistMatrix {
        DistMatrix::from_minted(fresh_rid(), meta, scheme, stores)
    }

    /// [`DistMatrix::from_parts`] under a rid minted before the tiles
    /// existed — a stage posted to the workers before the oracle computed it.
    pub(crate) fn from_minted(
        rid: u64,
        meta: GridMeta,
        scheme: PartitionScheme,
        stores: Vec<HashMap<(usize, usize), Arc<Block>>>,
    ) -> DistMatrix {
        DistMatrix {
            meta,
            scheme,
            rid,
            stores,
        }
    }

    /// The grid geometry.
    pub fn meta(&self) -> &GridMeta {
        &self.meta
    }

    /// Process-unique identity of this materialisation. Every
    /// construction site (`load`, a primitive's output, a recovery
    /// replay) mints a fresh rid; [`Clone`] shares it because a clone *is*
    /// the same value. Transport backends key worker-side tile stores on
    /// `(rid, logical worker)` so a replayed value never aliases stale
    /// physical state from before a failure.
    pub fn rid(&self) -> u64 {
        self.rid
    }

    /// Total rows.
    pub fn rows(&self) -> usize {
        self.meta.rows
    }

    /// Total columns.
    pub fn cols(&self) -> usize {
        self.meta.cols
    }

    /// Block size.
    pub fn block_size(&self) -> usize {
        self.meta.block
    }

    /// The matrix's partition scheme.
    pub fn scheme(&self) -> PartitionScheme {
        self.scheme
    }

    /// Number of workers this matrix is spread over.
    pub fn workers(&self) -> usize {
        self.stores.len()
    }

    /// Which worker owns block `(bi, bj)`; `None` under Broadcast.
    pub fn owner_of(&self, bi: usize, bj: usize) -> Option<usize> {
        self.scheme.owner(bi, bj, self.stores.len())
    }

    /// Tiles held by worker `w`.
    pub fn worker_blocks(&self, w: usize) -> &HashMap<(usize, usize), Arc<Block>> {
        &self.stores[w]
    }

    /// Take worker `w`'s tiles out of this handle, leaving it none there
    /// (a consuming primitive draining its operand).
    pub(crate) fn take_worker_blocks(&mut self, w: usize) -> HashMap<(usize, usize), Arc<Block>> {
        std::mem::take(&mut self.stores[w])
    }

    /// Look up a block on a specific worker.
    pub fn block_on(&self, w: usize, bi: usize, bj: usize) -> Option<&Arc<Block>> {
        self.stores[w].get(&(bi, bj))
    }

    /// Bytes of one logical copy of the matrix (sum over distinct tiles).
    pub fn logical_bytes(&self) -> u64 {
        let mut seen: HashMap<(usize, usize), u64> = HashMap::new();
        for store in &self.stores {
            for (&k, tile) in store {
                seen.entry(k).or_insert(tile.actual_bytes() as u64);
            }
        }
        seen.values().sum()
    }

    /// Number of stored tiles summed across all workers (counts replicas:
    /// a Broadcast matrix reports `N ×` the logical tile count). Used by
    /// the flight recorder as a "blocks touched" measure.
    pub fn tile_count(&self) -> usize {
        self.stores.iter().map(HashMap::len).sum()
    }

    /// Exact non-zero count of one logical copy.
    pub fn nnz(&self) -> usize {
        let mut seen: HashMap<(usize, usize), usize> = HashMap::new();
        for store in &self.stores {
            for (&k, tile) in store {
                seen.entry(k).or_insert(tile.nnz());
            }
        }
        seen.values().sum()
    }

    /// Simulate losing the in-memory state of the given logical workers
    /// (their physical host died): every tile they held is dropped.
    /// Returns the bytes lost; a non-zero return means the matrix is no
    /// longer complete and must be rebuilt through lineage before use.
    pub fn drop_workers(&mut self, workers: &[usize]) -> u64 {
        let mut lost = 0u64;
        for &w in workers {
            if w >= self.stores.len() {
                continue;
            }
            for tile in self.stores[w].values() {
                lost += tile.actual_bytes() as u64;
            }
            self.stores[w].clear();
        }
        lost
    }

    /// Gather every tile into a local [`BlockedMatrix`] (driver-side
    /// collect; used for result extraction and tests).
    pub fn to_blocked(&self) -> Result<BlockedMatrix> {
        let mut grid: Vec<Option<Arc<Block>>> =
            vec![None; self.meta.row_blocks * self.meta.col_blocks];
        for store in &self.stores {
            for (&(bi, bj), tile) in store {
                grid[bi * self.meta.col_blocks + bj] = Some(Arc::clone(tile));
            }
        }
        let blocks = grid
            .into_iter()
            .enumerate()
            .map(|(t, b)| {
                b.ok_or_else(|| {
                    ClusterError::Matrix(dmac_matrix::MatrixError::MalformedSparse(format!(
                        "missing block ({}, {})",
                        t / self.meta.col_blocks,
                        t % self.meta.col_blocks
                    )))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        BlockedMatrix::from_blocks(self.meta.rows, self.meta.cols, self.meta.block, blocks)
            .map_err(ClusterError::from)
    }

    /// The value as a view with bit `transposed` reads it: `self`, or its
    /// transpose in scratch under a fresh rid — each worker's tiles
    /// transposed and re-keyed `(j, i)` where they are, each distinct `Arc`
    /// once (Broadcast copies share one), each tile of `self` dropped once
    /// its transpose exists.
    pub(crate) fn resolve(self, transposed: bool) -> DistMatrix {
        if !transposed {
            return self;
        }
        let DistMatrix {
            meta,
            scheme,
            stores: held,
            ..
        } = self;
        let mut stores = vec![HashMap::new(); held.len()];
        let mut copies: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for (w, store) in held.into_iter().enumerate() {
            for (k, tile) in store {
                copies.entry(k).or_default().push((w, tile));
            }
        }
        for ((bi, bj), held) in copies {
            let mut made: Vec<(Arc<Block>, Arc<Block>)> = Vec::with_capacity(1);
            for (w, tile) in held {
                let t = match made.iter().find(|(src, _)| Arc::ptr_eq(src, &tile)) {
                    Some((_, t)) => Arc::clone(t),
                    None => {
                        let t = Arc::new(tile.transpose());
                        made.push((tile, Arc::clone(&t)));
                        t
                    }
                };
                stores[w].insert((bj, bi), t);
            }
        }
        DistMatrix {
            meta: meta.transposed(),
            scheme: scheme.flip(),
            rid: fresh_rid(),
            stores,
        }
    }

    /// Purely local extract (Broadcast → Row/Column): each worker keeps only
    /// the tiles it would own under `target` and drops the rest. The
    /// runtime realisation of the *Extract dependency* — zero communication.
    pub fn extract_local(&self, target: PartitionScheme) -> Result<DistMatrix> {
        if self.scheme != PartitionScheme::Broadcast {
            return Err(ClusterError::SchemeMismatch {
                expected: PartitionScheme::Broadcast,
                actual: self.scheme,
                op: "extract",
            });
        }
        if !target.is_rc() {
            return Err(ClusterError::SchemeMismatch {
                expected: PartitionScheme::Row,
                actual: target,
                op: "extract",
            });
        }
        let n = self.stores.len();
        let stores = self
            .stores
            .iter()
            .enumerate()
            .map(|(w, store)| {
                store
                    .iter()
                    .filter(|(&(bi, bj), _)| target.owner(bi, bj, n) == Some(w))
                    .map(|(&k, tile)| (k, Arc::clone(tile)))
                    .collect()
            })
            .collect();
        Ok(DistMatrix {
            meta: self.meta,
            scheme: target,
            rid: fresh_rid(),
            stores,
        })
    }

    /// Internal consistency check: every block present exactly where the
    /// scheme says, shapes correct. Used by tests and debug assertions.
    pub fn validate(&self) -> Result<()> {
        let n = self.stores.len();
        if self.scheme == PartitionScheme::Hash {
            // Hash is an arbitrary scatter (and local transposes keep
            // blocks where they were): require each block to exist exactly
            // once somewhere, with the right shape.
            let mut seen = std::collections::HashSet::new();
            for store in &self.stores {
                for (&(bi, bj), tile) in store {
                    if !seen.insert((bi, bj)) {
                        return Err(ClusterError::Matrix(
                            dmac_matrix::MatrixError::MalformedSparse(format!(
                                "hash block ({bi},{bj}) stored twice"
                            )),
                        ));
                    }
                    check_shape(&self.meta, bi, bj, tile)?;
                }
            }
            if seen.len() != self.meta.row_blocks * self.meta.col_blocks {
                return Err(ClusterError::Matrix(
                    dmac_matrix::MatrixError::MalformedSparse(format!(
                        "hash placement holds {} of {} blocks",
                        seen.len(),
                        self.meta.row_blocks * self.meta.col_blocks
                    )),
                ));
            }
            return Ok(());
        }
        for bi in 0..self.meta.row_blocks {
            for bj in 0..self.meta.col_blocks {
                match self.scheme.owner(bi, bj, n) {
                    Some(w) => {
                        let tile = self.stores[w].get(&(bi, bj)).ok_or_else(|| {
                            ClusterError::Matrix(dmac_matrix::MatrixError::MalformedSparse(
                                format!("block ({bi},{bj}) missing on owner {w}"),
                            ))
                        })?;
                        check_shape(&self.meta, bi, bj, tile)?;
                    }
                    None => {
                        for (w, store) in self.stores.iter().enumerate() {
                            let tile = store.get(&(bi, bj)).ok_or_else(|| {
                                ClusterError::Matrix(dmac_matrix::MatrixError::MalformedSparse(
                                    format!("broadcast block ({bi},{bj}) missing on worker {w}"),
                                ))
                            })?;
                            check_shape(&self.meta, bi, bj, tile)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn check_shape(meta: &GridMeta, bi: usize, bj: usize, tile: &Block) -> Result<()> {
    let (er, ec) = (meta.block_rows_of(bi), meta.block_cols_of(bj));
    if tile.rows() != er || tile.cols() != ec {
        return Err(ClusterError::Matrix(
            dmac_matrix::MatrixError::DimensionMismatch {
                op: "validate",
                left: (tile.rows(), tile.cols()),
                right: (er, ec),
            },
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(rows: usize, cols: usize, block: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, block, |i, j| (i * cols + j) as f64).unwrap()
    }

    #[test]
    fn row_distribution_places_block_rows() {
        let m = sample(10, 6, 2); // 5x3 grid
        let d = DistMatrix::from_blocked(&m, PartitionScheme::Row, 4);
        d.validate().unwrap();
        // block-row 4 -> worker 0 (4 % 4)
        assert!(d.block_on(0, 4, 0).is_some());
        assert!(d.block_on(1, 4, 0).is_none());
        assert_eq!(d.worker_blocks(1).len(), 3); // block-row 1 only
        assert_eq!(d.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn broadcast_replicates_everywhere() {
        let m = sample(4, 4, 2);
        let d = DistMatrix::from_blocked(&m, PartitionScheme::Broadcast, 3);
        d.validate().unwrap();
        for w in 0..3 {
            assert_eq!(d.worker_blocks(w).len(), 4);
        }
        // logical bytes counted once, not three times
        assert_eq!(d.logical_bytes(), m.actual_bytes() as u64);
    }

    #[test]
    fn a_resolved_view_flips_scheme_and_data() {
        let m = sample(6, 4, 2);
        let d = DistMatrix::from_blocked(&m, PartitionScheme::Row, 2);
        let t = d.resolve(true);
        assert_eq!(t.scheme(), PartitionScheme::Col);
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 6);
        t.validate().unwrap();
        assert_eq!(t.to_blocked().unwrap().to_dense(), m.to_dense().transpose());

        // A Broadcast value's workers share one `Arc` per tile; so do the
        // copies of its transpose, each tile transposed once.
        let b = DistMatrix::from_blocked(&m, PartitionScheme::Broadcast, 3);
        let t = b.resolve(true);
        assert_eq!(t.scheme(), PartitionScheme::Broadcast);
        t.validate().unwrap();
        let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = m.to_dense().transpose();
        assert_eq!(
            bits(t.to_blocked().unwrap().to_dense().data()),
            bits(want.data())
        );
        for (k, tile) in t.worker_blocks(0) {
            for w in 1..t.workers() {
                assert!(Arc::ptr_eq(tile, &t.worker_blocks(w)[k]), "tile {k:?}");
            }
        }
    }

    #[test]
    fn extract_from_broadcast_is_local_and_exact() {
        let m = sample(8, 8, 2);
        let b = DistMatrix::from_blocked(&m, PartitionScheme::Broadcast, 2);
        let r = b.extract_local(PartitionScheme::Row).unwrap();
        assert_eq!(r.scheme(), PartitionScheme::Row);
        r.validate().unwrap();
        assert_eq!(r.to_blocked().unwrap().to_dense(), m.to_dense());
        let c = b.extract_local(PartitionScheme::Col).unwrap();
        c.validate().unwrap();
        assert_eq!(c.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn extract_requires_broadcast_source_and_rc_target() {
        let m = sample(4, 4, 2);
        let r = DistMatrix::from_blocked(&m, PartitionScheme::Row, 2);
        assert!(r.extract_local(PartitionScheme::Col).is_err());
        let b = DistMatrix::from_blocked(&m, PartitionScheme::Broadcast, 2);
        assert!(b.extract_local(PartitionScheme::Broadcast).is_err());
    }

    #[test]
    fn hash_placement_scatters() {
        let m = sample(8, 8, 2);
        let d = DistMatrix::from_blocked(&m, PartitionScheme::Hash, 4);
        d.validate().unwrap();
        let total: usize = (0..4).map(|w| d.worker_blocks(w).len()).sum();
        assert_eq!(total, 16);
        assert_eq!(d.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn drop_workers_loses_tiles_and_fails_validation() {
        let m = sample(8, 8, 2); // 4x4 grid
        let mut d = DistMatrix::from_blocked(&m, PartitionScheme::Row, 4);
        let before: usize = (0..4).map(|w| d.worker_blocks(w).len()).sum();
        let lost = d.drop_workers(&[1]);
        assert!(lost > 0);
        assert!(d.worker_blocks(1).is_empty());
        let after: usize = (0..4).map(|w| d.worker_blocks(w).len()).sum();
        assert_eq!(before - after, 4, "one block-row of tiles gone");
        assert!(d.validate().is_err(), "incomplete matrix must not validate");
        // out-of-range and empty drops are no-ops
        assert_eq!(d.drop_workers(&[1]), 0);
        assert_eq!(d.drop_workers(&[99]), 0);
    }

    #[test]
    fn nnz_counts_logical_copy_once() {
        let m = BlockedMatrix::from_triplets(4, 4, 2, vec![(0, 0, 1.0), (3, 3, 2.0)]).unwrap();
        let d = DistMatrix::from_blocked(&m, PartitionScheme::Broadcast, 3);
        assert_eq!(d.nnz(), 2);
    }
}
