//! Two-dimensional (block-cyclic) partitioning and SUMMA multiplication —
//! the paper's explicit future work (§3.1: "The two-dimensional
//! partitioning methods, such as chunk-based and block-cyclic, have their
//! own merits … which will be investigated in future work"; §7: "
//! Two-dimensional partitioning method produces a more balance partition
//! while one-dimensional partitioning can reduce the number of
//! aggregation\[s\]").
//!
//! This module implements that extension so the trade-off can be measured:
//!
//! * [`ProcessGrid`] — a `pr × pc` process grid; block `(bi, bj)` lives on
//!   worker `(bi mod pr, bj mod pc)` (ScaLAPACK's block-cyclic layout).
//! * [`Dist2d`] — a matrix distributed block-cyclically, with metered
//!   conversion to/from the 1-D [`DistMatrix`] placements.
//! * [`summa`] — SUMMA matrix multiplication: for each panel `k`, the
//!   `A(·,k)` blocks broadcast along process rows and the `B(k,·)` blocks
//!   along process columns, then every worker multiplies locally. The
//!   panel traffic is metered exactly; the output needs **no** aggregation
//!   step (each worker owns its result tiles outright) — balanced
//!   partitions at the price of `√P`-factor panel replication.

// Worker loops index several parallel per-worker structures by id; an
// iterator would obscure the symmetry.
#![allow(clippy::needless_range_loop)]
use std::collections::HashMap;
use std::sync::Arc;

use dmac_matrix::{Block, BlockedMatrix};

use crate::cluster::{grid_cells, into_stores, Cluster};
use crate::comm::CommKind;
use crate::dist::{DistMatrix, GridMeta};
use crate::error::{ClusterError, Result};
use crate::kernels::MulStage;
use crate::partition::PartitionScheme;

/// A rectangular process grid over the cluster's workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessGrid {
    /// Grid height (process rows).
    pub pr: usize,
    /// Grid width (process columns).
    pub pc: usize,
}

impl ProcessGrid {
    /// The squarest grid covering `workers` workers (`pr·pc == workers`).
    pub fn squarest(workers: usize) -> ProcessGrid {
        let mut pr = (workers as f64).sqrt() as usize;
        while pr > 1 && !workers.is_multiple_of(pr) {
            pr -= 1;
        }
        ProcessGrid {
            pr: pr.max(1),
            pc: workers / pr.max(1),
        }
    }

    /// Total workers in the grid.
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Owner of block `(bi, bj)` under block-cyclic layout.
    pub fn owner(&self, bi: usize, bj: usize) -> usize {
        (bi % self.pr) * self.pc + (bj % self.pc)
    }

    /// Workers in the same process row as `w`.
    pub fn row_peers(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        let row = w / self.pc;
        (0..self.pc).map(move |c| row * self.pc + c)
    }

    /// Workers in the same process column as `w`.
    pub fn col_peers(&self, w: usize) -> impl Iterator<Item = usize> + '_ {
        let col = w % self.pc;
        (0..self.pr).map(move |r| r * self.pc + col)
    }
}

/// A matrix distributed over a process grid in block-cyclic layout.
#[derive(Debug, Clone)]
pub struct Dist2d {
    meta: GridMeta,
    grid: ProcessGrid,
    stores: Vec<HashMap<(usize, usize), Arc<Block>>>,
}

impl Dist2d {
    /// Distribute a local matrix block-cyclically (initial load; unmetered
    /// like [`Cluster::load`]).
    pub fn from_blocked(m: &BlockedMatrix, grid: ProcessGrid) -> Dist2d {
        let meta = GridMeta::new(m.rows(), m.cols(), m.block_size());
        let mut stores = vec![HashMap::new(); grid.size()];
        for (bi, bj, tile) in m.iter_blocks() {
            stores[grid.owner(bi, bj)].insert((bi, bj), Arc::clone(tile));
        }
        Dist2d { meta, grid, stores }
    }

    /// Every tile, whichever worker holds it.
    fn tiles(&self) -> impl Iterator<Item = ((usize, usize), &Block)> + Clone {
        self.stores.iter().flatten().map(|(&k, t)| (k, &**t))
    }

    /// Re-distribute a 1-D placed matrix into block-cyclic layout, metering
    /// every tile that changes workers (what SciDB pays before calling
    /// ScaLAPACK, §6.6).
    pub fn from_dist(cluster: &mut Cluster, m: &DistMatrix, grid: ProcessGrid) -> Result<Dist2d> {
        if grid.size() != m.workers() {
            return Err(ClusterError::WorkerCountMismatch(grid.size(), m.workers()));
        }
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> =
            vec![HashMap::new(); grid.size()];
        let mut moved = 0u64;
        for w in 0..m.workers() {
            for (&(bi, bj), tile) in m.worker_blocks(w) {
                let dest = grid.owner(bi, bj);
                if dest != w {
                    moved += tile.actual_bytes() as u64;
                }
                stores[dest]
                    .entry((bi, bj))
                    .or_insert_with(|| Arc::clone(tile));
            }
        }
        cluster.charge_comm(CommKind::Shuffle, "to-block-cyclic", moved);
        let blocks: usize = stores.iter().map(HashMap::len).sum();
        cluster.record_span("to-block-cyclic", "2d", moved, moved, blocks);
        Ok(Dist2d {
            meta: *m.meta(),
            grid,
            stores,
        })
    }

    /// Convert back to a 1-D scheme, metering movement.
    pub fn to_dist(&self, cluster: &mut Cluster, scheme: PartitionScheme) -> Result<DistMatrix> {
        if !scheme.is_rc() {
            return Err(ClusterError::SchemeMismatch {
                expected: PartitionScheme::Row,
                actual: scheme,
                op: "from-block-cyclic",
            });
        }
        let n = self.grid.size();
        let mut stores: Vec<HashMap<(usize, usize), Arc<Block>>> = vec![HashMap::new(); n];
        let mut moved = 0u64;
        for (w, store) in self.stores.iter().enumerate() {
            for (&(bi, bj), tile) in store {
                let dest = scheme.owner(bi, bj, n).expect("rc scheme");
                if dest != w {
                    moved += tile.actual_bytes() as u64;
                }
                stores[dest].insert((bi, bj), Arc::clone(tile));
            }
        }
        cluster.charge_comm(CommKind::Shuffle, "from-block-cyclic", moved);
        let blocks: usize = stores.iter().map(HashMap::len).sum();
        cluster.record_span("from-block-cyclic", "2d", moved, moved, blocks);
        Ok(DistMatrix::from_parts(self.meta, scheme, stores))
    }

    /// The process grid.
    pub fn grid(&self) -> ProcessGrid {
        self.grid
    }

    /// Grid geometry.
    pub fn meta(&self) -> &GridMeta {
        &self.meta
    }

    /// Tiles on one worker.
    pub fn worker_blocks(&self, w: usize) -> &HashMap<(usize, usize), Arc<Block>> {
        &self.stores[w]
    }

    /// Gather to a local matrix (driver collect).
    pub fn to_blocked(&self) -> Result<BlockedMatrix> {
        let mut gridv: Vec<Option<Arc<Block>>> =
            vec![None; self.meta.row_blocks * self.meta.col_blocks];
        for store in &self.stores {
            for (&(bi, bj), tile) in store {
                gridv[bi * self.meta.col_blocks + bj] = Some(Arc::clone(tile));
            }
        }
        let blocks = gridv
            .into_iter()
            .map(|b| {
                b.ok_or_else(|| {
                    ClusterError::Matrix(dmac_matrix::MatrixError::MalformedSparse(
                        "missing block in 2d layout".into(),
                    ))
                })
            })
            .collect::<Result<Vec<_>>>()?;
        BlockedMatrix::from_blocks(self.meta.rows, self.meta.cols, self.meta.block, blocks)
            .map_err(ClusterError::from)
    }

    /// Imbalance: max over workers of held tiles divided by the mean. The
    /// paper's motivation for 2-D layouts is that this stays ≈ 1 even for
    /// skewed shapes where 1-D row/column placement concentrates load.
    pub fn imbalance(&self) -> f64 {
        let counts: Vec<usize> = self.stores.iter().map(|s| s.len()).collect();
        let max = *counts.iter().max().unwrap_or(&0) as f64;
        let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Per-tile imbalance of a 1-D placement (for the comparison bench).
pub fn dist_imbalance(m: &DistMatrix) -> f64 {
    let counts: Vec<usize> = (0..m.workers()).map(|w| m.worker_blocks(w).len()).collect();
    let max = *counts.iter().max().unwrap_or(&0) as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

/// SUMMA multiplication of two block-cyclic matrices.
///
/// For every shared-dimension panel `k`: the owners of `A(·, k)` broadcast
/// their tiles along their process rows, the owners of `B(k, ·)` along
/// their process columns (metered), and every worker folds the panel
/// product into the result tiles it owns. No output aggregation follows —
/// the trade-off against CPMM (§7 of the paper).
pub fn summa(cluster: &mut Cluster, a: &Dist2d, b: &Dist2d) -> Result<Dist2d> {
    if a.grid != b.grid {
        return Err(ClusterError::WorkerCountMismatch(
            a.grid.size(),
            b.grid.size(),
        ));
    }
    // The stage loop below runs once per cluster worker.
    if a.grid.size() != cluster.workers() {
        return Err(ClusterError::WorkerCountMismatch(
            a.grid.size(),
            cluster.workers(),
        ));
    }
    if a.meta.cols != b.meta.rows || a.meta.block != b.meta.block {
        return Err(ClusterError::Matrix(
            dmac_matrix::MatrixError::DimensionMismatch {
                op: "summa",
                left: (a.meta.rows, a.meta.cols),
                right: (b.meta.rows, b.meta.cols),
            },
        ));
    }
    let grid = a.grid;
    let out_meta = GridMeta::new(a.meta.rows, b.meta.cols, a.meta.block);
    let kb = a.meta.col_blocks;

    // Metered panel traffic: every A tile is needed by the pc-1 other
    // workers of its process row; every B tile by the pr-1 others of its
    // process column (skipping all-zero tiles, as a real implementation
    // with sparse panels would).
    let mut panel_bytes = 0u64;
    for store in &a.stores {
        for tile in store.values() {
            if tile.nnz() > 0 {
                panel_bytes += tile.actual_bytes() as u64 * (grid.pc as u64 - 1);
            }
        }
    }
    for store in &b.stores {
        for tile in store.values() {
            if tile.nnz() > 0 {
                panel_bytes += tile.actual_bytes() as u64 * (grid.pr as u64 - 1);
            }
        }
    }
    cluster.charge_comm(CommKind::Broadcast, "summa-panels", panel_bytes);
    cluster.record_span("summa-panels", "2d", panel_bytes, panel_bytes, 0);

    // Local compute: each worker builds the result tiles it owns; tiles of
    // A and B are read from their owners' stores (the panel broadcast
    // above already paid for the movement).
    for w in 0..grid.size() {
        cluster.check_worker(w)?;
    }
    // Every worker reads the panels off their owners: one stage over all
    // of `a` and `b`, shared by the workers' tasks.
    let panels = MulStage::new(a.tiles(), b.tiles(), kb)?;
    let tiles = cluster.run_stage(
        |w| {
            let owned = grid_cells(&out_meta)
                .filter(|&(bi, bj)| grid.owner(bi, bj) == w)
                .collect();
            Ok((&panels, owned))
        },
        |pool, panels, (bi, bj)| {
            let shape = (out_meta.block_rows_of(bi), out_meta.block_cols_of(bj));
            Ok(((bi, bj), Arc::new(panels.product(pool, shape, (bi, bj))?)))
        },
    )?;
    let stores = into_stores(tiles);
    Ok(Dist2d {
        meta: out_meta,
        grid,
        stores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::comm::NetworkModel;

    fn cluster(workers: usize) -> Cluster {
        Cluster::new(ClusterConfig {
            workers,
            local_threads: 2,
            network: NetworkModel::default(),
        })
    }

    fn sample(rows: usize, cols: usize) -> BlockedMatrix {
        BlockedMatrix::from_fn(rows, cols, 4, |i, j| ((i * cols + j) % 7) as f64 - 3.0).unwrap()
    }

    #[test]
    fn squarest_grid_factorisations() {
        assert_eq!(ProcessGrid::squarest(4), ProcessGrid { pr: 2, pc: 2 });
        assert_eq!(ProcessGrid::squarest(6), ProcessGrid { pr: 2, pc: 3 });
        assert_eq!(ProcessGrid::squarest(7), ProcessGrid { pr: 1, pc: 7 });
        assert_eq!(ProcessGrid::squarest(16), ProcessGrid { pr: 4, pc: 4 });
        assert_eq!(ProcessGrid::squarest(1).size(), 1);
    }

    #[test]
    fn grid_peers() {
        let g = ProcessGrid { pr: 2, pc: 3 };
        assert_eq!(g.owner(0, 0), 0);
        assert_eq!(g.owner(1, 2), 5);
        assert_eq!(g.owner(2, 3), 0, "cyclic wraps");
        let row: Vec<usize> = g.row_peers(4).collect();
        assert_eq!(row, vec![3, 4, 5]);
        let col: Vec<usize> = g.col_peers(4).collect();
        assert_eq!(col, vec![1, 4]);
    }

    #[test]
    fn block_cyclic_round_trip() {
        let m = sample(20, 12);
        let d = Dist2d::from_blocked(&m, ProcessGrid::squarest(4));
        assert_eq!(d.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn redistribution_is_metered() {
        let mut cl = cluster(4);
        let m = sample(16, 16);
        let row = cl.load(&m, PartitionScheme::Row);
        let before = cl.comm().total_bytes();
        let d2 = Dist2d::from_dist(&mut cl, &row, ProcessGrid::squarest(4)).unwrap();
        assert!(
            cl.comm().total_bytes() > before,
            "conversion must be metered"
        );
        let back = d2.to_dist(&mut cl, PartitionScheme::Col).unwrap();
        back.validate().unwrap();
        assert_eq!(back.to_blocked().unwrap().to_dense(), m.to_dense());
    }

    #[test]
    fn summa_matches_reference() {
        let mut cl = cluster(4);
        let a = sample(18, 10);
        let b = sample(10, 14);
        let da = Dist2d::from_blocked(&a, ProcessGrid::squarest(4));
        let db = Dist2d::from_blocked(&b, ProcessGrid::squarest(4));
        let c = summa(&mut cl, &da, &db).unwrap();
        assert_eq!(
            c.to_blocked().unwrap().to_dense(),
            a.matmul_reference(&b).unwrap().to_dense()
        );
        assert!(cl.comm().broadcast_bytes() > 0, "panel traffic is metered");
    }

    #[test]
    fn summa_requires_matching_grids_and_shapes() {
        let mut cl = cluster(4);
        let a = Dist2d::from_blocked(&sample(8, 8), ProcessGrid { pr: 2, pc: 2 });
        let b = Dist2d::from_blocked(&sample(8, 8), ProcessGrid { pr: 1, pc: 4 });
        assert!(summa(&mut cl, &a, &b).is_err());
        let c = Dist2d::from_blocked(&sample(6, 8), ProcessGrid { pr: 2, pc: 2 });
        assert!(summa(&mut cl, &a, &c).is_err());
    }

    #[test]
    fn two_d_layout_balances_tall_matrices() {
        // A tall-skinny matrix: Column placement puts everything on a few
        // workers; block-cyclic stays balanced.
        let m = sample(64, 4); // 16x1 grid of 4-blocks
        let one_d = DistMatrix::from_blocked(&m, PartitionScheme::Col, 4);
        // The process grid is configurable per matrix shape; a 4x1 grid
        // fits the tall-skinny block grid.
        let two_d = Dist2d::from_blocked(&m, ProcessGrid { pr: 4, pc: 1 });
        assert!(
            dist_imbalance(&one_d) >= 3.9,
            "1-D column placement collapses"
        );
        assert!(two_d.imbalance() <= 1.1, "2-D stays balanced");
    }

    #[test]
    fn failed_worker_blocks_summa() {
        let mut cl = cluster(4);
        let a = Dist2d::from_blocked(&sample(8, 8), ProcessGrid::squarest(4));
        cl.fail_worker(3);
        assert!(matches!(
            summa(&mut cl, &a, &a),
            Err(ClusterError::WorkerLost(3))
        ));
    }
}
